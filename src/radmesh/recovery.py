"""Sliver-robust circle recovery from a perturbed point set.

Circumcircles of the Delaunay triangles of the input points are clustered
by single linkage (all pairs within the tolerance, grouped by
``geom.components``); each cluster yields one circle with an area-weighted
center and a least-squares radius over the union of the member triangles'
vertices.  Near-degenerate triangles (tiny area or ill-conditioned
circumcenter) are excluded before clustering, so they contribute nothing.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import Delaunay, QhullError

from . import geom
from .errors import AllCollinear, TooFewPoints
from .geom import Ball, Point2


def _single_linkage(points: list[Point2], eps: float) -> list[list[int]]:
    """Connected components of the graph joining points closer than eps."""
    pairs = []
    for i in range(len(points)):
        xi, yi = points[i]
        for j in range(i + 1, len(points)):
            if math.hypot(points[j][0] - xi, points[j][1] - yi) <= eps:
                pairs.append((i, j))
    i, j = np.array(pairs, dtype=int).reshape(-1, 2).T
    labels = geom.components(len(points), i, j)
    members = np.argsort(labels, kind="stable").tolist()
    ends = np.cumsum(np.bincount(labels)).tolist()
    return [members[a:b] for a, b in zip([0] + ends, ends)]


def _check_eps(name: str, eps: float) -> None:
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {eps!r}")


def vertex_cluster_merge(points: list[Point2], vertex_eps: float) -> list[Point2]:
    """Glue clusters of nearly coincident points into their centroids."""
    _check_eps("vertex_eps", vertex_eps)
    merged = []
    for group in _single_linkage(points, vertex_eps):
        merged.append(
            (
                sum(points[i][0] for i in group) / len(group),
                sum(points[i][1] for i in group) / len(group),
            )
        )
    return merged


def recover_spheres(points: list[Point2], cluster_eps: float | None = None) -> list[Ball]:
    """Recover approximate Delaunay circles of a perturbed point set."""
    if cluster_eps is not None:
        _check_eps("cluster_eps", cluster_eps)
    if len(points) < 3:
        raise TooFewPoints(f"need >= 3 points, got {len(points)}")
    diag = geom.bbox_diag(points)
    if cluster_eps is None:
        cluster_eps = 1e-6 * diag
    pts = np.asarray(points, dtype=float)
    try:
        tri = Delaunay(pts, qhull_options="Qbb Qc Qz")
    except QhullError as e:
        raise AllCollinear("input points are (nearly) collinear") from e
    if len(tri.simplices) == 0:
        raise AllCollinear("input points are (nearly) collinear")

    centers: list[Point2] = []
    areas: list[float] = []
    members: list[tuple[int, int, int]] = []
    for s in tri.simplices:
        p1, p2, p3 = (tuple(pts[k]) for k in s)
        area = abs(geom.triangle_area(p1, p2, p3))
        if area < 1e-12 * diag * diag:
            continue
        # shape guard: area relative to the squared longest edge bounds the
        # circumcenter's conditioning, so near-collinear slivers (whose
        # circumcenters fly off to infinity) are rejected here, and the
        # survivors pass circumcenter's far weaker conditioning guard
        lmax2 = max(
            (p1[0] - p2[0]) ** 2 + (p1[1] - p2[1]) ** 2,
            (p2[0] - p3[0]) ** 2 + (p2[1] - p3[1]) ** 2,
            (p3[0] - p1[0]) ** 2 + (p3[1] - p1[1]) ** 2,
        )
        if area < 1e-7 * lmax2:
            continue
        centers.append(geom.circumcenter(p1, p2, p3))
        areas.append(area)
        members.append(tuple(int(k) for k in s))
    if not centers:
        raise AllCollinear("no stable triangle survived filtering")

    balls = []
    for group in _single_linkage(centers, cluster_eps):
        wsum = sum(areas[i] for i in group)
        cx = sum(centers[i][0] * areas[i] for i in group) / wsum
        cy = sum(centers[i][1] * areas[i] for i in group) / wsum
        verts = sorted({k for i in group for k in members[i]})
        r = math.sqrt(
            sum((pts[k][0] - cx) ** 2 + (pts[k][1] - cy) ** 2 for k in verts)
            / len(verts)
        )
        # cx and cy are numpy scalars; the scalar predicates read Python floats faster
        balls.append(Ball((float(cx), float(cy)), r))
    balls.sort(key=lambda b: (b.center[0], b.center[1]))
    return balls
