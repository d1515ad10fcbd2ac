"""Sliver-robust circle recovery from a perturbed point set.

All Delaunay triangles of the input points are filtered at once: tiny ones,
and slivers too flat for a well-conditioned circumcenter, are excluded.
The survivors' circumcenters (one ``geom.circumcenters`` call) are
clustered by single linkage into the ``geom.components`` labels of the
center pairs within the tolerance, and ``geom``'s group fit reduces each
cluster to one circle: the area-weighted center (``group_means``), and the
root mean square distance to the member triangles' vertices
(``rms_distances``).  ``vertex_cluster_merge`` glues points by the same
single linkage into their ``group_means`` centroids.  The pair test stays
O(n^2) until the benchmark keeps one fingerprint per run.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import Delaunay, QhullError

from . import geom
from .errors import AllCollinear, TooFewPoints
from .geom import Ball, Point2


def _single_linkage(points: list[Point2], eps: float) -> np.ndarray:
    """Component labels of the graph joining points closer than eps.

    The pair test reads pairs of Python floats faster than numpy scalars.
    """
    pairs = []
    for i in range(len(points)):
        xi, yi = points[i]
        for j in range(i + 1, len(points)):
            if math.hypot(points[j][0] - xi, points[j][1] - yi) <= eps:
                pairs.append((i, j))
    i, j = np.array(pairs, dtype=int).reshape(-1, 2).T
    return geom.components(len(points), i, j)


def _check_eps(name: str, eps: float) -> None:
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {eps!r}")


def vertex_cluster_merge(points: list[Point2], vertex_eps: float) -> list[Point2]:
    """Glue clusters of nearly coincident points into their centroids."""
    _check_eps("vertex_eps", vertex_eps)
    labels = _single_linkage(points, vertex_eps)
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    return list(map(tuple, geom.group_means(labels, np.ones(len(pts)), pts).tolist()))


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

    corners = pts[tri.simplices]  # (T, 3, 2)
    area = np.abs(geom.triangle_area(*corners.transpose(1, 2, 0)))
    edge = corners - corners[:, [1, 2, 0]]
    lmax2 = (edge[..., 0] * edge[..., 0] + edge[..., 1] * edge[..., 1]).max(axis=1)
    # shape guard: area relative to the squared longest edge bounds the
    # circumcenter's conditioning, so near-collinear slivers (whose
    # circumcenters fly off to infinity) are rejected here.  It implies
    # circumcenters' guard, |det| = 2 area >= 2e-7 lmax2 > 1e-14 scale^2,
    # so every survivor's center is valid
    keep = (area >= 1e-12 * diag * diag) & (area >= 1e-7 * lmax2)
    if not keep.any():
        raise AllCollinear("no stable triangle survived filtering")
    kept, area = corners[keep], area[keep]
    centers, _ = geom.circumcenters(kept[:, 0], kept[:, 1], kept[:, 2])

    labels = _single_linkage(centers.tolist(), cluster_eps)
    c = geom.group_means(labels, area, centers)
    # each (cluster, vertex) pair once, clusters ascending and each cluster's
    # vertices ascending, so every radius sums its squares in vertex order
    cluster, vertex = np.divmod(np.unique(labels[:, None] * len(pts) + tri.simplices[keep]), len(pts))
    r = geom.rms_distances(cluster, pts[vertex], c)
    order = np.lexsort((c[:, 1], c[:, 0]))
    return [Ball(tuple(xy), rad) for xy, rad in zip(c[order].tolist(), r[order].tolist())]
