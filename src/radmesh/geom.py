"""Geometric kernel: balls, lifting, and exact-decision predicates.

Decisions (orient2d, power_test) use a floating-point filter with a
conservative error bound and fall back to exact integer arithmetic on the
floats' ``math.frexp`` significands, so the returned sign is always
correct for representable inputs; ``orient_signs`` and ``power_signs``
take many at once, on index arrays into rows.
Constructions are plain double precision.  ``circumcenter`` guards the
conditioning of its 2x2 system determinant, and ``circumcenters``
evaluates its expressions on arrays, bit for bit.  ``orthocenters`` is the
one orthocenter kernel, run on all triangles of a table at once, without a
guard (the tests keep a one-triangle form with one as a reference).
``bbox_diag`` is the one scale measure, and ``components`` the one
connected-components (union-find) helper.  ``group_means`` and
``rms_distances`` are the one group fit (a weighted mean, an RMS radius);
``np.bincount`` adds each group sequentially, in row order, so a Python
loop over the rows gives the same bits.

The batched kernels gather each coordinate on its own: one contiguous 1-D
gather per coordinate and index array (``x[i]``, ``y[i]``, ``r[i]``), not
an ``(n, 2)`` or ``(n, 3)`` row gather whose columns are then read strided.

``ball_arrays`` converts a ``Ball`` list, the API form of a ball set, to
the ``[cx, cy, R]`` rows and masks the package works on.

All functions here are pure; they can be called from any thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CollinearCenters, CollinearPoints

Point2 = tuple[float, float]

# Relative determinant threshold below which a 2x2 construction system is
# treated as singular (scaled by the square of the coordinate spread).
CONDITIONING_GUARD = 1e-14

_EPS = math.ulp(1.0) / 2  # unit roundoff, 2^-53
# Filter constants: safe overestimates of the relative rounding error of the
# straightforward determinant evaluations below.
_ORIENT_BOUND = 8 * _EPS
_POWER_BOUND = 64 * _EPS
_SIGNIFICAND = 2.0**53  # frexp's fraction times this is the integer significand


@dataclass
class Ball:
    """A circle with optimization constraint flags."""

    center: Point2
    radius: float
    fix_center: bool = False
    fix_radius: bool = False
    alive: bool = True

    def __post_init__(self):
        x, y = self.center
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(self.radius)):
            raise ValueError("ball must have finite center and radius")
        if self.radius < 0:
            raise ValueError("ball radius must be >= 0")

    @property
    def fully_fixed(self) -> bool:
        return self.fix_center and self.fix_radius


def power(b: Ball, a: Point2) -> float:
    """Power of point ``a`` with respect to ``b``: |c - a|^2 - R^2."""
    dx = b.center[0] - a[0]
    dy = b.center[1] - a[1]
    return dx * dx + dy * dy - b.radius * b.radius


def paraboloid(p: Point2) -> float:
    """Height of the lifting paraboloid at ``p``: (x^2 + y^2) / 2."""
    return 0.5 * (p[0] * p[0] + p[1] * p[1])


def orient2d(a: Point2, b: Point2, c: Point2) -> int:
    """Sign of twice the signed area of triangle (a, b, c).

    +1 for counterclockwise, -1 for clockwise, 0 for collinear.  Exact.
    """
    det, errbound = orient2d_filter(a, b, c)
    if abs(det) > errbound:
        return 1 if det > 0 else -1
    return _orient2d_exact(a, b, c)


def orient2d_filter(a, b, c):
    """``orient2d``'s float ``(det, errbound)``: where ``abs(det) > errbound``, det's sign is exact.

    The points are pairs of floats, or of equal-shape arrays for one determinant per element.
    """
    detleft = (b[0] - a[0]) * (c[1] - a[1])
    detright = (b[1] - a[1]) * (c[0] - a[0])
    return detleft - detright, _ORIENT_BOUND * (abs(detleft) + abs(detright))


def _exact_ints(values):
    """Exact integer images of floats under a common power-of-two scaling.

    ``math.frexp`` splits each float into a 53-bit integer significand and
    an exponent; shifting each significand by its exponent above the lowest
    nonzero value's is lossless, subnormals included.  The determinants
    below are homogeneous, so uniform scaling preserves their signs.
    """
    parts = [math.frexp(v) for v in values]
    low = min((e for m, e in parts if m), default=0)
    return [int(m * _SIGNIFICAND) << (e - low) if m else 0 for m, e in parts]


def _orient2d_exact(a: Point2, b: Point2, c: Point2) -> int:
    ax, ay, bx, by, cx, cy = _exact_ints([a[0], a[1], b[0], b[1], c[0], c[1]])
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (det > 0) - (det < 0)


def power_test(p1, p2, p3, p4) -> int:
    """Regularity test of ball p4 against the triangle (p1, p2, p3), each an ``(x, y, R)`` row.

    Returns the sign of tau_4(v) - tau_1(v) at the orthocenter v of the
    first three balls: +1 when p4 does not violate regularity of the
    triangle, -1 when it does, 0 for an exact tie.  Exact decision,
    implemented as the 3D orientation of the four lifted points.
    """
    orient = orient2d(p1, p2, p3)
    if orient == 0:
        raise CollinearCenters("power_test requires non-collinear centers")
    det, errbound = power_test_filter(p1, p2, p3, p4)
    if abs(det) > errbound:
        sign = 1 if det > 0 else -1
    else:
        sign = _power_test_exact(p1, p2, p3, p4)
    # det > 0 <=> p4 lifted below the face plane (in-circle for equal radii)
    return -sign * orient


def power_test_filter(p1, p2, p3, p4):
    """``power_test``'s float ``(det, errbound)``: where ``abs(det) > errbound``, its sign is exact.

    det is the weighted in-circle determinant of balls 1-3 relative to ball 4.  Ball k is the
    ``(x, y, R)`` row ``pk``: floats, or equal-shape arrays for one determinant per element.
    """
    r4sq = p4[2] * p4[2]
    rows = []
    for p in (p1, p2, p3):
        ax, ay, r = p[0] - p4[0], p[1] - p4[1], p[2]
        rows.append((ax, ay, ax * ax + ay * ay - r * r + r4sq, ax * ax + ay * ay + r * r + r4sq))
    (a1, b1y, z1, m1), (a2, b2y, z2, m2), (a3, b3y, z3, m3) = rows
    c12 = a1 * b2y - a2 * b1y
    c23 = a2 * b3y - a3 * b2y
    c31 = a3 * b1y - a1 * b3y
    det = z1 * c23 + z2 * c31 + z3 * c12
    mag = (
        m1 * (abs(a2 * b3y) + abs(a3 * b2y))
        + m2 * (abs(a3 * b1y) + abs(a1 * b3y))
        + m3 * (abs(a1 * b2y) + abs(a2 * b1y))
    )
    return det, _POWER_BOUND * mag


def _power_test_exact(p1, p2, p3, p4) -> int:
    x1, y1, r1, x2, y2, r2, x3, y3, r3, x4, y4, r4 = _exact_ints([*p1, *p2, *p3, *p4])
    r4sq = r4 * r4
    rows = []
    for x, y, r in ((x1, y1, r1), (x2, y2, r2), (x3, y3, r3)):
        ax = x - x4
        ay = y - y4
        rows.append((ax, ay, ax * ax + ay * ay - r * r + r4sq))
    (a1, b1y, z1), (a2, b2y, z2), (a3, b3y, z3) = rows
    det = z1 * (a2 * b3y - a3 * b2y) + z2 * (a3 * b1y - a1 * b3y) + z3 * (a1 * b2y - a2 * b1y)
    return (det > 0) - (det < 0)


def orient_signs(coords, a, b, c):
    """Exact ``orient2d`` signs of the triples ``(a, b, c)`` of ``[x, y, ...]`` rows of ``coords``.

    The index arrays broadcast to one shape, the result's.
    """
    x, y = coords[:, 0], coords[:, 1]
    # gathered per coordinate, so the filter runs on contiguous arrays
    ax, ay, bx, by, cx, cy = x[a], y[a], x[b], y[b], x[c], y[c]
    det, errbound = orient2d_filter((ax, ay), (bx, by), (cx, cy))
    sign = (np.sign(det) * (np.abs(det) > errbound)).astype(int)
    # orient2d decides the rest, except a determinant whose two products each
    # have an exactly zero factor: it is 0 (a repeated point, an axis-parallel line)
    open_ = np.nonzero((sign == 0) & ~(((bx == ax) | (cy == ay)) & ((by == ay) | (cx == ax))))
    if open_[0].size:
        idx = np.stack([i[open_] for i in np.broadcast_arrays(a, b, c)], axis=-1)
        for k, rows in zip(zip(*open_), coords[idx].tolist()):
            sign[k] = orient2d(*rows)
    return sign


def power_signs(coords, a, b, c, q):
    """Exact ``power_test`` signs of strictly CCW triangles ``(a, b, c)`` against balls ``q``.

    The indices into the ``[x, y, R]`` rows ``coords`` broadcast to one shape, the result's;
    ``power_test`` decides the signs ``power_test_filter`` leaves open.
    """
    x, y, r = coords[:, 0], coords[:, 1], coords[:, 2]
    det, errbound = power_test_filter(*((x[i], y[i], r[i]) for i in (a, b, c, q)))
    # det > 0 <=> q lifted below the face plane, a violation (orient is +1)
    sign = np.where(np.abs(det) > errbound, -np.sign(det), 0.0).astype(int)
    open_ = np.nonzero(sign == 0)
    if open_[0].size:
        idx = np.stack([i[open_] for i in np.broadcast_arrays(a, b, c, q)], axis=-1)
        for k, rows in zip(zip(*open_), coords[idx].tolist()):
            sign[k] = power_test(*rows)
    return sign


class BallArrays(NamedTuple):
    """A ball set as arrays: the one form inside the triangulation, diagram and functional."""

    x: np.ndarray  # (N, 3) [cx, cy, R] rows
    free: np.ndarray  # (N, 3) per coordinate: the ball is alive and does not fix it
    alive: np.ndarray  # (N,)


def ball_arrays(balls) -> BallArrays:
    """The ``BallArrays`` of a ``Ball`` list, its floats exactly; a ``BallArrays`` is returned as is."""
    if isinstance(balls, BallArrays):
        return balls
    # one array per attribute: numpy converts lists of scalars or of existing pairs fastest
    centers = np.array([b.center for b in balls], dtype=float).reshape(-1, 2)
    x = np.column_stack([centers, [b.radius for b in balls]])
    alive = np.array([b.alive for b in balls], dtype=bool)
    fixed = np.array([[b.fix_center for b in balls], [b.fix_radius for b in balls]], dtype=bool)
    return BallArrays(x, alive[:, None] & ~fixed[[0, 0, 1]].T, alive)


def lifted_heights(centers, radii):
    """Heights (|c|^2 - R^2) / 2 of an (N, 2) center and (N,) radius array."""
    return 0.5 * (centers[:, 0] ** 2 + centers[:, 1] ** 2 - radii**2)


def orthocenters(centers, radii, tris):
    """Orthocenters and their power values for many triangles at once.

    ``centers`` is an (N, 2) and ``radii`` an (N,) array; ``tris`` holds
    index triples into them.  Each triangle solves v . (c_i - c_1) =
    h_i - h_1 for i = 2, 3, with h the lifted heights; tau is the mean
    power of v to the three balls.  Returns the arrays (vx, vy, tau).
    No conditioning guard.
    """
    x, y, h = centers[:, 0], centers[:, 1], lifted_heights(centers, radii)
    corners = np.array(tris, dtype=int).T
    (x1, x2, x3), (y1, y2, y3), (h1, h2, h3) = x[corners], y[corners], h[corners]
    a11, a12 = x2 - x1, y2 - y1
    a21, a22 = x3 - x1, y3 - y1
    det = a11 * a22 - a12 * a21
    rhs1, rhs2 = h2 - h1, h3 - h1
    vx = (rhs1 * a22 - rhs2 * a12) / det
    vy = (a11 * rhs2 - a21 * rhs1) / det
    tau = np.zeros(len(det))
    for xi, yi, ri in zip((x1, x2, x3), (y1, y2, y3), radii[corners]):
        tau += (xi - vx) ** 2 + (yi - vy) ** 2 - ri**2
    tau /= 3.0
    return vx, vy, tau


def circumcenter(p1: Point2, p2: Point2, p3: Point2) -> Point2:
    """Point equidistant from three non-collinear points."""
    a11, a12 = p2[0] - p1[0], p2[1] - p1[1]
    a21, a22 = p3[0] - p1[0], p3[1] - p1[1]
    scale_sq = max(a11 * a11 + a12 * a12, a21 * a21 + a22 * a22)
    r1 = 0.5 * (a11 * a11 + a12 * a12)
    r2 = 0.5 * (a21 * a21 + a22 * a22)
    det = a11 * a22 - a12 * a21
    if abs(det) <= CONDITIONING_GUARD * scale_sq:
        raise CollinearPoints("circumcenter: points are (nearly) collinear")
    return (p1[0] + (r1 * a22 - r2 * a12) / det, p1[1] + (a11 * r2 - a21 * r1) / det)


def circumcenters(p1, p2, p3):
    """``circumcenter`` for many triangles: ``p1``, ``p2``, ``p3`` are (N, 2) arrays.

    The expressions are circumcenter's, evaluated in the same order, so each
    row equals circumcenter's result bit for bit.  Returns the (N, 2)
    centers and an (N,) mask of the rows that pass the conditioning guard;
    the other rows, on which circumcenter raises, hold no meaningful value.
    """
    a11, a12 = p2[:, 0] - p1[:, 0], p2[:, 1] - p1[:, 1]
    a21, a22 = p3[:, 0] - p1[:, 0], p3[:, 1] - p1[:, 1]
    scale_sq = np.maximum(a11 * a11 + a12 * a12, a21 * a21 + a22 * a22)
    r1 = 0.5 * (a11 * a11 + a12 * a12)
    r2 = 0.5 * (a21 * a21 + a22 * a22)
    det = a11 * a22 - a12 * a21
    ok = np.abs(det) > CONDITIONING_GUARD * scale_sq
    det = np.where(ok, det, 1.0)
    x = p1[:, 0] + (r1 * a22 - r2 * a12) / det
    y = p1[:, 1] + (a11 * r2 - a21 * r1) / det
    return np.stack([x, y], axis=1), ok


def triangle_area(p1: Point2, p2: Point2, p3: Point2) -> float:
    """Signed area of the triangle (positive if counterclockwise).

    The coordinates may also be equal-shape arrays, one area per element.
    """
    return 0.5 * (
        (p2[0] - p1[0]) * (p3[1] - p1[1]) - (p2[1] - p1[1]) * (p3[0] - p1[0])
    )


def bbox_diag(points) -> float:
    """Bounding-box diagonal of a point sequence; 1.0 when the box is a point or empty."""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    if not xs:
        return 1.0
    d = math.hypot(max(xs) - min(xs), max(ys) - min(ys))
    return d if d > 0 else 1.0


def group_means(labels, weights, values):
    """Per dense label 0 to G - 1, the weighted mean of the (M, k) ``values`` rows, a (G, k) array.

    A group whose weights sum to zero takes the plain mean.
    """
    weights = np.where(np.bincount(labels, weights)[labels] > 0, weights, 1.0)
    sums = np.stack([np.bincount(labels, weights * v) for v in values.T], axis=-1)
    return sums / np.bincount(labels, weights)[:, None]


def rms_distances(labels, points, centers):
    """Per center g, the root mean square distance to the (M, 2) ``points`` with dense label g."""
    d = points - centers[labels]
    return np.sqrt(np.bincount(labels, d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) / np.bincount(labels))


def components(n: int, i, j):
    """Connected components of the graph on nodes ``0..n-1`` with edges ``(i[k], j[k])``.

    Returns the (n,) array of component numbers, numbered in the order of
    their smallest node.  Each round hooks the larger root of every edge
    under the smaller one, then points every node at its root (Shiloach and
    Vishkin 1982), so a root is always the smallest node of its tree, and a
    count of the roots up to it numbers each component.
    """
    root = np.arange(n)
    while not np.array_equal(root[i], root[j]):
        ri, rj = root[i], root[j]
        np.minimum.at(root, np.maximum(ri, rj), np.minimum(ri, rj))
        while not np.array_equal(root[root], root):
            root = root[root]
    return (np.cumsum(root == np.arange(n)) - 1)[root]
