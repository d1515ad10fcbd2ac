"""Geometric kernel: balls, lifting, and exact-decision predicates.

Decisions (orient2d, power_test) use a floating-point filter with a
conservative error bound and fall back to exact rational arithmetic, so the
returned sign is always correct for representable inputs.  Constructions
(orthocenter, circumcenter) are plain double precision with a conditioning
guard on the 2x2 system determinant; ``circumcenters`` evaluates
circumcenter's expressions on arrays, bit for bit.  ``orthocenters`` is
the one orthocenter kernel: the regular triangulation runs it on all its
triangles, ``orthocenter`` on one.  ``bbox_diag`` is the one scale measure,
and ``components`` the one connected-components (union-find) helper.

All functions here are pure; they can be called from any thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    detleft = (b[0] - a[0]) * (c[1] - a[1])
    detright = (b[1] - a[1]) * (c[0] - a[0])
    det = detleft - detright
    errbound = _ORIENT_BOUND * (abs(detleft) + abs(detright))
    if abs(det) > errbound:
        return 1 if det > 0 else -1
    return _orient2d_exact(a, b, c)


def _exact_ints(values):
    """Exact integer images of floats under a common power-of-two scaling.

    Floats are dyadic rationals, so this is lossless; the determinants below
    are homogeneous, so uniform scaling preserves their signs.
    """
    pairs = [v.as_integer_ratio() for v in values]
    shift = max(d.bit_length() - 1 for _, d in pairs)
    return [n << (shift - d.bit_length() + 1) for n, d in pairs]


def _orient2d_exact(a: Point2, b: Point2, c: Point2) -> int:
    ax, ay, bx, by, cx, cy = _exact_ints([a[0], a[1], b[0], b[1], c[0], c[1]])
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (det > 0) - (det < 0)


def _power_det_terms(b1: Ball, b2: Ball, b3: Ball, b4: Ball):
    """Rows of the weighted in-circle determinant relative to b4."""
    rows = []
    r4sq = b4.radius * b4.radius
    for b in (b1, b2, b3):
        ax = b.center[0] - b4.center[0]
        ay = b.center[1] - b4.center[1]
        z = ax * ax + ay * ay - b.radius * b.radius + r4sq
        zmag = ax * ax + ay * ay + b.radius * b.radius + r4sq
        rows.append((ax, ay, z, zmag))
    return rows


def power_test(b1: Ball, b2: Ball, b3: Ball, b4: Ball) -> int:
    """Regularity test of ball b4 against the triangle (b1, b2, b3).

    Returns the sign of tau_4(v) - tau_1(v) at the orthocenter v of the
    first three balls: +1 when b4 does not violate regularity of the
    triangle, -1 when it does, 0 for an exact tie.  Exact decision,
    implemented as the 3D orientation of the four lifted points.
    """
    orient = orient2d(b1.center, b2.center, b3.center)
    if orient == 0:
        raise CollinearCenters("power_test requires non-collinear centers")
    (a1, b1y, z1, m1), (a2, b2y, z2, m2), (a3, b3y, z3, m3) = _power_det_terms(
        b1, b2, b3, b4
    )
    c12 = a1 * b2y - a2 * b1y
    c23 = a2 * b3y - a3 * b2y
    c31 = a3 * b1y - a1 * b3y
    det = z1 * c23 + z2 * c31 + z3 * c12
    mag = (
        m1 * (abs(a2 * b3y) + abs(a3 * b2y))
        + m2 * (abs(a3 * b1y) + abs(a1 * b3y))
        + m3 * (abs(a1 * b2y) + abs(a2 * b1y))
    )
    errbound = _POWER_BOUND * mag
    if abs(det) > errbound:
        sign = 1 if det > 0 else -1
    else:
        sign = _power_test_exact(b1, b2, b3, b4)
    # det > 0 <=> b4 lifted below the face plane (in-circle for equal radii)
    return -sign * orient


def _power_test_exact(b1: Ball, b2: Ball, b3: Ball, b4: Ball) -> int:
    vals = []
    for b in (b1, b2, b3, b4):
        vals += [b.center[0], b.center[1], b.radius]
    x1, y1, r1, x2, y2, r2, x3, y3, r3, x4, y4, r4 = _exact_ints(vals)
    r4sq = r4 * r4
    rows = []
    for x, y, r in ((x1, y1, r1), (x2, y2, r2), (x3, y3, r3)):
        ax = x - x4
        ay = y - y4
        rows.append((ax, ay, ax * ax + ay * ay - r * r + r4sq))
    (a1, b1y, z1), (a2, b2y, z2), (a3, b3y, z3) = rows
    det = z1 * (a2 * b3y - a3 * b2y) + z2 * (a3 * b1y - a1 * b3y) + z3 * (a1 * b2y - a2 * b1y)
    return (det > 0) - (det < 0)


def lifted_heights(centers, radii):
    """Heights (|c|^2 - R^2) / 2 of an (N, 2) center and (N,) radius array."""
    return 0.5 * (centers[:, 0] ** 2 + centers[:, 1] ** 2 - radii**2)


def orthocenters(centers, radii, tris):
    """Orthocenters and their power values for many triangles at once.

    ``centers`` is an (N, 2) and ``radii`` an (N,) array; ``tris`` holds
    index triples into them.  Each triangle solves v . (c_i - c_1) =
    h_i - h_1 for i = 2, 3, with h the lifted heights; tau is the mean
    power of v to the three balls.  Returns the arrays (vx, vy, tau).
    No conditioning guard: ``orthocenter`` adds one for a single triangle.
    """
    idx = np.array(tris, dtype=int)
    c, r = centers, radii
    h = lifted_heights(c, r)
    c1, c2, c3 = c[idx[:, 0]], c[idx[:, 1]], c[idx[:, 2]]
    h1, h2, h3 = h[idx[:, 0]], h[idx[:, 1]], h[idx[:, 2]]
    a11 = c2[:, 0] - c1[:, 0]
    a12 = c2[:, 1] - c1[:, 1]
    a21 = c3[:, 0] - c1[:, 0]
    a22 = c3[:, 1] - c1[:, 1]
    det = a11 * a22 - a12 * a21
    rhs1 = h2 - h1
    rhs2 = h3 - h1
    vx = (rhs1 * a22 - rhs2 * a12) / det
    vy = (a11 * rhs2 - a21 * rhs1) / det
    tau = np.zeros(len(idx))
    for col in range(3):
        ci = c[idx[:, col]]
        ri = r[idx[:, col]]
        tau += (ci[:, 0] - vx) ** 2 + (ci[:, 1] - vy) ** 2 - ri**2
    tau /= 3.0
    return vx, vy, tau


def orthocenter(b1: Ball, b2: Ball, b3: Ball) -> tuple[Point2, float]:
    """Point with equal power to three balls, and that common power value.

    The one-triangle call of ``orthocenters``.  For equal radii this is the
    circumcenter of the three centers.
    """
    c1, c2, c3 = b1.center, b2.center, b3.center
    a11, a12 = c2[0] - c1[0], c2[1] - c1[1]
    a21, a22 = c3[0] - c1[0], c3[1] - c1[1]
    scale_sq = max(a11 * a11 + a12 * a12, a21 * a21 + a22 * a22)
    if abs(a11 * a22 - a12 * a21) <= CONDITIONING_GUARD * scale_sq:
        raise CollinearCenters("orthocenter: centers are (nearly) collinear")
    centers = np.array([c1, c2, c3], dtype=float)
    radii = np.array([b1.radius, b2.radius, b3.radius], dtype=float)
    vx, vy, tau = orthocenters(centers, radii, [(0, 1, 2)])
    return (float(vx[0]), float(vy[0])), float(tau[0])


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


def polygon_area(vertices) -> float:
    """Signed shoelace area of a polygon given as a vertex sequence."""
    area = 0.0
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        area += x1 * y2 - x2 * y1
    return 0.5 * area


def bbox_diag(points) -> float:
    """Bounding-box diagonal of a point sequence; 1.0 when the box is a point or empty."""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    if not xs:
        return 1.0
    d = math.hypot(max(xs) - min(xs), max(ys) - min(ys))
    return d if d > 0 else 1.0


def components(n: int, i, j):
    """Connected components of the graph on nodes ``0..n-1`` with edges ``(i[k], j[k])``.

    Returns ``(labels, groups)``: ``labels`` is the (n,) array of component
    numbers and ``groups[l]`` lists the nodes of component ``l`` ascending.
    Components are numbered in the order of their smallest node.  Each
    round hooks the larger root of every edge under the smaller one, then
    points every node at its root (Shiloach and Vishkin 1982), so a root
    is always the smallest node of its tree.
    """
    root = np.arange(n)
    while not np.array_equal(root[i], root[j]):
        ri, rj = root[i], root[j]
        np.minimum.at(root, np.maximum(ri, rj), np.minimum(ri, rj))
        while not np.array_equal(root[root], root):
            root = root[root]
    labels = np.unique(root, return_inverse=True)[1]
    members = np.argsort(labels, kind="stable").tolist()
    ends = np.cumsum(np.bincount(labels)).tolist()
    return labels, [members[a:b] for a, b in zip([0] + ends, ends)]
