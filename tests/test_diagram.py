"""Power diagram extraction, duality identities, clipping, Delaunay limit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radmesh import geom
from radmesh.diagram import (
    clip_cells,
    default_merge_eps,
    delaunay_limit_violations,
    dual_height,
    extract_diagram,
)
from radmesh.errors import CollinearPoints, RadmeshError
from radmesh.geom import Ball, power
from radmesh.triangulation import build_regular

from conftest import (
    cell_polygon,
    clip_cell_reference,
    delaunay_limit_violations_reference,
    orthocenter,
    perfbench_workloads,
    philox,
    polygon_area,
    random_balls,
    split_cells,
)


def build_both(balls, **kw):
    t = build_regular(balls)
    return t, extract_diagram(t, balls, **kw)


def test_three_balls_one_vertex_three_unbounded_cells():
    balls = [Ball((0.0, 0.0), 1.0), Ball((3.0, 0.0), 0.5), Ball((1.0, 2.0), 0.8)]
    _, d = build_both(balls)
    assert len(d.vertices) == len(d.tau) == 1
    assert d.has_cell.tolist() == [True] * 3
    assert not d.bounded.any()


def test_lattice_interior_cell_is_unit_square():
    balls = [Ball((float(i), float(j)), 1.0) for i in range(3) for j in range(3)]
    _, d = build_both(balls)
    center_idx = next(
        i for i, b in enumerate(balls) if b.center == (1.0, 1.0)
    )
    assert d.bounded[center_idx]
    pts = sorted(cell_polygon(d, center_idx))
    expect = sorted([(0.5, 0.5), (1.5, 0.5), (1.5, 1.5), (0.5, 1.5)])
    assert pts == pytest.approx(expect)


def test_cocircular_quad_merges_to_degree_four_vertex():
    balls = [Ball(p, 1.0) for p in [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]]
    t, d = build_both(balls)
    assert len(t.tris) == 2
    assert len(d.vertices) == 1
    assert d.vertices[0].tolist() == pytest.approx([0.5, 0.5])
    assert d.vertex_of.tolist() == [0, 0]


def test_dual_height_examples():
    assert dual_height((1.0, 1.0), 0.0) == 1.0
    assert dual_height((0.0, 0.0), 2.0) == -1.0
    # weighted orthocenter example: z = paraboloid(v) - tau/2 = 2.25 - 1.25
    b1 = Ball((0.0, 0.0), math.sqrt(2.0))
    b2 = Ball((2.0, 0.0), 0.0)
    b3 = Ball((0.0, 2.0), 0.0)
    v, tau = orthocenter(b1, b2, b3)
    z = dual_height(v, tau)
    assert z == pytest.approx(1.0)
    trio = (b1, b2, b3)
    heights = geom.lifted_heights(
        np.array([b.center for b in trio]), np.array([b.radius for b in trio])
    )
    for b, h in zip(trio, heights.tolist()):
        vc = v[0] * b.center[0] + v[1] * b.center[1]
        assert z == pytest.approx(vc - h)


def test_equal_power_at_dual_vertices():
    rng = philox(21)
    balls = random_balls(rng, 30)
    t, d = build_both(balls)
    positions, taus = d.vertices.tolist(), d.tau.tolist()
    for tri, v in zip(t.tris.tolist(), d.vertex_of.tolist()):
        p, tau = positions[v], taus[v]
        tol = 1e-9 * (1.0 + p[0] ** 2 + p[1] ** 2)
        for i in tri:
            assert abs(power(balls[i], p) - tau) <= tol


def test_radical_axis_property():
    rng = philox(22)
    balls = random_balls(rng, 25)
    t, d = build_both(balls)
    for tr, twins, a in zip(t.tris.tolist(), t.twin.tolist(), t.orthocenters.tolist()):
        for k, h in enumerate(twins):
            if h < 0:
                continue
            nb = h // 3
            i, j = tr[(k + 1) % 3], tr[(k + 2) % 3]
            b = t.orthocenters[nb].tolist()
            mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
            tol = 1e-9 * (1.0 + mid[0] * mid[0] + mid[1] * mid[1])
            assert abs(power(balls[i], mid) - power(balls[j], mid)) <= tol


def test_bounded_cells_convex_ccw():
    rng = philox(23)
    balls = random_balls(rng, 40)
    _, d = build_both(balls)
    saw_bounded = False
    for i in np.flatnonzero(d.bounded).tolist():
        saw_bounded = True
        pts = cell_polygon(d, i)
        m = len(pts)
        assert polygon_area(pts) > 0
        for k in range(m):
            assert (
                geom.orient2d(pts[k], pts[(k + 1) % m], pts[(k + 2) % m]) >= 0
            )
    assert saw_bounded


def test_center_containment_for_disjoint_balls():
    # for non-overlapping balls the power cell contains its own center
    balls = [
        Ball((float(i), float(j)), 0.3)
        for i in range(4)
        for j in range(4)
    ]
    _, d = build_both(balls)
    for i in np.flatnonzero(d.bounded).tolist():
        pts = cell_polygon(d, i)
        cx, cy = balls[i].center
        m = len(pts)
        for k in range(m):
            a, b = pts[k], pts[(k + 1) % m]
            assert geom.orient2d(a, b, (cx, cy)) >= 0


def test_max_abs_tau_skips_fully_fixed_cells():
    balls = [Ball((float(i), float(j)), 1.0) for i in range(3) for j in range(3)]
    _, d1 = build_both(balls)
    full = d1.max_abs_tau()
    assert full > 0
    center_idx = next(i for i, b in enumerate(balls) if b.center == (1.0, 1.0))
    balls[center_idx] = Ball((1.0, 1.0), 1.0, fix_center=True, fix_radius=True)
    _, d2 = build_both(balls)
    assert d2.max_abs_tau() == 0.0  # only the center cell is bounded


def max_abs_tau_reference(d, balls, domain):
    """The dual vertices ``max_abs_tau`` reads, straight from its definition.

    Each vertex of a cell of a ball that is not fully fixed counts once;
    without a domain only bounded cells count, with one every cell counts
    but only its vertices inside the domain or within 1e-9 bbox_diag of it.
    """
    tol = 0.0 if domain is None else 1e-9 * geom.bbox_diag(domain)
    sides = [] if domain is None else list(zip(domain, domain[1:] + domain[:1]))
    counted = set()
    for i, b in enumerate(balls):
        if b.fully_fixed or (domain is None and not d.bounded[i]):
            continue
        for v in d.cell_vertices[d.offsets[i] : d.offsets[i + 1]].tolist():
            x, y = d.vertices[v].tolist()
            if all(
                (bx - ax) * (y - ay) - (by - ay) * (x - ax) >= -tol * math.hypot(bx - ax, by - ay)
                for (ax, ay), (bx, by) in sides
            ):
                counted.add(v)
    return counted


@pytest.mark.parametrize("with_domain", [False, True], ids=["no_domain", "domain"])
def test_max_abs_tau_matches_definition(with_domain):
    # the balls of the bottom band are fully fixed, so some dual vertices
    # lie on fully fixed cells only
    balls = [
        Ball(b.center, b.radius, fix_center=b.center[1] < 3.0, fix_radius=b.center[1] < 3.0)
        for b in random_balls(philox(81), 60)
    ]
    t, d = build_both(balls)
    if with_domain:
        # a box through the scene whose left side passes half the tolerance
        # inside a dual vertex of unbounded cells only, and whose right side
        # passes twice the tolerance inside another dual vertex: the first
        # counts, the second does not
        xs = d.vertices[:, 0]
        unbounded_only = np.setdiff1d(
            d.vertex_ids(d.free & ~d.bounded), d.vertex_ids(d.free & d.bounded)
        )
        v_in = int(unbounded_only[np.argmin(xs[unbounded_only])])
        on_free = d.vertex_ids(d.free)
        v_out = int(on_free[np.argsort(xs[on_free])[-len(on_free) // 4]])
        lo, hi = d.vertices[:, 1].min() - 1.0, d.vertices[:, 1].max() + 1.0
        tol = 1e-9 * math.hypot(xs[v_out] - xs[v_in], hi - lo)
        left, right = float(xs[v_in]) + 0.5 * tol, float(xs[v_out]) - 2.0 * tol
        d.domain = [(left, lo), (right, lo), (right, hi), (left, hi)]
    counted = max_abs_tau_reference(d, balls, d.domain)
    if with_domain:
        assert v_in in counted and v_out not in counted
    fixed_only = set(range(len(d.tau))) - set(d.vertex_ids(d.free).tolist())
    assert fixed_only and 0 < len(counted) < len(d.tau)
    assert d.max_abs_tau() == max(abs(d.tau[v]) for v in counted)
    # each dual vertex alone carries a power: it counts iff the definition reads it
    n = len(d.tau)
    for v in range(n):
        d.tau = np.where(np.arange(n) == v, -1.0, 0.0)
        assert d.max_abs_tau() == (1.0 if v in counted else 0.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
def test_vertex_ids_counts_equal_the_sorted_unique_ids(seed, density):
    # vertex_ids counts the ids on the masked cells; sorting them and
    # dropping repeats is the reference, for an all-False mask too (density 0)
    rng = philox(seed)
    balls = random_balls(rng, 40)
    _, d = build_both(balls)
    mask = rng.random(len(balls)) < density
    want = np.unique(d.cell_vertices[np.repeat(mask, np.diff(d.offsets))])
    got = d.vertex_ids(mask)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    if not mask.any():
        assert got.size == 0


def clip_one(pts, domain):
    """``clip_cells`` on the one bounded cell ``pts``."""
    rays = np.full((1, 2, 2), np.nan)
    return split_cells(*clip_cells(np.array(pts, dtype=float), np.array([0, len(pts)]), rays, domain))[0]


def test_clip_polygon_examples():
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    big = [(-5.0, -5.0), (5.0, -5.0), (5.0, 5.0), (-5.0, 5.0)]
    assert clip_one(square, big) == square
    half = [(-5.0, -5.0), (0.5, -5.0), (0.5, 5.0), (-5.0, 5.0)]
    clipped = clip_one(square, half)
    assert abs(polygon_area(clipped)) == pytest.approx(0.5)
    far = [(10.0, 10.0), (11.0, 10.0), (11.0, 11.0), (10.0, 11.0)]
    assert clip_one(square, far) == []


@st.composite
def clip_cases(draw):
    """Cells and a convex CCW domain for ``clip_cells``: ``(cells, domain)``.

    ``cells`` holds (vertices, rays or None) pairs: first a cell wholly
    outside the domain; the cells of a random ball set or a lattice, hull
    cells unbounded; random convex cells inside, across or outside the
    domain; the domain itself, cells with a corner on a domain corner and
    cells with an edge through one; a cell with opposite rays; and cells
    with chains of near-duplicate vertices within the domain tolerance, one
    of them across the wrap.
    """
    rng = philox(draw(st.integers(0, 10**6)))
    box = 10.0
    if draw(st.booleans()):
        domain = [(0.0, 0.0), (box, 0.0), (box, box), (0.0, box)]
    else:
        ang = np.sort(rng.uniform(0.0, 2 * math.pi, draw(st.integers(3, 8))))
        domain = list(map(tuple, (box / 2 * (1.0 + np.stack([np.cos(ang), np.sin(ang)], 1))).tolist()))
    tol = 1e-9 * geom.bbox_diag(domain)

    if draw(st.booleans()):
        balls = random_balls(rng, draw(st.integers(3, 12)), box=box)
    else:  # collinear hull balls: unbounded cells with parallel rays
        step = box / draw(st.integers(2, 4))
        balls = [Ball((i * step, j * step), 0.5 * step) for i in range(4) for j in range(4)]
    _, d = build_both(balls)

    def ellipse(center, k, size):
        a = np.sort(rng.uniform(0.0, 2 * math.pi, k))
        r = rng.uniform(0.2, 1.0, 2) * size
        return list(map(tuple, (center + r * np.stack([np.cos(a), np.sin(a)], 1)).tolist()))

    cells = [(ellipse(np.array([3 * box, 3 * box]), 5, box / 4), None)]  # wholly outside
    cells += [
        (cell_polygon(d, i), None if d.bounded[i] else d.rays[i].tolist())
        for i in np.flatnonzero(d.has_cell).tolist()
    ]
    for _ in range(draw(st.integers(1, 6))):
        cells.append((ellipse(rng.uniform(-box, 2 * box, 2), draw(st.integers(3, 8)), box), None))
    cells.append((list(domain), None))
    for cx, cy in domain:
        s = draw(st.sampled_from([0.5, 1.0, 4.0]))
        cells.append(([(cx, cy), (cx + s, cy), (cx, cy + s)], None))
        cells.append(([(cx - s, cy + s), (cx + s, cy - s), (cx + s, cy + s)], None))
    for x0, y0 in [(-box / 2, -box / 2), (0.0, 0.0), (box / 2, box / 2)]:
        cells.append(([(x0, y0), (x0 + box / 2, y0), (x0 + box / 2, y0 + box / 2), (x0, y0 + box / 2)], None))
    cells.append(([(box / 2, box / 2)], [(-1.0, 0.0), (1.0, 0.0)]))

    for wrap in (False, True):
        pts = ellipse(np.array([box / 2, box / 2]), draw(st.integers(3, 8)), box * 0.7)
        m = len(pts) - 1 if wrap else int(rng.integers(len(pts) - 1))
        (px, py), (qx, qy) = pts[m], pts[(m + 1) % len(pts)]
        e = np.array([qx - px, qy - py]) / math.hypot(qx - px, qy - py)
        steps = np.cumsum(rng.uniform(0.3, 0.9, draw(st.integers(1, 4)))) * tol
        chain = list(map(tuple, (np.array([px, py]) + steps[:, None] * e).tolist()))
        cells.append((pts[: m + 1] + chain + pts[m + 1 :], None))
    return cells, domain


@settings(max_examples=100, deadline=None)
@given(clip_cases())
def test_clip_cells_matches_the_reference(case):
    cells, domain = case
    xy = np.array([p for pts, _ in cells for p in pts], dtype=float)
    offsets = np.concatenate([[0], np.cumsum([len(pts) for pts, _ in cells])])
    rays = np.array([np.full((2, 2), np.nan) if r is None else r for _, r in cells])
    got = split_cells(*clip_cells(xy, offsets, rays, domain))
    expect = [clip_cell_reference(pts, r, domain) for pts, r in cells]
    assert got == expect
    assert expect[0] == [] and any(expect)


def test_delaunay_limit_check_on_lattice():
    balls = [
        Ball((float(i), float(j)), math.sqrt(2.0) / 2.0)
        for i in range(4)
        for j in range(4)
    ]
    t, d = build_both(balls)
    assert d.max_abs_tau() <= 1e-12
    assert delaunay_limit_violations(t, d, balls, 1e-9) == []


def test_delaunay_limit_check_margin_on_lattice():
    # the lattice of test_delaunay_limit_check_on_lattice, checked against a
    # ball list in which ball (3, 1) sits inside the circle of ball (1, 1)'s
    # cell (center (1, 1), radius sqrt(2) / 2), which it does not touch: by
    # twice the margin it is flagged, by half the margin it is not
    balls = [
        Ball((float(i), float(j)), math.sqrt(2.0) / 2.0)
        for i in range(4)
        for j in range(4)
    ]
    t, d = build_both(balls)
    cell, moved = 4 * 1 + 1, 4 * 3 + 1
    margin = 1e-6 * geom.bbox_diag([b.center for b in balls])
    for depth, flagged in ((2.0, {(cell, moved)}), (0.5, set())):
        probe = list(balls)
        probe[moved] = Ball((1.0 + math.sqrt(2.0) / 2.0 - depth * margin, 1.0), balls[moved].radius)
        assert set(delaunay_limit_violations(t, d, probe, margin)) == flagged


def circle_depth(d, cell, p):
    """How deep ``p`` lies inside the circles ``delaunay_limit_violations`` reads for ``cell``.

    Those are the circles through each triple of consecutive cell vertices
    (one for a triangle) whose circumcenter is conditioned.
    """
    pts = cell_polygon(d, cell)
    m = len(pts)
    depth = -math.inf
    for k in range(m if m > 3 else 1):
        triple = [pts[(k + i) % m] for i in range(3)]
        try:
            cx, cy = geom.circumcenter(*triple)
        except CollinearPoints:
            continue
        rad = math.hypot(triple[0][0] - cx, triple[0][1] - cy)
        depth = max(depth, rad - math.hypot(p[0] - cx, p[1] - cy))
    return depth


def test_delaunay_limit_check_margin_at_441_balls():
    # the converged 441-ball square-with-circle scene passes the check at
    # the 1e-6 * diag margin; a non-incident ball pushed into a free cell's
    # circles by twice the margin is flagged, by half the margin it is not.
    # One cell has three vertices; the other has the closest vertex pair
    # relative to its size, 2e-8 apart, so its circles through that pair
    # are the worst conditioned
    from radmesh.dirichlet import OptimizerConfig, run
    from radmesh.scene import gen_square_with_circle

    scene = gen_square_with_circle(10.0, 2.0, 0.8, interior_spacing=0.30, seed=7)
    assert len(scene.balls) == 441
    diag = geom.bbox_diag([b.center for b in scene.balls])
    state = run(scene.balls, OptimizerConfig(theta=0.5, tau_tol=1e-8 * diag * diag))
    assert state.converged
    final, margin = state.balls, 1e-6 * diag
    t, d = build_both(final)
    assert delaunay_limit_violations(t, d, final, margin) == []
    cells = np.flatnonzero(d.bounded & d.free)

    def min_gap(i):
        pts = np.array(cell_polygon(d, i))
        return np.hypot(*(np.roll(pts, -1, axis=0) - pts).T).min() / np.ptp(pts, axis=0).max()

    triangle = int(cells[np.diff(d.offsets)[cells] == 3][0])
    pair = int(min(cells.tolist(), key=min_gap))
    assert min_gap(pair) < 1e-6 and len(cell_polygon(d, pair)) > 3
    for cell in (triangle, pair):
        pts = cell_polygon(d, cell)
        cx, cy = np.mean(pts, axis=0).tolist()
        verts = d.cell_vertices[d.offsets[cell] : d.offsets[cell + 1]]
        incident = set(t.tris[np.isin(d.vertex_of, verts)].ravel().tolist())
        others = [j for j, b in enumerate(final) if b.alive and d.has_cell[j] and j not in incident]
        j = min(others, key=lambda j: math.dist(final[j].center, (cx, cy)))
        dist = math.dist(final[j].center, (cx, cy))
        ux, uy = (final[j].center[0] - cx) / dist, (final[j].center[1] - cy) / dist
        for depth, flagged in ((2.0, True), (0.5, False)):
            # bisect along the ray from the cell's centroid to ball j for the
            # point at this depth inside the cell's deepest circle
            lo, hi = 0.0, dist
            at_j = circle_depth(d, cell, final[j].center)
            assert circle_depth(d, cell, (cx, cy)) > depth * margin > at_j
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if circle_depth(d, cell, (cx + mid * ux, cy + mid * uy)) > depth * margin:
                    lo = mid
                else:
                    hi = mid
            at = (cx + lo * ux, cy + lo * uy)
            assert circle_depth(d, cell, at) == pytest.approx(depth * margin, rel=1e-3)
            probe = list(final)
            probe[j] = Ball(at, final[j].radius)
            assert ((cell, j) in delaunay_limit_violations(t, d, probe, margin)) is flagged


def test_delaunay_limit_check_flags_generic_diagram():
    # a generic power diagram is far from a Delaunay partition, so circles
    # through consecutive cell vertices do swallow non-incident centers
    rng = philox(30)
    balls = random_balls(rng, 30)
    t, d = build_both(balls)
    assert delaunay_limit_violations(t, d, balls, 1e-9) != []


def test_delaunay_limit_violations_matches_the_reference():
    # the same pairs in the same order, duplicates kept, as the scalar loop:
    # the lattice with its margin probes and with a dual vertex moved onto
    # the line through its cell neighbours (a triple without a circle), random
    # diagrams with redundant balls, and the 233-ball square-with-circle
    # scene before and after convergence (fixed balls own cells the check skips)
    from radmesh.dirichlet import OptimizerConfig, run
    from radmesh.scene import gen_square_with_circle

    cases = []
    lattice = [Ball((float(i), float(j)), math.sqrt(2.0) / 2.0) for i in range(4) for j in range(4)]
    margin = 1e-6 * geom.bbox_diag([b.center for b in lattice])
    for depth in (2.0, 0.5):
        probe = list(lattice)
        probe[13] = Ball((1.0 + math.sqrt(2.0) / 2.0 - depth * margin, 1.0), lattice[13].radius)
        cases.append((*build_both(lattice), probe, margin))
    t, d = build_both(lattice)
    v = d.cell_vertices[d.offsets[5] : d.offsets[6]]
    d.vertices[v[1]] = 2 * d.vertices[v[2]] - d.vertices[v[0]]
    cases.append((t, d, lattice, margin))
    rng = philox(31)
    for _ in range(20):
        balls = random_balls(rng, 60)
        cases.append((*build_both(balls), balls, 1e-9))
    scene = gen_square_with_circle(10.0, 2.0, 0.8, interior_spacing=0.45, seed=7)
    assert len(scene.balls) == 233
    diag = geom.bbox_diag([b.center for b in scene.balls])
    state = run(scene.balls, OptimizerConfig(theta=0.5, max_iters=2000, tau_tol=1e-8 * diag * diag))
    assert state.converged
    for balls in (scene.balls, state.balls):
        cases.append((*build_both(balls), balls, 1e-6 * diag))
    found = []
    for t, d, probe, margin in cases:
        expect = delaunay_limit_violations_reference(t, d, probe, margin)
        assert delaunay_limit_violations(t, d, probe, margin) == expect
        found += expect
    assert len(found) > len(set(found)) > 0  # pairs found, some of them twice


def _on_hull(p, points):
    """Whether ``p`` lies on the boundary of the convex hull of ``points`` (exact).

    It does when the line from ``p`` to some other point has all points on
    one closed side.
    """
    for q in points:
        if q == p:
            continue
        signs = {geom.orient2d(p, q, r) for r in points}
        if signs <= {0, 1} or signs <= {0, -1}:
            return True
    return False


def reference_cases():
    lattice = [(float(i), float(j)) for i in range(4) for j in range(4)]
    rng = philox(77)
    # 1 ulp on interior points only: a hull side dented by 1 ulp is the
    # qhull-start defect of test_triangulation's lattice_ulp_hull_side
    nudged = [
        (float(np.nextafter(x, np.inf)) if 0 < min(x, y) and max(x, y) < 3 and rng.random() < 0.5
         else x, y)
        for x, y in lattice
    ]
    # six integer points of the circle x^2 + y^2 = 25: one fanned hexagon
    hexagon = [(5.0, 0.0), (3.0, 4.0), (-3.0, 4.0), (-5.0, 0.0), (-3.0, -4.0), (3.0, -4.0)]
    cases = {
        "random": random_balls(philox(40), 40),
        "lattice": [Ball(p, 1.0) for p in lattice],
        "lattice_ulp": [Ball(p, 1.0) for p in nudged],
        # the lifted center ball lies 0.05 above the plane of its unit square
        "redundant": [Ball(p, 1.0) for p in lattice] + [Ball((1.5, 1.5), math.sqrt(0.4))],
        "six_on_circle": [Ball(p, 1.0) for p in hexagon],
    }
    return list(cases.items())


@pytest.mark.parametrize("name,balls", reference_cases(), ids=[n for n, _ in reference_cases()])
def test_extract_diagram_matches_definitions(name, balls):
    t, d = build_both(balls)
    eps = default_merge_eps(balls)
    tris = t.tris.tolist()
    ortho = t.orthocenters.tolist()
    vertex_of = dict(enumerate(d.vertex_of.tolist()))
    groups = [[] for _ in range(len(d.vertices))]
    for f, k in vertex_of.items():
        groups[k].append(f)

    # the dual vertices partition the triangles, ordered by smallest member
    assert sorted(vertex_of) == list(range(len(tris)))
    assert all(g == sorted(g) for g in groups)
    assert [g[0] for g in groups] == sorted(g[0] for g in groups)

    def close(a, b):
        return math.hypot(ortho[a][0] - ortho[b][0], ortho[a][1] - ortho[b][1]) <= eps

    # each vertex is one component of "adjacent with orthocenters within eps"
    for g in groups:
        reached, todo = {g[0]}, [g[0]]
        while todo:
            a = todo.pop()
            for h in t.twin[a].tolist():
                if h < 0:
                    continue
                b = h // 3
                if b not in g:
                    assert not close(a, b)
                elif close(a, b) and b not in reached:
                    reached.add(b)
                    todo.append(b)
        assert reached == set(g)

    owners = sorted({i for tr in tris for i in tr})
    centers = [balls[i].center for i in owners]
    assert len(d.offsets) == len(balls) + 1 and d.offsets[0] == 0
    assert d.offsets[-1] == len(d.cell_vertices)
    for i, b in enumerate(balls):
        assert d.has_cell[i] == (i in owners)
        if i not in owners:
            assert not d.bounded[i]
            continue
        # the ball's triangles counterclockwise by the angle of their centroids
        cx, cy = b.center
        around = sorted(
            (math.atan2(sum(balls[j].center[1] for j in tr) / 3 - cy,
                        sum(balls[j].center[0] for j in tr) / 3 - cx), f)
            for f, tr in enumerate(tris)
            if i in tr
        )
        on_hull = _on_hull(b.center, centers)
        assert d.bounded[i] == (not on_hull)
        if on_hull:  # the fan runs from the end of its widest angular gap
            angles = [a for a, _ in around]
            gaps = [angles[0] + 2 * math.pi - angles[-1]] + [
                y - x for x, y in zip(angles, angles[1:])
            ]
            k = gaps.index(max(gaps))
            around = around[k:] + around[:k]
        ref = []
        for _, f in around:
            if not ref or ref[-1] != vertex_of[f]:
                ref.append(vertex_of[f])
        got = d.cell_vertices[d.offsets[i] : d.offsets[i + 1]].tolist()
        if on_hull:
            assert got == ref
        else:
            if len(ref) > 1 and ref[0] == ref[-1]:
                ref.pop()
            assert len(got) == len(ref)
            assert any(got == ref[k:] + ref[:k] for k in range(len(ref)))

    if name == "redundant":
        assert t.redundant[-1] and not d.has_cell[-1]
    if name == "six_on_circle":
        assert [len(g) for g in groups] == [4]


def test_extract_diagram_ends_on_overlapping_triangles():
    # the qhull start leaves overlapping slivers along a hull side dented by
    # 1 ulp (test_triangulation's lattice_ulp_hull_side); the fan walk must
    # stop there, with an error, instead of circling forever or returning
    # cells that miss some of their triangles
    from test_triangulation import filter_cases

    balls = dict(filter_cases())["lattice_ulp_hull_side"]
    t = build_regular(balls)
    with pytest.raises(RadmeshError, match="neither close nor end on the hull"):
        extract_diagram(t, balls)


def outward_ray(rows, ball, other, third):
    """Unit direction of the unbounded dual edge across hull edge (ball, other).

    ``third`` is the third ball of the triangle on that edge, all rows of ``rows``.
    """
    ci, cj = rows[ball], rows[other]
    dx, dy = cj[0] - ci[0], cj[1] - ci[1]
    nrm = math.hypot(dx, dy)
    n = (dy / nrm, -dx / nrm)
    ck = rows[third]
    mid = ((ci[0] + cj[0]) / 2, (ci[1] + cj[1]) / 2)
    if n[0] * (ck[0] - mid[0]) + n[1] * (ck[1] - mid[1]) > 0:
        n = (-n[0], -n[1])
    return n


def reference_walk(t, balls, vertex_of):
    """The per-ball fan walk that ``extract_diagram``'s pointer jumping replaced.

    Kept as the reference: returns ``offsets``, ``cell_vertices``,
    ``bounded`` and ``rays`` as the walk builds them, ball by ball.
    """
    corner_ball = t.tris.ravel()
    g = t.twin[:, [1, 2, 0]].ravel()
    nxt = np.where(g < 0, -1, g - g % 3 + (g + 1) % 3).tolist()
    hull = np.flatnonzero(t.twin[:, [2, 0, 1]].ravel() < 0)
    hull_start = dict(zip(corner_ball[hull].tolist(), hull.tolist()))
    owners, first_corner, corners = np.unique(corner_ball, return_index=True, return_counts=True)
    label = vertex_of.tolist()
    tris = t.tris.tolist()
    n = len(t.redundant)
    counts = np.zeros(n, dtype=int)
    bounded = np.zeros(n, dtype=bool)
    rays = np.full((n, 2, 2), np.nan)
    ids = []
    rows = geom.ball_arrays(balls).x.tolist()
    for i, start, m in zip(owners.tolist(), first_corner.tolist(), corners.tolist()):
        first = hull_start.get(i, nxt[start])
        fan = [first]
        c = nxt[first]
        while c >= 0 and c != first and len(fan) < m:
            fan.append(c)
            c = nxt[c]
        if len(fan) < m or 0 <= c != first:
            raise RadmeshError(f"the triangles around ball {i} neither close nor end on the hull")
        cycle = [label[c // 3] for c in fan]
        cycle = [v for k, v in enumerate(cycle) if k == 0 or v != cycle[k - 1]]
        if c == first:
            bounded[i] = True
            if len(cycle) > 1 and cycle[0] == cycle[-1]:
                cycle.pop()
        else:
            f, k = divmod(fan[0], 3)
            rays[i, 0] = outward_ray(rows, i, tris[f][k - 2], tris[f][k - 1])
            f, k = divmod(fan[-1], 3)
            rays[i, 1] = outward_ray(rows, i, tris[f][k - 1], tris[f][k - 2])
        counts[i] = len(cycle)
        ids += cycle
    return np.concatenate([[0], np.cumsum(counts)]), np.array(ids, dtype=int), bounded, rays


def assert_matches_reference_walk(t, balls, d):
    offsets, ids, bounded, rays = reference_walk(t, balls, d.vertex_of)
    assert d.offsets.tolist() == offsets.tolist()
    assert d.cell_vertices.tolist() == ids.tolist()
    assert d.bounded.tolist() == bounded.tolist()
    assert d.rays.shape == rays.shape and d.rays.tobytes() == rays.tobytes()


def test_extract_diagram_matches_reference_walk_on_filter_cases():
    from radmesh.diagram import _merge_orthocenters
    from test_triangulation import filter_cases

    raised = []
    for name, balls in filter_cases():
        t = build_regular(balls)
        _, _, vertex_of = _merge_orthocenters(t, geom.ball_arrays(balls).x, default_merge_eps(balls))
        try:
            reference_walk(t, balls, vertex_of)
        except RadmeshError:
            raised.append(name)
            with pytest.raises(RadmeshError, match="neither close nor end on the hull"):
                extract_diagram(t, balls)
            continue
        assert_matches_reference_walk(t, balls, extract_diagram(t, balls))
    assert raised == ["lattice_ulp_hull_side"]


def benchmark_inputs(name):
    """The balls of a benchmark workload under the benchmark seed 1, and its iteration budget."""
    w = perfbench_workloads().WORKLOADS[name]
    return w.inputs(w.generate(w.scene_seed), 1), getattr(w, "max_iters", 2000)


@pytest.mark.parametrize("name", ["square-hybrid", "mask-plateau"])
def test_extract_diagram_matches_reference_walk_on_every_rebuild(name):
    # every diagram a benchmark run builds, the Gauss-Newton trials included
    import radmesh.dirichlet as dmod

    balls, max_iters = benchmark_inputs(name)
    checked = []
    orig = dmod.extract_diagram

    def spy(t, balls, *args, **kwargs):
        d = orig(t, balls, *args, **kwargs)
        assert_matches_reference_walk(t, balls, d)
        checked.append(d)
        return d

    diag = dmod.bbox_diag(balls)
    cfg = dmod.OptimizerConfig(theta=0.5, max_iters=max_iters, tau_tol=1e-8 * diag * diag)
    dmod.extract_diagram = spy
    try:
        state = dmod.run(balls, cfg)
    finally:
        dmod.extract_diagram = orig
    assert len(checked) > state.iteration


def test_chain_ends_stops_on_cycles():
    from radmesh.diagram import _chain_ends

    # a chain 3 -> 0 -> 4 -> 1 and a cycle 2 -> 5 -> 6 -> 2
    succ = np.array([4, -1, 5, 0, 1, 6, 2])
    last, togo = _chain_ends(succ, 4)
    assert last[[0, 1, 3, 4]].tolist() == [1, 1, 1, 1]
    assert togo[[0, 1, 3, 4]].tolist() == [2, 0, 3, 1]
    assert not (succ[last[[2, 5, 6]]] < 0).any()  # the cycle stays unresolved


def test_extract_diagram_raises_on_two_fans_around_one_ball():
    # two separate closed fans around ball 0: the walk from its start covers
    # one of them, and the other is a cycle without a start corner, which
    # the bounded pointer jumping leaves unresolved instead of circling
    from radmesh.triangulation import RegularTriangulation, _twins

    ring = [(math.cos(a), math.sin(a)) for a in (0.0, 2.1, 4.2, 1.0, 3.1, 5.2)]
    balls = [Ball((0.0, 0.0), 0.5)] + [Ball(p, 0.5) for p in ring]
    tris = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1], [0, 4, 5], [0, 5, 6], [0, 6, 4]])
    fan = _twins(tris[:3])  # the second fan is the first one shifted by 3 triangles
    twin = np.concatenate([fan, np.where(fan < 0, -1, fan + 9)])
    centers = np.array([b.center for b in balls])
    vx, vy, tau = geom.orthocenters(centers, np.full(len(balls), 0.5), tris)
    t = RegularTriangulation(tris, np.stack([vx, vy], axis=1), tau, twin, [False] * len(balls))
    with pytest.raises(RadmeshError, match="around ball 0 neither close nor end on the hull"):
        extract_diagram(t, balls)
