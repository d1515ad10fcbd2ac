"""Power diagram extraction, duality identities, clipping, Delaunay limit."""

import math

import numpy as np
import pytest

from radmesh import geom
from radmesh.diagram import (
    DualVertex,
    clip_polygon,
    default_merge_eps,
    delaunay_limit_violations,
    dual_height,
    extract_diagram,
)
from radmesh.errors import RadmeshError
from radmesh.geom import Ball, power
from radmesh.triangulation import build_regular

from conftest import philox, random_balls


def build_both(balls, **kw):
    t = build_regular(balls)
    return t, extract_diagram(t, balls, **kw)


def test_three_balls_one_vertex_three_unbounded_cells():
    balls = [Ball((0.0, 0.0), 1.0), Ball((3.0, 0.0), 0.5), Ball((1.0, 2.0), 0.8)]
    _, d = build_both(balls)
    assert len(d.dual_vertices) == 1
    cells = [c for c in d.cells if c is not None]
    assert len(cells) == 3
    assert all(not c.bounded for c in cells)


def test_lattice_interior_cell_is_unit_square():
    balls = [Ball((float(i), float(j)), 1.0) for i in range(3) for j in range(3)]
    _, d = build_both(balls)
    center_idx = next(
        i for i, b in enumerate(balls) if b.center == (1.0, 1.0)
    )
    cell = d.cells[center_idx]
    assert cell.bounded
    pts = sorted(cell.vertex_positions())
    expect = sorted([(0.5, 0.5), (1.5, 0.5), (1.5, 1.5), (0.5, 1.5)])
    assert pts == pytest.approx(expect)


def test_cocircular_quad_merges_to_degree_four_vertex():
    balls = [Ball(p, 1.0) for p in [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]]
    t, d = build_both(balls)
    assert len(t.tris) == 2
    assert len(d.dual_vertices) == 1
    v = d.dual_vertices[0]
    assert v.position == pytest.approx((0.5, 0.5))
    assert len(v.source_triangles) == 2


def test_dual_height_examples():
    assert dual_height(DualVertex((1.0, 1.0), 0.0, [])) == 1.0
    assert dual_height(DualVertex((0.0, 0.0), 2.0, [])) == -1.0
    # weighted orthocenter example: z = paraboloid(v) - tau/2 = 2.25 - 1.25
    b1 = Ball((0.0, 0.0), math.sqrt(2.0))
    b2 = Ball((2.0, 0.0), 0.0)
    b3 = Ball((0.0, 2.0), 0.0)
    v, tau = geom.orthocenter(b1, b2, b3)
    z = dual_height(DualVertex(v, tau, []))
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
    for v in d.dual_vertices:
        tol = 1e-9 * (1.0 + v.position[0] ** 2 + v.position[1] ** 2)
        for ti in v.source_triangles:
            for i in t.tris[ti].tolist():
                assert abs(power(balls[i], v.position) - v.tau) <= tol


def test_radical_axis_property():
    rng = philox(22)
    balls = random_balls(rng, 25)
    t, d = build_both(balls)
    for tr, nbs, a in zip(t.tris.tolist(), t.neighbors.tolist(), t.orthocenters.tolist()):
        for k, nb in enumerate(nbs):
            if nb < 0:
                continue
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
    for c in d.bounded_cells():
        saw_bounded = True
        pts = c.vertex_positions()
        m = len(pts)
        assert geom.polygon_area(pts) > 0
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
    for c in d.bounded_cells():
        pts = c.vertex_positions()
        cx, cy = balls[c.ball_index].center
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


def test_clip_polygon_examples():
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    big = [(-5.0, -5.0), (5.0, -5.0), (5.0, 5.0), (-5.0, 5.0)]
    assert clip_polygon(square, big) == square
    half = [(-5.0, -5.0), (0.5, -5.0), (0.5, 5.0), (-5.0, 5.0)]
    clipped = clip_polygon(square, half)
    assert abs(geom.polygon_area(clipped)) == pytest.approx(0.5)
    far = [(10.0, 10.0), (11.0, 10.0), (11.0, 11.0), (10.0, 11.0)]
    assert clip_polygon(square, far) == []


def test_delaunay_limit_check_on_lattice():
    balls = [
        Ball((float(i), float(j)), math.sqrt(2.0) / 2.0)
        for i in range(4)
        for j in range(4)
    ]
    t, d = build_both(balls)
    assert d.max_abs_tau() <= 1e-12
    assert delaunay_limit_violations(t, d, balls, 1e-9) == []


def test_delaunay_limit_check_flags_generic_diagram():
    # a generic power diagram is far from a Delaunay partition, so circles
    # through consecutive cell vertices do swallow non-incident centers
    rng = philox(30)
    balls = random_balls(rng, 30)
    t, d = build_both(balls)
    assert delaunay_limit_violations(t, d, balls, 1e-9) != []


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
    groups = [v.source_triangles for v in d.dual_vertices]
    vertex_of = {f: k for k, g in enumerate(groups) for f in g}

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
            for b in t.neighbors[a].tolist():
                if b < 0:
                    continue
                if b not in g:
                    assert not close(a, b)
                elif close(a, b) and b not in reached:
                    reached.add(b)
                    todo.append(b)
        assert reached == set(g)

    owners = sorted({i for tr in tris for i in tr})
    centers = [balls[i].center for i in owners]
    index = {id(v): k for k, v in enumerate(d.dual_vertices)}
    for i, b in enumerate(balls):
        cell = d.cells[i]
        assert (cell is None) == (i not in owners)
        if cell is None:
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
        assert cell.bounded == (not on_hull)
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
        got = [index[id(v)] for v in cell.vertices]
        if on_hull:
            assert got == ref
        else:
            if len(ref) > 1 and ref[0] == ref[-1]:
                ref.pop()
            assert len(got) == len(ref)
            assert any(got == ref[k:] + ref[:k] for k in range(len(ref)))

    if name == "redundant":
        assert t.redundant[-1] and d.cells[-1] is None
    if name == "six_on_circle":
        assert [len(g) for g in groups] == [4]


def test_extract_diagram_ends_on_overlapping_triangles():
    # the qhull start leaves overlapping slivers along a hull side dented by
    # 1 ulp (test_triangulation's lattice_ulp_hull_side); the fan walk must
    # stop there instead of circling forever
    from test_triangulation import filter_cases

    balls = dict(filter_cases())["lattice_ulp_hull_side"]
    t = build_regular(balls)
    try:
        extract_diagram(t, balls)
    except RadmeshError as e:
        assert "neither close nor end on the hull" in str(e)
