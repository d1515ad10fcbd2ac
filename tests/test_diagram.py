"""Power diagram extraction, duality identities, clipping, Delaunay limit."""

import math

import numpy as np
import pytest

from radmesh import geom
from radmesh.diagram import (
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
    pts = sorted(d.points(center_idx))
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
    v, tau = geom.orthocenter(b1, b2, b3)
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
        pts = d.points(i)
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
    for i in np.flatnonzero(d.bounded).tolist():
        pts = d.points(i)
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


def reference_walk(t, balls, vertex_of):
    """The per-ball fan walk that ``extract_diagram``'s pointer jumping replaced.

    Kept as the reference: returns ``offsets``, ``cell_vertices``,
    ``bounded`` and ``rays`` as the walk builds them, ball by ball.
    """
    from radmesh.diagram import _outward_ray

    corner_ball = t.tris.ravel()
    g = t.twin[:, [1, 2, 0]].ravel()
    nxt = np.where(g < 0, -1, g - g % 3 + (g + 1) % 3).tolist()
    hull = np.flatnonzero(t.twin[:, [2, 0, 1]].ravel() < 0)
    hull_start = dict(zip(corner_ball[hull].tolist(), hull.tolist()))
    owners, first_corner, corners = np.unique(corner_ball, return_index=True, return_counts=True)
    label = vertex_of.tolist()
    tris = t.tris.tolist()
    n = len(balls)
    counts = np.zeros(n, dtype=int)
    bounded = np.zeros(n, dtype=bool)
    rays = np.full((n, 2, 2), np.nan)
    ids = []
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
            rays[i, 0] = _outward_ray(balls, i, tris[f][k - 2], tris[f][k - 1])
            f, k = divmod(fan[-1], 3)
            rays[i, 1] = _outward_ray(balls, i, tris[f][k - 1], tris[f][k - 2])
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
        _, _, vertex_of = _merge_orthocenters(t, balls, default_merge_eps(balls))
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
    import importlib.util
    import pathlib
    import sys

    module = "perfbench_workloads"
    workloads = sys.modules.get(module)
    if workloads is None:
        path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(module, path)
        workloads = sys.modules[module] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    w = workloads.WORKLOADS[name]
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
        checked.append(len(balls))
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
