"""Dirichlet functional, heuristic updates, gradients, and the main loop."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from radmesh.diagram import clip_cells, extract_diagram
from radmesh.dirichlet import (
    OptimizerConfig,
    _active_triangles,
    _cell_aux,
    _certify,
    _damped_steps,
    _gauss_newton_step,
    _incircle,
    _largest_angle,
    _proposals,
    _rebuild,
    _tau_system,
    _tie_tol,
    aux_triangulate_cell,
    aux_triangulate_cells,
    bbox_diag,
    evaluate_FI,
    relax_step,
    run,
    write_history_csv,
)
from radmesh.errors import (
    CollinearPoints,
    DegenerateCell,
    DegenerateScene,
    Diverged,
    TooFewBalls,
)
from radmesh.geom import (
    Ball,
    BallArrays,
    ball_arrays,
    circumcenter,
    orthocenters,
    triangle_area,
)
from radmesh.triangulation import _twins, build_regular

from conftest import (
    AuxTriangle,
    cell_fi,
    cell_polygon,
    cell_span,
    cell_triangles,
    certify_reference,
    fan_delaunay,
    fan_triangulate_cell,
    fd_gradient,
    frozen_center_gradient,
    heuristic_center,
    heuristic_radius,
    jittered_grid,
    philox,
    split_cells,
)


def lattice_balls(n=3, radius=None):
    if radius is None:
        radius = math.sqrt(2.0) / 2.0
    return [Ball((float(i), float(j)), radius) for i in range(n) for j in range(n)]


def center_cell():
    """The lattice's center ball, its cell's vertices and the diagram."""
    balls = lattice_balls(3)
    idx = next(i for i, b in enumerate(balls) if b.center == (1.0, 1.0))
    d = extract_diagram(build_regular(balls), balls)
    return balls, idx, cell_polygon(d, idx), d


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(theta=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(theta=1.5)
    with pytest.raises(ValueError):
        OptimizerConfig(mode="nonsense")
    with pytest.raises(ValueError):
        OptimizerConfig(mode="fd_gradient")
    with pytest.raises(ValueError, match="heuristic mode was removed"):
        OptimizerConfig(mode="heuristic")
    with pytest.raises(ValueError):
        OptimizerConfig(tau_tol=-1.0)
    with pytest.raises(ValueError):
        OptimizerConfig(tau_tol=math.nan)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iters=-1)
    OptimizerConfig(max_iters=0)


def test_aux_triangle_cell_is_itself():
    # a ball surrounded by three others owns a bounded triangular cell
    balls = [
        Ball((0.0, 0.0), 1.0),
        Ball((4.0, 0.0), 1.0),
        Ball((2.0, 3.5), 1.0),
        Ball((2.0, 1.1), 1.0),
    ]
    t = build_regular(balls)
    d = extract_diagram(t, balls)
    pts = cell_polygon(d, 3)
    assert d.bounded[3] and len(pts) == 3
    center, area = aux_triangulate_cell(pts, 3)
    assert center == circumcenter(*pts) and area == triangle_area(*pts) > 0
    (aux,) = cell_triangles(pts, 3)
    assert (aux.vertex_positions, aux.circumcenter, aux.area) == (tuple(pts), center, area)


def test_aux_square_cell():
    _, idx, cell, _ = center_cell()
    aux = cell_triangles(cell, idx)
    assert len(aux) == 2
    for a in aux:
        assert a.area == pytest.approx(0.5)
        assert a.circumcenter == pytest.approx((1.0, 1.0))


def test_aux_cyclic_pentagon():
    # vertices on a common circle: every circumcenter is the circle center
    pts = [
        (math.cos(2 * math.pi * k / 5), math.sin(2 * math.pi * k / 5))
        for k in range(5)
    ]
    aux = cell_triangles(pts)
    assert len(aux) == 3
    for a in aux:
        assert a.circumcenter == pytest.approx((0.0, 0.0), abs=1e-9)


def test_aux_translation_invariance():
    # a thin quad whose Delaunay diagonal is the short vertical one, which
    # a fan from vertex 0 would not take; far from the origin as well
    quad = [(0.0, 0.0), (0.1, -0.03), (0.2, 0.0), (0.1, 0.03)]

    def circumcenters(ox, oy):
        found = sorted(
            (a.circumcenter[0] - ox, a.circumcenter[1] - oy)
            for a in cell_triangles([(x + ox, y + oy) for x, y in quad])
        )
        return [x for cc in found for x in cc]

    expected = [0.0545, 0.0, 0.1455, 0.0]
    assert circumcenters(0.0, 0.0) == pytest.approx(expected, abs=1e-12)
    assert circumcenters(1e3, -1e3) == pytest.approx(expected, abs=1e-9)


def test_aux_unbounded_raises():
    # a hull ball's unbounded cell gets a vertex list once clipped to a domain
    balls = lattice_balls(3)
    d = extract_diagram(build_regular(balls), balls)
    assert not d.bounded[0]
    domain = [(-1.0, -1.0), (3.0, -1.0), (3.0, 3.0), (-1.0, 3.0)]
    xy, offsets = clip_cells(*d.positions(np.array([0])), d.rays[[0]], domain)
    assert len(xy) == 4 and offsets.tolist() == [0, 4]


def cell_points(d, domain=None):
    """Vertex lists of the cells of ``d`` usable with ``domain``, and their balls."""
    cells = np.flatnonzero(d.has_cell & (d.bounded | (domain is not None)))
    xy, offsets = d.positions(cells)
    if domain is not None:
        xy, offsets = clip_cells(xy, offsets, d.rays[cells], domain)
    return split_cells(xy, offsets), cells


def certify_one(pts, tris):
    """``_certify`` on the one cell ``pts`` with the triangulation ``tris`` (local corners)."""
    xy, offsets = np.array(pts, dtype=float), np.array([0, len(pts)])
    local = np.array(tris).reshape(-1, 3)
    return _certify(xy, offsets, np.array([0]), local, _twins(local)[:, 1])


def certified(pts, tris):
    """Whether ``_certify`` accepts the triangulation ``tris`` (local corners) of the cell ``pts``."""
    refused, *_ = certify_one(pts, tris)
    return not refused[0]


def construction(pts):
    """The ``_largest_angle`` triangulation of the one cell ``pts``, as local corner triples."""
    xy, offsets = np.array(pts, dtype=float), np.array([0, len(pts)])
    return [tuple(t) for t in _largest_angle(xy, offsets, np.array([0]))[0].tolist()]


def edge_values(pts, tris):
    """The in-circle value of each interior edge of the triangulation ``tris`` of the cell ``pts``."""
    return [_incircle(*pts[i], *pts[j], *pts[l], *pts[d]) for (i, j, l), d in interior_edges(tris, len(pts))]


def clockwise(pts):
    """Whether the convex cell ``pts`` is listed clockwise: its fan from vertex 0 has negative area.

    The fan's areas are taken about the first vertex, as the batch takes
    them, so far from the origin the sign is not lost to rounding.
    """
    return sum(triangle_area(pts[0], pts[m], pts[m + 1]) for m in range(1, len(pts) - 1)) < 0


def unflat(pts, tris):
    """The triangles of ``tris`` above the area guard of the cell ``pts``."""
    guard = 1e-14 * cell_span(pts) ** 2
    return [t for t in tris if abs(triangle_area(*(pts[c] for c in t))) > guard]


def conditioned(pts, tri):
    """Whether the triangle ``tri`` (local corners) of the cell ``pts`` passes the conditioning guard."""
    try:
        circumcenter(*(pts[c] for c in tri))
    except CollinearPoints:
        return False
    return True


def assert_certified_within_the_tie(pts, mesh, ball):
    """The batch's triangulation of the cell ``pts`` of ``ball`` is accepted within the tie.

    Its k - 3 interior edges are all at most the tie tolerance above
    cocircular, and its rows are its triangles above the area guard, in
    order, each conditioned with a positive area.  At a tie another
    triangulation than the oracle's may be taken, so the guards may decide
    otherwise than on the oracle's: a degenerate cell is one where no
    triangle clears the area guard or a kept one fails the conditioning
    guard.
    """
    rows = mesh.ball == ball
    tris = construction(pts)
    assert max(edge_values(pts, tris)) <= _tie_tol(cell_span(pts))
    kept = unflat(pts, tris)
    if ball in mesh.degenerate:
        assert not rows.any()
        assert not kept or not all(conditioned(pts, t) for t in kept)
        return
    assert mesh.vertices[rows].tobytes() == np.array(pts)[np.array(kept)].tobytes()
    for (i, j, l), center, area in zip(kept, mesh.circumcenter[rows].tolist(), mesh.area[rows].tolist()):
        assert center == list(circumcenter(pts[i], pts[j], pts[l]))  # a conditioned one
        assert area == triangle_area(pts[i], pts[j], pts[l]) > 0


def assert_batched_matches_oracle(points, balls=None):
    """Run aux_triangulate_cells and compare every cell with the fan oracle.

    ``points`` are the cells' vertex lists and ``balls`` their ball indices
    (default: list positions).  ``aux_triangulate_cell`` must be called
    once for each 3-vertex cell and for no other cell, and a clockwise cell
    must be degenerate.  Where every interior edge of the oracle's
    triangulation is below minus the tie tolerance, the batch must equal it
    bit for bit: triangles, circumcenters and areas, in order, or a
    degenerate cell where the oracle finds one.  Where the oracle has a tie
    edge, the batch's own triangulation must be accepted within the tie
    (``assert_certified_within_the_tie``).  ``ties`` must count the cells
    whose batch triangulation has an edge within the tolerance.  Returns the
    mesh and the ball indices of the cells whose oracle has a tie edge.
    """
    import radmesh.dirichlet as dmod

    if balls is None:
        balls = np.arange(len(points))
    xy = np.array([p for pts in points for p in pts], dtype=float).reshape(-1, 2)
    offsets = np.concatenate([[0], np.cumsum([len(pts) for pts in points], dtype=int)])
    calls = []
    orig = dmod.aux_triangulate_cell

    def spy(pts, ball):
        calls.append((len(pts), ball))
        return orig(pts, ball)

    dmod.aux_triangulate_cell = spy
    try:
        mesh = dmod.aux_triangulate_cells(xy, offsets, balls)
    finally:
        dmod.aux_triangulate_cell = orig
    assert np.all(np.diff(mesh.ball) >= 0)  # cell after cell
    assert calls == [(3, ball) for pts, ball in zip(points, balls.tolist()) if len(pts) == 3]
    ties, batch_ties = [], 0
    for pts, ball in zip(points, balls.tolist()):
        rows = mesh.ball == ball
        if clockwise(pts):
            assert ball in mesh.degenerate and not rows.any()
            continue
        if len(pts) >= 4:
            tol = _tie_tol(cell_span(pts))
            if ball not in mesh.degenerate:
                batch_ties += max(edge_values(pts, construction(pts))) > -tol
            if max(edge_values(pts, fan_delaunay(pts, tol))) > -tol:
                ties.append(ball)
                assert_certified_within_the_tie(pts, mesh, ball)
                continue
        try:
            ref = fan_triangulate_cell(pts, ball)
        except DegenerateCell:
            ref = None
        if ref is None:
            assert ball in mesh.degenerate and not rows.any()
        else:
            assert ball not in mesh.degenerate
            assert_same_triangles(mesh, rows, ref)
    assert mesh.ties == batch_ties
    return mesh, ties


def assert_same_triangles(mesh, rows, ref):
    """The rows ``rows`` of ``mesh`` are the oracle's ``ref`` bit for bit, in order."""
    for got, want in (
        (mesh.vertices[rows], [t.vertex_positions for t in ref]),
        (mesh.circumcenter[rows], [t.circumcenter for t in ref]),
        (mesh.area[rows], [t.area for t in ref]),
    ):
        want = np.array(want, dtype=float)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def regular_polygon(k, r=1.0):
    angles = [2 * math.pi * j / k for j in range(k)]
    return [(r * math.cos(a), r * math.sin(a)) for a in angles]


def test_aux_batched_regular_polygons_are_ties():
    # every quad of a regular k-gon is a tie: the batch accepts each polygon
    # of 4 or more vertices at a tie, and every circumcenter is the center
    polygons = [regular_polygon(k) for k in range(3, 21)]
    mesh, ties = assert_batched_matches_oracle(polygons)
    assert ties == list(range(1, 18)) and mesh.ties == 17 and not mesh.degenerate
    assert np.abs(mesh.circumcenter).max() <= 1e-9


def test_aux_batched_matches_scalar_on_adversarial_cells():
    rng = philox(61)
    polygons, near_ties, clockwise = [], [], []
    for k in range(4, 13):
        for j in range(k):
            for way in (np.inf, -np.inf):
                # cocircular, then one coordinate moved by 1 ulp: a near tie
                pts = regular_polygon(k, 0.7)
                pts[j] = (float(np.nextafter(pts[j][0], way)), pts[j][1])
                near_ties.append(len(polygons))
                polygons.append(pts)
    for h in (1e-3, 1e-7, 1e-15):
        # thin slivers; every triangle of the thinnest falls under the area guard
        flat = len(polygons)
        polygons.append([(0.0, 0.0), (1.0, -h), (2.0, -0.5 * h), (3.0, 0.0), (1.5, h)])
    # a near-duplicate vertex pair 1e-15 apart: the triangle on their side
    # is flat and dropped, and the rest of the cell kept
    dent = len(polygons)
    polygons.append([(0.0, 0.0), (1.0, -0.5), (2.0, 0.0), (2.0, 1e-15), (1.0, 1.5)])
    # a near-duplicate pair 2 ulps apart at 1e6, which rounding leaves with
    # a reflex turn of -1e-12 at vertex 0: an apex beyond its chord would
    # make a clockwise triangle that refuses the cell, so none is chosen
    o = 1e6
    reflex = len(polygons)
    polygons.append([(o + 0.5, o), (o + 0.5, o + 2.0**-32), (o, o + 0.5), (o - 0.5, o), (o + 0.51, o - 0.5)])
    # a 180 degree vertex: (1, 0) lies on the edge from (0, 0) to (2, 0);
    # its Delaunay triangulation fans out from it, and no triangle is flat
    straight = len(polygons)
    polygons.append([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (2.5, 1.5), (1.0, 2.2), (-0.4, 1.1)])
    for offset in ((0.0, 0.0), (1e3, -1e3), (1e6, 1e6)):
        for k in range(3, 15):
            # general position: points on a random ellipse
            ang = np.sort(rng.uniform(0.0, 2 * math.pi, k))
            a, b = rng.uniform(0.2, 1.0, 2)
            pts = [(offset[0] + a * math.cos(t), offset[1] + b * math.sin(t)) for t in ang]
            if k % 2:  # clockwise ones too
                clockwise.append(len(polygons))
            polygons.append(pts[::-1] if k % 2 else pts)
    # the cells in random order, under random ascending ball indices with
    # gaps, as _cell_aux lists the usable cells: the triangles come out in
    # ascending ball order, the runs _proposals labels the cells by
    order = rng.permutation(len(polygons))
    balls = np.sort(rng.choice(10 * len(polygons), len(polygons), replace=False))
    ball = dict(zip(order.tolist(), balls.tolist()))  # of each cell as built above
    mesh, ties = assert_batched_matches_oracle([polygons[p] for p in order], balls)
    assert {ball[p] for p in near_ties} <= set(ties)
    assert sorted(mesh.degenerate) == sorted(ball[p] for p in [flat] + clockwise)
    assert (mesh.ball == ball[dent]).sum() == 2
    assert ball[straight] not in ties and (mesh.ball == ball[straight]).sum() == 4
    assert (mesh.ball == ball[reflex]).sum() == 3


def test_aux_batched_matches_scalar_on_scenes():
    from radmesh.scene import gen_square_with_circle

    rng = philox(62)
    balls = jittered_grid(rng, 8)
    d = extract_diagram(build_regular(balls), balls)
    points, cells = cell_points(d)
    _, ties = assert_batched_matches_oracle(points, cells)
    assert len(ties) < len(cells)

    scene = gen_square_with_circle(8.0, 1.0, 0.8, interior_spacing=0.5, seed=2)
    d = extract_diagram(build_regular(scene.balls), scene.balls, domain=scene.domain)
    for domain in (None, scene.domain):
        points, cells = cell_points(d, domain)
        mesh, ties = assert_batched_matches_oracle(points, cells)
        assert len(ties) < len(cells) and not mesh.degenerate


def random_triangulation(rng, k):
    """A random triangulation of the index k-gon: increasing triples, sorted."""
    tris, sides = [], [(0, k - 1)]
    while sides:
        a, b = sides.pop()
        if b - a >= 2:
            m = int(rng.integers(a + 1, b))
            tris.append((a, m, b))
            sides += [(a, m), (m, b)]
    return sorted(tris)


@st.composite
def convex_cells(draw):
    """Convex cells: on an ellipse, near-cocircular, or with a near-duplicate vertex pair.

    Most are listed counterclockwise, as the diagram lists them; some clockwise.
    """
    rng = philox(draw(st.integers(0, 10**6)))
    k = draw(st.integers(3, 26))
    kind = draw(st.sampled_from(["ellipse", "near_cocircular", "near_duplicate"]))
    ang = np.sort(rng.uniform(0.0, 2 * math.pi, k))
    a, b = rng.uniform(0.2, 1.0, 2)
    if kind == "near_cocircular":
        noise = draw(st.sampled_from([0.0, 1e-15, 1e-13, 1e-11, 1e-8, 1e-4]))
        r = 1.0 + noise * rng.uniform(-1.0, 1.0, k)
        x, y = r * np.cos(ang), r * np.sin(ang)
    else:
        if kind == "near_duplicate":
            j = int(rng.integers(k - 1))
            gap = draw(st.sampled_from([1e-15, 1e-12, 1e-9, 1e-6]))
            ang[j + 1] = ang[j] + gap * (ang[j + 1] - ang[j])
        x, y = a * np.cos(ang), b * np.sin(ang)
    ox, oy = draw(st.sampled_from([(0.0, 0.0), (1e3, -1e3), (1e6, 1e6)]))
    pts = [(ox + float(u), oy + float(v)) for u, v in zip(x, y)]
    return pts[::-1] if draw(st.integers(0, 4)) == 0 else pts


def interior_edges(tris, k):
    """Per interior edge of an index triangulation: the triangle (i, j, l) whose
    side (i, l) it is, and the far vertex of the triangle on its other side."""
    side = {}
    for i, j, l in tris:
        side[(i, j)], side[(j, l)] = l, i
    return [((i, j, l), side[(i, l)]) for i, j, l in tris if (i, l) != (0, k - 1)]


def batched_single(pts, ball=7):
    """``aux_triangulate_cells`` on the one cell ``pts``."""
    xy, offsets = np.array(pts, dtype=float), np.array([0, len(pts)])
    return aux_triangulate_cells(xy, offsets, np.array([ball]))


@settings(max_examples=300, deadline=None)
@given(convex_cells())
def test_batched_cells_match_the_scalar_path(pts):
    # the scalar Lawson flips from a fan (conftest's fan_triangulate_cell)
    # are the oracle: where the oracle's triangulation is Delaunay beyond the
    # tie tolerance, the batch gives its triangles, circumcenters and areas
    # bit for bit, in order; at a tie the batch's own triangulation is
    # within the tolerance and passes both guards; a clockwise cell is
    # degenerate, and only a triangle reaches aux_triangulate_cell
    mesh, _ = assert_batched_matches_oracle([pts], np.array([7]))
    if clockwise(pts):
        assert mesh.degenerate == [7]


def test_batched_path_certifies_past_a_fan_tie():
    # an 8-vertex cell of the converged 233-ball criterion-8 scene with three
    # near-duplicate vertex pairs: the Lawson flips from the fan stop with
    # the edge (0, 3) at +0.2 of the tie tolerance, which the certificate
    # accepts as a tie; the largest-angle construction is Delaunay by 1.5e3
    # tolerances or more, and it is what the batch emits
    pts = [
        (8.263521520005243, 4.350845222693381), (8.66247094461046, 4.271489248180405),
        (9.262228558615979, 4.690022039072323), (9.26224456172203, 4.690056105936421),
        (8.662458209805894, 5.728508199302135), (8.263521618119652, 5.649154777415454),
        (8.263521474868913, 5.649154641969046), (8.263521474868915, 4.3508452653706735),
    ]
    fan = [t.corners for t in fan_triangulate_cell(pts, 80)]
    assert fan == [(0, 1, 2), (0, 2, 3), (0, 3, 7), (3, 4, 6), (3, 6, 7), (4, 5, 6)]
    span = cell_span(pts)
    assert 0 < _incircle(*pts[0], *pts[3], *pts[7], *pts[2]) <= _tie_tol(span)
    refused, tie, *_ = certify_one(pts, fan)
    assert not refused[0] and tie[0]
    mesh = batched_single(pts, 80)
    assert mesh.ties == 0 and not mesh.degenerate
    delaunay = [(0, 1, 7), (1, 2, 7), (2, 3, 4), (2, 4, 6), (2, 6, 7), (4, 5, 6)]
    assert mesh.vertices.tolist() == [[list(pts[c]) for c in t] for t in delaunay]
    for (i, j, l), d in interior_edges(delaunay, len(pts)):
        assert _incircle(*pts[i], *pts[j], *pts[l], *pts[d]) < -1e3 * _tie_tol(span)


@settings(max_examples=200, deadline=None)
@given(st.lists(convex_cells(), min_size=1, max_size=4), st.data())
def test_largest_angle_triangulates_each_cell(cells, data):
    # _certify checks the interior edges of the triangles it is given, not
    # that they triangulate the cell: the construction must give each cell
    # of k vertices k - 2 increasing triples, in canonical order, with
    # distinct chords (i, l), no two sides crossing, every side of the
    # polygon once, every diagonal twice and every vertex covered.  The
    # twins it opens the chords with are the one-sort pairing of the same
    # triangles, and _certify on them gives the reference's outputs
    pos = np.array(sorted(data.draw(st.sets(st.integers(0, len(cells) - 1), min_size=1))))
    xy = np.array([p for pts in cells for p in pts], dtype=float)
    offsets = np.concatenate([[0], np.cumsum([len(pts) for pts in cells])])
    local, twin = _largest_angle(xy, offsets, pos)
    found = local.tolist()
    counts = [len(cells[p]) - 2 for p in pos.tolist()]
    assert len(found) == sum(counts)
    ids = np.repeat(offsets[pos], counts)[:, None] + local
    paired = np.full(ids.shape, -1)
    paired[:, 1] = twin
    inner = np.flatnonzero(twin >= 0)
    paired.flat[twin[inner]] = 3 * inner + 1
    assert paired.tobytes() == _twins(ids).tobytes()
    got, want = _certify(xy, offsets, pos, local, twin), certify_reference(xy, offsets, pos, local)
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    for k, tris in zip((n + 2 for n in counts), np.split(found, np.cumsum(counts)[:-1])):
        tris = [tuple(t) for t in tris.tolist()]
        assert tris == sorted(tris) and all(0 <= i < j < l < k for i, j, l in tris)
        assert len({(i, l) for i, _, l in tris}) == k - 2
        assert {v for t in tris for v in t} == set(range(k))
        sides = Counter(s for i, j, l in tris for s in ((i, j), (j, l), (i, l)))
        for (a, b), n in sides.items():
            assert n == (1 if b - a == 1 or (a, b) == (0, k - 1) else 2)
            assert not any(a < c < b < d for c, d in sides)


@settings(max_examples=300, deadline=None)
@given(convex_cells(), st.integers(0, 10**6), st.booleans())
def test_warm_certificate_matches_the_batched_stage(pts, seed, from_cold):
    # _certify on a random triangulation of the cell, or on the cell's own
    # largest-angle construction: what it accepts is Delaunay within the
    # tie tolerance, counted as a tie when an edge is within it, with only
    # the triangles under the area guard dropped and every kept one
    # conditioned and counterclockwise.  On the construction it is the
    # batch, bit for bit, and so is a random triangulation that is Delaunay
    # beyond the tie
    k = len(pts)
    batched = batched_single(pts)
    tris = construction(pts) if from_cold else random_triangulation(philox(seed), k)
    refused, tie, _, vertices, centers, areas = certify_one(pts, tris)
    tol = _tie_tol(cell_span(pts))
    values = edge_values(pts, tris)
    if refused[0]:
        assert not tie[0] and not len(vertices)
    else:
        kept = unflat(pts, tris)
        assert vertices.tobytes() == np.array(pts)[np.array(kept)].tobytes()
        assert all(v <= tol for v in values)
        assert bool(tie[0]) == any(v > -tol for v in values)
        for (i, j, l), center, area in zip(kept, centers.tolist(), areas.tolist()):
            assert center == list(circumcenter(pts[i], pts[j], pts[l]))  # a conditioned one
            assert area == triangle_area(pts[i], pts[j], pts[l]) > 0  # counterclockwise
    if from_cold:
        assert bool(refused[0]) == (batched.degenerate == [7])
    if not refused[0] and (from_cold or all(v < -tol for v in values)):
        pairs = (vertices, batched.vertices), (centers, batched.circumcenter), (
            areas, batched.area)
        for got, want in pairs:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def convex(pts):
    k = len(pts)
    return min(triangle_area(pts[m - 1], pts[m], pts[(m + 1) % k]) for m in range(k)) > 0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([(0.0, 0.0), (1e3, -1e3)]))
def test_warm_certificate_accepts_a_tie_edge(seed, offset):
    # one interior edge of a cell's Delaunay triangulation made a tie: its
    # far vertex moved onto the circumcircle of the triangle across the
    # edge.  The certificate accepts the triangulation at a tie, and
    # refuses it once the vertex moves further in, until the in-circle
    # value is beyond the tie tolerance
    rng = philox(seed)
    k = int(rng.integers(4, 13))
    ang = np.sort(rng.uniform(0.0, 2 * math.pi, k))
    a, b = rng.uniform(0.2, 1.0, 2)
    pts = [(a * math.cos(t), b * math.sin(t)) for t in ang.tolist()]
    tris = construction(pts)
    edges = interior_edges(tris, k)
    (i, j, l), d = edges[int(rng.integers(len(edges)))]
    o = circumcenter(pts[i], pts[j], pts[l])
    rad = math.dist(o, pts[i])
    dist = math.dist(o, pts[d])

    def moved(r):
        cell = list(pts)
        cell[d] = (o[0] + r * (pts[d][0] - o[0]) / dist, o[1] + r * (pts[d][1] - o[1]) / dist)
        return [(x + offset[0], y + offset[1]) for x, y in cell]

    def value(cell):
        return _incircle(*cell[i], *cell[j], *cell[l], *cell[d])

    cell = moved(rad)
    assume(convex(cell))
    tol = _tie_tol(cell_span(cell))
    assert abs(value(cell)) <= tol
    assume(max(edge_values(cell, tris)) <= tol)  # the move left the other edges legal
    refused, tie, *_ = certify_one(cell, tris)
    assert not refused[0] and tie[0]
    step = 1e-15
    while not value(cell) > _tie_tol(cell_span(cell)):
        step *= 2
        cell = moved(rad * (1 - step))
    assume(convex(cell))
    assert not certified(cell, tris)


def test_warm_certificate_refuses_starts_it_cannot_certify(monkeypatch):
    import radmesh.geom as gmod

    quad = [(0.0, 0.0), (1.0, 0.1), (1.1, 1.0), (-0.1, 0.9)]
    assert certified(quad, [(0, 1, 3), (1, 2, 3)])  # its Delaunay diagonal
    # triangles the circumcenter's conditioning guard refuses (made strict
    # here) are not accepted, and the batch lists the cell as degenerate
    monkeypatch.setattr(gmod, "CONDITIONING_GUARD", 0.9)
    assert not certified(quad, [(0, 1, 3), (1, 2, 3)])
    mesh = batched_single(quad)
    assert mesh.degenerate == [7] and not len(mesh.ball)


def test_radii_match_heuristic_radius_bit_for_bit():
    # _radii sums each cell's squared distances column by column, in the
    # order heuristic_radius adds them, so the two agree exactly
    from radmesh.diagram import PowerDiagram
    from radmesh.dirichlet import _radii

    rng = philox(65)
    sizes = np.repeat(np.arange(3, 19), 25)
    rng.shuffle(sizes)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    vertices = rng.uniform(-1.0, 1.0, (offsets[-1], 2)) * 10.0 ** rng.integers(-3, 4, (offsets[-1], 1))
    d = PowerDiagram(
        vertices=vertices,
        tau=np.zeros(len(vertices)),
        vertex_of=np.zeros(0, dtype=int),
        offsets=offsets,
        cell_vertices=rng.permutation(len(vertices)),
        bounded=np.ones(len(sizes), dtype=bool),
        free=np.ones(len(sizes), dtype=bool),
        rays=np.full((len(sizes), 2, 2), np.nan),
    )
    balls = rng.permutation(len(sizes))[: len(sizes) // 2]
    centers = rng.uniform(-2.0, 2.0, (len(balls), 2))
    radii = _radii(d, balls, centers).tolist()
    for i, c, r in zip(balls.tolist(), centers.tolist(), radii):
        assert r == heuristic_radius(tuple(c), cell_polygon(d, i))


def test_fi_and_proposals_match_per_cell_reference():
    # evaluate_FI and _proposals reduce over the triangle arrays; cell_fi and
    # heuristic_center on the triangles aux_triangulate_cells gives each
    # cell on its own are the reference.
    # The centers sum the same products in the same order, so they agree
    # exactly; F_I sums its terms in another order, within n eps of the sum.
    rng = philox(63)
    balls = jittered_grid(rng, 7)
    d = extract_diagram(build_regular(balls), balls)
    ref = {i: cell_triangles(cell_polygon(d, i), i) for i in np.flatnonzero(d.bounded).tolist()}
    want = sum(cell_fi(balls[i].center, aux) for i, aux in ref.items())
    fi = evaluate_FI(balls, d)
    assert sorted(ref) == np.unique(d.aux.ball).tolist()
    assert abs(fi - want) <= len(d.aux.area) * np.finfo(float).eps * want
    ids, rows = _proposals(ball_arrays(balls), d)
    assert ids.tolist() == sorted(ref)
    for i, row in zip(ids.tolist(), rows.tolist()):
        assert tuple(row[:2]) == heuristic_center(ref[i])
        assert row[2] == heuristic_radius(tuple(row[:2]), cell_polygon(d, i))


def test_collapsed_cell_is_recorded_not_triangulated():
    # a cell whose vertices all coincide, next to an ordinary square cell
    from radmesh.diagram import PowerDiagram
    from radmesh.dirichlet import _cell_aux

    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    d = PowerDiagram(
        vertices=np.array(square + [(0.5, 0.5)]),
        tau=np.zeros(5),
        vertex_of=np.zeros(0, dtype=int),
        offsets=np.array([0, 4, 7]),
        cell_vertices=np.array([0, 1, 2, 3, 4, 4, 4]),
        bounded=np.array([True, True]),
        free=np.array([True, True]),
        rays=np.full((2, 2, 2), np.nan),
    )
    aux = _cell_aux(d)
    assert aux.degenerate == [1]
    assert aux.ball.tolist() == [0, 0]
    with pytest.raises(DegenerateCell, match="collapsed"):
        aux_triangulate_cell(cell_polygon(d, 1), 1)


def test_ill_conditioned_aux_triangle_is_a_degenerate_cell():
    # five vertices within 2e-14 of the x axis, listed from the middle of
    # the long side: the triangle (2, 3, 4) of the cell's triangulation
    # clears the area guard but not circumcenter's conditioning guard, so
    # the whole cell is degenerate, as the certificate's ``ok`` mask has it
    pts = [(0.0, 2e-14), (-0.5, 1.5e-14), (-1.0, 0.0), (1.0, 0.0), (0.5, 1.5e-14)]
    assert construction(pts) == [(0, 1, 4), (1, 2, 4), (2, 3, 4)]
    assert triangle_area(pts[2], pts[3], pts[4]) > 1e-14 * cell_span(pts) ** 2
    with pytest.raises(CollinearPoints):
        circumcenter(pts[2], pts[3], pts[4])
    mesh = batched_single(pts)
    assert mesh.degenerate == [7] and not len(mesh.ball)


def test_heuristic_center_examples():
    aux = [
        AuxTriangle(((0.0, 0.0),) * 3, (0.0, 0.0), 1.0),
        AuxTriangle(((0.0, 0.0),) * 3, (1.0, 0.0), 3.0),
    ]
    assert heuristic_center(aux) == pytest.approx((0.75, 0.0))
    _, idx, sq_cell, _ = center_cell()
    assert heuristic_center(cell_triangles(sq_cell, idx)) == pytest.approx((1.0, 1.0))


def test_heuristic_radius_examples():
    assert heuristic_radius((0.0, 0.0), [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]) == 1.0
    dists = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (3.0, 0.0)]
    assert heuristic_radius((0.0, 0.0), dists) == pytest.approx(math.sqrt(3.0))
    assert heuristic_radius((0.0, 0.0), [(0.0, 2.5)]) == 2.5


def test_fi_zero_on_delaunay_partition():
    balls = lattice_balls(4)
    t = build_regular(balls)
    d = extract_diagram(t, balls)
    assert evaluate_FI(balls, d) <= 1e-18


def test_fi_square_cell_offset():
    # one unit-square cell with the ball center offset by d along y:
    # both aux circumcenters sit at the square center, so F_I = d^2 / 2
    _, idx, cell, _ = center_cell()
    aux = cell_triangles(cell, idx)
    d = 0.17
    assert cell_fi((1.0, 1.0 + d), aux) == pytest.approx(d * d / 2)


def test_fi_translation_invariance():
    rng = philox(40)
    balls = jittered_grid(rng, 4)
    t = build_regular(balls)
    fi1 = evaluate_FI(balls, extract_diagram(t, balls))
    moved = [
        Ball((b.center[0] + 5.0, b.center[1] - 3.0), b.radius) for b in balls
    ]
    t2 = build_regular(moved)
    fi2 = evaluate_FI(moved, extract_diagram(t2, moved))
    assert fi2 == pytest.approx(fi1, rel=1e-9, abs=1e-15)


def test_frozen_center_gradient_matches_fd():
    _, idx, cell, _ = center_cell()
    aux = cell_triangles(cell, idx)
    c = (1.13, 0.94)
    gx, gy = frozen_center_gradient(c, aux)
    h = 1e-6
    fdx = (cell_fi((c[0] + h, c[1]), aux) - cell_fi((c[0] - h, c[1]), aux)) / (2 * h)
    fdy = (cell_fi((c[0], c[1] + h), aux) - cell_fi((c[0], c[1] - h), aux)) / (2 * h)
    assert gx == pytest.approx(fdx, rel=1e-5)
    assert gy == pytest.approx(fdy, rel=1e-5)


def proposals_of(balls):
    t = build_regular(balls)
    return _proposals(ball_arrays(balls), extract_diagram(t, balls))


def test_relax_step_theta_limits():
    rng = philox(41)
    balls = jittered_grid(rng, 4)
    proposals = proposals_of(balls)
    assert len(proposals[0])
    x, free, _ = ball_arrays(balls)

    frozen = relax_step(x, free, proposals, 0.0)
    assert np.array_equal(frozen, x)

    full = relax_step(x, free, proposals, 1.0)
    half = relax_step(x, free, proposals, 0.5)
    target = dict(zip(proposals[0].tolist(), proposals[1].tolist()))
    for i in range(len(balls)):
        if i in target:
            assert full[i].tolist() == target[i]
        assert half[i] == pytest.approx((x[i] + full[i]) / 2)


def test_relax_step_honors_fix_flags():
    # proposals for every ball, applied to balls with fixed coordinates:
    # a fixed center or radius keeps its value, the free one moves
    rng = philox(42)
    balls = jittered_grid(rng, 4)
    proposals = proposals_of(balls)
    flags = [(k % 3 == 0, k % 3 == 1) for k in range(len(balls))]
    pinned = [
        Ball(b.center, b.radius, fix_center=fc, fix_radius=fr)
        for b, (fc, fr) in zip(balls, flags)
    ]
    x, free, _ = ball_arrays(pinned)
    out = relax_step(x, free, proposals, 1.0)
    target = {i: (tuple(row[:2]), row[2]) for i, row in zip(*(p.tolist() for p in proposals))}
    for i, a in enumerate(pinned):
        c_new, r_new = target.get(i, (a.center, a.radius))
        assert tuple(out[i, :2]) == (a.center if a.fix_center else c_new)
        assert out[i, 2] == (a.radius if a.fix_radius else r_new)


def test_fd_gradient_zero_rows_for_fixed_balls():
    rng = philox(43)
    balls = jittered_grid(rng, 4)
    balls[5] = Ball(balls[5].center, balls[5].radius, fix_center=True, fix_radius=True)
    t = build_regular(balls)
    d = extract_diagram(t, balls)
    grads = fd_gradient(balls, d, 1e-6)
    assert grads[5] == (0.0, 0.0, 0.0)


def test_fd_gradient_near_zero_at_delaunay():
    # converged unjittered lattice: the optimum has equal radii everywhere,
    # the only case where the F_I minimum is not kinked (a tie-breaking
    # probe reassigns area O(h) between cells whose integrands differ by
    # R_i^2 - R_k^2).  Probes flip tie diagonals at any h; F_I is
    # continuous across those flips, hence on_flip="ignore".
    n = 4
    balls = [
        Ball(
            (float(i), float(j)),
            0.5,
            fix_center=i in (0, n - 1) or j in (0, n - 1),
        )
        for i in range(n)
        for j in range(n)
    ]
    scale = bbox_diag(balls)
    state = run(
        balls,
        OptimizerConfig(theta=0.5, max_iters=500, tau_tol=1e-12 * scale**2),
    )
    assert state.converged
    grads = fd_gradient(state.balls, state.diagram, 1e-7 * scale, on_flip="ignore")
    gmax = max(max(abs(g) for g in row) for row in grads)
    assert gmax <= 1e-6 * scale


def mixed_flags_grid():
    """Jittered 5 x 5 grid, radii scaled, mixing fixed centers and fixed radii."""
    rng = philox(53)
    grid = jittered_grid(rng, 5)
    scales = rng.uniform(0.9, 1.1, len(grid))
    return [
        Ball(b.center, b.radius * float(s), fix_center=k % 4 == 1, fix_radius=k % 3 == 2)
        for k, (b, s) in enumerate(zip(grid, scales))
    ]


def test_tau_system_jacobian_matches_central_differences():
    # every column of the closed-form Jacobian of the active dual-vertex
    # residuals against central differences of tau on the same triangles
    # (geom.orthocenters, so the combinatorics stay fixed), on a scene that
    # mixes fixed centers and fixed radii
    balls = mixed_flags_grid()
    t = build_regular(balls)
    active = _active_triangles(extract_diagram(t, balls))
    x, free, _ = ball_arrays(balls)
    r, coo, cols = _tau_system(x, free, t, active)
    J = dense(coo, (len(r), len(cols)))
    tris = t.tris[active]

    def tau(x):
        return orthocenters(x[:, :2], x[:, 2], tris)[2]

    unknowns = [
        3 * i + c
        for i, b in enumerate(balls)
        for c in range(3)
        if not (b.fix_center if c < 2 else b.fix_radius)
    ]
    assert cols.tolist() == unknowns
    assert J.shape == (len(active), len(unknowns))
    assert np.array_equal(r, tau(x))
    h = 1e-6
    for k, flat in enumerate(cols):
        up, down = x.copy(), x.copy()
        up.flat[flat] += h
        down.flat[flat] -= h
        fd = (tau(up) - tau(down)) / (2 * h)
        np.testing.assert_allclose(J[:, k], fd, rtol=1e-6, atol=1e-7)


def dense(coo, shape):
    """The matrix of the COO gather ``coo`` (no entry repeated)."""
    rows, col, vals = coo
    assert len(set(zip(rows.tolist(), col.tolist()))) == len(vals)
    out = np.zeros(shape)
    out[rows, col] = vals
    return out


def mixed_flags_tau_system():
    balls = mixed_flags_grid()
    t = build_regular(balls)
    d = extract_diagram(t, balls)
    x, free, alive = ball_arrays(balls)
    r, coo, cols = _tau_system(x, free, t, _active_triangles(d))
    return alive, t, d, x, free, r, dense(coo, (len(r), len(cols)))


def damped_system(kind):
    """(J, r) of one shape the Gauss-Newton solve meets."""
    rng = philox(54)
    if kind == "wide":  # fewer residuals than unknowns, as in the real scenes
        J = rng.standard_normal((20, 35))
    elif kind == "tall":
        J = rng.standard_normal((35, 20))
    elif kind == "rank_deficient":  # duplicate rows and a zero column
        J = rng.standard_normal((20, 30))
        J = np.vstack([J, J[:4]])
        J[:, 7] = 0.0
    else:
        *_, r, J = mixed_flags_tau_system()
        return J, r
    return J, rng.standard_normal(J.shape[0])


def damped_steps(J, r):
    """``_damped_steps`` fed the COO gather of the dense ``J``."""
    rows, col = np.nonzero(J)
    return list(_damped_steps((rows, col, J[rows, col]), r, J.shape[1]))


@pytest.mark.parametrize("kind", ["wide", "tall", "rank_deficient", "tau_system"])
def test_damped_steps_match_unreduced_lstsq(kind):
    # the solve in min(m, n) unknowns against lstsq on the stacked
    # [J; sqrt(lam) I_n] system, at each of the 8 damping levels
    J, r = damped_system(kind)
    m, n = J.shape
    scale = float(np.abs(J).max())
    smax = float(np.linalg.norm(J, 2))
    eps = np.finfo(float).eps
    lam = 1e-10 * scale * scale
    steps = damped_steps(J, r)
    assert len(steps) == 8
    for level, dx in enumerate(steps):
        lhs = np.vstack([J, math.sqrt(lam) * np.eye(n)])
        ref, *_ = np.linalg.lstsq(lhs, np.concatenate([-r, np.zeros(n)]), rcond=None)
        # A = [J; sqrt(lam) I] has |A| = hypot(smax, sqrt(lam)) and smallest
        # singular value >= sqrt(lam), so cond(A) <= cond = |A| / sqrt(lam)
        # (smax / sqrt(lam) at the small levels).  Both solves are backward
        # stable, so by the least-squares perturbation bound each lies within
        # max(m, n) eps (cond |ref| + cond^2 |b| / |A|) of the exact step,
        # with |b| = |r| bounding the residual
        norm_a = math.hypot(smax, math.sqrt(lam))
        cond = norm_a / math.sqrt(lam)
        bound = max(m, n) * eps * (
            cond * np.linalg.norm(ref) + cond**2 * np.linalg.norm(r) / norm_a
        )
        assert bound < 1e-3 * np.linalg.norm(ref)  # tight enough to tell a wrong step
        assert np.linalg.norm(dx - ref) <= bound
        if m >= n:
            # the primal solve is this same stacked system in units of the
            # largest |J| entry, so the same lstsq call gives the same bits
            root = 10.0 ** (level - 5)  # sqrt(lam / scale^2)
            lhs = np.vstack([J / scale, root * np.eye(n)])
            rhs = np.concatenate([-r / scale, np.zeros(n)])
            assert np.array_equal(dx, np.linalg.lstsq(lhs, rhs, rcond=None)[0])
        lam *= 100.0
    # the solve works in units of the largest |J| entry: scaling the system
    # by a power of two changes no bit, and (warnings being errors) nothing
    # under- or overflows on the way
    for s in (2.0**500, 2.0**-500):
        for dx, ds in zip(steps, damped_steps(s * J, s * r), strict=True):
            assert np.array_equal(dx, ds)


def test_gauss_newton_step_solves_once_per_damping_level():
    # no QR: each damping level a Gauss-Newton step tries is one lstsq
    import radmesh.dirichlet as dmod

    alive, t, d, x, free, _, _ = mixed_flags_tau_system()
    calls = {"qr": 0, "lstsq": 0}
    orig_qr, orig_lstsq, orig_rebuild = np.linalg.qr, np.linalg.lstsq, dmod._rebuild

    def qr(*args, **kwargs):
        calls["qr"] += 1
        return orig_qr(*args, **kwargs)

    def lstsq(*args, **kwargs):
        calls["lstsq"] += 1
        return orig_lstsq(*args, **kwargs)

    def failing_rebuild(balls, merge_eps=None, start=None, state=None):
        raise TooFewBalls("every trial fails")

    np.linalg.qr, np.linalg.lstsq = qr, lstsq
    try:
        # accepted at the first damping level
        x_new, moved, built, exit_ = _gauss_newton_step(x, free, alive, t, d, None)
        assert moved > 0 and built is not None and not np.array_equal(x_new, x)
        assert exit_ is None
        assert calls == {"qr": 0, "lstsq": 1}
        # no trial rebuilds, so the step tries all 8 levels
        calls.update(qr=0, lstsq=0)
        dmod._rebuild = failing_rebuild
        x_new, moved, built, exit_ = _gauss_newton_step(x, free, alive, t, d, None)
        assert x_new is x and moved == 0 and built is None
        assert exit_ == "no_descent"
        assert calls == {"qr": 0, "lstsq": 8}
    finally:
        np.linalg.qr, np.linalg.lstsq, dmod._rebuild = orig_qr, orig_lstsq, orig_rebuild


def test_frozen_gradient_square_cell_slope():
    # frozen square cell with the ball center offset by d: F_I = d^2/2,
    # so the frozen-combinatorics derivative w.r.t. the offset is d
    d = 1e-3
    _, idx, cell, _ = center_cell()
    aux = cell_triangles(cell, idx)
    gx, gy = frozen_center_gradient((1.0, 1.0 + d), aux)
    assert gx == pytest.approx(0.0, abs=1e-12)
    assert gy == pytest.approx(d, rel=1e-9)


def test_run_already_converged():
    balls = lattice_balls(4)
    cfg = OptimizerConfig(max_iters=50, tau_tol=1e-10)
    state = run(balls, cfg)
    assert state.converged
    assert state.iteration == 0
    assert len(state.history) == 1


@pytest.mark.parametrize(
    "balls", [[], [Ball((float(i), float(i % 2)), 1.0, alive=False) for i in range(4)]],
    ids=["empty", "all_dead"],
)
def test_run_without_alive_balls_raises_too_few(balls):
    with pytest.raises(TooFewBalls, match="got 0"):
        run(balls, OptimizerConfig(max_iters=5))


def test_run_jittered_grid_converges():
    rng = philox(44)
    balls = jittered_grid(rng, 5, fix_boundary=True)
    scale = bbox_diag(balls)
    cfg = OptimizerConfig(theta=0.5, max_iters=500, tau_tol=1e-8 * scale * scale)
    state = run(balls, cfg)
    assert state.converged
    assert state.max_abs_tau <= 1e-8 * scale * scale


def test_run_deterministic_history():
    rng1, rng2 = philox(45), philox(45)
    cfg = OptimizerConfig(theta=0.5, max_iters=40)
    h1 = run(jittered_grid(rng1, 4, fix_boundary=True), cfg).history
    h2 = run(jittered_grid(rng2, 4, fix_boundary=True), cfg).history
    assert [(r.iteration, r.fi, r.max_abs_tau, r.moved) for r in h1] == [
        (r.iteration, r.fi, r.max_abs_tau, r.moved) for r in h2
    ]


def test_run_on_iteration_callback():
    rng = philox(46)
    balls = jittered_grid(rng, 4, fix_boundary=True)
    seen = []
    run(balls, OptimizerConfig(max_iters=5), on_iteration=lambda s: seen.append(s.iteration))
    assert seen == list(range(6))


def test_eliminate_redundant_ball():
    # a weak extra ball inside a jittered grid is hidden from the start and
    # gets eliminated after three skipped iterations
    rng = philox(50)
    balls = jittered_grid(rng, 4, fix_boundary=True)
    balls.append(Ball((1.5, 1.5), 0.05))
    cfg = OptimizerConfig(max_iters=10, eliminate_redundant=True, tau_tol=1e-15)
    state = run(balls, cfg)
    assert not state.balls[-1].alive
    assert state.history[-1].eliminated == 1


def test_run_triangulates_each_cell_once_per_iteration():
    # evaluate_FI, the elimination bookkeeping and relax_step share the
    # auxiliary triangulations kept on each iteration's diagram
    import radmesh.dirichlet as dmod

    rng = philox(49)
    balls = jittered_grid(rng, 5, fix_boundary=True)
    calls = []
    orig = dmod.aux_triangulate_cells

    def spy(xy, offsets, cells):
        calls.append(cells.tolist())
        return orig(xy, offsets, cells)

    per_iteration = []

    def on_iteration(state):
        per_iteration.append((state.diagram, list(calls)))
        calls.clear()

    dmod.aux_triangulate_cells = spy
    try:
        run(balls, OptimizerConfig(theta=0.5, max_iters=5), on_iteration=on_iteration)
    finally:
        dmod.aux_triangulate_cells = orig
    assert not calls  # nothing is triangulated after the last rebuild
    assert len(per_iteration) == 6
    for diagram, batches in per_iteration:
        assert len(batches) == 1
        (cells,) = batches
        assert len(diagram.aux.ball) > 0
        assert cells == np.unique(diagram.aux.ball).tolist()


def test_run_fi_is_a_function_of_the_diagram():
    # a run to convergence, Gauss-Newton steps included: at every iteration
    # F_I and the auxiliary mesh are those of a fresh rebuild of the same
    # rows, bit for bit, whatever the earlier iterations were
    import radmesh.dirichlet as dmod
    from radmesh.diagram import default_merge_eps

    balls = jittered_grid(philox(51), 6, fix_boundary=True)
    _, free, _ = ball_arrays(balls)
    merge_eps = default_merge_eps(balls)
    orig_step = dmod._gauss_newton_step
    steps, seen = [], []

    def step(*args):
        out = orig_step(*args)
        steps.append(out[3])
        return out

    def on_iteration(state):
        rows = BallArrays(state.x.copy(), free, state.alive.copy())
        _, fresh = _rebuild(rows, merge_eps)
        assert state.fi == evaluate_FI(rows, fresh)
        aux, want = state.diagram.aux, _cell_aux(fresh)
        for name in ("ball", "vertices", "circumcenter", "area"):
            got, ref = getattr(aux, name), getattr(want, name)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        assert (aux.degenerate, aux.ties) == (want.degenerate, want.ties)
        seen.append(state.iteration)

    dmod._gauss_newton_step = step
    try:
        state = run(balls, OptimizerConfig(theta=0.5, max_iters=200), on_iteration=on_iteration)
    finally:
        dmod._gauss_newton_step = orig_step
    assert state.converged and None in steps  # an accepted Gauss-Newton step
    assert seen == list(range(len(state.history)))


def test_run_counts_the_cells_accepted_at_a_tie():
    # only 3-vertex cells reach aux_triangulate_cell; AuxMesh.ties counts
    # the cells accepted with an interior edge at a tie per iteration, and
    # OptimizerState.aux_tie_cells over the run.  Far from convergence no
    # cell is a tie; at the converged iterate, near ties are common
    import radmesh.dirichlet as dmod

    balls = jittered_grid(philox(49), 5, fix_boundary=True)
    sizes, per_iteration = [], []
    orig = dmod.aux_triangulate_cell

    def spy(pts, ball):
        sizes.append(len(pts))
        return orig(pts, ball)

    def on_iteration(state):
        per_iteration.append((state.diagram.aux.ties, state.aux_tie_cells))

    dmod.aux_triangulate_cell = spy
    try:
        state = run(balls, OptimizerConfig(theta=0.5, max_iters=200), on_iteration=on_iteration)
    finally:
        dmod.aux_triangulate_cell = orig
    assert state.converged
    assert set(sizes) <= {3}
    total = 0
    for ties, counted in per_iteration:
        total += ties
        assert counted == total
    assert per_iteration[1][0] == 0 and per_iteration[-1][0] > 0
    assert state.aux_tie_cells == total


def test_run_computes_proposals_once_per_iteration():
    # the elimination bookkeeping and relax_step share one set of
    # proposals, computed once per iteration for every usable cell
    import radmesh.dirichlet as dmod

    rng = philox(49)
    balls = jittered_grid(rng, 5, fix_boundary=True)
    calls = []
    orig = dmod._proposals

    def spy(balls, diagram):
        proposals = orig(balls, diagram)
        calls.append((diagram, proposals))
        return proposals

    seen = []  # (diagram, _proposals calls since the previous iteration)

    def on_iteration(state):
        seen.append((state.diagram, list(calls)))
        calls.clear()

    dmod._proposals = spy
    try:
        run(balls, OptimizerConfig(theta=0.5, max_iters=5), on_iteration=on_iteration)
    finally:
        dmod._proposals = orig
    assert not calls  # the last iteration only stops
    assert len(seen) == 6
    for (diagram, _), (_, proposed) in zip(seen, seen[1:]):
        assert len(proposed) == 1
        (called_on, proposals), = proposed
        assert called_on is diagram
        # every usable cell, plus the hull balls' radius-only proposals
        hull = set(np.flatnonzero(diagram.has_cell & ~diagram.bounded).tolist())
        assert set(proposals[0].tolist()) == set(diagram.aux.ball.tolist()) | hull


def test_run_counts_gauss_newton_fallbacks():
    # one free ball among fixed ones cannot zero all its residuals: once the
    # polish reaches their least-squares minimum, a step finds no damping
    # level and the iteration falls back to relaxation
    import radmesh.dirichlet as dmod

    balls = jittered_grid(philox(60), 3, jitter=0.2)
    balls = [b if i == 4 else Ball(b.center, b.radius, True, True) for i, b in enumerate(balls)]
    failed, exits = [], []
    orig = dmod._gauss_newton_step

    def spy(*args):
        out = orig(*args)
        failed.append(out[1] == 0)
        exits.append(out[3])
        return out

    dmod._gauss_newton_step = spy
    try:
        state = run(balls, OptimizerConfig(max_iters=30))
    finally:
        dmod._gauss_newton_step = orig
    assert state.gn_fallbacks == sum(failed) > 0
    assert len(failed) > state.gn_fallbacks  # other steps were accepted
    # each fallback is counted under the exit it took: here no damping level helped
    assert state.gn_exits == {e: exits.count(e) for e in ("no_active", "no_free", "no_descent")}
    assert state.gn_exits["no_descent"] == state.gn_fallbacks


def test_gauss_newton_step_names_its_early_exits():
    # fully fixed balls own no active triangle; coordinates fixed since the
    # diagram was built (an elimination) leave active triangles but no unknown
    fixed = [Ball(b.center, b.radius, True, True) for b in lattice_balls(3)]
    t = build_regular(fixed)
    x, free, alive = ball_arrays(fixed)
    out = _gauss_newton_step(x, free, alive, t, extract_diagram(t, fixed), None)
    assert out[0] is x and out[1:] == (0, None, "no_active")

    alive, t, d, x, free, _, _ = mixed_flags_tau_system()
    assert len(_active_triangles(d))
    out = _gauss_newton_step(x, np.zeros_like(free), alive, t, d, None)
    assert out[0] is x and out[1:] == (0, None, "no_free")


def test_run_counts_degenerate_cells():
    # the skipped cells of every iteration's diagram are totalled
    from radmesh.scene import gen_masked_lattice

    square = [(0.3, 0.3), (0.6, 0.3), (0.6, 0.6), (0.3, 0.6)]
    balls = gen_masked_lattice([square], 0.12, 0.03, seed=5).balls
    seen = []
    state = run(
        balls,
        OptimizerConfig(max_iters=40),
        on_iteration=lambda s: seen.append(len(s.diagram.aux.degenerate)),
    )
    assert state.degenerate_cells == sum(seen) > 0


# the radii overflow on their way to infinity; those warnings are the
# divergence this test is about
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_run_stops_diverging_fixed_center_grid():
    # every center fixed, the radii free: the radii run off within a few
    # iterations (0.71 -> 633 -> 6.1e7), cells turn ill-conditioned and F_I
    # blows up; the run must stop with a domain error, not with the
    # CollinearPoints of an ill-conditioned aux triangle, and not as converged:
    # at 6.1e7 the regular triangulation hides 11 of the 16 balls and leaves
    # no bounded cell, where F_I and max|tau| would read 0 with nothing measured
    balls = [Ball(b.center, b.radius, fix_center=True) for b in jittered_grid(philox(40), 4)]
    with pytest.raises((Diverged, DegenerateScene)):
        run(balls, OptimizerConfig(max_iters=40))


def test_run_refuses_free_balls_without_usable_cell():
    # four free balls at the corners of a square own only unbounded cells:
    # F_I and max|tau| measure nothing, which is no convergence
    balls = [Ball((float(x), float(y)), 0.3) for x, y in ((0, 0), (1, 0), (1, 1), (0, 1))]
    with pytest.raises(DegenerateScene, match="usable cell at iteration 0"):
        run(balls, OptimizerConfig(max_iters=5))


def test_run_warm_starts_every_rebuild():
    # every rebuild of a benchmark run, the Gauss-Newton trials included,
    # starts from the previous table; mended or refused, it equals the fresh
    # build, and rebuild_fallbacks counts exactly the refused starts.  Only a
    # start with an inverted triangle or a dented hull is refused: none on
    # square-hybrid, a few on mask-plateau
    import radmesh.dirichlet as dmod
    from test_diagram import benchmark_inputs
    from test_triangulation import assert_same_table

    from radmesh.triangulation import verify_hull, verify_regular

    for name in ("square-hybrid", "mask-plateau"):
        balls, max_iters = benchmark_inputs(name)
        orig = dmod.build_regular
        seen = []

        def spy(balls, start=None):
            t = orig(balls, start=start)
            assert_same_table(t, orig(balls))
            seen.append((start is not None, t.warm))
            return t

        diag = bbox_diag(balls)
        cfg = OptimizerConfig(theta=0.5, max_iters=max_iters, tau_tol=1e-8 * diag * diag)
        dmod.build_regular = spy
        try:
            state = run(balls, cfg)
        finally:
            dmod.build_regular = orig
        assert seen[0] == (False, False)  # the first build has no start
        assert all(started for started, _ in seen[1:])
        refused = sum(started and not warm for started, warm in seen)
        assert state.rebuild_fallbacks == refused
        assert (refused > 0) is (name == "mask-plateau") and refused < len(seen) / 20
        final = build_regular(state.balls)
        assert verify_hull(final, state.balls) == []
        if name == "mask-plateau":  # the brute-force oracle takes 6 s at 441 balls
            assert verify_regular(final, state.balls) == []


def test_run_builds_balls_only_when_read(monkeypatch):
    # run keeps the ball set as arrays, the Gauss-Newton trials and the
    # elimination included: no Ball is constructed until state.balls is read
    import radmesh.dirichlet as dmod

    balls = jittered_grid(philox(50), 4, fix_boundary=True)
    balls.append(Ball((1.5, 1.5), 0.05))  # hidden, and eliminated
    made, steps = [], []
    orig_post_init, orig_step = Ball.__post_init__, dmod._gauss_newton_step

    def post_init(self):
        made.append(self)
        orig_post_init(self)

    def step(*args):
        steps.append(args)
        return orig_step(*args)

    monkeypatch.setattr(Ball, "__post_init__", post_init)
    monkeypatch.setattr(dmod, "_gauss_newton_step", step)
    state = run(balls, OptimizerConfig(max_iters=200, eliminate_redundant=True, tau_tol=1e-15))
    assert steps and state.history[-1].eliminated == 1
    assert made == []
    final = state.balls
    assert made == final and len(final) == len(balls)
    assert not final[-1].alive and final[0].fix_center


def test_write_history_csv(tmp_path):
    rng = philox(47)
    balls = jittered_grid(rng, 4, fix_boundary=True)
    state = run(balls, OptimizerConfig(max_iters=3))
    path = tmp_path / "history.csv"
    write_history_csv(state.history, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,F_I,max_abs_tau,moved,eliminated"
    assert len(lines) == len(state.history) + 1
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == state.history[0].fi


def test_radius_zero_sum_invariant():
    # after each heuristic proposal, the powers of the proposed ball at the
    # cell vertices sum to zero by construction
    import radmesh.dirichlet as dmod

    rng = philox(48)
    balls = jittered_grid(rng, 5, fix_boundary=True)
    scale = bbox_diag(balls)
    calls = []
    orig = dmod._radii

    def spy(diagram, ids, centers):
        radii = orig(diagram, ids, centers)
        for i, c, r in zip(ids.tolist(), centers.tolist(), radii.tolist()):
            calls.append((c, cell_polygon(diagram, i), r))
        return radii

    dmod._radii = spy
    try:
        run(balls, OptimizerConfig(theta=0.5, max_iters=20))
    finally:
        dmod._radii = orig
    assert calls
    for c, verts, r in calls:
        s = sum(
            (v[0] - c[0]) ** 2 + (v[1] - c[1]) ** 2 - r * r for v in verts
        )
        assert abs(s) <= 1e-9 * len(verts) * scale * scale
