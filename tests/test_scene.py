"""Scene generators, validation, and scene-file round trips."""

import hashlib
import math

import pytest

from radmesh.dirichlet import OptimizerConfig, bbox_diag, run
from radmesh.errors import InconsistentGeometry, ParseError
from radmesh.scene import (
    PROTECT_RATIO,
    Scene,
    gen_masked_lattice,
    gen_square_with_circle,
    load_scene,
    save_scene,
    scene_to_json,
    validate_scene,
)

from conftest import masked_lattice_reference, perfbench_workloads


def ball_key(b):
    return (b.center, b.radius, b.fix_center, b.fix_radius, b.alive)


def test_square_with_circle_postconditions():
    scene = gen_square_with_circle(10.0, 2.0, 0.8, interior_spacing=0.45, seed=7)
    validate_scene(scene)
    assert 200 <= len(scene.balls) <= 400
    protecting = [b for b in scene.balls if b.fix_center]
    free = [b for b in scene.balls if not b.fix_center]
    assert protecting and free
    # removal rule: no free center inside any protecting circle
    for b in free:
        assert not b.fix_radius
        for p in protecting:
            d = math.hypot(b.center[0] - p.center[0], b.center[1] - p.center[1])
            assert d >= p.radius
    # the inner-circle ring is fully fixed; buffer rings and the outer
    # boundary keep their radii adjustable
    fully_fixed = [b for b in protecting if b.fix_radius]
    assert fully_fixed
    cx = cy = 5.0
    for b in fully_fixed:
        assert math.hypot(b.center[0] - cx, b.center[1] - cy) == pytest.approx(2.0)


def test_square_boundary_circles_overlap():
    scene = gen_square_with_circle(6.0, 0.0, 1.0, jitter_amplitude=0.0)
    boundary = [b for b in scene.balls if b.fix_center]
    # adjacent protecting circles intersect: radius > spacing / 2
    assert all(b.radius == pytest.approx(PROTECT_RATIO * 1.0) for b in boundary)


def test_same_seed_identical_scenes():
    a = gen_square_with_circle(10.0, 2.0, 0.8, interior_spacing=0.45, seed=3)
    b = gen_square_with_circle(10.0, 2.0, 0.8, interior_spacing=0.45, seed=3)
    assert [ball_key(x) for x in a.balls] == [ball_key(x) for x in b.balls]
    c = gen_square_with_circle(10.0, 2.0, 0.8, interior_spacing=0.45, seed=4)
    assert [ball_key(x) for x in a.balls] != [ball_key(x) for x in c.balls]


def test_inner_circle_too_large_raises():
    with pytest.raises(InconsistentGeometry):
        gen_square_with_circle(10.0, 2.0, 1.0)  # 2 + 3*1 = 5 >= side/2
    with pytest.raises(InconsistentGeometry):
        gen_square_with_circle(-1.0, 0.0, 1.0)
    # spacings and layer counts the generators cannot use
    for kwargs in (
        {"interior_spacing": 0.0},
        {"interior_spacing": -0.1},
        {"layer_count": -3},
    ):
        with pytest.raises(InconsistentGeometry):
            gen_square_with_circle(10.0, 2.0, 0.8, **kwargs)
    with pytest.raises(InconsistentGeometry):
        gen_square_with_circle(10.0, 0.0, 0.8, interior_spacing=0.0)
    for spacing in (0.0, -0.1):
        with pytest.raises(InconsistentGeometry):
            gen_masked_lattice([], spacing, 0.0)
    # jitters that would push centers out of the domain or do nothing
    for jitter in (5.0, 0.05, -0.3):
        with pytest.raises(InconsistentGeometry, match="jitter"):
            gen_masked_lattice([], 0.1, jitter)
    for jitter in (50.0, 0.225, -0.3):
        with pytest.raises(InconsistentGeometry, match="jitter"):
            gen_square_with_circle(10.0, 2.0, 0.8, interior_spacing=0.45, jitter_amplitude=jitter)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_generators_reject_non_finite_numbers(bad):
    # a NaN compares false with every bound, so it must be caught before them
    square = {"square_side": 10.0, "inner_radius": 2.0, "boundary_spacing": 0.8}
    for name in (*square, "interior_spacing", "jitter_amplitude"):
        with pytest.raises(InconsistentGeometry, match="finite"):
            gen_square_with_circle(**{**square, name: bad})
    for args in ((bad, 0.02), (0.1, bad)):
        with pytest.raises(InconsistentGeometry, match="finite"):
            gen_masked_lattice([], *args)


def test_jitter_zero_lattice_converges_quickly():
    # unjittered interior lattice is already Delaunay away from the walls;
    # only the boundary-interface cells need correcting
    scene = gen_square_with_circle(4.0, 0.0, 1.0, jitter_amplitude=0.0)
    scale = bbox_diag(scene.balls)
    state = run(
        scene.balls, OptimizerConfig(theta=0.5, max_iters=30, tau_tol=1e-9 * scale * scale)
    )
    assert state.converged
    assert state.iteration <= 30


def test_masked_lattice_empty_mask_all_free():
    scene = gen_masked_lattice([], 0.25, 0.02, seed=5)
    validate_scene(scene)
    assert scene.balls
    assert all(not b.fix_center for b in scene.balls)


def test_masked_lattice_full_mask_all_fixed_noop():
    dom = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    scene = gen_masked_lattice([dom], 0.25, 0.02, seed=5, domain=dom)
    assert all(b.fix_center and b.fix_radius for b in scene.balls)
    state = run(scene.balls, OptimizerConfig(max_iters=5))
    assert state.converged and state.iteration == 0


def test_masked_lattice_l_mask():
    l_mask = [(0.1, 0.1), (0.4, 0.1), (0.4, 0.2), (0.2, 0.2), (0.2, 0.6), (0.1, 0.6)]
    scene = gen_masked_lattice([l_mask], 0.1, 0.01, seed=6)
    fixed = [b for b in scene.balls if b.fix_center]
    free = [b for b in scene.balls if not b.fix_center]
    assert fixed and free
    from radmesh.scene import _point_in_polygon

    for b in fixed:
        assert _point_in_polygon(b.center, l_mask)


def test_masked_lattice_mask_outside_domain_raises():
    with pytest.raises(InconsistentGeometry):
        gen_masked_lattice([[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0)]], 0.25, 0.0)


@pytest.mark.parametrize("spacing,left", [(2.0, 0), (1.0, 2)])
def test_masked_lattice_too_few_balls_raises(spacing, left):
    # with the CLI's default jitter, the unit domain keeps no lattice point
    # at spacing 2 and two at spacing 1
    with pytest.raises(InconsistentGeometry, match=f"leaves {left} lattice point"):
        gen_masked_lattice([], spacing, 0.02)


SQUARE_MASK = [(0.3, 0.3), (0.7, 0.3), (0.7, 0.7), (0.3, 0.7)]
PINNED_SCENES = {
    # scene: (generator, balls, SHA-256 prefix of its scene_to_json)
    "square-hybrid": (lambda: gen_square_with_circle(10.0, 2.0, 0.8, interior_spacing=0.30, seed=7),
                      441, "6bb0ba7c9adb7dd0"),
    "ci-square": (lambda: gen_square_with_circle(10.0, 2.0, 0.8, interior_spacing=0.45, seed=7),
                  233, "d3fd4824954d9e9d"),
    "mask-plateau": (lambda: perfbench_workloads().MaskPlateau().generate(0), 255, "8d38343bf0699c28"),
    "ci-masked-lattice": (lambda: gen_masked_lattice([SQUARE_MASK], 0.1, 0.02, seed=1),
                          101, "1432859c88891b22"),
}


@pytest.mark.parametrize("name", sorted(PINNED_SCENES))
def test_generated_scene_bytes_are_pinned(name):
    # the benchmark's and CI's scenes, byte for byte: a change to the lattice,
    # the jitter draws or the removal rule shows here first
    generate, n, digest = PINNED_SCENES[name]
    scene = generate()
    assert len(scene.balls) == n
    assert hashlib.sha256(scene_to_json(scene).encode()).hexdigest()[:16] == digest


def test_masked_lattice_drops_free_balls_inside_protectors():
    # a legal jitter moves a free center into a mask's protecting circle; the
    # generator drops that ball, as gen_square_with_circle does, and nothing else
    reference = masked_lattice_reference([SQUARE_MASK], 0.1, 0.049, seed=4)
    with pytest.raises(InconsistentGeometry, match="inside a protecting circle"):
        validate_scene(Scene(reference, [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]))
    scene = gen_masked_lattice([SQUARE_MASK], 0.1, 0.049, seed=4)
    validate_scene(scene)
    protectors = [p for p in reference if p.fix_center]
    kept = [
        b for b in reference
        if b.fix_center or all(
            math.hypot(b.center[0] - p.center[0], b.center[1] - p.center[1]) >= p.radius
            for p in protectors
        )
    ]
    assert len(kept) < len(reference)
    assert [ball_key(b) for b in scene.balls] == [ball_key(b) for b in kept]


def test_masked_lattice_rejects_bad_domain():
    with pytest.raises(InconsistentGeometry, match="convex and CCW"):
        gen_masked_lattice([], 0.1, 0.0, domain=[(0.0, 1.0), (1.0, 1.0), (1.0, 0.0), (0.0, 0.0)])
    with pytest.raises(InconsistentGeometry, match="finite"):
        gen_masked_lattice([], 0.1, 0.0, domain=[(0.0, 0.0), (math.inf, 0.0), (1.0, 1.0)])


def test_validate_scene_rejects_bad_domain():
    ball_scene = gen_square_with_circle(4.0, 0.0, 1.0)
    with pytest.raises(InconsistentGeometry):
        validate_scene(Scene(ball_scene.balls, [(0.0, 0.0), (1.0, 0.0)]))
    with pytest.raises(InconsistentGeometry):
        # clockwise square
        validate_scene(
            Scene(ball_scene.balls, [(0.0, 4.0), (4.0, 4.0), (4.0, 0.0), (0.0, 0.0)])
        )
    # a regular pentagon listed as a pentagram turns left at every vertex but
    # winds twice; three collinear points enclose no area
    pentagram = [
        (2.0 + 2.0 * math.cos(0.8 * math.pi * k), 2.0 + 2.0 * math.sin(0.8 * math.pi * k)) for k in range(5)
    ]
    for domain in (pentagram, [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]):
        with pytest.raises(InconsistentGeometry, match="convex and CCW"):
            validate_scene(Scene(ball_scene.balls, domain))


def test_save_load_round_trip(tmp_path):
    scene = gen_square_with_circle(10.0, 2.0, 0.8, interior_spacing=0.45, seed=11)
    p = tmp_path / "scene.json"
    save_scene(scene, p)
    loaded = load_scene(p)
    assert [ball_key(b) for b in loaded.balls] == [ball_key(b) for b in scene.balls]
    assert loaded.domain == scene.domain
    assert loaded.params == scene.params
    assert loaded.rng_seed == scene.rng_seed
    # serialization itself is deterministic
    assert scene_to_json(loaded) == p.read_text(encoding="utf-8")


def test_load_without_params_takes_the_optimizer_defaults(tmp_path):
    p = tmp_path / "scene.json"
    p.write_text(scene_text(), encoding="utf-8")
    assert load_scene(p).params == OptimizerConfig()
    p.write_text(scene_text('"params": {"max_iters": 7}'), encoding="utf-8")
    assert load_scene(p).params == OptimizerConfig(max_iters=7)


def test_load_rejects_bad_domain(tmp_path):
    # every scene file needs a convex CCW domain, whatever reads it
    p = tmp_path / "scene.json"
    # (Python's json reads NaN and Infinity; exact orientation would raise
    # ValueError and OverflowError on them)
    for domain in ('"domain": [[0, 0], [1, 1], [1, 0]]', '"domain": [[0, 0], [1, 0]]',
                   '"domain": [[0, 0], [2, 0], [1, 0.5], [2, 2], [0, 2]]',
                   '"domain": [[0, 0], [NaN, 0], [1, 1]]', '"domain": [[0, 0], [1, 0], [1, Infinity]]'):
        p.write_text(scene_text(domain), encoding="utf-8")
        with pytest.raises(InconsistentGeometry, match="domain polygon"):
            load_scene(p)


def test_load_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        load_scene(p)
    p.write_text("5", encoding="utf-8")
    with pytest.raises(ParseError, match="JSON object"):
        load_scene(p)

    p.write_text('{"domain": [[0,0],[1,0],[1,1]]}', encoding="utf-8")
    with pytest.raises(ParseError, match="balls"):
        load_scene(p)

    p.write_text(
        '{"balls": [{"c": [0.0, 0.0]}], "domain": [[0,0],[1,0],[1,1]]}',
        encoding="utf-8",
    )
    with pytest.raises(ParseError, match="'r'"):
        load_scene(p)

    def write(balls='[{"c": [0.0, 0.0], "r": 1.0}]', domain="[[0,0],[1,0],[1,1]]", extra=""):
        p.write_text(f'{{"balls": {balls}, "domain": {domain}{extra}}}', encoding="utf-8")

    # invalid records and settings name the field instead of escaping as a
    # ValueError, TypeError or AttributeError traceback
    for fields, match in (
        ({"balls": '[{"c": [0.0, 0.0], "r": -1}]'}, "ball 0: .*radius"),
        ({"balls": '[{"c": ["x", 0], "r": 1.0}]'}, "ball 0: .*'x'"),
        ({"balls": '{"c": [0.0, 0.0], "r": 1.0}'}, "'balls' must be a list"),
        ({"balls": "[1.0]"}, "ball 0: must be an object"),
        ({"domain": "[[0,0,0],[1,0],[1,1]]"}, "domain: "),
        ({"extra": ', "params": "fast"'}, "'params' must be"),
        ({"extra": ', "params": {"theta": 0}'}, "theta"),
        ({"extra": ', "params": {"max_iters": -1}'}, "params: max_iters"),
        ({"extra": ', "rng_seed": "x"'}, "rng_seed"),
        # flags are JSON booleans; bool() would read "false" as true
        ({"balls": '[{"c": [0.0, 0.0], "r": 1.0, "fix_center": "false"}]'}, "ball 0: .*fix_center"),
        ({"balls": '[{"c": [0.0, 0.0], "r": 1.0, "fix_radius": 1}]'}, "ball 0: .*fix_radius"),
        ({"balls": '[{"c": [0.0, 0.0], "r": 1.0, "alive": 0.0}]'}, "ball 0: .*alive"),
        ({"extra": ', "params": {"eliminate_redundant": "no"}'}, "params: .*eliminate_redundant"),
        # an integer literal beyond the float range would escape as an OverflowError
        ({"balls": '[{"c": [0.0, 0.0], "r": 1%s}]' % ("0" * 400)}, "ball 0: .*too large"),
        ({"domain": "[[0,0],[1,0],[1,1%s]]" % ("0" * 400)}, "domain: .*too large"),
        ({"extra": ', "params": {"theta": 1%s}' % ("0" * 400)}, "params: .*too large"),
    ):
        write(**fields)
        with pytest.raises(ParseError, match=match):
            load_scene(p)


NUMBER_FIELDS = {
    # field: (scene text with a string, with a boolean, the error message)
    "c": ('"balls": [{"c": ["0.5", 0.0], "r": 1.0}]', '"balls": [{"c": [0.5, true], "r": 1.0}]',
          "ball 0: field 'c' must be a number"),
    "r": ('"balls": [{"c": [0.0, 0.0], "r": "1"}]', '"balls": [{"c": [0.0, 0.0], "r": true}]',
          "ball 0: field 'r' must be a number"),
    "domain": ('"domain": [[0, "0"], [1, 0], [1, 1]]', '"domain": [[0, 0], [true, 0], [1, 1]]',
               "domain: vertices must be"),
    "theta": ('"params": {"theta": "0.5"}', '"params": {"theta": true}',
              "params: theta must be a number"),
    "tau_tol": ('"params": {"tau_tol": "1e-9"}', '"params": {"tau_tol": true}',
                "params: tau_tol must be a number"),
    "max_iters": ('"params": {"max_iters": "12"}', '"params": {"max_iters": true}',
                  "params: max_iters must be an integer"),
    "rng_seed": ('"rng_seed": "2"', '"rng_seed": true', "rng_seed: value must be an integer"),
}


def scene_text(*fields):
    """A valid one-ball scene with ``fields`` replacing its top-level fields."""
    base = {
        "balls": '"balls": [{"c": [0.0, 0.0], "r": 1.0}]',
        "domain": '"domain": [[0, 0], [1, 0], [1, 1]]',
    }
    for f in fields:
        base[f.split('"')[1]] = f
    return "{" + ", ".join(base.values()) + "}"


@pytest.mark.parametrize("field", sorted(NUMBER_FIELDS))
def test_load_rejects_strings_and_booleans_as_numbers(tmp_path, field):
    # float() and int() read "0.5" as 0.5 and true as 1; a scene file must not
    p = tmp_path / "bad.json"
    *texts, match = NUMBER_FIELDS[field]
    for text in texts:
        p.write_text(scene_text(text), encoding="utf-8")
        with pytest.raises(ParseError, match=match):
            load_scene(p)


@pytest.mark.parametrize("field", ["max_iters", "rng_seed"])
def test_load_rejects_non_integral_counts(tmp_path, field):
    # int() would truncate 12.9 to 12; an integral float still loads
    p = tmp_path / "scene.json"
    text = {"max_iters": '"params": {"max_iters": %s}', "rng_seed": '"rng_seed": %s'}[field]
    p.write_text(scene_text(text % "12.9"), encoding="utf-8")
    with pytest.raises(ParseError, match=f"{field}.*must be an integer, got 12.9"):
        load_scene(p)
    p.write_text(scene_text(text % "12.0"), encoding="utf-8")
    scene = load_scene(p)
    assert (scene.params.max_iters if field == "max_iters" else scene.rng_seed) == 12


def test_load_unknown_fields_warn(tmp_path):
    p = tmp_path / "extra.json"
    p.write_text(
        '{"balls": [{"c": [0.0, 0.0], "r": 1.0, "color": "red"}],'
        ' "domain": [[0,0],[1,0],[1,1]], "comment": "hi"}',
        encoding="utf-8",
    )
    with pytest.warns(UserWarning):
        scene = load_scene(p)
    assert len(scene.balls) == 1
    assert scene.balls[0].radius == 1.0

    # files written before the F_I stopping test was removed still load
    p.write_text(
        '{"balls": [{"c": [0.0, 0.0], "r": 1.0}], "domain": [[0,0],[1,0],[1,1]],'
        ' "params": {"theta": 0.25, "fi_tol": 0.0}}',
        encoding="utf-8",
    )
    with pytest.warns(UserWarning, match="fi_tol"):
        scene = load_scene(p)
    assert scene.params.theta == 0.25
    assert not hasattr(scene.params, "fi_tol")

    # files written before the heuristic mode was removed load and run the
    # one optimizer
    p.write_text(
        '{"balls": [{"c": [0.0, 0.0], "r": 1.0}], "domain": [[0,0],[1,0],[1,1]],'
        ' "params": {"theta": 0.25, "mode": "heuristic"}}',
        encoding="utf-8",
    )
    with pytest.warns(UserWarning, match="mode"):
        scene = load_scene(p)
    assert scene.params == OptimizerConfig(theta=0.25)
