"""Scene generation and scene-file I/O.

Scenes follow the square-with-circle and masked-lattice experiment setups:
fixed protecting circles cover every boundary curve (adjacent protecting
circles overlap, so their intersection points pin the boundary Delaunay
vertices), optional quadrilateral buffer rings surround internal
boundaries, and the interior is a jittered lattice of free circles
(``_jittered``, shared by both generators).  Both generators then apply
the removal rule: no free center strictly inside a protecting circle
(``_protected``).  The rule holds for generated scenes and
``validate_scene`` checks it; the optimizer may break it on the way to the
Delaunay limit, so nothing that reads a scene file asks for it.

The scene file is UTF-8 JSON; floats are written with 17 significant
digits so that save -> load is bit-exact.  ``load_scene`` refuses a domain
that is not convex and CCW (``diagram.check_domain``), so every command
that reads a scene does.  The ``params`` block is the ``PARAMS`` table of
``OptimizerConfig`` fields.  All randomness comes from a seeded
counter-based generator (numpy Philox), so generation is reproducible
across platforms."""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .diagram import check_domain
from .dirichlet import OptimizerConfig
from .errors import InconsistentGeometry, ParseError
from .geom import Ball, Point2

# radius/spacing ratio for protecting circles; > 0.5 guarantees that
# adjacent circles intersect and their crossings pin boundary vertices
PROTECT_RATIO = 0.55


@dataclass
class Scene:
    balls: list[Ball]
    domain: list[Point2]
    params: OptimizerConfig = field(default_factory=OptimizerConfig)
    rng_seed: int = 0


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _point_in_polygon(p: Point2, poly: list[Point2]) -> bool:
    """Crossing-number test; boundary points count as inside."""
    x, y = p
    inside = False
    n = len(poly)
    for i in range(n):
        (x1, y1), (x2, y2) = poly[i], poly[(i + 1) % n]
        if min(x1, x2) <= x <= max(x1, x2) and min(y1, y2) <= y <= max(y1, y2):
            cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
            if cross == 0:
                return True
        if (y1 > y) != (y2 > y):
            xc = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < xc:
                inside = not inside
    return inside


def _check_finite(values: dict) -> None:
    """Raise for a generator parameter that is not a finite number (None means unset)."""
    for name, v in values.items():
        if v is not None and not math.isfinite(v):
            raise InconsistentGeometry(f"{name} must be a finite number, got {v:g}")


def _check_jitter(jitter: float, spacing: float) -> None:
    # from half the spacing on, jittered centers pass their neighbours, and
    # the generators drop those that leave the domain or land in a protector
    if not 0 <= jitter < spacing / 2:
        raise InconsistentGeometry(
            f"jitter must be >= 0 and < spacing / 2 = {spacing / 2:g}, got {jitter:g}"
        )


def _jittered(rng, centers: list[Point2], spacing: float, jitter: float) -> list[Ball]:
    """Free lattice circles of radius spacing / sqrt(2) at ``centers``.

    With ``jitter`` > 0, one draw per circle, in order, moves its center by
    up to ``jitter`` per coordinate and scales its radius by up to 10%.
    """
    xy = np.array(centers, dtype=float).reshape(-1, 2)
    r = np.full(len(xy), spacing / math.sqrt(2.0))
    if jitter > 0:
        d = rng.uniform([-jitter, -jitter, -0.1], [jitter, jitter, 0.1], size=(len(xy), 3))
        xy, r = xy + d[:, :2], r * (1 + d[:, 2])
    return [Ball(c, rc) for c, rc in zip(map(tuple, xy.tolist()), r.tolist())]


def gen_square_with_circle(
    square_side: float,
    inner_radius: float,
    boundary_spacing: float,
    layer_count: int = 2,
    interior_spacing: float | None = None,
    jitter_amplitude: float | None = None,
    seed: int = 0,
) -> Scene:
    """Square domain with an optional protected inner circle.

    ``inner_radius = 0`` drops the inner circle entirely (plain jittered
    lattice in a protected square).  ``jitter_amplitude`` is the absolute
    center jitter of interior circles, at least 0 and below half the interior
    spacing; radii are jittered by up to 10%
    whenever it is nonzero.  Defaults: interior spacing equals the boundary
    spacing, jitter is 0.2 x interior spacing.
    """
    _check_finite({"side": square_side, "inner radius": inner_radius, "spacing": boundary_spacing,
                   "interior spacing": interior_spacing, "jitter": jitter_amplitude})
    if square_side <= 0 or boundary_spacing <= 0 or inner_radius < 0:
        raise InconsistentGeometry("side, spacing must be > 0 and inner radius >= 0")
    if layer_count < 0:
        raise InconsistentGeometry(f"layer count must be >= 0, got {layer_count}")
    if interior_spacing is None:
        interior_spacing = boundary_spacing
    if interior_spacing <= 0:
        raise InconsistentGeometry(f"interior spacing must be > 0, got {interior_spacing:g}")
    if jitter_amplitude is None:
        jitter_amplitude = 0.2 * interior_spacing
    _check_jitter(jitter_amplitude, interior_spacing)
    if inner_radius > 0:
        reach = inner_radius + (layer_count + 1) * boundary_spacing
        if reach >= square_side / 2:
            raise InconsistentGeometry(
                f"inner circle plus {layer_count} buffer rings (radius {reach:g}) "
                f"does not fit inside the square"
            )

    rng = _rng(seed)
    L = square_side
    cx = cy = L / 2

    # outer boundary: fixed centers, slightly adjustable radii
    m = max(2, round(L / boundary_spacing))
    s = L / m
    perimeter = [(k * s, 0.0) for k in range(m)] + [(L, k * s) for k in range(m)]
    perimeter += [(L - k * s, L) for k in range(m)] + [(0.0, L - k * s) for k in range(m)]
    balls = [Ball(p, PROTECT_RATIO * s, fix_center=True, fix_radius=False) for p in perimeter]

    # inner circle and its quadrilateral buffer rings
    if inner_radius > 0:
        n_ring = max(6, round(2 * math.pi * inner_radius / boundary_spacing))
        for j in range(layer_count + 1):
            ring_r = inner_radius + j * boundary_spacing
            chord = 2 * ring_r * math.sin(math.pi / n_ring)
            radius = PROTECT_RATIO * max(chord, boundary_spacing)
            for k in range(n_ring):
                phi = 2 * math.pi * k / n_ring
                c = (cx + ring_r * math.cos(phi), cy + ring_r * math.sin(phi))
                balls.append(
                    Ball(c, radius, fix_center=True, fix_radius=(j == 0))
                )

    # interior lattice of free circles, kept inside the square and outside
    # the inner circle
    a = interior_spacing
    n_lat = int(L / a)
    lattice = [((i + 0.5) * a, (j + 0.5) * a) for j in range(n_lat) for i in range(n_lat)]
    for b in _jittered(rng, lattice, a, jitter_amplitude):
        x, y = b.center
        if 0 < x < L and 0 < y < L and not (
            inner_radius > 0 and math.hypot(x - cx, y - cy) <= inner_radius
        ):
            balls.append(b)

    drop = {id(b) for b in _protected(balls)}
    domain = [(0.0, 0.0), (L, 0.0), (L, L), (0.0, L)]
    return Scene([b for b in balls if id(b) not in drop], domain, OptimizerConfig(), rng_seed=seed)


def gen_masked_lattice(
    masks: list[list[Point2]],
    spacing: float,
    jitter: float,
    seed: int = 0,
    domain: list[Point2] | None = None,
) -> Scene:
    """Lattice scene where balls inside mask polygons become fixed protectors.

    ``jitter`` moves the free centers by up to that much per coordinate; it
    must be at least 0 and below ``spacing / 2``.
    """
    _check_finite({"spacing": spacing, "jitter": jitter})
    if spacing <= 0:
        raise InconsistentGeometry(f"spacing must be > 0, got {spacing:g}")
    _check_jitter(jitter, spacing)
    if domain is None:
        domain = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    check_domain(domain)
    xs, ys = [p[0] for p in domain], [p[1] for p in domain]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    if not all(x0 <= x <= x1 and y0 <= y <= y1 for mask in masks for x, y in mask):
        raise InconsistentGeometry("mask polygon extends outside the domain")
    nx, ny = int((x1 - x0) / spacing), int((y1 - y0) / spacing)
    sites = [(x0 + i * spacing, y0 + j * spacing) for j in range(ny + 1) for i in range(nx + 1)]
    sites = [c for c in sites if _point_in_polygon(c, domain)]
    masked = [any(_point_in_polygon(c, mask) for mask in masks) for c in sites]
    free = iter(_jittered(_rng(seed), [c for c, m in zip(sites, masked) if not m], spacing, jitter))
    balls = [
        Ball(c, PROTECT_RATIO * spacing, fix_center=True, fix_radius=True) if m else next(free)
        for c, m in zip(sites, masked)
    ]
    # free centers the jitter moved out of the domain or into a protector go
    balls = [b for b in balls if b.fix_center or _point_in_polygon(b.center, domain)]
    drop = {id(b) for b in _protected(balls)}
    balls = [b for b in balls if id(b) not in drop]
    if len(balls) < 3:
        raise InconsistentGeometry(
            f"spacing {spacing:g} leaves {len(balls)} lattice point(s) in the domain, fewer than 3"
        )
    return Scene(balls, list(domain), OptimizerConfig(), rng_seed=seed)


def _protected(balls: list[Ball]) -> list[Ball]:
    """The removal rule's offenders: alive free balls centered strictly inside an alive fixed-center circle."""
    protecting = [p for p in balls if p.alive and p.fix_center]
    return [
        b for b in balls
        if b.alive and not b.fix_center and any(
            math.hypot(b.center[0] - p.center[0], b.center[1] - p.center[1]) < p.radius
            for p in protecting
        )
    ]


def validate_scene(scene: Scene) -> None:
    """Domain convexity and orientation, and the generators' removal rule (``_protected``)."""
    check_domain(scene.domain)
    inside = _protected(scene.balls)
    if inside:
        raise InconsistentGeometry(f"free ball at {inside[0].center} lies inside a protecting circle")


# ---------------------------------------------------------------------------
# scene file I/O


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    if isinstance(x, int):
        return str(x)
    if x is None:
        return "null"
    return json.dumps(x)


_BALL_FIELDS = {"c", "r", "fix_center", "fix_radius", "alive"}


def _number(value, what: str, integral: bool = False):
    """A JSON number: ``float()`` and ``int()`` would take "0.5" and true, ``int()`` 12.9."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
        integral and isinstance(value, float) and not value.is_integer()
    ):
        raise TypeError(f"{what} must be {'an integer' if integral else 'a number'}, got {value!r}")
    return int(value) if integral else float(value)


def _boolean(value, key: str) -> bool:
    """A JSON boolean; ``bool()`` would read the string "false" as true."""
    if not isinstance(value, bool):
        raise TypeError(f"field '{key}' must be true or false, got {value!r}")
    return value


# the "params" block: the OptimizerConfig fields a scene file holds, in file
# order, each with the reader of its JSON value; a field the file omits
# keeps its OptimizerConfig default
PARAMS = {
    "theta": lambda v: _number(v, "theta"),
    "max_iters": lambda v: _number(v, "max_iters", integral=True),
    "tau_tol": lambda v: None if v is None else _number(v, "tau_tol"),
    "eliminate_redundant": lambda v: _boolean(v, "eliminate_redundant"),
}


def scene_to_json(scene: Scene) -> str:
    lines = ["{", '  "balls": [']
    for i, b in enumerate(scene.balls):
        sep = "," if i + 1 < len(scene.balls) else ""
        lines.append(
            f'    {{"c": [{_fmt(b.center[0])}, {_fmt(b.center[1])}], '
            f'"r": {_fmt(b.radius)}, '
            f'"fix_center": {_fmt(b.fix_center)}, '
            f'"fix_radius": {_fmt(b.fix_radius)}, '
            f'"alive": {_fmt(b.alive)}}}{sep}'
        )
    lines.append("  ],")
    dom = ", ".join(f"[{_fmt(x)}, {_fmt(y)}]" for x, y in scene.domain)
    lines.append(f'  "domain": [{dom}],')
    params = ", ".join(f'"{k}": {_fmt(getattr(scene.params, k))}' for k in PARAMS)
    lines.append(f'  "params": {{{params}}},')
    lines.append(f'  "rng_seed": {_fmt(scene.rng_seed)}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def save_scene(scene: Scene, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(scene_to_json(scene))


def load_scene(path) -> Scene:
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON at line {e.lineno}: {e.msg}") from e

    if not isinstance(data, dict):
        raise ParseError("scene must be a JSON object")
    for key in ("balls", "domain"):
        if key not in data:
            raise ParseError(f"missing top-level field '{key}'")
    unknown = set(data) - {"balls", "domain", "params", "rng_seed"}
    if unknown:
        warnings.warn(f"ignoring unknown scene fields: {sorted(unknown)}")
    if not isinstance(data["balls"], list):
        raise ParseError("field 'balls' must be a list")

    balls = []
    for i, rec in enumerate(data["balls"]):
        if not isinstance(rec, dict):
            raise ParseError(f"ball {i}: must be an object")
        for req in ("c", "r"):
            if req not in rec:
                raise ParseError(f"ball {i}: missing field '{req}'")
        extra = set(rec) - _BALL_FIELDS
        if extra:
            warnings.warn(f"ball {i}: ignoring unknown fields {sorted(extra)}")
        c = rec["c"]
        if not (isinstance(c, list) and len(c) == 2):
            raise ParseError(f"ball {i}: field 'c' must be [x, y]")
        try:
            balls.append(
                Ball(
                    (_number(c[0], "field 'c'"), _number(c[1], "field 'c'")),
                    _number(rec["r"], "field 'r'"),
                    _boolean(rec.get("fix_center", False), "fix_center"),
                    _boolean(rec.get("fix_radius", False), "fix_radius"),
                    _boolean(rec.get("alive", True), "alive"),
                )
            )
        except (TypeError, ValueError, OverflowError) as e:
            raise ParseError(f"ball {i}: {e}") from e
    try:
        domain = [(_number(x, "x"), _number(y, "y")) for x, y in data["domain"]]
    except (TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"domain: vertices must be [x, y] pairs of numbers ({e})") from e
    pd = data.get("params", {})
    if not isinstance(pd, dict):
        raise ParseError("field 'params' must be an object")
    extra = set(pd) - PARAMS.keys()
    if extra:
        warnings.warn(f"params: ignoring unknown fields {sorted(extra)}")
    try:
        params = OptimizerConfig(**{k: read(pd[k]) for k, read in PARAMS.items() if k in pd})
    except (TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"params: {e}") from e
    check_domain(domain)
    try:
        return Scene(balls, domain, params, _number(data.get("rng_seed", 0), "value", True))
    except TypeError as e:
        raise ParseError(f"rng_seed: {e}") from e
