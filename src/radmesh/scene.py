"""Scene generation and scene-file I/O.

Scenes follow the square-with-circle and masked-lattice experiment setups:
fixed protecting circles cover every boundary curve (adjacent protecting
circles overlap, so their intersection points pin the boundary Delaunay
vertices), optional quadrilateral buffer rings surround internal
boundaries, and the interior is a jittered lattice of free circles.

The scene file is UTF-8 JSON; floats are written with 17 significant
digits so that save -> load is bit-exact.  All randomness comes from a
seeded counter-based generator (numpy Philox), so generation is
reproducible across platforms.
"""

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


def _square_perimeter_points(side: float, spacing: float) -> list[Point2]:
    m = max(2, round(side / spacing))
    s = side / m
    pts = []
    for k in range(m):
        pts.append((k * s, 0.0))
    for k in range(m):
        pts.append((side, k * s))
    for k in range(m):
        pts.append((side - k * s, side))
    for k in range(m):
        pts.append((0.0, side - k * s))
    return pts


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
    balls: list[Ball] = []

    # outer boundary: fixed centers, slightly adjustable radii
    m = max(2, round(L / boundary_spacing))
    s = L / m
    for p in _square_perimeter_points(L, boundary_spacing):
        balls.append(Ball(p, PROTECT_RATIO * s, fix_center=True, fix_radius=False))

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

    protecting = list(balls)

    # interior lattice of free circles
    a = interior_spacing
    base_r = a / math.sqrt(2.0)
    n_lat = int(L / a)
    for j in range(n_lat):
        for i in range(n_lat):
            c = ((i + 0.5) * a, (j + 0.5) * a)
            if jitter_amplitude > 0:
                c = (
                    c[0] + rng.uniform(-jitter_amplitude, jitter_amplitude),
                    c[1] + rng.uniform(-jitter_amplitude, jitter_amplitude),
                )
                r = base_r * (1 + rng.uniform(-0.1, 0.1))
            else:
                r = base_r
            if not (0 < c[0] < L and 0 < c[1] < L):
                continue
            if inner_radius > 0 and math.hypot(c[0] - cx, c[1] - cy) <= inner_radius:
                continue
            if any(
                math.hypot(c[0] - p.center[0], c[1] - p.center[1]) < p.radius
                for p in protecting
            ):
                continue
            balls.append(Ball(c, r))

    domain = [(0.0, 0.0), (L, 0.0), (L, L), (0.0, L)]
    return Scene(balls, domain, OptimizerConfig(), rng_seed=seed)


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
    xs = [p[0] for p in domain]
    ys = [p[1] for p in domain]
    for mask in masks:
        for p in mask:
            if not (min(xs) <= p[0] <= max(xs) and min(ys) <= p[1] <= max(ys)):
                raise InconsistentGeometry("mask polygon extends outside the domain")
    rng = _rng(seed)
    balls = []
    base_r = spacing / math.sqrt(2.0)
    nx = int((max(xs) - min(xs)) / spacing)
    ny = int((max(ys) - min(ys)) / spacing)
    for j in range(ny + 1):
        for i in range(nx + 1):
            c = (min(xs) + i * spacing, min(ys) + j * spacing)
            if not _point_in_polygon(c, domain):
                continue
            if any(_point_in_polygon(c, mask) for mask in masks):
                balls.append(
                    Ball(c, PROTECT_RATIO * spacing, fix_center=True, fix_radius=True)
                )
                continue
            cc = c
            r = base_r
            if jitter > 0:
                cc = (
                    c[0] + rng.uniform(-jitter, jitter),
                    c[1] + rng.uniform(-jitter, jitter),
                )
                r = base_r * (1 + rng.uniform(-0.1, 0.1))
            if _point_in_polygon(cc, domain):
                balls.append(Ball(cc, r))
    if len(balls) < 3:
        raise InconsistentGeometry(
            f"spacing {spacing:g} leaves {len(balls)} lattice point(s) in the domain, fewer than 3"
        )
    return Scene(balls, list(domain), OptimizerConfig(), rng_seed=seed)


def validate_scene(scene: Scene) -> None:
    """Domain convexity, flag consistency, and the removal rule."""
    check_domain(scene.domain)
    protecting = [b for b in scene.balls if b.alive and b.fix_center]
    for b in scene.balls:
        if not b.alive or b.fix_center:
            continue
        for p in protecting:
            if (
                math.hypot(
                    b.center[0] - p.center[0], b.center[1] - p.center[1]
                )
                < p.radius
            ):
                raise InconsistentGeometry(
                    f"free ball at {b.center} lies inside a protecting circle"
                )


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
    p = scene.params
    lines.append(
        '  "params": {'
        f'"theta": {_fmt(p.theta)}, '
        f'"max_iters": {_fmt(p.max_iters)}, '
        f'"tau_tol": {_fmt(p.tau_tol)}, '
        f'"eliminate_redundant": {_fmt(p.eliminate_redundant)}}},'
    )
    lines.append(f'  "rng_seed": {_fmt(scene.rng_seed)}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def save_scene(scene: Scene, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(scene_to_json(scene))


_BALL_FIELDS = {"c", "r", "fix_center", "fix_radius", "alive"}
_PARAM_FIELDS = {"theta", "max_iters", "tau_tol", "eliminate_redundant"}


def _number(value, what: str, integral: bool = False):
    """A JSON number: ``float()`` and ``int()`` would take "0.5" and true, ``int()`` 12.9."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
        integral and isinstance(value, float) and not value.is_integer()
    ):
        raise TypeError(f"{what} must be {'an integer' if integral else 'a number'}, got {value!r}")
    return int(value) if integral else float(value)


def _flag(rec: dict, key: str, default: bool) -> bool:
    """A JSON boolean field; ``bool()`` would read the string "false" as true."""
    value = rec.get(key, default)
    if not isinstance(value, bool):
        raise TypeError(f"field '{key}' must be true or false, got {value!r}")
    return value


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
                    _flag(rec, "fix_center", False),
                    _flag(rec, "fix_radius", False),
                    _flag(rec, "alive", True),
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
    extra = set(pd) - _PARAM_FIELDS
    if extra:
        warnings.warn(f"params: ignoring unknown fields {sorted(extra)}")
    try:
        params = OptimizerConfig(
            theta=_number(pd.get("theta", 0.5), "theta"),
            max_iters=_number(pd.get("max_iters", 2000), "max_iters", integral=True),
            tau_tol=None if pd.get("tau_tol") is None else _number(pd["tau_tol"], "tau_tol"),
            eliminate_redundant=_flag(pd, "eliminate_redundant", False),
        )
    except (TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"params: {e}") from e
    try:
        return Scene(balls, domain, params, _number(data.get("rng_seed", 0), "value", True))
    except TypeError as e:
        raise ParseError(f"rng_seed: {e}") from e
