"""Deterministic SVG rendering of scenes, partitions, and orthocircles."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .diagram import PowerDiagram, clip_cell
from .dirichlet import _cell_aux
from .geom import Point2
from .scene import Scene
from .triangulation import RegularTriangulation

LAYERS = (
    "power_diagram",
    "regular_triangulation",
    "balls",
    "orthocircles",
    "aux_triangles",
    "domain",
)

COLORS = {
    "power_diagram": "#1f5fa8",
    "regular_triangulation": "#999999",
    "ball_free": "#2e8b57",
    "ball_fixed": "#555555",
    "ortho_pos": "#c02020",
    "ortho_neg": "#e08080",
    "aux": "#d4a017",
    "domain": "#000000",
}


@dataclass
class RenderSpec:
    layers: tuple[str, ...] = ("power_diagram", "balls", "domain")

    def __post_init__(self):
        if not self.layers:
            raise ValueError("at least one render layer is required")
        unknown = set(self.layers) - set(LAYERS)
        if unknown:
            raise ValueError(f"unknown layers: {sorted(unknown)}")


def _f(x: float) -> str:
    return f"{x:.6f}"


def _poly(points, stroke, sw, fill="none") -> str:
    pts = " ".join(f"{_f(x)},{_f(y)}" for x, y in points)
    return (
        f'<polygon points="{pts}" fill="{fill}" stroke="{stroke}" '
        f'stroke-width="{_f(sw)}"/>'
    )


def _circle(c: Point2, r: float, stroke, sw) -> str:
    return (
        f'<circle cx="{_f(c[0])}" cy="{_f(c[1])}" r="{_f(r)}" fill="none" '
        f'stroke="{stroke}" stroke-width="{_f(sw)}"/>'
    )


def render_svg(
    scene: Scene,
    diagram: PowerDiagram | None,
    triangulation: RegularTriangulation | None,
    spec: RenderSpec,
    path,
) -> None:
    """Write an SVG 1.1 file; identical inputs give identical bytes."""
    xs = [p[0] for p in scene.domain] + [b.center[0] for b in scene.balls if b.alive]
    ys = [p[1] for p in scene.domain] + [b.center[1] for b in scene.balls if b.alive]
    pad = 0.05 * max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    x0, y0 = min(xs) - pad, min(ys) - pad
    w, h = max(xs) - x0 + pad, max(ys) - y0 + pad
    sw = 0.002 * max(w, h)  # stroke width scales with the scene

    body = []
    if "domain" in spec.layers:
        body.append(_poly(scene.domain, COLORS["domain"], 2 * sw))
    if "power_diagram" in spec.layers and diagram is not None:
        for cell in diagram.cells:
            if cell is None:
                continue
            pts = (
                cell.vertex_positions()
                if cell.bounded
                else clip_cell(cell, scene.domain)
            )
            if len(pts) >= 3:
                body.append(_poly(pts, COLORS["power_diagram"], sw))
    if "regular_triangulation" in spec.layers and triangulation is not None:
        for tri in triangulation.tris.tolist():
            pts = [scene.balls[i].center for i in tri]
            body.append(_poly(pts, COLORS["regular_triangulation"], sw))
    if "aux_triangles" in spec.layers and diagram is not None:
        # the auxiliary cell triangulations F_I is evaluated on
        for corners in _cell_aux(diagram).vertices.tolist():
            body.append(_poly(corners, COLORS["aux"], 0.5 * sw))
    if "balls" in spec.layers:
        for b in scene.balls:
            if not b.alive:
                continue
            color = COLORS["ball_fixed"] if b.fix_center else COLORS["ball_free"]
            body.append(_circle(b.center, b.radius, color, sw))
    if "orthocircles" in spec.layers and diagram is not None:
        for v in diagram.dual_vertices:
            r = math.sqrt(abs(v.tau))
            if r <= 0:
                continue
            color = COLORS["ortho_pos"] if v.tau >= 0 else COLORS["ortho_neg"]
            body.append(_circle(v.position, r, color, sw))

    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_f(x0)} {_f(y0)} {_f(w)} {_f(h)}">\n'
        + "\n".join(body)
        + "\n</svg>\n"
    )
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(svg)
