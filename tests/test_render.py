"""SVG renderer: spec validation and deterministic output."""

import numpy as np
import pytest

from radmesh.cli import main
from radmesh.diagram import _domain_tol, _in_convex, extract_diagram
from radmesh.render import LAYERS, RenderSpec, render_svg
from radmesh.scene import gen_square_with_circle, load_scene
from radmesh.triangulation import build_regular


def test_render_spec_validation():
    with pytest.raises(ValueError):
        RenderSpec(layers=())
    with pytest.raises(ValueError):
        RenderSpec(layers=("no_such_layer",))
    assert RenderSpec().layers == ("power_diagram", "balls", "domain")


def test_render_all_layers_well_formed(tmp_path):
    import xml.etree.ElementTree as ET

    scene = gen_square_with_circle(8.0, 1.0, 0.8, interior_spacing=0.5, seed=2)
    t = build_regular(scene.balls)
    d = extract_diagram(t, scene.balls, domain=scene.domain)
    path = tmp_path / "all.svg"
    render_svg(scene, d, t, RenderSpec(LAYERS), path)
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    assert len(list(root)) > len(scene.balls)  # circles plus polygons

    # the aux layer draws the diagram's own auxiliary cell triangulations
    render_svg(scene, d, t, RenderSpec(("aux_triangles",)), path)
    polygons = [e for e in ET.parse(path).getroot() if e.tag.endswith("polygon")]
    assert len(polygons) == len(d.aux.area) > 0


def test_render_byte_identical(tmp_path):
    scene = gen_square_with_circle(8.0, 1.0, 0.8, interior_spacing=0.5, seed=2)
    t = build_regular(scene.balls)
    d = extract_diagram(t, scene.balls, domain=scene.domain)
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    spec = RenderSpec(("power_diagram", "balls", "orthocircles", "domain"))
    render_svg(scene, d, t, spec, p1)
    render_svg(scene, d, t, spec, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert len(p1.read_bytes()) > 0


def test_render_clips_every_cell_to_the_domain(tmp_path):
    # the recovered masked-lattice circles: bounded cells reach out of the
    # domain too, and are drawn only within it, as F_I reads them
    import xml.etree.ElementTree as ET

    points, circles, svg = tmp_path / "points.json", tmp_path / "circles.json", tmp_path / "cells.svg"
    assert main(["generate", "masked-lattice", "--seed", "1", "-o", str(points)]) == 0
    assert main(["recover", str(points), "-o", str(circles)]) == 0
    assert main(["render", str(circles), "-o", str(svg), "--layers", "power_diagram"]) == 0
    domain = load_scene(circles).domain
    polygons = [e.get("points") for e in ET.parse(svg).getroot() if e.tag.endswith("polygon")]
    xy = np.array([p.split(",") for pts in polygons for p in pts.split()], dtype=float)
    assert len(polygons) > 100
    assert _in_convex(xy, domain, _domain_tol(domain)).all()
