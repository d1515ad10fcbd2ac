"""radmesh: polygonal Delaunay meshing by evolving power diagrams of circles."""

from .dirichlet import (
    OptimizerConfig,
    OptimizerState,
    evaluate_FI,
    run,
)
from .diagram import (
    PowerDiagram,
    delaunay_limit_violations,
    dual_height,
    extract_diagram,
)
from .geom import Ball, orient2d, power, power_test
from .recovery import recover_spheres, vertex_cluster_merge
from .scene import Scene, gen_masked_lattice, gen_square_with_circle, load_scene, save_scene
from .triangulation import RegularTriangulation, build_regular, verify_regular

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "OptimizerConfig",
    "OptimizerState",
    "PowerDiagram",
    "RegularTriangulation",
    "Scene",
    "build_regular",
    "delaunay_limit_violations",
    "dual_height",
    "evaluate_FI",
    "extract_diagram",
    "gen_masked_lattice",
    "gen_square_with_circle",
    "load_scene",
    "orient2d",
    "power",
    "power_test",
    "recover_spheres",
    "run",
    "save_scene",
    "verify_regular",
]
