"""Command-line driver: subcommands, exit codes, artifacts."""

import json

from radmesh.cli import main
from radmesh.scene import Scene, save_scene
from radmesh.geom import Ball
from radmesh.dirichlet import OptimizerConfig


def gen_args(path, seed=0):
    return [
        "generate", "square-circle",
        "--side", "4.0", "--inner-radius", "0", "--spacing", "1.0",
        "--seed", str(seed), "-o", str(path),
    ]


def test_generate_then_optimize_happy_path(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    out = tmp_path / "out"
    assert main(gen_args(scene)) == 0
    assert scene.exists()
    json.loads(scene.read_text())  # valid JSON
    assert main(["optimize", str(scene), "-o", str(out), "--max-iters", "5"]) == 0
    assert (out / "history.csv").exists()
    assert (out / "final_scene.json").exists()
    lines = (out / "history.csv").read_text().splitlines()
    assert lines[0] == "iter,F_I,max_abs_tau,moved,eliminated"


def test_optimize_two_ball_scene_exit_1(tmp_path, capsys):
    scene = Scene(
        [Ball((0.0, 0.0), 1.0), Ball((1.0, 0.0), 1.0)],
        [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)],
        OptimizerConfig(),
    )
    p = tmp_path / "two.json"
    save_scene(scene, p)
    assert main(["optimize", str(p), "-o", str(tmp_path / "o")]) == 1
    assert "TooFewBalls" in capsys.readouterr().err


def test_optimize_empty_scene_one_line_error(tmp_path, capsys):
    scene = Scene([], [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)], OptimizerConfig())
    p = tmp_path / "empty.json"
    save_scene(scene, p)
    assert main(["optimize", str(p), "-o", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: TooFewBalls: need >= 3 alive balls, got 0"]


def test_generate_unusable_spacing_exit_1(tmp_path, capsys):
    out = tmp_path / "g.json"
    for args, word in (
        (["masked-lattice", "--spacing", "0"], "spacing"),
        (["masked-lattice", "--jitter", "5"], "jitter"),
        (["masked-lattice", "--jitter", "-0.3"], "jitter"),
        (["square-circle", "--spacing", "0.8", "--jitter", "50"], "jitter"),
        (["square-circle", "--spacing", "0.8", "--jitter", "-0.3"], "jitter"),
    ):
        assert main(["generate", *args, "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InconsistentGeometry:") and word in err
        assert "Traceback" not in err
        assert not out.exists()


def test_generate_square_circle_defaults_exit_0(tmp_path, capsys):
    out = tmp_path / "bare.json"
    assert main(["generate", "square-circle", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["balls"]


def test_unreadable_or_unwritable_file_exit_1(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    for argv in (
        ["optimize", missing, "-o", str(tmp_path / "o")],
        ["verify", missing],
        ["recover", missing, "-o", str(tmp_path / "r.json")],
        ["render", missing, "-o", str(tmp_path / "p.svg")],
        ["generate", "masked-lattice", "-o", str(tmp_path / "no" / "such" / "m.json")],
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: FileNotFoundError:") and err.count("\n") == 1
        assert "Traceback" not in err


def test_optimize_invalid_params_exit_1(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    assert main(gen_args(scene)) == 0
    data = json.loads(scene.read_text())
    data["params"]["max_iters"] = -1
    scene.write_text(json.dumps(data))
    assert main(["optimize", str(scene), "-o", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError:") and "max_iters" in err
    assert "Traceback" not in err


def test_optimize_invalid_ball_or_domain_exit_1(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    assert main(gen_args(scene)) == 0
    good = json.loads(scene.read_text())
    for edit, prefix in (
        (lambda d: d["balls"][3].update(r=-1), "error: ParseError: ball 3: "),
        (lambda d: d["balls"][3].update(c=["x", 0]), "error: ParseError: ball 3: "),
        (lambda d: d["domain"][0].append(0.0), "error: ParseError: domain: "),
        (lambda d: d["balls"][3].update(fix_center="false"), "error: ParseError: ball 3: "),
        (lambda d: d["balls"][3].update(alive=0.0), "error: ParseError: ball 3: "),
        (lambda d: d["params"].update(eliminate_redundant="no"), "error: ParseError: params: "),
    ):
        data = json.loads(json.dumps(good))
        edit(data)
        scene.write_text(json.dumps(data))
        assert main(["optimize", str(scene), "-o", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(prefix)
        assert "Traceback" not in err


def test_unknown_flag_exit_2(tmp_path, capsys):
    assert main(["optimize", "x.json", "--no-such-flag"]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["optimize", "x.json", "-o", str(tmp_path), "--mode", "fd"]) == 2
    assert main(["optimize", "x.json", "-o", str(tmp_path), "--mode", "hybrid"]) == 2
    assert main(["optimize", "x.json", "-o", str(tmp_path), "--seed", "1"]) == 2
    assert main(["recover", "x.json", "-o", str(tmp_path / "r.json"), "--area-tol", "1e-9"]) == 2

    # flag values the optimizer settings or the recovery reject are usage
    # errors as well, reported before anything is written
    scene = tmp_path / "scene.json"
    assert main(gen_args(scene)) == 0
    capsys.readouterr()
    out = tmp_path / "o"
    for command, flag, value in (
        ("optimize", "--theta", "5"),
        ("optimize", "--theta", "0"),
        ("optimize", "--tau-tol", "-1"),
        ("optimize", "--max-iters", "-1"),
        ("optimize", "--frames", "-2"),
        ("recover", "--cluster-eps", "-1"),
        ("recover", "--cluster-eps", "nan"),
        ("recover", "--vertex-eps", "-1"),
        ("recover", "--vertex-eps", "nan"),
    ):
        assert main([command, str(scene), "-o", str(out), flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()


def test_verify_command(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    assert main(gen_args(scene, seed=3)) == 0
    assert main(["verify", str(scene)]) == 0
    assert "no regularity violations" in capsys.readouterr().out


def test_recover_command(tmp_path, capsys):
    pts = [(float(i), float(j)) for i in range(3) for j in range(3)]
    scene = Scene(
        [Ball(p, 0.1) for p in pts],
        [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)],
        OptimizerConfig(),
    )
    p = tmp_path / "pts.json"
    save_scene(scene, p)
    out = tmp_path / "rec.json"
    assert main(["recover", str(p), "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["balls"]) == 4


def test_render_command(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    out = tmp_path / "pic.svg"
    assert main(gen_args(scene, seed=4)) == 0
    assert main(["render", str(scene), "-o", str(out)]) == 0
    assert out.read_text().startswith("<svg")
    assert main(["render", str(scene), "-o", str(out), "--layers", "bogus"]) == 1


def test_optimize_frames(tmp_path):
    scene = tmp_path / "scene.json"
    out = tmp_path / "out"
    assert main(gen_args(scene, seed=5)) == 0
    assert main(
        ["optimize", str(scene), "-o", str(out), "--max-iters", "4", "--frames", "2"]
    ) == 0
    frames = sorted(out.glob("frame_*.svg"))
    assert frames
    assert frames[0].name == "frame_00000.svg"


def test_same_seed_byte_identical_history(tmp_path):
    scene = tmp_path / "scene.json"
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(gen_args(scene, seed=9)) == 0
    for out in (out1, out2):
        assert main(["optimize", str(scene), "-o", str(out), "--max-iters", "10"]) == 0
    h1 = (out1 / "history.csv").read_bytes()
    h2 = (out2 / "history.csv").read_bytes()
    assert h1 == h2
