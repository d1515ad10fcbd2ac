"""Smoke runs of the experiment scripts with a tiny iteration budget."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["square_with_circle.py", "masked_lattice.py"])
def test_script_writes_artifacts(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "-o", str(out), "--max-iters", "2"],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("initial_scene.json", "final_scene.json", "initial.svg", "final.svg"):
        assert (out / name).is_file()
    rows = (out / "history.csv").read_text().splitlines()
    assert rows[0] == "iter,F_I,max_abs_tau,moved,eliminated"
    assert [r.split(",")[0] for r in rows[1:]] == ["0", "1", "2"]
