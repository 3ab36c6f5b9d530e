import os
import subprocess
import sys

import pytest

import staticlab

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


@pytest.mark.parametrize("script, csvs", [
    ("run_angle_bound_survey.py", ["reports.csv"]),
    ("run_hyperbolic_cmc.py", [f"cmc_H{h:g}.csv" for h in (0.1, 0.2, 0.5, 1.0)]),
    ("run_schwarzschild_halfspace.py", ["graph.csv", "barrier.csv"]),
])
def test_script_runs_and_writes_csv(tmp_path, script, csvs):
    src = os.path.dirname(os.path.dirname(os.path.abspath(staticlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, script), "--out", str(out)],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for name in csvs:
        path = out / name
        assert path.is_file(), name
        lines = path.read_text().splitlines()
        assert len(lines) >= 2 and "," in lines[0], name
