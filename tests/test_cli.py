import csv
import json
import os

import pytest

from staticlab import cli

# exit code and reports.csv verdicts of each bundled scenario; the benchmark
# checks its scenario runs against the same file
EXPECTED = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "expected_verdicts.json")

BUNDLED = [
    "hyperbolic_cmc",
    "annulus_negative_control",
    "schwarzschild_halfspace",
    "hyperbolic_barrier",
    "schwarzschild_barrier",
    "euclidean_catenoid",
    "growth_survey",
]


def test_bundled_scenarios_exist():
    for name in BUNDLED:
        assert os.path.exists(cli.bundled_scenario(name)), name


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenarios_exit_zero(name, tmp_path, capsys):
    code = cli.main(["run", cli.bundled_scenario(name), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    with open(EXPECTED) as fh:
        expected = json.load(fh)[name]
    assert code == expected["exit"] == 0, out
    with open(tmp_path / name / "reports.csv", newline="") as fh:
        verdicts = [[row["check"], row["verdict"]] for row in csv.DictReader(fh)]
    assert verdicts == expected["verdicts"]
    assert (tmp_path / name / "summary.txt").exists()


def test_negative_control_marked_expected_fail(tmp_path, capsys):
    code = cli.main(["run", "annulus_negative_control", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "EXPECTED-FAIL" in out


def test_missing_model_section(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[task]\nkind = solve-graph\n")
    assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 1


def test_malformed_config_reports_line(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("[model]\nprofile = hyperbolic\n:::garbage:::\n")
    assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "line" in err


def test_unknown_task_kind(tmp_path):
    cfg = tmp_path / "weird.cfg"
    cfg.write_text("[model]\nprofile = euclidean\n\n[task]\nkind = dance\n")
    assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 1


def test_missing_config_file(tmp_path):
    assert cli.main(["run", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 1


def test_unknown_suite(tmp_path):
    assert cli.main(["suite", "bogus", "--out", str(tmp_path)]) == 1


def test_suite_quick(tmp_path, capsys):
    code = cli.main(["suite", "quick", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert (tmp_path / "suite_quick_summary.csv").exists()
    assert out.count("criterion") == 4


def test_rerun_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert cli.main(["run", "euclidean_catenoid", "--out", str(out), "--seed", "7"]) == 0
    name = "euclidean_catenoid"
    for fn in ("reports.csv", "solution.csv"):
        a = (out1 / name / fn).read_bytes()
        b = (out2 / name / fn).read_bytes()
        assert a == b, fn


def test_tol_scale_accepted(tmp_path):
    assert cli.main(["run", "euclidean_catenoid", "--out", str(tmp_path), "--tol-scale", "10"]) == 0


def test_tol_scale_below_floor_reports_fail(tmp_path):
    # tol 1e-15 lies below the rounding floor: the solve returns and the
    # report records the residual reached as a failed check
    code = cli.main(["run", "euclidean_catenoid", "--out", str(tmp_path), "--tol-scale", "1e-6"])
    assert code == 2
    rows = (tmp_path / "euclidean_catenoid" / "reports.csv").read_text().splitlines()
    verdicts = {row.split(",")[0]: row.split(",")[-1] for row in rows[1:]}
    assert verdicts == {"elliptic-solve": "fail", "elliptic-telescope": "pass"}


def test_suite_task_kind(tmp_path, capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("[task]\nkind = suite\nname = quick\n")
    code = cli.main(["run", str(cfg), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert (tmp_path / "suite_quick_summary.csv").exists()


def test_plot_emits_svg(tmp_path):
    cfg = tmp_path / "plotted.cfg"
    cfg.write_text(
        "[model]\nprofile = hyperbolic\nB = 1.0\nm = 2\nwarp = one\ns_min = 0.0\ns_max = 10.0\n\n"
        "[task]\nkind = solve-graph\nH0 = 0.5\nanchor = pole\ngrid_a = 0.0\ngrid_b = 5.0\n"
        "grid_n = 501\nplot = true\n"
    )
    assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "plotted" / "cosh_theta.svg").exists()
    assert (tmp_path / "plotted" / "tau.svg").exists()
