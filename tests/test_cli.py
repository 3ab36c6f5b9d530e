import csv
import json
import os
import subprocess
import sys

import pytest

from staticlab import cli, geometry

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
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
    # each bundled output tree is the same whatever ran before it in the process: the other
    # scenarios in either order, or a Schwarzschild chart grown far past every bundled radius
    chart, trees = geometry._chart(1.0, 3), []
    for names in (BUNDLED, BUNDLED[::-1], BUNDLED):
        if len(trees) == 2:
            size = chart.table.nodes.size
            geometry.schwarzschild_s_of_rho(1.0, 3, 5000.0)
            assert chart.table.nodes.size > size
        out = tmp_path / str(len(trees))
        for name in names:
            assert cli.main(["run", name, "--out", str(out)]) == 0, name
        trees.append({p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()})
    assert len(trees[0]) >= 2 * len(BUNDLED)
    for tree in trees[1:]:
        assert tree.keys() == trees[0].keys()
        assert [rel for rel in tree if tree[rel] != trees[0][rel]] == []


def test_fresh_process_tree_matches_warm_process(tmp_path):
    # the schwarzschild_barrier tree of a fresh interpreter is the one written after the
    # other six scenarios have filled this process's chart and volume caches
    warm = tmp_path / "warm"
    for name in [n for n in BUNDLED if n != "schwarzschild_barrier"] + ["schwarzschild_barrier"]:
        assert cli.main(["run", name, "--out", str(warm)]) == 0, name
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    fresh = tmp_path / "fresh"
    proc = subprocess.run([sys.executable, "-m", "staticlab.cli", "run", "schwarzschild_barrier", "--out", str(fresh)],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    trees = [{p.relative_to(out).as_posix(): p.read_bytes() for p in (out / "schwarzschild_barrier").rglob("*")
              if p.is_file()} for out in (warm, fresh)]
    assert len(trees[0]) >= 2 and trees[1] == trees[0]


# each of these once ran: --tol-scale moved check bounds, run --seed reached no scenario, and the
# config was a second path to `staticlab suite`
REMOVED_SPELLINGS = {
    "run-tol-scale": (["run", "euclidean_catenoid", "--tol-scale", "10"], "unrecognized arguments: --tol-scale"),
    "run-seed": (["run", "euclidean_catenoid", "--seed", "7"], "unrecognized arguments: --seed"),
    "suite-tol-scale": (["suite", "quick", "--tol-scale", "10"], "unrecognized arguments: --tol-scale"),
    "kind-suite-config": (["run", "suite.cfg"], "config error: [task] kind = suite: not one of"),
}


@pytest.mark.parametrize("case", REMOVED_SPELLINGS)
def test_removed_spelling_exits_1(case, tmp_path, capsys, monkeypatch):
    argv, err = REMOVED_SPELLINGS[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "suite.cfg").write_text("[task]\nkind = suite\n")
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert err in capsys.readouterr().err


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


def _write(tmp_path, text, name="case"):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text)
    return str(cfg)


HYPERBOLIC = "[model]\nprofile = hyperbolic\nB = 1.0\nwarp = one\ns_min = 0.0\ns_max = 10.0\n"
GRAPH_TASK = ("\n[task]\nkind = solve-graph\nH0 = 0.5\nanchor = point\nF0 = 0.0\n"
              "grid_a = 1.0\ngrid_b = 5.0\ngrid_n = 401\n")
SCHWARZSCHILD_VERIFY = "\n[task]\nkind = verify\nbarrier_kind = schwarzschild\nrho1 = 3.0\nrho2 = 6.0\nH0 = 0.2\n"


def test_solve_above_tol_reports_fail(tmp_path):
    # the steep load's rounding floor lies above tol = 1e-9: the solve returns and the report
    # records the residual reached as a failed check
    task = "\n[task]\nkind = elliptic\ngrid_a = 0.5\ngrid_b = 4.0\ngrid_n = 701\nrhs = 6.0\n"
    assert cli.main(["run", _write(tmp_path, HYPERBOLIC + task), "--out", str(tmp_path)]) == 2
    rows = (tmp_path / "case" / "reports.csv").read_text().splitlines()
    verdicts = {row.split(",")[0]: row.split(",")[-1] for row in rows[1:]}
    assert verdicts == {"elliptic-solve": "fail", "elliptic-telescope": "pass"}


def _bundled_text(name, old="", new=""):
    with open(cli.bundled_scenario(name)) as fh:
        text = fh.read()
    assert old in text
    return text.replace(old, new)


# case: (config text, the key the error names, a hint it gives); the comment says what the same
# config did before the key table rejected it
CONFIG_DEFECTS = {
    # exit 0 at the default s_max = 20
    "typo-in-model": (HYPERBOLIC.replace("s_max = 10.0", "smax = 3") + GRAPH_TASK, "[model] smax", "s_max"),
    # ran at the default grid_n = 1601
    "typo-in-task": (HYPERBOLIC + GRAPH_TASK.replace("grid_n = 401", "grid_nn = 24"), "[task] grid_nn", "grid_n"),
    # exit 1 from the solver: "flux integral blew up at s = 1.01"
    "non-finite": (HYPERBOLIC.replace("B = 1.0", "B = nan") + GRAPH_TASK, "[model] B", "positive"),
    # exit 0 on a grid from the mu = 1 Schwarzschild chart: s = 3.049
    "rho-on-hyperbolic": (HYPERBOLIC + "m = 3\n" + GRAPH_TASK.replace("grid_a = 1.0", "grid_rho_a = 3"),
                          "[task] grid_rho_a", "profile=schwarzschild"),
    # exit 0 as a point anchor
    "unknown-anchor": (HYPERBOLIC + GRAPH_TASK.replace("anchor = point", "anchor = pint"),
                       "[task] anchor", "pole, point"),
    # exit 2: the designed failure counted as a real one
    "unknown-expect": (_bundled_text("annulus_negative_control", "expect = fail", "expect = fial"),
                       "[task] expect", "pass, fail"),
    # exit 1 with "Not a boolean: ture"
    "bad-boolean": (HYPERBOLIC + GRAPH_TASK + "maximal = ture\n", "[task] maximal", "not a boolean"),
    # exit 0: an m = 3 barrier beside an m = 2 model
    "schwarzschild-barrier-on-hyperbolic": (HYPERBOLIC + SCHWARZSCHILD_VERIFY, "[task] barrier_kind",
                                            "profile=schwarzschild"),
    # exit 0 at the barrier's own H0 default 0.2, where graphs default to 0.0
    "barrier-H0-unset": (_bundled_text("schwarzschild_barrier", "H0 = 0.2\n"), "[task] H0",
                         "required (barrier_kind=schwarzschild)"),
    # exit 1 with "Schwarzschild base needs dimension m >= 3"
    "schwarzschild-m-unset": (_bundled_text("schwarzschild_barrier", "m = 3\n"), "[model] m",
                              "required (profile=schwarzschild"),
    # exit 1 with "missing required [model] section"
    "unknown-section": (HYPERBOLIC.replace("[model]", "[modle]") + GRAPH_TASK, "[modle]", "model"),
    # exit 0 at h = 1
    "warp-value-without-constant-warp": (HYPERBOLIC + "warp_value = 2.0\n" + GRAPH_TASK, "[model] warp_value",
                                         "warp=constant"),
    # an uncaught ZeroDivisionError from log(vol(0)) / 0
    "zero-r-max": (_bundled_text("growth_survey", "r_max = 100.0", "r_max = 0"), "[task] r_max", "positive"),
    # exit 1 with numpy's "Geometric sequence cannot include zero"
    "zero-cheeger-rmax": (_bundled_text("hyperbolic_cmc", "cheeger_rmax = 20.0", "cheeger_rmax = 0"),
                          "[task] cheeger_rmax", "positive"),
    # exit 1 after a divide RuntimeWarning
    "zero-lambda1-rtrunc": (_bundled_text("hyperbolic_cmc", "lambda1_rtrunc = 15.0", "lambda1_rtrunc = 0"),
                            "[task] lambda1_rtrunc", "positive"),
    # exit 1 with "error: mesh_n >= 200 required"
    "lambda1-n-below-floor": (_bundled_text("hyperbolic_cmc", "lambda1_n = 1500", "lambda1_n = 100"),
                              "[task] lambda1_n", "not an integer >= 200"),
    # exit 1 with "error: s outside domain [0.0, 25.0]" after the graph solve
    "cheeger-rmax-past-domain": (_bundled_text("hyperbolic_cmc", "cheeger_rmax = 20.0", "cheeger_rmax = 30"),
                                 "[task] cheeger_rmax", "s outside domain [0.0, 25.0]"),
    "lambda1-rtrunc-past-domain": (_bundled_text("hyperbolic_cmc", "lambda1_rtrunc = 15.0", "lambda1_rtrunc = 30"),
                                   "[task] lambda1_rtrunc", "s outside domain [0.0, 25.0]"),
}


@pytest.mark.parametrize("case", CONFIG_DEFECTS)
def test_config_defect_names_the_key(case, tmp_path, capsys):
    text, key, hint = CONFIG_DEFECTS[case]
    code = cli.main(["run", _write(tmp_path, text), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: ") and key in err and hint in err, err


def test_resolved_config_is_frozen_and_complete():
    cfg = cli.load_config("schwarzschild_barrier")
    assert sorted(cfg) == ["model", "task"]
    assert {(sec, key) for sec in cfg for key in cfg[sec]} == {(k.section, k.name) for k in cli.KEYS}
    assert (cfg["model"]["m"], cfg["model"]["mu"], cfg["task"]["H0"], cfg["task"]["n"]) == (3, 1.0, 0.2, 4000)
    assert cfg["task"]["grid_n"] is None and cfg["task"]["G0"] is None  # keys of other tasks do not apply
    with pytest.raises(TypeError):
        cfg["task"]["H0"] = 0.3


def test_barrier_kind_builds_without_verifying(tmp_path, capsys):
    code = cli.main(["run", _write(tmp_path, _bundled_text("hyperbolic_barrier", "kind = verify", "kind = barrier")),
                     "--out", str(tmp_path)])
    assert code == 0, capsys.readouterr().err
    assert (tmp_path / "case" / "reports.csv").read_text().splitlines()[1].startswith("barrier-constructed,")


def test_unknown_key_hint_keeps_difflib_off_the_import_path():
    # a scenario run pays for none of these: the suite and scipy load only where they are used
    code = ("import sys, staticlab.cli; "
            "print(*(m in sys.modules for m in ('difflib', 'staticlab.acceptance', 'scipy')))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.split() == ["False"] * 3


def _tags_text(tags):
    """'kind: a, b or profile: c' for a set of name=value tags, in the order KEYS lists them."""
    order = {f"{k.name}={v}": (i, j) for i, k in enumerate(cli.KEYS) if isinstance(k.type, tuple)
             for j, v in enumerate(k.type)}
    names = {}
    for tag in sorted(tags, key=order.__getitem__):
        name, value = tag.split("=")
        names.setdefault(name, []).append(f"`{value}`")
    return " or ".join(f"{name}: {', '.join(values)}" for name, values in names.items())


def key_row(k):
    """The README row of one key of the table."""
    if isinstance(k.type, tuple):
        kind = "one of " + ", ".join(f"`{v}`" for v in k.type)
    elif k.type.startswith("int>="):
        kind = f"integer >= {k.type[5:]}"
    else:
        kind = {"finite": "finite number", "positive": "positive number", "bool": "boolean",
                "floats": "finite numbers", "path": "existing file"}[k.type]
    if k.default is cli.REQUIRED or k.default is None:
        default = "required" if k.default is cli.REQUIRED else "unset"
    elif isinstance(k.default, tuple):
        default = "`" + " ".join(map(repr, k.default)) + "`"
    else:
        default = f"`{str(k.default).lower() if isinstance(k.default, bool) else k.default}`"
    if k.required:
        default += f"; required with {_tags_text(k.required)}"
    applies = "; and ".join(_tags_text(group) for group in k.applies) or "every config"
    return f"| `[{k.section}]` | `{k.name}` | {kind} | {default} | {applies} |"


def test_readme_lists_the_key_table():
    # the README's config-key reference is the table itself, so it cannot go stale
    with open(README) as fh:
        rows = [line.rstrip("\n") for line in fh if line.startswith(("| `[model]`", "| `[task]`"))]
    assert rows == [key_row(k) for k in cli.KEYS]


def test_readme_cli_block_is_the_usage():
    # the README's CLI block is the usage of `staticlab --help`, so it cannot go stale
    usage = [line.strip() for line in cli.__doc__.splitlines() if line.startswith("    staticlab ")]
    with open(README) as fh:
        block = fh.read().split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    assert block.splitlines() == usage
