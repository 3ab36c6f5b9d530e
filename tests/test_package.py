import os
import pathlib
import re
import subprocess
import sys

import staticlab


def test_import_loads_no_scipy():
    # scipy is imported where a routine needs it, so `import staticlab` stays cheap
    code = (
        "import sys, staticlab, staticlab.cli, staticlab.acceptance; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(staticlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_only_geometry_evaluates_profiles_and_warps():
    # one sampler: outside geometry.py the model is read through StaticModel.sample
    pkg = pathlib.Path(staticlab.__file__).parent
    calls = [
        f"{path.name}:{number}"
        for path in sorted(pkg.glob("*.py"))
        if path.name != "geometry.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if ".evaluate(" in line
    ]
    assert calls == []


def test_only_the_key_table_reads_configs():
    # cli.KEYS decides every config key, default and check: no src/ line reads a parsed config itself
    pkg = pathlib.Path(staticlab.__file__).parent
    reads = re.compile(r"\.(getfloat|getint|getboolean|has_option)\(|\bcp\.get")
    calls = [
        f"{path.name}:{number}"
        for path in sorted(pkg.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if reads.search(line)
    ]
    assert calls == []


def test_src_never_mentions_scipy_optimize():
    # root solves use numerics.brentq: importing scipy.optimize adds about 20 MB and 0.3-0.6 s to a process
    pkg = pathlib.Path(staticlab.__file__).parent
    hits = [
        f"{path.relative_to(pkg)}:{number}"
        for path in sorted(pkg.rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts
        for number, line in enumerate(path.read_text(errors="replace").splitlines(), 1)
        if "scipy.optimize" in line
    ]
    assert hits == []


def test_barrier_paths_load_no_scipy_optimize(tmp_path):
    # the two paths that solve for the beta_1 shift, in a fresh interpreter
    code = (
        "import sys; from staticlab import acceptance, cli; "
        f"code = cli.main(['run', 'schwarzschild_barrier', '--out', {str(tmp_path)!r}]); "
        "passed = acceptance.run_criterion(7).passed; "
        "print(code, passed, sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(staticlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip().splitlines()[-1] == "0 True []"


def test_catenoid_run_loads_no_scipy(tmp_path):
    # the Dirichlet solve is one scalar root in numpy: a cold euclidean_catenoid run imports no scipy
    code = (
        "import sys; from staticlab import cli; "
        f"code = cli.main(['run', 'euclidean_catenoid', '--out', {str(tmp_path)!r}]); "
        "print(code, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(staticlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip().splitlines()[-1] == "0 []"


def test_one_banded_linear_algebra_path():
    # lambda1 factors positive definite tridiagonals by LAPACK's LDL^T (dpttrf) alone
    pkg = pathlib.Path(staticlab.__file__).parent
    hits = [
        f"{path.relative_to(pkg)}:{number}"
        for path in sorted(pkg.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"eigh_tridiagonal|dgtsv|dstebz", line)
    ]
    assert hits == []
