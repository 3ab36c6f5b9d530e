import os
import pathlib
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
