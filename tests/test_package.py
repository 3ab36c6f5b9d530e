import os
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
