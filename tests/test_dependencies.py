"""The package runs on numpy and the standard library alone."""

import json
import subprocess
import sys
from pathlib import Path

import copsamp

_IMPORTS = """
import json, sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import copsamp, copsamp.cli
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(loaded - set(sys.stdlib_module_names))))
"""


def test_import_loads_numpy_and_stdlib_only():
    # a fresh interpreter: the test session has imported pytest, hypothesis, ...
    src = str(Path(copsamp.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _IMPORTS, src], capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout) == ["copsamp", "numpy"]
