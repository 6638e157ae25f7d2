"""The benchmark's span tracer still finds every function it wraps.

``perfbench/tracing.py`` rebinds copsamp functions by name and its
counters read call arguments by name, so a rename in ``src/`` would
otherwise only show up as a failed ``--trace 1`` benchmark run.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_targets_resolve_with_counter_parameters():
    read_by_counters = set()
    for module_name, func_name, counters, _ in load_tracing().TARGETS:
        func = getattr(importlib.import_module(module_name), func_name, None)
        assert callable(func), f"{module_name}.{func_name} is gone"
        if counters is None:
            continue
        # counters read the bound call arguments as args["<name>"]
        names = set(re.findall(r"""args\[["'](\w+)["']\]""", inspect.getsource(counters)))
        params = set(inspect.signature(func).parameters)
        assert names <= params, f"{module_name}.{func_name} lacks {sorted(names - params)}"
        read_by_counters |= names
    assert read_by_counters == {"data", "info", "kind", "seed", "corrupted", "path", "text"}
