"""Every function the benchmark harness traces exists on its module.

``perfbench/tracing.py`` wraps the names listed in its ``TRACED`` table;
a name that is missing makes a traced benchmark run fail. This check runs
the same lookup, so removing a traced name fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced_table():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_function_exists():
    missing = [
        f"{modname}.{name}"
        for modname, (_layer, names) in _traced_table().items()
        for name in names
        if not callable(getattr(importlib.import_module(modname), name, None))
    ]
    assert missing == []
