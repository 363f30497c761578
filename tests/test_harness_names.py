"""Every function the benchmark's tracing launcher wraps still exists.

`perfbench/launch.py` names library functions by module and attribute path
in its SPANS and COUNTED tables and wraps them before a traced run.  A
rename in the library would only surface when a traced run breaks; this
test resolves every name the way the launcher does, reading the launcher
by path and changing nothing.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

LAUNCH = Path(__file__).resolve().parent.parent / "perfbench" / "launch.py"


def _launch():
    spec = importlib.util.spec_from_file_location("perfbench_launch", LAUNCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


launch = _launch()
NAMES = [(module, path) for module, path, *_ in launch.SPANS + launch.COUNTED]


@pytest.mark.parametrize("module, path", NAMES, ids=[f"{m}.{p}" for m, p in NAMES])
def test_every_wrapped_name_resolves(module, path):
    assert module in launch.LAYERS
    owner, attr = launch._lookup(importlib.import_module(f"cornerforge.{module}"), path)
    raw = inspect.getattr_static(owner, attr)
    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
    assert inspect.isfunction(fn), (module, path, raw)
