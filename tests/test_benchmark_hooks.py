"""The hooks that perfbench/tracer.py installs must exist in the package.

A traced benchmark worker exits at start-up when a function the tracer
wraps has been renamed or removed, or when ``SmoothFunction.values_iter``
no longer takes ``(self, step)``; no other test would notice.  The tracer
is loaded by path and only read, never installed, so the package under
test stays unwrapped.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from expasym.functions import SmoothFunction

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_functions_resolve():
    tracer = _load_tracer()
    hooks = [(module, attr) for module, attr, _name in tracer.SPANS + tracer.LEAVES]
    assert hooks
    missing = [
        f"expasym.{module}.{attr}"
        for module, attr in hooks
        if not callable(getattr(importlib.import_module(f"expasym.{module}"), attr, None))
    ]
    assert not missing


def test_values_iter_takes_self_and_step():
    params = list(inspect.signature(SmoothFunction.values_iter).parameters)
    assert params == ["self", "step"]
