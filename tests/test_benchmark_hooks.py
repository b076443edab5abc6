"""The hooks that perfbench/tracer.py installs must exist in the package,
and a traced benchmark worker must run.

A traced benchmark worker exits at start-up when a function the tracer
wraps has been renamed or removed, or when ``SmoothFunction.values_iter``
no longer takes ``(self, step)``; no other test would notice.  The tracer
is loaded by path and only read, never installed, so the package under
test stays unwrapped.  One traced ``symbolic_cold`` worker then runs in its
own process: import, tracer install, the seeded warm-up and one full pass,
which catches a worker that crashes at start-up or reports a wrong or
failed job; one traced ``float_studies`` worker does the same for the
float series, whose values come through the tracer's ``values_iter``
wrapper.  At 0.01 s of timed work it does not see whether a full run at
the benchmark's ``--seconds`` fits ``perfbench/run.py``'s time budget.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

from expasym.functions import SmoothFunction

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
WORKER = ROOT / "perfbench" / "worker.py"


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


def _run_traced_worker(workload, tmp_path):
    argv = [sys.executable, str(WORKER), "--workload", workload,
            "--mode", "trace", "--seconds", "0.01", "--seed", "2",
            "--trace-dir", str(tmp_path)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] > 0
    assert (result["wrong"], result["failed"]) == (0, 0)


def test_traced_symbolic_worker_runs_one_pass(tmp_path):
    _run_traced_worker("symbolic_cold", tmp_path)


def test_traced_float_worker_runs_one_pass(tmp_path):
    # the float series pull their values through the tracer's values_iter
    # wrapper
    _run_traced_worker("float_studies", tmp_path)
