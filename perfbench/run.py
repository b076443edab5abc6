"""Benchmark entry point for expasym.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout: the package is imported from
``src/`` of that checkout, never from an installed copy.  Each workload
runs in fresh worker processes (closed loop, one client, no threads):

* ``--trace 0`` starts SETUP_SAMPLES workers; all but the last only set up.
  It reports setup_s (median set-up time over the workers), jobs_per_s
  (jobs completed per second over whole passes of the seeded job list,
  each job position taken at its median time across the passes) and
  peak_rss_mb.
* ``--trace 1`` runs one untraced and one traced worker and reports the
  per-layer figures of the traced one (per job), the tracing overhead,
  and the start-up time of a process that only imports ``expasym.cli``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Trace files go to
``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("symbolic_cold", "float_studies", "exact_studies", "cli_cold")
DEFAULT_SEED = 1
SETUP_SAMPLES = 3
STARTUP_SAMPLES = 3
RUN_BUDGET_S = 170
CLI_SUBCOMMANDS = ("moments", "expansion", "evaluate", "verify", "voronovskaja", "extrapolate", "identities")


class RunFailed(RuntimeError):
    pass


def _env():
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def _spawn(workload, seed, seconds, mode, deadline, trace_dir=None):
    """Start a worker; return (set-up seconds, result dict or None)."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    if trace_dir is not None:
        argv += ["--trace-dir", trace_dir]
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - perf_counter(), 1.0), proc.kill)
    timer.start()
    setup, last = None, None
    try:
        for line in proc.stdout:
            if setup is None and line.startswith("READY"):
                setup = perf_counter() - start
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if code != 0 or setup is None:
        raise RunFailed(f"{workload} worker ({mode}) exited with {code}")
    return setup, (json.loads(last) if mode != "probe" else None)


def _startup_s():
    """Median wall time of a process that only imports expasym.cli."""
    samples = []
    for _ in range(STARTUP_SAMPLES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import expasym.cli"], cwd=ROOT, env=_env(), check=True)
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def _rate(result):
    """Jobs completed per second of a typical whole pass."""
    return result["jobs_per_pass"] * result["completed"] / result["attempted"] / result["pass_s"]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(workload, seed, seconds, deadline):
    setups = [_spawn(workload, seed, seconds, "probe", deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
    setup, result = _spawn(workload, seed, seconds, "measure", deadline)
    setups.append(setup)
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "jobs_per_s": _metric(_rate(result), "1/s"),
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
    }
    return result, metrics


def run_traced(workload, seed, seconds, deadline):
    trace_dir = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}")
    os.makedirs(trace_dir, exist_ok=True)
    _, plain = _spawn(workload, seed, seconds, "measure", deadline)
    _, traced = _spawn(workload, seed, seconds, "trace", deadline, trace_dir)
    metrics = dict(traced["layers"])
    metrics["cli.startup_s"] = _metric(_startup_s(), "s")
    for sub in CLI_SUBCOMMANDS:
        metrics[f"cli.{sub}_s"] = _metric(traced["median_job_s"].get(sub, 0.0) if workload == "cli_cold" else 0.0, "s")
    plain_rate, traced_rate = _rate(plain), _rate(traced)
    metrics["trace.overhead_pct"] = _metric(100 * (plain_rate / traced_rate - 1), "%")
    result = {key: plain[key] + traced[key] for key in ("attempted", "failed", "wrong")}
    with open(os.path.join(trace_dir, "layers.json"), "w") as handle:
        json.dump({"workload": workload, "seed": seed, "untraced_jobs_per_s": plain_rate,
                   "traced_jobs_per_s": traced_rate, "metrics": metrics}, handle, indent=1)
    return result, metrics


def run_workload(workload, seed, seconds, trace, deadline):
    runner = run_traced if trace else run_untraced
    result, metrics = runner(workload, seed, seconds, deadline)
    summary = ", ".join(f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items())
    print(f"{workload}: {summary}; attempted {result['attempted']}, failed {result['failed']}")
    return {
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "expasym", "__init__.py")):
        print(f"error: no expasym sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        deadline = perf_counter() + RUN_BUDGET_S
        try:
            report = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        except RunFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
