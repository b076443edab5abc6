"""One workload in one fresh process; started by run.py.

Modes:
  probe    set up, print READY, exit (a set-up time sample);
  measure  set up, print READY, then run whole passes of the job list until
           the timed job work reaches --seconds, and print one JSON line;
  trace    as measure, with the tracer installed before set-up, and the
           per-layer figures in the JSON line.

Set-up is import, input generation and the workload's warm-up.  Only the
jobs' run() calls are timed; checks run between them, untimed.  pass_s sums,
over the positions of the job list, the median time of the job at that
position across passes: the time of a typical whole pass, robust to a pass
slowed by something else on the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MAX_REPORTED_PROBLEMS = 5


def _build(name, seed, trace_dir):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if name == "cli_cold":
        from cli_workload import CliCold

        return CliCold(seed, ROOT, trace_dir), None
    tracer = None
    if trace_dir is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from workloads import WORKLOADS

    return WORKLOADS[name](seed), tracer


def measure(workload, seconds, tracer):
    busy = 0.0
    attempted = completed = failed = wrong = passes = 0
    times = {}  # job name -> run() times, for per-subcommand figures
    by_position = []  # index in the pass -> run() times
    while busy < seconds:
        for index, job in enumerate(workload.pass_jobs()):
            attempted += 1
            if tracer is not None:
                tracer.job = f"{passes}.{index}"
            start = perf_counter()
            try:
                result = job.run()
                error = None
            except Exception as exc:  # a job that raises counts as failed
                error = f"{job.name}: {type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.job = None
            busy += elapsed
            times.setdefault(job.name, []).append(elapsed)
            if index == len(by_position):
                by_position.append([])
            by_position[index].append(elapsed)
            if error is None:
                try:
                    problems = job.check(result)
                except Exception as exc:
                    problems = [f"{job.name}: check raised {type(exc).__name__}: {exc}"]
                if problems:
                    wrong += 1
                    error = problems[0]
                else:
                    completed += 1
            if error is not None:
                failed += 1
                if failed <= MAX_REPORTED_PROBLEMS:
                    print(f"[{workload.name}] failed: {error}", file=sys.stderr)
        passes += 1
    return {
        "busy_s": busy,
        "pass_s": sum(statistics.median(v) for v in by_position),
        "jobs_per_pass": len(by_position),
        "attempted": attempted,
        "completed": completed,
        "failed": failed,
        "wrong": wrong,
        "passes": passes,
        "median_job_s": {name: statistics.median(v) for name, v in times.items()},
    }


def _layers(workload, tracer, trace_dir, jobs):
    """Per-layer figures; writes spans and totals into trace_dir."""
    import tracer as T

    spans_path = os.path.join(trace_dir, "spans.jsonl")
    if tracer is not None:
        totals = T.merge_totals([tracer.totals()])
        tracer.write_spans(spans_path)
    else:
        parts = []
        with open(spans_path, "w") as merged:
            for k, (totals_file, spans_file) in enumerate(workload.trace_files):
                with open(totals_file) as handle:
                    parts.append(json.load(handle))
                with open(spans_file) as handle:
                    for line in handle:
                        span = json.loads(line)
                        span["process"] = k
                        merged.write(json.dumps(span) + "\n")
                os.remove(totals_file)
                os.remove(spans_file)
        totals = T.merge_totals(parts)
    with open(os.path.join(trace_dir, "totals.json"), "w") as handle:
        json.dump({"jobs": jobs, **totals}, handle, indent=1)
    return T.layer_metrics(totals, jobs)


def main(argv=None):
    t0 = perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("probe", "measure", "trace"), required=True)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)
    trace_dir = args.trace_dir if args.mode == "trace" else None

    workload, tracer = _build(args.workload, args.seed, trace_dir)
    workload.warm_up()
    print(f"READY {perf_counter() - t0:.6f}", flush=True)
    if args.mode == "probe":
        return 0

    result = measure(workload, args.seconds, tracer)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    if trace_dir is not None:
        result["layers"] = _layers(workload, tracer, trace_dir, result["attempted"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
