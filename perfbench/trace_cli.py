"""Run the expasym CLI with the tracer installed.

Usage: trace_cli.py TOTALS_JSON SPANS_JSONL <expasym arguments...>

Writes the process's per-layer totals and its spans, then exits with the
CLI's own status.  The CLI's output goes to stdout as usual.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import expasym.cli  # noqa: E402

from tracer import Tracer  # noqa: E402


def main():
    totals_path, spans_path, *argv = sys.argv[1:]
    tracer = Tracer()
    tracer.install()
    tracer.job = "cli"
    try:
        return expasym.cli.main(argv)
    finally:
        tracer.job = None
        tracer.write_spans(spans_path)
        with open(totals_path, "w") as handle:
            json.dump(tracer.totals(), handle)


if __name__ == "__main__":
    sys.exit(main())
