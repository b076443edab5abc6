"""Smoke runs of the experiment scripts as subprocesses."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(ROOT / "scripts" / name), *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize(
    "name,args,expected",
    [
        ("extrapolation_ladder.py", ("--n0", "16", "--levels", "4"), "level 1: empirical order"),
    ],
)
def test_script_runs(name, args, expected):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
