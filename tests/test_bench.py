"""The benchmark's traced run still finds every function it wraps, at every
module that binds it by name, and still gets the stored answers."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["bfs-wide", "chain", "cgroup", "polytope"])
def test_traced_bench_run_covers_its_layers(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "coverage ok" in lines, proc.stdout
    assert json.loads(lines[-1])["failed"] == 0
