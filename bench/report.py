"""Run every workload and print all metrics by name and unit.

    python3 bench/report.py [--seeds 1,2,3] [--out FILE]

Each run is its own ``run.py`` process, one at a time, so peak RSS is the
workload's own and the machine carries one benchmark process. Every run
measures ``run_seconds`` of BENCHMARK.json, as the benchmark's own runs
do, so the figures compare with ``baseline.json``. Every seed
gets an untraced run; the first seed also gets a traced one right after.
The report gives, per workload, the median and quartile spread of each
end-to-end metric and the failures against the stored answers, then the
per-layer table and the coverage check of the traced run, and the tracing
overhead (traced minus untraced ``wall_s`` on the same seed). Exits 1 if any task
failed, any run broke, or a coverage check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def run(workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1]), lines[:-1]


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 with one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1", help="comma-separated workload seeds")
    ap.add_argument("--out", type=Path, help="also write all values as JSON here")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    ok = True
    record = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seconds": SECONDS,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in WORKLOADS:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        for seed in seeds:
            res, lines = run(workload, seed, 0)
            if seed == seeds[0]:  # back to back, so both runs see the same machine
                traced, traced_lines = run(workload, seed, 1)
            shown = ("tasks ", "MISMATCH", "task ") if seed == seeds[0] else ("tasks ", "MISMATCH")
            print("\n".join(f"{workload} seed {seed}: {line}" for line in lines if line.startswith(shown)))
            attempted += res["attempted"]
            failed += res["failed"]
            ok &= res["correct"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        coverage_ok = "coverage ok" in traced_lines
        ok &= traced["correct"] and coverage_ok
        layer = {n: m["value"] for n, m in traced["metrics"].items()}
        overhead = layer["trace.wall_s"] - values["wall_s"][0]

        print(f"\n== {workload}: {attempted} tasks over {len(seeds)} runs, {failed} failed, "
              f"fail_ratio {failed / attempted:.4f} (unit ratio)")
        print(f"  {'metric':24} {'median':>14} {'q1-q3/median':>13}  unit")
        for name, vals in values.items():
            print(f"  {name:24} {statistics.median(vals):14.6f} {spread(vals):13.4f}  {units[name]}")
        print(f"  traced run, seed {seeds[0]}: coverage {'ok' if coverage_ok else 'FAIL'}")
        for line in traced_lines:
            if line.startswith("  ") and not line.startswith("  trace.wall_s"):
                print(f"  {line}")
        print(f"  tracing overhead: {overhead:+.3f} s on wall_s "
              f"({overhead / values['wall_s'][0]:+.2%} of the untraced {values['wall_s'][0]:.3f} s; "
              f"compare the {spread(values['wall_s']):.2%} spread of untraced runs)")
        record["workloads"][workload] = {
            "fail_ratio": failed / attempted,
            "end_to_end": {n: {"median": statistics.median(v), "spread": spread(v),
                               "unit": units[n], "values": v} for n, v in values.items()},
            "per_layer_seed": seeds[0],
            "per_layer": traced["metrics"],
            "tracing_overhead_s": overhead,
            "coverage_ok": coverage_ok,
        }
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
