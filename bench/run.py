"""Closed-loop benchmark of the starcox library: one caller, one task at a time.

    python3 bench/run.py --workload chain --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ``src``. The
seed deals the tasks of each deck from the workload's pool
(``expected.json``), class by class, and orders them. A run is a fixed
number of passes, each over a fresh deck: ``--seconds`` divided by what a
deck cost at the seed commit (``cost_s`` in expected.json), rounded, so the
work done depends on ``--seconds`` alone and never on how fast the program
runs. Each task starts when the previous one returns, and every answer is
compared with the stored one. With ``--trace 0`` the last line carries the
end-to-end metrics; with ``--trace 1`` the traced functions of
``spans.py`` are wrapped and the last line carries the per-layer metrics,
per deck like ``trace.wall_s``. Exits 2 without a result when the library
is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, build_input, import_starcox, run_task, task_id

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPS = 41

# A deck is made of classes: (how many, field sizes q, marks k). The tasks
# of one class cost the same, within a few percent, at the seed commit, so
# whatever tasks the seed deals a deck costs the same, and the median and
# tail task each fall in the middle of one class. On a 2-vCPU KVM guest the
# same task took from 1.0 to 1.9 s within one minute, so each class is
# spread evenly over the deck (see ``draw_decks``): its median is then taken
# over the whole run, not over the few seconds that one block of it takes.
DECKS = {
    # a 1.74M-1.77M element closure at q=11 (k=5, 6: the largest closures,
    # ~750 MB peak), a 0.5M one and a 175k one at q=9; the median falls on
    # the 0.5M closures and the maximum on the q=11 ones
    "bfs-wide": [(1, (9,), (6,)), (1, (9,), (4, 5)), (1, (11,), (5, 6))],
    # one 227,042-point orbit (q=61, k=3); the median is a q=29, k=3 chain,
    # whose two primes cost the same (q=31, k=4: 8% apart)
    "chain": [(2, (19,), (3, 4, 5, 6)), (13, (29,), (3,)), (1, (61,), (3,))],
    # deep narrow torus BFS rows (k=6) of two sizes and cheap rows; the
    # median is a q=59 torus row (q=61 ones run 12% faster), the tail a q=71
    # one. Medians of 0.1 s rows spread by 29-43% between runs on that VM, so
    # none is the median
    "cgroup": [(3, tuple(range(132)), (3,)), (4, (59,), (6,)), (3, (71,), (6,))],
    # 25k single-coset mat_mul calls at q=9, k=6, plus rows at 2 and sqrt5;
    # the median falls among the small sqrt5 rows (k=3; k=5 runs 12% slower),
    # the tail among the large
    "polytope": [(4, (4,), (3, 4, 5, 6)), (4, (5,), (3,)), (3, (5,), (4, 6)), (1, (9,), (6,))],
}

# Layers each workload must reach and those it must bypass, checked in the
# traced run; a layer missing here would mean a wrapper missed a binding.
USES = {
    "bfs-wide": {"matgroup.enumerate_group", "matgroup.mat_mul"},
    "chain": {"matgroup.bsgs_group", "matgroup.mat_mul", "matgroup.mat_vec", "matgroup.mat_inv"},
    "cgroup": {
        "cgroup.verify_cgroup", "builder.reduced_generators", "field.build_field",
        "matgroup.enumerate_group", "matgroup.bsgs_group", "matgroup.mat_mul",
        "matgroup.mat_vec", "matgroup.mat_inv", "matgroup.contains_batch",
        "matgroup.intersect",
    },
    "polytope": {
        "polytope.face_counts", "polytope.incidence_report", "builder.reduced_generators",
        "classify.classify_rank4", "ring.golden_legendre", "matgroup.enumerate_group",
        "matgroup.mat_mul",
    },
}
BYPASSES = {
    "bfs-wide": {"matgroup.bsgs_group"},
    "chain": {"matgroup.enumerate_group"},
    "cgroup": set(),
    "polytope": {"matgroup.bsgs_group"},
}
# Modules that bind a traced function by name and so must be patched too.
IMPORT_SITES = {
    "matgroup.mat_mul": {"builder", "classify", "cgroup", "polytope"},
    "matgroup.enumerate_group": {"cgroup", "polytope"},
    "matgroup.bsgs_group": {"cgroup"},
    "builder.reduced_generators": {"cgroup", "classify", "polytope"},
    "ring.golden_legendre": {"classify"},
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_pool(workload: str) -> list[dict]:
    data = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    return data["pools"][workload]


def classes(workload: str, pool: list[dict]) -> list[tuple[int, list[dict]]]:
    return [(count, [t for t in pool if t["q"] in qs and t["k"] in ks])
            for count, qs, ks in DECKS[workload]]


def passes_for(workload: str, pool: list[dict], seconds: float) -> int:
    """Decks in a run: ``seconds`` over a deck's mean cost at the seed commit."""
    deck_s = sum(n * statistics.fmean(t["cost_s"] for t in ts) for n, ts in classes(workload, pool))
    return max(1, round(seconds / deck_s))


def draw_decks(rng: random.Random, workload: str, pool: list[dict], passes: int) -> list[list[dict]]:
    """The decks of a run. Each class deals from a seed-shuffled copy of its
    tasks, shuffled again whenever it runs out, so over a run every task of a
    class comes up equally often, to within one. In a deck the j-th of a
    class's n tasks goes at (j + 0.5) / n of the way through, ties going to
    the class listed first: each class is spread evenly over the deck."""
    stock: dict[int, list[dict]] = {}
    decks = []
    for _ in range(passes):
        slots = []
        for c, (count, ts) in enumerate(classes(workload, pool)):
            for j in range(count):
                if not stock.get(c):
                    stock[c] = rng.sample(ts, len(ts))
                slots.append(((j + 0.5) / count, c, stock[c].pop()))
        slots.sort(key=lambda s: s[:2])
        decks.append([t for _, _, t in slots])
    return decks


def setup(workload: str, pool: list[dict]):
    """Import the library and build every pool task's inputs, SETUP_REPS
    times; return the last modules and inputs and the median time."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        mods = import_starcox()
        inputs = {id(t): build_input(mods, workload, t) for t in pool}
        times.append(time.perf_counter() - t0)
    return mods, inputs, statistics.median(times)


def tail(samples: list[float]) -> tuple[int, float]:
    """Highest whole percentile (nearest rank) with at least ten samples
    above it; with 20 samples or fewer no percentile above the median has
    that, and the maximum is reported instead, as percentile 100."""
    s = sorted(samples)
    n = len(s)
    for pct in range(99, 50, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= 10:
            return pct, s[rank - 1]
    return 100, s[-1]


def run_passes(mods, workload, pool, inputs, seed, passes):
    """Closed loop over ``passes`` decks, one task at a time."""
    pass_s, task_s, failures = [], [], []
    for deck in draw_decks(random.Random(seed), workload, pool, passes):
        t_pass = time.perf_counter()
        for task in deck:
            t0 = time.perf_counter()
            try:
                got = run_task(mods, workload, task, inputs[id(task)])
            except Exception as e:  # a raising task is counted as failed, not fatal
                got = f"raised {type(e).__name__}: {e}"
            task_s.append(time.perf_counter() - t0)
            ok = json.loads(json.dumps(got)) == task["answer"]
            if not ok:
                failures.append((task_id(task), got))
            print(f"task {task_id(task):28} {task_s[-1]:9.3f} s {'ok' if ok else 'MISMATCH'}")
        pass_s.append(time.perf_counter() - t_pass)
    return pass_s, task_s, failures


def coverage(workload: str, rec, sites: dict[str, list[str]]) -> list[str]:
    """Violations of the predicted layer use; empty when the trace is sound."""
    bad = [f"{n} not patched in {sorted(want - set(sites.get(n, ())))}"
           for n, want in IMPORT_SITES.items() if not want <= set(sites.get(n, ()))]
    bad += [f"{n} has 0 calls" for n in sorted(USES[workload]) if not rec.totals(n)["calls"]]
    bad += [f"{n} has {rec.totals(n)['calls']} calls, predicted 0"
            for n in sorted(BYPASSES[workload]) if rec.totals(n)["calls"]]
    return bad


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "starcox" / "__init__.py").is_file():
        print(f"error: no library at {ROOT / 'src' / 'starcox'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # One benchmark process and no helper threads: numpy reads these when
    # it first loads, which is inside setup.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    pool = load_pool(args.workload)
    mods, inputs, setup_s = setup(args.workload, pool)
    if Path(mods["starcox"].__file__).resolve().parent != ROOT / "src" / "starcox":
        print(f"error: imported starcox from {mods['starcox'].__file__}", file=sys.stderr)
        return 2

    rec = None
    if args.trace:
        from spans import Recorder

        rec = Recorder()
        sites = rec.install(mods)
    passes = passes_for(args.workload, pool, args.seconds)
    pass_s, task_s, failures = run_passes(mods, args.workload, pool, inputs, args.seed, passes)
    attempted, failed = len(task_s), len(failures)
    for name, got in failures:
        print(f"MISMATCH {args.workload} {name}: {str(got)[:300]}")

    if rec is not None:
        rec.uninstall()
        bad = coverage(args.workload, rec, sites)
        print(f"coverage {'ok' if not bad else 'FAIL'}" + "".join(f"\n  {b}" for b in bad))
        rec.write(ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.npz")
        metrics = {"trace.wall_s": (statistics.median(pass_s), "s"), **rec.metrics(decks=passes)}
    else:
        pct, tail_s = tail(task_s)
        print(f"tasks {attempted} in {len(pass_s)} passes of "
              f"{', '.join(f'{p:.3f}' for p in pass_s)} s; "
              f"task_s.tail is {'the max' if pct == 100 else f'p{pct}'} of {attempted} samples; fail_ratio {failed / attempted:.4f}")
        metrics = {
            "wall_s": (statistics.median(pass_s), "s"),
            "task_s.p50": (statistics.median(task_s), "s"),
            "task_s.tail": (tail_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (setup_s, "s"),
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name:44} {value:>18,} {unit}" if isinstance(value, int) else
              f"  {name:44} {value:18.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
