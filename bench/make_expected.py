"""Generate ``expected.json``: the task pools and the answer of every pool task.

Run once, on the commit whose answers are frozen:

    python3 bench/make_expected.py

Each answer is cross-checked before it is stored: group orders against the
congruence path ``table3_lookup`` (independent of both BFS and the chain),
subgroup orders against ``classify_rank3``, and orders that the acceptance
tests freeze against those constants. The time each task took is stored as
``cost_s``: the per-task baseline of that commit, by which the deck classes
of ``run.py`` group tasks of like cost.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from workloads import build_input, import_starcox, params_of, run_task, task_id

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

KS = (3, 4, 5, 6)
POLYTOPE_PRIMES = ("2", "-2-1t", "-3")  # 2, sqrt5 and 3

# Orders frozen by the acceptance tests (criteria 1, 3, 4 and 10).
FROZEN_ORDERS = {(9, 3): {531_360}, (9, 6): {174_960}, (11, 3): {1_742_400, 1_771_440},
                 (11, 6): {1_742_400, 1_771_440}}
FROZEN_EVEN_SUBGROUPS = {3: (24, 60, 60), 4: (24, 160, 60), 5: (60, 160, 60), 6: (24, 60, 60)}
FROZEN_FACES = {(3, "2", 2): (16, 120, 160, 16, 40), (3, "-2-1t", 0): (650, 1950, 1560, None, None)}


def pools(mods) -> dict[str, list[dict]]:
    ring, classify, mg = mods["ring"], mods["classify"], mods["matgroup"]
    primes = ring.primes_up_to_norm(131)

    def fits(k, p):
        return classify.table3_lookup(params_of(mods, k, p)).predicted_order <= mg.DEFAULT_CAP

    return {
        "bfs-wide": [{"k": k, "prime": str(p.value)} for p in primes if p.q in (9, 11)
                     for k in KS if fits(k, str(p.value))],
        "chain": [{"k": k, "prime": str(p.value)} for p in primes if 19 <= p.q <= 61 for k in KS],
        "cgroup": [{"k": k, "prime": str(p.value)} for p in primes for k in KS],
        "polytope": [{"k": k, "prime": p, "ring": r} for p in POLYTOPE_PRIMES for k in KS
                     for r in (0, 2)],
    }


def full_order(mods, params) -> int:
    """Order of the full group by the congruence path (stored 960 at 2)."""
    if params.prime.klass.value == "Even":
        return 960
    return mods["classify"].table3_lookup(params).predicted_order


def check(ok: bool, *info) -> None:
    if not ok:
        raise AssertionError(f"cross-check failed: {info}")


def cross_check(mods, workload: str, task: dict, ans: dict) -> None:
    params = params_of(mods, task["k"], task["prime"])
    q, k = params.prime.q, task["k"]
    if workload in ("bfs-wide", "chain"):
        check(ans["order"] == full_order(mods, params), task, ans)
        check(ans["order"] in FROZEN_ORDERS.get((q, k), {ans["order"]}), task, ans)
    elif workload == "cgroup":
        o = ans["subgroup_orders"]
        if params.prime.klass.value == "Even":
            check((o["G0"], o["G2"], o["G3"]) == FROZEN_EVEN_SUBGROUPS[k], task, o)
        else:
            rank3 = mods["classify"].classify_rank3
            check(o["G0"] == rank3(0, params).predicted_order, task, o)
            check(o["G2"] == rank3(2, params).predicted_order, task, o)
            check(o["G3"] == rank3(3, params).predicted_order, task, o)
        if q <= 61:  # criterion 7 sweeps q <= 61
            check(ans["is_cgroup"], task, ans)
    else:
        f = ans["faces"]
        n = full_order(mods, params)
        for name, sig in (("cells_p", f["signature_p"]), ("cells_q", f["signature_q"])):
            check(f[name] * sig[0] == n, task, f)
        want = FROZEN_FACES.get((k, task["prime"], task["ring"]))
        got = (f["vertices"], f["edges"], f["subfacets"], f["cells_p"], f["cells_q"])
        if want is not None:
            check(all(w is None or w == g for w, g in zip(want, got)), task, got)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    mods = import_starcox()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True, check=True).stdout.strip()
    out = {
        "provenance": {
            "commit": commit,
            "generated_by": "python3 bench/make_expected.py",
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cross_checks": "orders vs table3_lookup and acceptance constants; "
            "subgroup orders vs classify_rank3",
        },
        "pools": {},
    }
    for workload, pool in pools(mods).items():
        rows = []
        for task in pool:
            inp = build_input(mods, workload, task)
            t0 = time.perf_counter()
            ans = run_task(mods, workload, task, inp)
            cost = time.perf_counter() - t0
            cross_check(mods, workload, task, ans)
            q = inp[0].prime.q
            rows.append({**task, "q": q, "cost_s": round(cost, 3), "answer": ans})
            print(f"{workload:9} {task_id(task):28} {cost:8.3f} s", flush=True)
        out["pools"][workload] = rows
    (HERE / "expected.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
