"""Task pools of the four benchmark workloads and how one task runs.

A task is a ``(k, prime)`` pair (plus a ringed node for ``polytope``). The
pools themselves are stored in ``expected.json``, so which tasks exist does
not depend on the code under test. Every call into the library goes through
a module attribute looked up at call time, so wrappers installed by
``spans.py`` see the benchmark's own calls as well as the library's.
"""

from __future__ import annotations

import importlib
import sys

WORKLOADS = ("bfs-wide", "chain", "cgroup", "polytope")


def import_starcox():
    """Import the library afresh from ``src`` and return its modules by name.

    Dropping the cached modules first makes a repeated call pay the import
    again, so set-up can be timed more than once in one process.
    """
    for name in [m for m in sys.modules if m == "starcox" or m.startswith("starcox.")]:
        del sys.modules[name]
    pkg = importlib.import_module("starcox")
    names = ("ring", "field", "builder", "matgroup", "classify", "cgroup", "polytope")
    mods = {n: importlib.import_module(f"starcox.{n}") for n in names}
    mods["starcox"] = pkg
    return mods


def params_of(mods, k: int, prime: str):
    ring, builder = mods["ring"], mods["builder"]
    return builder.StarParams(k, ring.classify_prime(ring.parse_golden(prime)))


def build_input(mods, workload: str, task: dict):
    """The library inputs of one task: parameters, and for the two order
    workloads also the reduced generators."""
    params = params_of(mods, task["k"], task["prime"])
    if workload in ("bfs-wide", "chain"):
        ctx, gens, _ = mods["builder"].reduced_generators(params)
        return params, ctx, gens
    return (params,)


def run_task(mods, workload: str, task: dict, inp) -> dict:
    """Run one task and return its answer in the form stored in ``expected.json``."""
    mg = mods["matgroup"]
    if workload == "bfs-wide":
        _, ctx, gens = inp
        return {"order": int(mg.enumerate_group(ctx, gens).order)}
    if workload == "chain":
        _, ctx, gens = inp
        return {"order": int(mg.bsgs_group(ctx, gens).order)}
    (params,) = inp
    if workload == "cgroup":
        rep = mods["cgroup"].verify_cgroup(params)
        return {
            "rank3": list(rep.rank3_checks),
            "rank4": list(rep.rank4_checks),
            "subgroup_orders": {n: int(v) for n, v in sorted(rep.subgroup_orders.items())},
            "is_cgroup": rep.is_cgroup,
        }
    if workload == "polytope":
        poly = mods["polytope"]
        st = poly.face_counts(params, task["ring"])
        inc = poly.incidence_report(params, task["ring"])
        return {
            "faces": {
                "vertices": st.vertices,
                "edges": st.edges,
                "subfacets": st.subfacets,
                "cells_p": st.cells_p,
                "cells_q": st.cells_q,
                "signature_p": [st.cell_signature_p[0], list(st.cell_signature_p[1])],
                "signature_q": [st.cell_signature_q[0], list(st.cell_signature_q[1])],
                "orbit_class": st.orbit_class,
            },
            "incidence": {
                "edges_ok": inc.edges_ok,
                "vertex_profile": [list(v) for v in inc.vertex_profile],
                "crossfoot_ok": inc.crossfoot_ok,
            },
        }
    raise ValueError(f"unknown workload {workload!r}")


def task_id(task: dict) -> str:
    ring = f" ring {task['ring']}" if "ring" in task else ""
    return f"k={task['k']} p={task['prime']}{ring}"
