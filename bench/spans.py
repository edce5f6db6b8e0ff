"""Span recording for the traced run, done from outside the library.

``Recorder.install`` replaces each traced function with a wrapper at its
home module and at every module that imported it by name (``from .matgroup
import mat_mul`` binds a second name that a patch of ``matgroup`` alone
would miss). Each call becomes one span: name, start, end and parent span,
kept in memory in flat arrays and written out when the run ends. Self time
is a span's duration minus the time of its direct children; spans run on
one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path

import numpy as np

# Traced functions as (module, attribute, reported fields); a dotted
# attribute is a method. The span is named module.function.
TRACED = (
    ("matgroup", "enumerate_group", ("calls", "s", "self_s", "elements", "elements_per_s")),
    ("matgroup", "mat_mul", ("calls", "s", "products", "products_per_call", "bytes_computed")),
    ("matgroup", "mat_vec", ("calls", "vectors", "s")),
    ("matgroup", "mat_inv", ("calls", "s")),
    ("matgroup", "bsgs_group", ("calls", "s", "self_s")),
    ("matgroup", "GroupHandle.contains_batch", ("calls", "queries", "hit_ratio", "s")),
    ("matgroup", "GroupHandle.intersect", ("calls", "s")),
    ("builder", "reduced_generators", ("calls", "s")),
    ("field", "build_field", ("calls", "s")),
    ("cgroup", "verify_cgroup", ("calls", "s", "self_s")),
    ("polytope", "incidence_report", ("calls", "s", "self_s")),
    ("polytope", "face_counts", ("calls", "s")),
    ("classify", "classify_rank4", ("calls", "s")),
    ("ring", "golden_legendre", ("calls", "s")),
)

# Reported fields as (unit, value from a span's totals). ``work`` counts the
# span's unit of work and ``extra`` its bytes computed from array shapes
# (mat_mul) or its membership hits (contains_batch); see _work.
FIELDS = {
    "calls": ("count/deck", lambda t: t["calls"]),
    "s": ("s/deck", lambda t: t["s"]),
    "self_s": ("s/deck", lambda t: t["self_s"]),
    "elements": ("count/deck", lambda t: t["work"]),
    "products": ("count/deck", lambda t: t["work"]),
    "vectors": ("count/deck", lambda t: t["work"]),
    "queries": ("count/deck", lambda t: t["work"]),
    "bytes_computed": ("B/deck", lambda t: t["extra"]),
    "elements_per_s": ("1/s", lambda t: t["work"] / t["s"] if t["s"] else 0.0),
    "products_per_call": ("count/call", lambda t: t["work"] / t["calls"] if t["calls"] else 0.0),
    "hit_ratio": ("ratio", lambda t: t["extra"] / t["work"] if t["work"] else 0.0),
}


def _work(name: str, args, out) -> tuple[int, int]:
    """Work counters of one call: (units of work, bytes computed or hits)."""
    if name == "matgroup.mat_mul":
        a, b = args[1], args[2]
        return out.size // 16, a.nbytes + b.nbytes + out.nbytes
    if name == "matgroup.mat_vec":
        return out.size // 4, 0
    if name == "matgroup.enumerate_group":
        return out.order, 0
    if name == "matgroup.contains_batch":
        return len(args[1]), int(np.count_nonzero(out))
    return 0, 0


class Recorder:
    """In-memory span sink with per-name totals."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.work: list[int] = []
        self.extra: list[int] = []
        self._stack: list[int] = []  # open span indices
        self._child_ns: list[int] = []  # time covered by children, per open span
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
            for lst in (self.calls, self.total_ns, self.self_ns, self.work, self.extra):
                lst.append(0)
        return self.name_id[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.span_end.append(0)
            self._stack.append(idx)
            self._child_ns.append(0)
            start = time.perf_counter_ns()
            self.span_start.append(start)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                child = self._child_ns.pop()
                dur = end - start
                self.span_end[idx] = end
                if self._child_ns:
                    self._child_ns[-1] += dur
                self.calls[nid] += 1
                self.total_ns[nid] += dur
                self.self_ns[nid] += dur - child
            units, extra = _work(name, args, out)
            self.work[nid] += units
            self.extra[nid] += extra
            return out

        return traced

    def install(self, mods: dict) -> dict[str, list[str]]:
        """Wrap every traced function at every binding; return the sites patched."""
        sites: dict[str, list[str]] = {}
        for module, attr, _ in TRACED:
            name = f"{module}.{attr.split('.')[-1]}"
            home = mods[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = getattr(cls, meth)
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(name, orig))
                sites[name] = [f"{module}.{cls_name}"]
                continue
            orig = getattr(home, attr)
            wrapped = self.wrap(name, orig)
            sites[name] = []
            for mod_name, mod in mods.items():
                for bound, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, bound, orig))
                        setattr(mod, bound, wrapped)
                        sites[name].append(mod_name)
        return sites

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def totals(self, name: str) -> dict[str, float]:
        i = self.name_id[name]
        return {
            "calls": self.calls[i],
            "s": self.total_ns[i] / 1e9,
            "self_s": self.self_ns[i] / 1e9,
            "work": self.work[i],
            "extra": self.extra[i],
        }

    def metrics(self, decks: int) -> dict[str, tuple[float, str]]:
        """Every reported field of every traced span, per deck: run totals
        divided by the ``decks`` the run went through. Ratios are unchanged."""
        out = {}
        for module, attr, fields in TRACED:
            name = f"{module}.{attr.split('.')[-1]}"
            t = {k: v / decks for k, v in self.totals(name).items()}
            for field in fields:
                unit, value = FIELDS[field]
                out[f"{name}.{field}"] = (value(t), unit)
        return out

    def write(self, path: Path) -> None:
        """Write every span as columns name, start_ns, end_ns, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
        )
