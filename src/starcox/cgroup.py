"""Machine verification of the intersection condition (the C-group property)
for reduced star groups, and of the replacement-generator identities that
rebuild the full group from a conjugated reflection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .builder import StarParams, generator_word, reduced_generators, torus_words
from .field import FieldCtx
from .matgroup import (
    DEFAULT_CAP,
    GroupHandle,
    OverCapError,
    bsgs_group,
    element_order,
    enumerate_group,
    is_identity,
    mat_inv,
    mat_mul,
)
from .ring import PrimeClass


@dataclass(frozen=True, eq=False)
class IntersectionReport:
    """Outcome of the six subgroup-intersection checks of one reduction.

    rank3_checks hold the three pairwise dihedral intersections against
    <r1>; rank4_checks hold the three rank-3 intersections against the
    dihedral subgroups. witness carries an offending matrix (a duplicated
    generator, or an element of a symmetric difference) when a check fails.
    """

    rank3_checks: tuple[bool, bool, bool]
    rank4_checks: tuple[bool, bool, bool]
    witness: np.ndarray | None
    witness_note: str
    subgroup_orders: dict[str, int]

    @property
    def is_cgroup(self) -> bool:
        return all(self.rank3_checks) and all(self.rank4_checks)


def distinguished(params: StarParams, omit, cap: int = DEFAULT_CAP) -> GroupHandle:
    """Enumerate the subgroup generated by the generators not in omit."""
    omit = frozenset(omit)
    if not omit:
        raise ValueError("omit at least one generator index")
    if not omit <= {0, 1, 2, 3}:
        raise ValueError("generator indices are 0..3")
    ctx, gens, _ = reduced_generators(params)
    keep = np.stack([gens[i] for i in range(4) if i not in omit])
    return enumerate_group(ctx, keep, cap=cap)


def _generator_gate(ctx: FieldCtx, gens: np.ndarray):
    """Hypothesis check: four distinct involutions.

    The set equalities below are vacuously satisfiable by degenerate
    generator tuples (e.g. a repeated generator), so the hypothesis of the
    intersection lemma is enforced first.
    """
    for i in range(4):
        try:
            involution = not is_identity(ctx, gens[i]) and element_order(ctx, gens[i], cap=4) == 2
        except OverCapError:
            involution = False
        if not involution:
            return gens[i], f"generator {i} is not an involution"
    for i in range(4):
        for j in range(i + 1, 4):
            if np.array_equal(gens[i], gens[j]):
                return gens[i], f"generators {i} and {j} coincide"
    return None, ""


def _set_equal(a: GroupHandle, b: GroupHandle):
    """Equality of two enumerated groups, with an offending element if not."""
    ea = a.elements
    mask = b.contains_batch(ea)
    if not mask.all():
        return False, ea[int(np.flatnonzero(~mask)[0])]
    if a.order == b.order:
        return True, None
    eb = b.elements
    return False, eb[int(np.flatnonzero(~a.contains_batch(eb))[0])]


_RANK3_PAIRS = (("G02", "G03"), ("G02", "G23"), ("G03", "G23"))
_RANK4_TRIPLES = (("G0", "G2", "G02"), ("G0", "G3", "G03"), ("G2", "G3", "G23"))


def _dihedral_handles(ctx: FieldCtx, gens: np.ndarray, cap: int) -> dict[str, GroupHandle]:
    return {
        "G02": enumerate_group(ctx, gens[[1, 3]], cap=cap),
        "G03": enumerate_group(ctx, gens[[1, 2]], cap=cap),
        "G23": enumerate_group(ctx, gens[[0, 1]], cap=cap),
    }


def _rank3_checks(ctx, gens, dihedrals):
    r1_group = enumerate_group(ctx, gens[[1]])
    checks, witness, note = [], None, ""
    for na, nb in _RANK3_PAIRS:
        inter = dihedrals[na].intersect(dihedrals[nb])
        ok, bad = _set_equal(inter, r1_group)
        checks.append(ok)
        if not ok and witness is None:
            witness, note = bad, f"{na} meets {nb} away from <r1>"
    return tuple(checks), witness, note


def verify_cgroup(
    params: StarParams, generators: np.ndarray | None = None, cap: int = DEFAULT_CAP
) -> IntersectionReport:
    """Full intersection verification of one reduction.

    Enumerates the dihedral and small rank-3 subgroups, keeps the largest
    rank-3 subgroup (omitting r2) behind a stabilizer-chain membership test,
    and never touches the full group. generators replaces the reduced stack
    for negative controls.
    """
    ctx, gens, _ = reduced_generators(params)
    if generators is not None:
        gens = np.asarray(generators, dtype=np.int64)
    bad, note = _generator_gate(ctx, gens)
    if bad is not None:
        return IntersectionReport((False,) * 3, (False,) * 3, bad, note, {})

    handles = _dihedral_handles(ctx, gens, cap)
    handles["G0"] = enumerate_group(ctx, gens[[1, 2, 3]], cap=cap)
    handles["G1"] = enumerate_group(ctx, gens[[0, 2, 3]], cap=cap)
    handles["G3"] = enumerate_group(ctx, gens[[0, 1, 2]], cap=cap)
    handles["G2"] = bsgs_group(ctx, gens[[0, 1, 3]])

    rank3, witness, note = _rank3_checks(ctx, gens, handles)

    rank4 = []
    for na, nb, nexp in _RANK4_TRIPLES:
        ok, bad = _set_equal(handles[na].intersect(handles[nb]), handles[nexp])
        rank4.append(ok)
        if not ok and witness is None:
            witness, note = bad, f"{na} meets {nb} away from {nexp}"

    orders = {name: handles[name].order for name in ("G0", "G1", "G2", "G3", "G02", "G03", "G23")}
    return IntersectionReport(rank3, tuple(rank4), witness, note, orders)


def replacement_generator(params: StarParams, i: int = 0):
    """The conjugated reflection z of the replacement identity for k = 4, 5, 6.

    z = r3^(r2 r1) for k=4, z = r0^((r3 r1 r2)^5) for k=5, and
    z = r3^(x^i y) for k=6 with the torus elements x, y; a^b means b a b^-1.
    Returns (ctx, gens, z).
    """
    k, p = params.k, params.prime
    if k not in (4, 5, 6):
        raise ValueError("replacement generators exist for k = 4, 5, 6")
    if p.klass is PrimeClass.EVEN:
        raise ValueError("replacement identity needs an odd prime")
    if (k == 5 and p.klass is PrimeClass.CLASS_I) or (k == 6 and p.char == 3):
        raise ValueError("replacement identity needs an orthogonal-type reduction")
    ctx, g, _ = reduced_generators(params)
    if k == 4:
        b, target = generator_word(ctx, g, (2, 1)), g[3]
    elif k == 5:
        b, target = generator_word(ctx, g, (3, 1, 2) * 5), g[0]
    else:
        x, b = torus_words(ctx, g)
        for _ in range(i):
            b = mat_mul(ctx, x, b)
        target = g[3]
    z = mat_mul(ctx, mat_mul(ctx, b, target), mat_inv(ctx, b))
    return ctx, g, z


def lemma41_check(params: StarParams, i: int = 0) -> bool:
    """Does replacing r2 by the conjugated reflection z regenerate the group?

    Compares <r0,r1,r2,r3> with <r0,r1,z,r3> through stabilizer-chain orders
    and mutual generator membership; neither group is enumerated.
    """
    ctx, g, z = replacement_generator(params, i)
    full = bsgs_group(ctx, g)
    replaced = bsgs_group(ctx, np.stack([g[0], g[1], z, g[3]]))
    return full.same_group(replaced)
