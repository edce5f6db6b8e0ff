"""Machine verification of the intersection condition (the C-group property)
for reduced star groups, and of the replacement-generator identities that
rebuild the full group from a conjugated reflection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .builder import StarParams, generator_word, kept, reduced_generators, torus_words
from .classify import confirm_order, subgroup_backend
from .field import FieldCtx
from .matgroup import DEFAULT_CAP, bsgs_group, enumerate_group, is_identity, mat_inv, mat_mul
from .ring import PrimeClass


# The six intersection checks G_I & G_J = G_(I|J), rank-3 pairs first, where
# G_I is the subgroup generated by the generators not in I (builder.kept).
_CHECKS = (("02", "03"), ("02", "23"), ("03", "23"), ("0", "2"), ("0", "3"), ("2", "3"))
# The subgroups built: the maximal and dihedral ones, whose orders are
# reported in this order, then <r1> = G_023.
_SUBGROUPS = ("0", "1", "2", "3", "02", "03", "23", "023")


def _union(i: str, j: str) -> str:
    return "".join(sorted(set(i) | set(j)))


def _name(omit: str) -> str:
    return "<r1>" if omit == "023" else f"G{omit}"


CHECK_NAMES = tuple(f"{_name(i)}&{_name(j)}={_name(_union(i, j))}" for i, j in _CHECKS)


@dataclass(frozen=True, eq=False)
class IntersectionReport:
    """Outcome of the six subgroup-intersection checks of one reduction.

    rank3_checks hold the three pairwise dihedral intersections against
    <r1>; rank4_checks hold the three rank-3 intersections against the
    dihedral subgroups, named in CHECK_NAMES. witness carries an
    offending matrix (a bad generator, or an element of G_I & G_J outside
    G_(I|J)) when a check fails.
    """

    rank3_checks: tuple[bool, bool, bool]
    rank4_checks: tuple[bool, bool, bool]
    witness: np.ndarray | None
    witness_note: str
    subgroup_orders: dict[str, int]

    @property
    def is_cgroup(self) -> bool:
        return all(self.rank3_checks) and all(self.rank4_checks)


def _generator_gate(ctx: FieldCtx, gens: np.ndarray):
    """Hypothesis check: four distinct involutions.

    The set equalities below are vacuously satisfiable by degenerate
    generator tuples (e.g. a repeated generator), so the hypothesis of the
    intersection lemma is enforced first.
    """
    for i in range(4):
        g = gens[i]
        if is_identity(g) or not is_identity(mat_mul(ctx, g, g)):
            return g, f"generator {i} is not an involution"
    for i in range(4):
        for j in range(i + 1, 4):
            if np.array_equal(gens[i], gens[j]):
                return gens[i], f"generators {i} and {j} coincide"
    return None, ""


def verify_cgroup(
    params: StarParams, generators: np.ndarray | None = None, cap: int = DEFAULT_CAP
) -> IntersectionReport:
    """Full intersection verification of one reduction.

    Each subgroup of _SUBGROUPS is a closure or a stabilizer chain by
    ``classify.subgroup_backend``: G0 and G2 are chains when their predicted
    order passes min(ENUMERATE_LIMIT, cap), and the rest, of order at most
    160, are enumerated. The full group is never touched. G0 and G2 are
    compared with their predicted orders (OrderMismatchError), except when
    generators replaces the reduced stack for negative controls. G0 comes
    first, so where ``subgroup_backend`` refuses it past the cap, no
    subgroup is built. G_(I|J) lies in G_I & G_J by construction, so each
    check compares |G_I & G_J| with |G_(I|J)|; an intersection lists its
    smaller side in batches (``GroupHandle.intersect``). Where G0 & G2 lists
    a chain of G0, only its elements that fix the vector fixed by r0, r1 and
    r3, as all of G2 does, are multiplied out and tested in G2. Membership
    in G_(I|J) runs only when a check fails, to name the witness: the first
    element of the intersection, in key order, outside G_(I|J).
    """
    ctx, gens, _ = reduced_generators(params)
    if generators is not None:
        gens = np.asarray(generators, dtype=np.int64)
    bad, note = _generator_gate(ctx, gens)
    if bad is not None:
        return IntersectionReport((False,) * 3, (False,) * 3, bad, note, {})

    groups = {}
    for omit in _SUBGROUPS:
        chain, want = subgroup_backend(params, omit, cap, gens)
        group = (bsgs_group if chain else enumerate_group)(ctx, gens[kept(omit)], cap=cap)
        groups[omit] = confirm_order(group, want if generators is None else None, _name(omit))
    checks, witness = [], None
    for i, j in _CHECKS:
        u = _union(i, j)
        meet = groups[i].intersect(groups[j])
        checks.append(meet.order == groups[u].order)
        if witness is None and not checks[-1]:
            elems = meet.elements
            witness = elems[int(np.argmin(groups[u].contains_batch(elems)))]
            note = f"{_name(i)} meets {_name(j)} away from {_name(u)}"

    orders = {f"G{omit}": groups[omit].order for omit in _SUBGROUPS[:-1]}
    return IntersectionReport(tuple(checks[:3]), tuple(checks[3:]), witness, note, orders)


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
    if (k == 5 and p.char == 5) or (k == 6 and p.char == 3):
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

    Compares <r0,r1,r2,r3> with <r0,r1,z,r3> through stabilizer-chain
    orders and one-way generator membership: r2 in <r0,r1,z,r3> puts the
    full group inside it, and equal orders make the two equal. Neither
    group is enumerated.
    """
    ctx, g, z = replacement_generator(params, i)
    full = bsgs_group(ctx, g)
    replaced = bsgs_group(ctx, np.stack([g[0], g[1], z, g[3]]))
    return full.same_group(replaced)
