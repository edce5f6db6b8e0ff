"""Intersection-condition verification and replacement-generator identities."""

from __future__ import annotations

import numpy as np
import pytest

from starcox.builder import K_INF, StarParams, kept, reduced_generators
from starcox.classify import classify_rank3
from starcox.cgroup import (
    _CHECKS,
    _union,
    lemma41_check,
    replacement_generator,
    verify_cgroup,
)
from starcox.matgroup import element_order, enumerate_group, identity, mat_mul, mat_vec
from starcox.ring import GoldenInt, PrimeClass, classify_prime, primes_up_to_norm

SQRT5 = classify_prime(GoldenInt(-1, 2))
P2 = classify_prime(GoldenInt(2, 0))
P3 = classify_prime(GoldenInt(3, 0))
P11 = classify_prime(GoldenInt(3, 1))
P19 = classify_prime(GoldenInt(4, 1))


def params(k, p):
    return StarParams(k=k, prime=p)


# ---------------------------------------------------------------------------
# intersection conditions


@pytest.mark.parametrize(
    "k,g0,g2,g3",
    [(3, 24, 60, 60), (4, 24, 160, 60), (5, 60, 160, 60), (6, 24, 60, 60)],
)
def test_even_prime_subgroup_orders(k, g0, g2, g3):
    rep = verify_cgroup(params(k, P2))
    assert rep.is_cgroup
    o = rep.subgroup_orders
    assert (o["G0"], o["G2"], o["G3"]) == (g0, g2, g3)
    assert o["G1"] == 8


@pytest.mark.parametrize("k", (3, 4, 5, 6))
def test_dihedral_orders(k):
    rep = verify_cgroup(params(k, P11))
    o = rep.subgroup_orders
    assert o["G02"] == 2 * k
    assert o["G03"] == 6
    assert o["G23"] == 10


@pytest.mark.parametrize(
    "k,p",
    [
        (3, SQRT5),
        (4, SQRT5),
        (5, SQRT5),
        (6, SQRT5),
        (3, P3),
        (6, P3),
        (4, P11),
        (5, P19),
    ],
)
def test_intersections_hold(k, p):
    rep = verify_cgroup(params(k, p))
    assert rep.is_cgroup
    assert rep.witness is None
    assert rep.rank3_checks == (True, True, True)


@pytest.mark.parametrize("p,m13", [(SQRT5, 5), (P3, 3)])
def test_infinite_mark_intersections(p, m13):
    rep = verify_cgroup(params(K_INF, p))
    assert rep.is_cgroup
    assert rep.subgroup_orders["G02"] == 2 * m13


def test_negative_control_repeated_generator():
    ctx, gens, _ = reduced_generators(params(3, P11))
    corrupted = np.stack([gens[0], gens[1], gens[2], gens[1]])
    rep = verify_cgroup(params(3, P11), generators=corrupted)
    assert not rep.is_cgroup
    assert rep.rank3_checks == (False, False, False)
    assert rep.rank4_checks == (False, False, False)
    assert "coincide" in rep.witness_note
    assert rep.witness is not None


def corrupted_generators():
    """The reduced generators at k = 3, 3+t with r2 replaced by the
    involution r1 r0 r1."""
    ctx, gens, _ = reduced_generators(params(3, P11))
    r = mat_mul(ctx, mat_mul(ctx, gens[1], gens[0]), gens[1])
    return np.stack([gens[0], gens[1], r, gens[3]])


def test_negative_control_intersection_witness():
    # the corrupted generators pass the generator gate, so the failure is
    # found by the intersection checks themselves
    p = params(3, P11)
    ctx, gens, _ = reduced_generators(p)
    corrupted = corrupted_generators()
    rep = verify_cgroup(p, generators=corrupted)
    assert rep.rank3_checks == (True, True, False)
    assert rep.rank4_checks == (False, True, True)
    assert rep.witness_note == "G03 meets G23 away from <r1>"
    w = rep.witness
    assert enumerate_group(ctx, corrupted[kept("03")]).contains_batch(w[None])[0]
    assert enumerate_group(ctx, corrupted[kept("23")]).contains_batch(w[None])[0]
    assert not np.array_equal(w, gens[1])
    assert not np.array_equal(w, identity())


def membership_oracle(ctx, gens):
    """The six checks and the witness by the membership rule: a check holds
    when every element of G_I & G_J lies in G_(I|J), and the witness is the
    first element of the first failing intersection, in key order, outside
    G_(I|J). Every subgroup is enumerated."""
    checks, witness = [], None
    for i, j in _CHECKS:
        meet = enumerate_group(ctx, gens[kept(i)]).intersect(enumerate_group(ctx, gens[kept(j)]))
        elems = meet.elements
        inside = enumerate_group(ctx, gens[kept(_union(i, j))]).contains_batch(elems)
        checks.append(bool(inside.all()))
        if witness is None and not checks[-1]:
            witness = elems[int(np.argmin(inside))]
    return tuple(checks), witness


ORACLE_ROWS = [
    *(pytest.param(k, p, False, id=f"k{k}-q{q}")
      for q, p in ((4, P2), (5, SQRT5), (9, P3), (11, P11)) for k in (3, 4, 5, 6)),
    pytest.param(K_INF, SQRT5, False, id="kinf-q5"),
    pytest.param(K_INF, P3, False, id="kinf-q9"),
    pytest.param(3, P11, True, id="corrupted-k3-q11"),
]


@pytest.mark.parametrize("k,p,corrupt", ORACLE_ROWS)
def test_order_checks_match_membership_oracle(k, p, corrupt):
    ctx, gens, _ = reduced_generators(params(k, p))
    if corrupt:
        gens = corrupted_generators()
    rep = verify_cgroup(params(k, p), generators=gens)
    checks, witness = membership_oracle(ctx, gens)
    assert rep.rank3_checks + rep.rank4_checks == checks
    if witness is None:
        assert rep.witness is None
    else:
        assert np.array_equal(rep.witness, witness)
    assert all(checks) == (not corrupt)


ODD_PRIMES_41 = [p for p in primes_up_to_norm(41) if p.klass is not PrimeClass.EVEN]


@pytest.mark.parametrize("p", ODD_PRIMES_41, ids=lambda p: str(p.value))
def test_chain_orders_match_rank3_classification(p):
    # G0 and G2 are stabilizer chains in verify_cgroup; their orders get a
    # second path from the rank-3 classification
    for k in (3, 4, 5, 6):
        orders = verify_cgroup(params(k, p)).subgroup_orders
        assert orders["G0"] == classify_rank3(0, params(k, p)).predicted_order
        assert orders["G2"] == classify_rank3(2, params(k, p)).predicted_order


def test_negative_control_non_involution():
    ctx, gens, _ = reduced_generators(params(3, P11))
    corrupted = np.stack([mat_mul(ctx, gens[0], gens[1]), gens[1], gens[2], gens[3]])
    rep = verify_cgroup(params(3, P11), generators=corrupted)
    assert not rep.is_cgroup
    assert "not an involution" in rep.witness_note


def test_distinguished_subgroup_enumeration():
    ctx, gens, _ = reduced_generators(params(4, SQRT5))
    g03 = enumerate_group(ctx, gens[kept((0, 3))])
    assert g03.order == 6
    g2 = enumerate_group(ctx, gens[kept((2,))])
    assert g2.order == 240
    with pytest.raises(ValueError):
        kept((5,))


# ---------------------------------------------------------------------------
# replacement generators


EXACT_ROOTS = {
    4: (GoldenInt(0, 0), GoldenInt(2, 0), GoldenInt(2, 0), GoldenInt(1, 0)),
    5: (GoldenInt(1, 0), GoldenInt(4, 4), GoldenInt(2, 2), GoldenInt(2, 2)),
    6: (GoldenInt(0, 0), GoldenInt(6, 0), GoldenInt(3, 0), GoldenInt(4, 0)),
}


@pytest.mark.parametrize(
    "k,p",
    [(4, SQRT5), (4, P3), (4, P11), (5, P3), (5, P11), (6, SQRT5), (6, P11)],
)
def test_replacement_generator_is_reflection_with_pinned_root(k, p):
    ctx, _, z = replacement_generator(params(k, p))
    assert element_order(ctx, z) == 2
    root = np.array([ctx.reduce(v) for v in EXACT_ROOTS[k]], dtype=np.int64)
    image = mat_vec(ctx, z, root)
    minus = np.array([ctx.neg(int(v)) for v in root], dtype=np.int64)
    assert np.array_equal(image, minus)
    assert root.any()


@pytest.mark.parametrize(
    "k,p",
    [(4, SQRT5), (4, P3), (4, P11), (5, P3), (5, P11), (6, SQRT5), (6, P11)],
)
def test_replacement_identity_regenerates_group(k, p):
    assert lemma41_check(params(k, p))


def test_replacement_alternate_torus_exponent():
    assert lemma41_check(params(6, P11), i=1)
    assert lemma41_check(params(6, P11), i=2)


def test_replacement_guards():
    with pytest.raises(ValueError):
        replacement_generator(params(3, P11))
    with pytest.raises(ValueError):
        replacement_generator(params(5, SQRT5))
    with pytest.raises(ValueError):
        replacement_generator(params(6, P3))
    with pytest.raises(ValueError):
        replacement_generator(params(4, P2))
