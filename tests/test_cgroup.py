"""Intersection-condition verification and replacement-generator identities."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from starcox.builder import K_INF, StarParams, kept, reduced_generators, torus_words
from starcox import cgroup, classify
from starcox.classify import OrderMismatchError, _torus_certifies_g0, classify_rank3
from starcox.cgroup import (
    _CHECKS,
    _union,
    lemma41_check,
    replacement_generator,
    verify_cgroup,
)
from starcox.matgroup import (
    OverCapError,
    element_order,
    enumerate_group,
    identity,
    is_identity,
    mat_inv,
    mat_mul,
    mat_pow,
    mat_vec,
)
from starcox.ring import GoldenInt, PrimeClass, classify_prime, parse_golden, primes_up_to_norm

SQRT5 = classify_prime(GoldenInt(-1, 2))
P2 = classify_prime(GoldenInt(2, 0))
P3 = classify_prime(GoldenInt(3, 0))
P11 = classify_prime(GoldenInt(3, 1))
P19 = classify_prime(GoldenInt(4, 1))
P59 = classify_prime(GoldenInt(-7, -2))


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
    # verify_cgroup holds G0 and G2 to the rank-3 classification itself
    # (classify.confirm_order), whichever backend built them; this pins that
    # second path from outside, and would catch a comparison that is skipped
    for k in (3, 4, 5, 6):
        orders = verify_cgroup(params(k, p)).subgroup_orders
        assert orders["G0"] == classify_rank3(0, params(k, p)).predicted_order
        assert orders["G2"] == classify_rank3(2, params(k, p)).predicted_order


def recorded_chains(monkeypatch) -> list[int]:
    """The orders of the stabilizer chains verify_cgroup builds, in order,
    recorded through cgroup's own binding of bsgs_group."""
    built, inner = [], cgroup.bsgs_group

    def recording(*args, **kwargs):
        group = inner(*args, **kwargs)
        built.append(group.order)
        return group

    monkeypatch.setattr(cgroup, "bsgs_group", recording)
    return built


# G0 is B3 or H3 at k = 4, 5; G2 is predicted 2,640 and 1,320 elements at
# q = 11 and 205,320 and 410,640 at q = 59; at k = 6, G0 and G2 have 1,452
# and 1,320 elements at q = 11 and 41,772 and 205,320 at q = 59
@pytest.mark.parametrize(
    "k,p,chains",
    [
        pytest.param(k, p, chains, id=f"k{k}-q{p.q}")
        for k, p, chains in (
            (3, P11, ""), (3, P59, ""), (4, P11, ""), (5, P11, ""),
            (4, P59, "2"), (5, P59, "2"), (6, P11, ""), (6, P59, "02"),
        )
    ],
)
def test_backend_rule_builds_chains_past_the_limit(monkeypatch, k, p, chains):
    # G0 and G2 are chains exactly when their predicted order passes
    # ENUMERATE_LIMIT (the cap being the default); every other subgroup,
    # G0 and G2 included below the limit, is a closure
    built = recorded_chains(monkeypatch)
    rep = verify_cgroup(params(k, p))
    assert rep.is_cgroup
    assert built == [rep.subgroup_orders[f"G{omit}"] for omit in chains]
    assert all(n > classify.ENUMERATE_LIMIT for n in built)


# ---------------------------------------------------------------------------
# the torus certificate |G0| >= 12 s^2 at k = 6


@pytest.mark.parametrize(
    "prime", ["2", "-2-1t", "3", "-4-1t", "7", "-7-2t", "13", "-13-3t", "8+37t", "1000+1t",
              "32005+1t"])
def test_torus_words_certify_g0(monkeypatch, prime):
    # q = 4, 5, 9, 19, 49, 59, 169, 199, 1009, 1,000,999 and 1,024,352,029:
    # certified exactly where s >= 5. At q = 4 and 9 the build passes cap
    # 12 s^2 - 1 (47 and 107) with G2 (60 elements) and G0 (108), and
    # answers at the default cap. At q = 9 the certificate is asked and
    # refused; at q = 4, the even prime, no order is predicted, so it is
    # not asked
    p = classify_prime(parse_golden(prime))
    ctx, gens, _ = reduced_generators(params(6, p))
    assert _torus_certifies_g0(ctx, gens) == (p.char >= 5)
    if p.char >= 5:
        return
    asked = []

    def recorded(ctx, gens):
        asked.append(_torus_certifies_g0(ctx, gens))
        return asked[-1]

    monkeypatch.setattr(classify, "_torus_certifies_g0", recorded)
    with pytest.raises(OverCapError):
        verify_cgroup(params(6, p), cap=12 * p.char**2 - 1)
    assert asked == ([] if p.klass is PrimeClass.EVEN else [False])
    assert verify_cgroup(params(6, p)).is_cgroup


def torus_facts(ctx, gens, x, w):
    """The facts the certificate rests on, each checked on its own."""
    ident = identity()
    e4 = ident[3]
    return {
        "s >= 5": ctx.char >= 5,
        "x is not I": not np.array_equal(x, ident),
        "x^s = w^s = I": all(np.array_equal(mat_pow(ctx, m, ctx.char), ident) for m in (x, w)),
        "x w = w x": np.array_equal(mat_mul(ctx, x, w), mat_mul(ctx, w, x)),
        "x fixes e4": np.array_equal(mat_vec(ctx, x, e4), e4),
        "w moves e4": not np.array_equal(mat_vec(ctx, w, e4), e4),
        "r1^2 = r3^2 = I": all(is_identity(mat_mul(ctx, g, g)) for g in gens[[1, 3]]),
        "r1 r3 has order 6": element_order(ctx, mat_mul(ctx, gens[1], gens[3])) == 6,
    }


def test_torus_certificate_refuses_each_failed_step(monkeypatch):
    # each case breaks one fact alone, and the certificate is refused,
    # whatever the true order of G0
    ctx, gens, _ = reduced_generators(params(6, P59))
    x, y = torus_words(ctx, gens)
    w = mat_mul(ctx, mat_inv(ctx, x), y)
    ident = identity()
    r3r1r3 = mat_mul(ctx, mat_mul(ctx, gens[3], gens[1]), gens[3])
    ctx9, gens9, _ = reduced_generators(params(6, P3))
    # over F_19, 7 is a cube root of 1: 7 r1 squares to 49 I, and (7 r1) r3
    # still has order 6
    ctx19, gens19, _ = reduced_generators(params(6, P19))
    x19, y19 = torus_words(ctx19, gens19)
    w19 = mat_mul(ctx19, mat_inv(ctx19, x19), y19)
    scaled = gens19.copy()
    scaled[1] = ctx19.mul(7, gens19[1])
    unipotent = []
    for i, j in ((0, 1), (0, 3)):  # I + E01 fixes e4, I + E03 moves it; both of order 3
        u = ident.copy()
        u[i, j] = 1
        unipotent.append(u)
    cases = {
        "s >= 5": (ctx9, gens9, *unipotent),  # q = 9
        "x is not I": (ctx, gens, ident, w),
        "x^s = w^s = I": (ctx, gens, x, ctx.neg(w)),  # -w has order 2s
        "x w = w x": (ctx, gens, x, x.T),
        "x fixes e4": (ctx, gens, w, mat_mul(ctx, x, w)),  # <w, x w> = <x, w>
        "w moves e4": (ctx, gens, x, mat_pow(ctx, x, 2)),  # w = x^2 in <x>
        "r1^2 = r3^2 = I": (ctx19, scaled, x19, w19),
        # r3 -> r3 r1 r3 makes r1 r3 -> (r1 r3)^2, of order 3
        "r1 r3 has order 6": (ctx, np.stack([gens[0], gens[1], gens[2], r3r1r3]), x, w),
    }
    assert all(torus_facts(ctx, gens, x, w).values())
    for broken, (bctx, bgens, bx, bw) in cases.items():
        facts = torus_facts(bctx, bgens, bx, bw)
        assert [f for f, ok in facts.items() if not ok] == [broken]
        words = (bx, mat_mul(bctx, bx, bw))  # y = x w
        monkeypatch.setattr(classify, "torus_words", lambda ctx, g, words=words: words)
        assert not _torus_certifies_g0(bctx, bgens)


def wrong_rank3(monkeypatch):
    """Make every rank-3 prediction one element too large."""
    real = classify.classify_rank3

    def wrong(i, prm):
        c = real(i, prm)
        return dataclasses.replace(c, predicted_order=c.predicted_order + 1)

    monkeypatch.setattr(classify, "classify_rank3", wrong)


def test_order_mismatch_raises_on_reduced_generators_only(monkeypatch):
    # negative controls are not the reduced group, so verify_cgroup does not
    # hold their subgroups to the prediction
    wrong_rank3(monkeypatch)
    p = params(6, P11)
    with pytest.raises(OrderMismatchError, match="G0 has order 1452, not the predicted 1453"):
        verify_cgroup(p)
    _, gens, _ = reduced_generators(p)
    assert verify_cgroup(p, generators=gens).is_cgroup
    assert not verify_cgroup(p, generators=np.stack([gens[0], gens[1], gens[1], gens[3]])).is_cgroup


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
