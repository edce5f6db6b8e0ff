"""Matrix-group engine tests: arithmetic kernels, BFS enumeration, BSGS chains."""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

from starcox import matgroup
from starcox.builder import StarParams, reduced_generators
from starcox.field import build_field
from starcox.matgroup import (
    OverCapError,
    SingularMatrixError,
    _decode,
    _keys,
    bsgs_group,
    element_order,
    enumerate_group,
    identity,
    is_identity,
    mat_inv,
    mat_mul,
    mat_vec,
    sorted_unique,
)
from starcox.ring import GoldenInt, classify_prime

RNG = np.random.default_rng(20231117)


def ctx_of(a, b):
    return build_field(classify_prime(GoldenInt(a, b)))


def gens_of(k, a, b):
    ctx, gens, _ = reduced_generators(StarParams(k=k, prime=classify_prime(GoldenInt(a, b))))
    return ctx, gens


def random_mats(ctx, n):
    return RNG.integers(0, ctx.q, size=(n, 4, 4), dtype=np.int64)


# ---------------------------------------------------------------------------
# scalar kernels


def slow_mat_mul(ctx, a, b):
    out = np.zeros((4, 4), dtype=np.int64)
    for i in range(4):
        for j in range(4):
            acc = 0
            for l in range(4):
                acc = ctx.add(acc, ctx.mul(int(a[i, l]), int(b[l, j])))
            out[i, j] = acc
    return out


def test_mat_mul_matches_scalar_reference():
    for ctx in (ctx_of(-1, 2), ctx_of(3, 0), ctx_of(3, 1), ctx_of(2, 0)):
        for a, b in zip(random_mats(ctx, 8), random_mats(ctx, 8)):
            assert np.array_equal(mat_mul(ctx, a, b), slow_mat_mul(ctx, a, b))


def test_mat_mul_exact_at_the_largest_fields():
    # q = 1,073,741,419 (degree 1) and 32717^2 (degree 2) lie just below
    # Q_LIMIT; all-(q-1) entries give the largest int64 intermediates
    for ctx in (ctx_of(32759, 18), ctx_of(32717, 0)):
        top = np.full((4, 4), ctx.q - 1, dtype=np.int64)
        for a, b in [(top, top), *zip(random_mats(ctx, 4), random_mats(ctx, 4))]:
            assert np.array_equal(mat_mul(ctx, a, b), slow_mat_mul(ctx, a, b))


def test_mat_vec_matches_column_action():
    ctx = ctx_of(3, 1)
    for m in random_mats(ctx, 8):
        v = RNG.integers(0, ctx.q, size=4, dtype=np.int64)
        via_mul = mat_mul(ctx, m, v.reshape(4, 1)).reshape(4)
        assert np.array_equal(mat_vec(ctx, m, v), via_mul)


def test_mat_mul_batched_broadcast():
    ctx = ctx_of(-1, 2)
    a = random_mats(ctx, 6)
    b = random_mats(ctx, 6)
    batched = mat_mul(ctx, a, b)
    assert batched.shape == (6, 4, 4)
    for i in range(6):
        assert np.array_equal(batched[i], mat_mul(ctx, a[i], b[i]))


def test_identity_and_inverse():
    for prime in ((-1, 2), (3, 0), (2, 0), (3, 1)):
        ctx, gens = gens_of(4, *prime)
        m = mat_mul(ctx, mat_mul(ctx, gens[0], gens[1]), gens[2])
        mi = mat_inv(ctx, m)
        assert is_identity(ctx, mat_mul(ctx, m, mi))
        assert is_identity(ctx, mat_mul(ctx, mi, m))


def test_mat_inv_singular_raises():
    ctx = ctx_of(3, 1)
    m = identity(ctx)
    m[2] = 0
    with pytest.raises(SingularMatrixError):
        mat_inv(ctx, m)


def test_element_order_basics():
    ctx, gens = gens_of(5, -1, 2)
    assert element_order(ctx, identity(ctx)) == 1
    for r in gens:
        assert element_order(ctx, r) == 2
    r0r1 = mat_mul(ctx, gens[0], gens[1])
    assert element_order(ctx, r0r1) == 5


# ---------------------------------------------------------------------------
# keys

# one prime of each field size the key tests use
PRIMES = {4: (2, 0), 5: (-1, 2), 9: (3, 0), 11: (3, 1), 19: (-4, -1), 61: (-7, -3), 269: (-15, -4)}


def test_key_dtype_per_field():
    # a key that fits a machine word is an integer; a wider one stays void
    for q, (a, b) in PRIMES.items():
        ctx = ctx_of(a, b)
        assert ctx.q == q
        mat_keys = _keys(ctx, random_mats(ctx, 3))
        if q <= 16:
            assert mat_keys.dtype == np.uint64
        else:
            assert mat_keys.dtype.kind == "V"
    for q, dtype in ((61, np.uint32), (269, np.uint64)):
        ctx = ctx_of(*PRIMES[q])
        assert _keys(ctx, random_mats(ctx, 3)[:, 0], 4).dtype == dtype


def test_decode_inverts_integer_keys():
    for q in (4, 5, 9, 11):
        ctx = ctx_of(*PRIMES[q])
        mats = np.concatenate([random_mats(ctx, 50), np.full((1, 4, 4), q - 1, dtype=np.int64)])
        decoded = _decode(ctx, _keys(ctx, mats))
        assert decoded.dtype == np.int64
        assert np.array_equal(decoded, mats)


def test_sorted_unique_matches_np_unique():
    # uint32 vector keys at q = 61, uint64 ones at q = 269, void matrix keys
    # at q = 61; entries below 3 make repeated keys
    for q, width in ((61, 4), (269, 4), (61, 16)):
        ctx = ctx_of(*PRIMES[q])
        keys = _keys(ctx, RNG.integers(0, 3, size=(600, width), dtype=np.int64), width)
        keys = np.concatenate([keys, keys[::3]])
        assert len(np.unique(keys)) < len(keys)
        assert np.array_equal(sorted_unique(keys), np.unique(keys))
        assert len(sorted_unique(keys[:0])) == 0


@pytest.mark.parametrize(
    "k,prime,subset,order,digest",
    [
        (4, (3, 1), [0, 1, 3], 2640, "130a81ae478d2709192d36d747eaf10bb3d7dca1adf30796624b812bae3040c0"),
        (6, (3, 0), [0, 1, 2, 3], 174_960, "59f4e12e1fe6c7f5c5a3fbc17dd43843083eda6a238bd92972717e833fe1d890"),
    ],
)
def test_enumerated_element_set_is_pinned(k, prime, subset, order, digest):
    # key order sets the order of ``elements``, so the set is pinned as a
    # digest of its lexsorted elements, which no choice of key dtype changes
    ctx, gens = gens_of(k, *prime)
    group = enumerate_group(ctx, gens[subset])
    assert group.order == order
    elems = group.elements.reshape(-1, 16)
    elems = elems[np.lexsort(elems.T[::-1])]
    assert hashlib.sha256(elems.tobytes()).hexdigest() == digest
    assert np.array_equal(group.index(group.elements), np.arange(order))


# ---------------------------------------------------------------------------
# BFS enumeration


def test_enumerate_dihedral_subgroups():
    ctx, gens = gens_of(4, -1, 2)
    d5 = enumerate_group(ctx, gens[[0, 1]])
    assert d5.order == 10
    d4 = enumerate_group(ctx, gens[[1, 3]])
    assert d4.order == 8
    d3 = enumerate_group(ctx, gens[[1, 2]])
    assert d3.order == 6
    d2 = enumerate_group(ctx, gens[[0, 2]])
    assert d2.order == 4


def test_enumerate_closure_and_lagrange():
    ctx, gens = gens_of(3, 2, 0)
    g = enumerate_group(ctx, gens)
    assert g.order == 960
    elems = g.elements
    sample = elems[RNG.choice(g.order, size=40)]
    other = elems[RNG.choice(g.order, size=40)]
    prods = mat_mul(ctx, sample, other)
    assert g.contains_batch(prods).all()
    for sub in (gens[[0, 1]], gens[[1, 2]], gens[[0, 1, 2]]):
        assert g.order % enumerate_group(ctx, sub).order == 0


def test_enumerate_respects_cap():
    ctx, gens = gens_of(3, -1, 2)
    with pytest.raises(OverCapError):
        enumerate_group(ctx, gens, cap=100)


def test_enumerate_memory_is_bounded_by_batch():
    # 518,400 elements, whose sorted keys take 7.9 MB; the products of a BFS
    # layer are formed BATCH at a time, not all at once
    ctx, gens = gens_of(5, 3, 0)
    tracemalloc.start()
    try:
        assert enumerate_group(ctx, gens).order == 518_400
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


def test_enumerate_deduplicates_generators():
    ctx, gens = gens_of(4, -1, 2)
    doubled = np.concatenate([gens[[0, 1]], gens[[0, 1]], gens[[0]]])
    assert enumerate_group(ctx, doubled).order == 10


# ---------------------------------------------------------------------------
# BSGS


@pytest.mark.parametrize(
    "k,prime,expected",
    [
        (3, (2, 0), 960),
        (4, (-1, 2), 28_800),
        (5, (-1, 2), 15_000),
        (6, (3, 0), 174_960),
    ],
)
def test_bsgs_order_matches_enumeration(k, prime, expected):
    ctx, gens = gens_of(k, *prime)
    bfs = enumerate_group(ctx, gens)
    chain = bsgs_group(ctx, gens)
    assert bfs.order == chain.order == expected


def test_bsgs_membership_agrees_with_enumeration():
    ctx, gens = gens_of(6, 3, 0)
    bfs = enumerate_group(ctx, gens[[0, 1, 3]])
    chain = bsgs_group(ctx, gens[[0, 1, 3]])
    assert chain.order == bfs.order == 1620
    elems = bfs.elements
    inside = elems[RNG.choice(bfs.order, size=60)]
    assert chain.contains_batch(inside).all()
    full = enumerate_group(ctx, gens)
    outside = []
    for m in full.elements[RNG.choice(full.order, size=400)]:
        if not bfs.contains(m):
            outside.append(m)
        if len(outside) == 40:
            break
    outside = np.array(outside)
    assert not chain.contains_batch(outside).any()
    singular = identity(ctx)
    singular[0] = 0
    assert not chain.contains(singular)
    assert not bfs.contains(singular)


def test_uint16_keys_index_and_membership():
    # q = 269 > 255 stores each matrix entry in two bytes
    ctx, gens = gens_of(3, -15, -4)
    assert ctx.q == 269
    d3 = enumerate_group(ctx, gens[[1, 2]])
    assert d3.order == 6
    elems = d3.elements
    assert np.array_equal(d3.index(elems), np.arange(d3.order))
    assert d3.contains_batch(elems).all()
    outsider = mat_mul(ctx, gens[0], gens[1])
    assert not d3.contains(outsider)
    with pytest.raises(ValueError):
        d3.index(np.stack([elems[0], outsider]))
    # the chain's orbit keys hold vectors, also two bytes per entry
    chain = bsgs_group(ctx, gens[[1, 2]])
    assert chain.order == 6
    assert chain.contains_batch(elems).all()
    assert not chain.contains(outsider)


@pytest.mark.parametrize(
    "k,prime,base,orbits,strong",
    [
        (3, (-4, -1), [1, 0, 3, 2], [6840, 342, 10, 2], [4, 2, 2, 1]),
        (6, (-1, 4), [1, 2, 3], [6840, 380, 36], [4, 3, 2]),
        (3, (-5, -1), [1, 0, 3, 2], [24360, 812, 15, 2], [4, 2, 2, 1]),
    ],
)
def test_bsgs_chain_shape(k, prime, base, orbits, strong):
    ctx, gens = gens_of(k, *prime)
    chain = bsgs_group(ctx, gens)._chain
    basis = identity(ctx)
    assert [lvl.point.tolist() for lvl in chain] == [basis[b].tolist() for b in base]
    assert [len(lvl.keys) for lvl in chain] == orbits
    assert [len(lvl.gens) for lvl in chain] == strong
    assert [len(lvl.t) for lvl in chain] == [len(lvl.t_inv) for lvl in chain] == orbits
    for lvl in chain:
        assert np.array_equal(np.sort(lvl.keys), lvl.keys)
        assert np.array_equal(_keys(ctx, mat_vec(ctx, lvl.t, lvl.point), 4), lvl.keys)
        assert (mat_mul(ctx, lvl.t_inv, lvl.t) == identity(ctx)).all()


def test_bsgs_respects_cap():
    # the largest orbit of this chain has 6,840 points
    ctx, gens = gens_of(3, -4, -1)
    assert bsgs_group(ctx, gens, cap=6840).order == bsgs_group(ctx, gens).order
    with pytest.raises(OverCapError):
        bsgs_group(ctx, gens, cap=6839)


def test_bsgs_forms_schreier_generators_once_per_orbit_build(monkeypatch):
    ctx, gens = gens_of(3, -5, -1)
    calls = {"_build_orbit": 0, "_schreier_generators": 0}
    for name in calls:
        inner = getattr(matgroup, name)

        def counted(*args, _name=name, _inner=inner):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(matgroup, name, counted)
    assert bsgs_group(ctx, gens).order == 593_409_600
    assert calls["_schreier_generators"] == calls["_build_orbit"]


def test_bsgs_elements_unavailable():
    ctx, gens = gens_of(4, -1, 2)
    chain = bsgs_group(ctx, gens)
    with pytest.raises(ValueError):
        _ = chain.elements


# ---------------------------------------------------------------------------
# intersections and equality


def test_intersect_dihedral():
    ctx, gens = gens_of(4, -1, 2)
    g0 = enumerate_group(ctx, gens[[1, 2, 3]])
    g3 = enumerate_group(ctx, gens[[0, 1, 2]])
    meet = g0.intersect(g3)
    assert meet.order == 6
    assert meet.same_group(enumerate_group(ctx, gens[[1, 2]]))


def test_intersect_with_bsgs_side():
    ctx, gens = gens_of(6, 3, 0)
    g0 = enumerate_group(ctx, gens[[1, 2, 3]])
    g2 = bsgs_group(ctx, gens[[0, 1, 3]])
    meet = g0.intersect(g2)
    assert meet.same_group(enumerate_group(ctx, gens[[1, 3]]))


def test_same_group_detects_difference():
    ctx, gens = gens_of(4, -1, 2)
    a = enumerate_group(ctx, gens[[0, 1]])
    b = enumerate_group(ctx, gens[[1, 2]])
    assert not a.same_group(b)
    assert a.same_group(enumerate_group(ctx, gens[[1, 0]]))
