"""Matrix-group engine tests: arithmetic kernels, BFS enumeration, BSGS chains."""

from __future__ import annotations

import copy
import gc
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from starcox import matgroup
from starcox.builder import StarParams, kept, reduced_generators
from starcox.cgroup import _CHECKS
from starcox.classify import classify_rank4, subgroup_backend
from starcox.field import FieldCtx, build_field
from starcox.matgroup import (
    OverCapError,
    SingularMatrixError,
    _decode,
    _dedup,
    _det,
    _find,
    _invariant_form,
    _isotropic_pair,
    _kernel,
    _keys,
    _lines,
    _missing,
    _point_keys,
    _row_reduce,
    _sift,
    _successors,
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
        assert is_identity(mat_mul(ctx, m, mi))
        assert is_identity(mat_mul(ctx, mi, m))


def test_mat_inv_singular_raises():
    ctx = ctx_of(3, 1)
    m = identity()
    m[2] = 0
    with pytest.raises(SingularMatrixError):
        mat_inv(ctx, m)


def test_element_order_basics():
    ctx, gens = gens_of(5, -1, 2)
    assert element_order(ctx, identity()) == 1
    for r in gens:
        assert element_order(ctx, r) == 2
    r0r1 = mat_mul(ctx, gens[0], gens[1])
    assert element_order(ctx, r0r1) == 5


def leibniz_det(ctx, m):
    """The determinant of one matrix as a sum over the 24 permutations: in
    integers, reduced mod q, at degree 1, and through the field's scalar
    operations at degree 2."""
    out = 0
    for perm in itertools.permutations(range(4)):
        odd = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(4), 2)) % 2
        if ctx.degree == 1:
            out += (-1) ** odd * math.prod(int(m[i, perm[i]]) for i in range(4))
            continue
        term = 1
        for i in range(4):
            term = ctx.mul(term, int(m[i, perm[i]]))
        out = ctx.add(out, ctx.neg(term) if odd else term)
    return out % ctx.q


@pytest.mark.parametrize("q", [4, 5, 9, 11, 19, 49])
def test_det_matches_leibniz_reference(q):
    # random matrices, singular ones with a repeated row among them, and the
    # reduced generators, which are reflections: det -1 at every k
    ctx = ctx_of(*PRIMES[q])
    mats = random_mats(ctx, 60)
    mats[:5, 3] = mats[:5, 1]
    want = [leibniz_det(ctx, m) for m in mats]
    assert _det(ctx, mats).tolist() == want
    assert want[:5] == [0] * 5
    for k in (3, 4, 5, 6):
        ctx, gens = gens_of(k, *PRIMES[q])
        assert _det(ctx, gens).tolist() == [ctx.neg(1)] * 4


def test_det_exact_at_the_largest_fields():
    # the fields of test_mat_mul_exact_at_the_largest_fields; entries near
    # q - 1 give the largest int64 intermediates
    for ctx in (ctx_of(32759, 18), ctx_of(32717, 0)):
        mats = np.concatenate([ctx.q - 1 - RNG.integers(0, 3, size=(20, 4, 4)), random_mats(ctx, 20)])
        assert _det(ctx, mats).tolist() == [leibniz_det(ctx, m) for m in mats]


# ---------------------------------------------------------------------------
# keys

# one prime of each field size the key tests use
PRIMES = {4: (2, 0), 5: (-1, 2), 9: (3, 0), 11: (3, 1), 19: (-4, -1), 29: (-5, -1), 49: (7, 0),
          59: (-7, -2), 61: (-7, -3), 169: (13, 0), 269: (-15, -4)}


def test_mat_pow_squares_and_multiplies(monkeypatch):
    # the powers of a stack match repeated products; m^90901 (17 bits, eight
    # of them set) takes 16 squarings and 8 products
    ctx = ctx_of(*PRIMES[59])
    m = random_mats(ctx, 3)
    power = np.broadcast_to(identity(), m.shape)
    for n in range(20):
        assert np.array_equal(matgroup.mat_pow(ctx, m, n), power)
        power = mat_mul(ctx, power, m)
    calls = []
    inner = matgroup.mat_mul
    monkeypatch.setattr(matgroup, "mat_mul", lambda *a: calls.append(1) or inner(*a))
    matgroup.mat_pow(ctx, m, 90_901)
    assert len(calls) == 16 + 8


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
    # at q = 61 and uint64 row keys at q = 9 and 11; entries below 3 make
    # repeated keys
    for q, width in ((61, 4), (269, 4), (61, 16), (9, 16), (11, 16)):
        ctx = ctx_of(*PRIMES[q])
        keys = _keys(ctx, RNG.integers(0, 3, size=(600, width), dtype=np.int64), width)
        keys = np.concatenate([keys, keys[::3]])
        assert len(np.unique(keys)) < len(keys)
        assert np.array_equal(sorted_unique(keys), np.unique(keys))
        assert len(sorted_unique(keys[:0])) == 0


@pytest.mark.parametrize("q,width", [(61, 4), (11, 16), (61, 16)], ids=["u32-vec", "u64-mat", "void-mat"])
def test_missing_matches_setdiff1d(q, width):
    # uint32 vector keys, uint64 row keys and void matrix keys; each side
    # shares some keys with the other, and either may be empty
    ctx = ctx_of(*PRIMES[q])

    def keys_of(low, high, n):
        return _keys(ctx, RNG.integers(low, high, size=(n, width), dtype=np.int64), width)

    keys = sorted_unique(keys_of(0, 3, 900))
    held = sorted_unique(np.concatenate([keys[::2], keys_of(3, 5, 50)]))
    for a, b in ((keys, held), (held, keys), (keys, keys[:0]), (keys[:0], held), (keys[:0], keys[:0])):
        got = _missing(a, b)
        assert got.dtype == a.dtype
        assert got.tobytes() == np.setdiff1d(a, b).tobytes()
    assert 0 < len(_missing(keys, held)) < len(keys)


@pytest.mark.parametrize(
    "k,prime,subset,order,digest",
    [
        (4, (3, 1), [0, 1, 3], 2640, "1c082c085499d63ac1b035cb3a8c667731d56d53b3edd421661c6b0df0756581"),
        (6, (3, 0), [0, 1, 2, 3], 174_960, "19a6cc7891dae7e1628449e7e7bcfbc2f32b6e8b39d2843ec0b27718839393b2"),
    ],
    ids=["k4-q11", "k6-q9"],
)
def test_enumerated_element_set_is_pinned(k, prime, subset, order, digest):
    # key order sets the order of ``elements``, and the code layout sets the
    # codes, so the set is pinned as a digest of each element's (x, y) pairs
    # from ``decode``, lexsorted, which neither choice changes
    ctx, gens = gens_of(k, *prime)
    group = enumerate_group(ctx, gens[subset])
    assert group.order == order
    pairs = np.array([ctx.decode(c) for c in range(ctx.q)], dtype=np.int64)
    elems = pairs[group.elements].reshape(-1, 32)
    elems = elems[np.lexsort(elems.T[::-1])]
    assert hashlib.sha256(elems.tobytes()).hexdigest() == digest
    assert np.array_equal(_find(group._sorted_keys, _keys(ctx, group.elements)), np.arange(order))


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


def test_enumerate_without_generators_is_trivial():
    # row tables at q = 11, decoded products at q = 19
    for q in (11, 19):
        ctx, gens = gens_of(3, *PRIMES[q])
        group = enumerate_group(ctx, gens[[]])
        assert group.order == 1
        assert is_identity(group.elements[0])


def full_store_bfs(ctx, gens, cap):
    """The sorted keys of the closure by breadth-first search against the
    whole store: each layer's candidates are searched in every key found so
    far and the fresh ones inserted. It needs no inverses and no undirected
    Cayley graph, so it checks the frontier search of ``enumerate_group``."""
    times_gens = _successors(ctx, _dedup(ctx, np.asarray(gens, dtype=np.int64).reshape(-1, 4, 4)))
    frontier = store = _keys(ctx, identity()[None])
    while len(frontier):
        cand = sorted_unique(times_gens(frontier).ravel())
        frontier = cand[_find(store, cand) < 0]
        if len(store) + len(frontier) > cap:
            raise OverCapError(f"closure exceeds cap {cap}")
        store = np.insert(store, np.searchsorted(store, frontier), frontier)
    return store


def assert_closure_matches_full_store_bfs(ctx, gens, cap):
    try:
        want = full_store_bfs(ctx, gens, cap)
    except OverCapError:
        with pytest.raises(OverCapError):
            enumerate_group(ctx, gens, cap=cap)
        return None
    got = enumerate_group(ctx, gens, cap=cap)._sorted_keys
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    return len(want)


@pytest.mark.parametrize("q", [4, 5, 9, 11, 19, 29])
def test_frontier_search_matches_full_store_bfs(q):
    # row tables at q <= 16, decoded products above; every nonempty subset of
    # the reduced generators, and sets that are not all involutions: r0 r1
    # (order 5), with r3, a repeated generator and the identity. The cap is
    # met by both searches or by neither
    sizes = []
    for k in (3, 6):
        ctx, gens = gens_of(k, *PRIMES[q])
        r0r1 = mat_mul(ctx, gens[0], gens[1])[None]
        sets = [gens[list(s)] for n in range(1, 5) for s in itertools.combinations(range(4), n)]
        sets += [r0r1, np.concatenate([r0r1, gens[[3]]]), gens[[0, 1, 0]],
                 np.concatenate([identity()[None], gens[[1, 2]]])]
        sizes += [assert_closure_matches_full_store_bfs(ctx, s, 20_000) for s in sets]
    assert sum(n is not None for n in sizes) >= 20


def missing_calls_per_layer(monkeypatch, ctx, gens):
    """The ``_missing`` calls of one closure over its layers: one
    ``sorted_unique`` call per layer, after the one that deduplicates the
    generators."""
    calls = {"layers": -1, "missing": 0}

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(matgroup, "sorted_unique", counted("layers", sorted_unique))
    monkeypatch.setattr(matgroup, "_missing", counted("missing", _missing))
    enumerate_group(ctx, gens)
    return calls["missing"] / calls["layers"]


@pytest.mark.parametrize("q", [4, 5, 9, 11, 19])
def test_closures_check_one_layer_only_where_layers_alternate(q, monkeypatch):
    # reflections at odd q make layers alternate in determinant, so each
    # layer is checked against the layer before last alone; at q = 4 det -1
    # is 1, and r0 r1 (det 1) or the identity among the generators breaks
    # the alternation, so those check the last two layers
    ctx, gens = gens_of(4, *PRIMES[q])
    per_layer = 1 if q % 2 else 2
    for subset in ([0, 1, 2], [1, 2, 3], [0, 1, 3]):
        assert missing_calls_per_layer(monkeypatch, ctx, gens[subset]) == per_layer
    r0r1 = mat_mul(ctx, gens[0], gens[1])[None]
    assert missing_calls_per_layer(monkeypatch, ctx, r0r1) == 2
    assert missing_calls_per_layer(monkeypatch, ctx, np.concatenate([identity()[None], gens[[1, 2]]])) == 2


@pytest.mark.parametrize("q", [4, 11, 19])
def test_frontier_search_cap_boundary(q):
    ctx, gens = gens_of(4, *PRIMES[q])
    for subset in ([0, 1, 3], [1, 2, 3]):
        order = enumerate_group(ctx, gens[subset]).order
        assert enumerate_group(ctx, gens[subset], cap=order).order == order
        with pytest.raises(OverCapError):
            enumerate_group(ctx, gens[subset], cap=order - 1)


def successor_reference(ctx, keys, gens):
    return np.stack([_keys(ctx, mat_mul(ctx, _decode(ctx, keys), g)) for g in gens])


@pytest.mark.parametrize("q", [4, 5, 9, 11, 19])
def test_successor_keys_match_products(q, monkeypatch):
    # row tables at q <= 16, decoded products above; a small BATCH makes the
    # q = 19 path run in several chunks
    monkeypatch.setattr(matgroup, "BATCH", 64)
    for k in (3, 4, 5, 6):
        ctx, gens = gens_of(k, *PRIMES[q])
        r0r1 = mat_mul(ctx, gens[0], gens[1])
        closure = enumerate_group(ctx, np.concatenate([gens[[0, 1, 3]], r0r1[None]]))
        keys = RNG.permutation(closure._sorted_keys)[:300]
        keys = np.concatenate([keys, _keys(ctx, np.stack([r0r1, identity()]))])
        times_gens = _successors(ctx, gens)
        # a second call meets rows the first left out, and reuses the rest
        for part in (keys[:150], keys):
            got = times_gens(part)
            assert got.shape == (len(gens), len(part))
            assert np.array_equal(got, successor_reference(ctx, part, gens))


def test_successor_tables_are_built_once_per_field(monkeypatch):
    # a row table is one product over all q^4 rows, formed the first time a
    # closure in the field multiplies by its generator, and kept in
    # ctx.tables beside the field's one digit table: the closure of
    # <r0, r1, r3> forms three, a later one of <r1, r3> none, and one of
    # <r0 r1>, not an involution, two more, for r0 r1 and its inverse
    ctx = ctx_of(*PRIMES[11])
    _, gens = gens_of(4, *PRIMES[11])
    rows = []

    def counted(ctx, a, b):
        if a.shape == (ctx.q**4, 4):
            rows.append(a.shape[0])
        return mat_mul(ctx, a, b)

    monkeypatch.setattr(matgroup, "mat_mul", counted)
    r0r1 = mat_mul(ctx, gens[0], gens[1])[None]
    for subset, order, distinct in ((gens[[0, 1, 3]], 2640, 3), (gens[[1, 3]], 8, 3), (r0r1, 5, 5)):
        assert enumerate_group(ctx, subset).order == order
        assert sum(rows) == distinct * ctx.q**4
        assert len(ctx.tables) == distinct + 1  # and the digit table
    row_tables = [t for key, t in ctx.tables.items() if key != "digits"]
    assert all(t.dtype == np.uint16 and t.nbytes == 2 * ctx.q**4 for t in row_tables)
    assert ctx.tables["digits"].nbytes == 4 * ctx.q**4


@pytest.mark.parametrize("first", [0, 1])
def test_fields_of_one_order_keep_their_own_tables(first):
    # -3-t and -1+3t both give q = 11 and send tau to different codes, so
    # their reduced generators differ; each field's row tables must give its
    # own products whichever field builds tables first
    primes = [(-3, -1), (-1, 3)]
    primes = primes[first:] + primes[:first]
    fields = []
    for a, b in primes:
        ctx, gens = gens_of(4, a, b)
        keys = enumerate_group(ctx, gens[[0, 1, 3]])._sorted_keys
        got = _successors(ctx, gens)(keys)
        assert np.array_equal(got, successor_reference(ctx, keys, gens))
        fields.append(ctx)
    assert fields[0].q == fields[1].q and fields[0].tau_code != fields[1].tau_code
    assert fields[0].tables is not fields[1].tables


def test_field_tables_take_no_part_in_equality():
    ctx, gens = gens_of(4, *PRIMES[11])
    enumerate_group(ctx, gens[[0, 1, 3]])
    fresh = ctx_of(*PRIMES[11])
    assert ctx.tables and not fresh.tables
    assert ctx == fresh and hash(ctx) == hash(fresh) and repr(ctx) == repr(fresh)


def nibble_keys(mats):
    """Matrix keys as the four-bit coding packs them, two codes to a byte, the
    first in the low bits: the coding of the q <= 16 keys before base-q rows."""
    codes = np.ascontiguousarray(mats.reshape(-1, 16).astype(np.uint8))
    return (codes[:, 0::2] | codes[:, 1::2] << 4).view(np.uint64).ravel()


@pytest.mark.parametrize("q", [4, 5, 9, 11])
def test_row_keys_sort_like_nibble_keys(q):
    # both codings are mixed radix with the last code most significant, so
    # keys sort the same under either, and decoding inverts the keys
    ctx = ctx_of(*PRIMES[q])
    mats = random_mats(ctx, 4000)
    mats[:8] = 0
    mats[8:16] = ctx.q - 1
    keys = _keys(ctx, mats)
    assert keys.dtype == np.uint64
    assert np.array_equal(np.argsort(keys, kind="stable"),
                          np.argsort(nibble_keys(mats), kind="stable"))
    assert np.array_equal(_decode(ctx, keys), mats)


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
        if not bfs.contains_batch(m[None])[0]:
            outside.append(m)
        if len(outside) == 40:
            break
    outside = np.array(outside)
    assert not chain.contains_batch(outside).any()
    singular = identity()
    singular[0] = 0
    assert not chain.contains_batch(singular[None])[0]
    assert not bfs.contains_batch(singular[None])[0]


def test_uint16_keys_index_and_membership():
    # q = 269 > 255 stores each matrix entry in two bytes
    ctx, gens = gens_of(3, -15, -4)
    assert ctx.q == 269
    d3 = enumerate_group(ctx, gens[[1, 2]])
    assert d3.order == 6
    elems = d3.elements
    assert np.array_equal(_find(d3._sorted_keys, _keys(ctx, elems)), np.arange(d3.order))
    assert d3.contains_batch(elems).all()
    outsider = mat_mul(ctx, gens[0], gens[1])
    assert not d3.contains_batch(outsider[None])[0]
    # the chain's orbit keys hold vectors, also two bytes per entry
    chain = bsgs_group(ctx, gens[[1, 2]])
    assert chain.order == 6
    assert chain.contains_batch(elems).all()
    assert not chain.contains_batch(outsider[None])[0]


# the chain's base opens with l1 as a line, l2 as a line and l1 as a vector,
# then e1..e4 as vectors; the orbit sizes multiply to the group order, pinned
# as the product of the orbits of the chain on standard basis vectors alone.
# The strong generators follow from the Schreier generators sifted: at
# k3-q29 level 2 has 5, where ``rebuild_bsgs``, which builds each level a
# residue joins again, gives it 6
@pytest.mark.parametrize(
    "k,prime,l1,l2,orbits,strong,order",
    [
        (3, (-4, -1), [1, 6, 10, 0], [0, 1, 8, 0],
         [400, 361, 18, 1, 9, 1, 2], [4, 3, 5, 3, 3, 1, 1], 6840 * 342 * 10 * 2),
        (6, (-1, 4), [1, 6, 2, 0], [1, 17, 12, 0],
         [400, 361, 18, 1, 18, 1, 2], [4, 4, 4, 3, 3, 1, 1], 6840 * 380 * 36),
        (3, (-5, -1), [1, 14, 25, 0], [1, 12, 25, 0],
         [900, 841, 28, 14, 1, 1, 2], [4, 5, 5, 3, 1, 1, 1], 24360 * 812 * 15 * 2),
    ],
    ids=["k3-q19", "k6-q19", "k3-q29"],
)
def test_bsgs_chain_shape(k, prime, l1, l2, orbits, strong, order):
    ctx, gens = gens_of(k, *prime)
    group = bsgs_group(ctx, gens)
    chain = group._chain
    base = [(l1, True), (l2, True), (l1, False)] + [(e, False) for e in identity().tolist()]
    assert [(lvl.point.tolist(), lvl.line) for lvl in chain] == base
    assert [len(lvl.keys) for lvl in chain] == orbits
    assert [len(lvl.gens) for lvl in chain] == strong
    assert [len(lvl.t) for lvl in chain] == [len(lvl.t_inv) for lvl in chain] == orbits
    assert group.order == math.prod(orbits) == order
    for lvl in chain:
        assert np.array_equal(np.sort(lvl.keys), lvl.keys)
        assert np.array_equal(_point_keys(ctx, lvl.line, mat_vec(ctx, lvl.t, lvl.point)), lvl.keys)
        assert (mat_mul(ctx, lvl.t_inv, lvl.t) == identity()).all()


def cycle_oracle(ctx, lvl):
    """The orbit of a one-generator level by breadth-first search, one point
    per layer: keys, t and t_inv in key order."""
    (g,), (ginv,) = lvl.gens, lvl.gen_invs
    keys, ts, t_invs = [_point_keys(ctx, lvl.line, lvl.point[None])], [identity()], [identity()]
    v = mat_vec(ctx, g, lvl.point)
    while (key := _point_keys(ctx, lvl.line, v[None])) != keys[0]:
        keys.append(key)
        ts.append(mat_mul(ctx, g, ts[-1]))
        t_invs.append(mat_mul(ctx, t_invs[-1], ginv))
        v = mat_vec(ctx, g, v)
    keys = np.concatenate(keys)
    order = np.argsort(keys)
    return keys[order], np.stack(ts)[order], np.stack(t_invs)[order]


@pytest.mark.parametrize("q", [19, 61])
def test_cyclic_doubling_matches_one_point_layers(q):
    # r0 fixes the line of e1 and moves e1 (orbits of 1 and 2 points); r0 r1
    # has order 5, and the Coxeter element r0 r1 r2 r3 makes orbits of 9, 18
    # and 60 points, so the last doubling step takes only part of the points;
    # r1 r2 r3, the Coxeter element of A3, makes a cycle of 4 points, which
    # the second doubling step closes exactly, so the third finds nothing new
    ctx, gens = gens_of(3, *PRIMES[q])
    r0, r1, r2, r3 = gens
    l1, _ = _isotropic_pair(ctx, _invariant_form(ctx, gens))
    coxeter = mat_mul(ctx, mat_mul(ctx, r0, r1), mat_mul(ctx, r2, r3))
    lengths = set()
    for g in (r0, mat_mul(ctx, r0, r1), coxeter, mat_mul(ctx, mat_mul(ctx, r1, r2), r3)):
        for point, line in itertools.product((identity()[0], l1), (False, True)):
            lvl = matgroup._Level(point, line)
            lvl.gens, lvl.gen_invs = [g], [mat_inv(ctx, g)]
            keys, t, t_inv = cycle_oracle(ctx, lvl)
            matgroup._build_orbit(ctx, lvl, cap=len(keys))
            for got, want in ((lvl.keys, keys), (lvl.t, t), (lvl.t_inv, t_inv)):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
            # a cycle of n points leaves at most one Schreier generator, g^n;
            # an involution's cycle of two leaves none
            assert_schreier_tree(ctx, lvl)
            power = identity()
            for _ in range(len(keys)):
                power = mat_mul(ctx, g, power)
            got = set(matgroup._schreier_generators(ctx, lvl).tolist())
            ident = _keys(ctx, identity()[None]).tolist()
            assert got <= set(_keys(ctx, power[None]).tolist()) <= got | set(ident)
            with pytest.raises(OverCapError):
                matgroup._build_orbit(ctx, lvl, cap=len(keys) - 1)
            lengths.add(len(keys))
    assert {1, 2, 5} <= lengths
    assert 4 in lengths
    assert any(n & (n - 1) and n > 8 for n in lengths)


def chain_digest(group):
    h = hashlib.sha256()
    for lvl in group._chain:
        for arr in (lvl.point, [lvl.line], lvl.keys, lvl.t, lvl.t_inv, lvl.gens, lvl.gen_invs):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def test_chain_through_cyclic_doubling_is_pinned(monkeypatch):
    # k = 3 at -12-5t (q = 179): one orbit build meets a level with a single
    # generator and makes a cycle of 15,931 points, which a second generator
    # later extends to 32,041. The digest of every level's point, orbit
    # keys, transversal and generators was taken with levels extended in
    # place
    ctx, gens = gens_of(3, -12, -5)
    cycles = []
    inner = matgroup._build_orbit

    def counted(ctx, lvl, cap):
        paired = inner(ctx, lvl, cap)
        if len(lvl.gens) == 1:
            cycles.append(len(lvl.keys))
        return paired

    monkeypatch.setattr(matgroup, "_build_orbit", counted)
    group = bsgs_group(ctx, gens)
    assert max(cycles) == 15_931
    assert [len(lvl.keys) for lvl in group._chain][:2] == [32_400, 32_041]
    assert group.order == 32_892_060_225_600
    assert chain_digest(group) == "459c12ecdd9bc272100e84f647c5b85243c5d436dcf5324e2be7bcd404ce1f64"


def test_bsgs_respects_cap():
    # the largest orbit of this chain has 400 points (isotropic lines, q = 19)
    ctx, gens = gens_of(3, -4, -1)
    assert bsgs_group(ctx, gens, cap=400).order == bsgs_group(ctx, gens).order
    with pytest.raises(OverCapError):
        bsgs_group(ctx, gens, cap=399)


# ---------------------------------------------------------------------------
# the invariant form and the isotropic base points


def bilinear(ctx, form, x, y):
    return int(ctx.mul(x, mat_vec(ctx, form, y), np.matmul))


# q = 4, 5, 9, 11, 19, 49, 61, 199, and the two fields just below Q_LIMIT
FORM_PRIMES = [(2, 0), (-1, 2), (3, 0), (3, 1), (-4, -1), (7, 0), (-7, -3), (-13, -3),
               (32759, 18), (32717, 0)]


@pytest.mark.parametrize("prime", FORM_PRIMES)
@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_invariant_form_is_preserved(k, prime):
    ctx, gens = gens_of(k, *prime)
    form = _invariant_form(ctx, gens)
    # characteristic 2, the k = 5 row at sqrt5 and the k = 6 row at 3 have
    # no single nondegenerate invariant form
    if ctx.char == 2 or (ctx.q, k) in {(5, 5), (9, 6)}:
        assert form is None
        return
    assert np.array_equal(form, form.T)
    for g in gens:
        assert np.array_equal(mat_mul(ctx, mat_mul(ctx, g.T, form), g), form)
    l1, l2 = _isotropic_pair(ctx, form)
    assert bilinear(ctx, form, l1, l1) == bilinear(ctx, form, l2, l2) == 0
    assert bilinear(ctx, form, l1, l2) != 0
    for line in (l1, l2):
        assert line[np.flatnonzero(line)[0]] == 1


@pytest.mark.parametrize("prime", [(2, 0), (7, 2), (8, 1)])
def test_rank3_subgroup_has_no_single_form(prime):
    # G2 = <r0, r1, r3> preserves a two-dimensional space of symmetric forms
    # on F_q^4 (q = 4, 59, 71), but a single nondegenerate one on its
    # three-dimensional root span W: at odd q its chain opens with two
    # isotropic lines of W, and level 0 is the q + 1 isotropic lines of W,
    # a conic. At q = 4 its chain stays on vectors
    ctx, gens = gens_of(6, *prime)
    assert _invariant_form(ctx, gens[kept("2")]) is None
    chain = bsgs_group(ctx, gens[kept("2")])._chain
    if ctx.q % 2 == 0:
        assert not any(lvl.line for lvl in chain)
        return
    assert [lvl.line for lvl in chain[:3]] == [True, True, False]
    assert np.array_equal(chain[0].point, chain[2].point)
    assert len(chain[0].keys) == ctx.q + 1
    assert all(lvl.point[2] == 0 for lvl in chain[:3])  # W is spanned by e1, e2, e4


@pytest.mark.parametrize("q", [19, 49, 59, 61, 169])
def test_torus_group_runs_on_its_root_span(q):
    # G0 = <r1, r2, r3> at k = 6, of order 12 s^2, preserves no nondegenerate
    # form on its root span W = <e2, e3, e4>, so its chain opens with W's
    # basis vectors: orbits of 6s and 2s points, s the characteristic,
    # against s^2 points for the orbit of e1
    ctx, gens = gens_of(6, *PRIMES[q])
    s = ctx.char
    group = bsgs_group(ctx, gens[kept("0")])
    chain = group._chain
    assert [len(lvl.keys) for lvl in chain] == [6 * s, 2 * s]
    assert [(lvl.point.tolist(), lvl.line) for lvl in chain] == [
        ([0, 1, 0, 0], False), ([0, 0, 1, 0], False)]
    assert group.order == 12 * s * s


def standard_candidates(ctx, gens):
    """The base points chains drew from before the root span: isotropic
    points of a single nondegenerate form on F_q^4, then e1..e4 as vectors,
    which serve alone where there is no such form."""
    basis = [(e, False) for e in identity()]
    form = _invariant_form(ctx, gens) if ctx.q % 2 else None
    if form is None:
        return basis
    l1, l2 = _isotropic_pair(ctx, form)
    return [(l1, True), (l2, True), (l1, False), *basis]


@pytest.mark.parametrize("q", [9, 11, 19, 29, 49, 59, 61, 169])
def test_root_span_base_keeps_orders(q, monkeypatch):
    # an order does not depend on the base: G0 and G2 on the root-span base
    # have the orders, and give the membership answers, of the same chains
    # on the standard candidates. No chain that verify builds has a larger
    # orbit; the small G0 of k = 3, 4, 5 (A3, B3, H3), which it enumerates,
    # can, as its conic of isotropic lines outgrows its vector orbits
    rng = np.random.default_rng(q)
    built = {}
    for k, omit in itertools.product((3, 4, 5, 6), "02"):
        ctx, gens = gens_of(k, *PRIMES[q])
        built[k, omit] = bsgs_group(ctx, gens[kept(omit)])
    monkeypatch.setattr(matgroup, "_base_candidates", standard_candidates)
    for (k, omit), group in built.items():
        ctx, gens = gens_of(k, *PRIMES[q])
        oracle = bsgs_group(ctx, gens[kept(omit)])
        assert group.order == oracle.order
        params = StarParams(k, classify_prime(GoldenInt(*PRIMES[q])))
        if subgroup_backend(params, omit, matgroup.DEFAULT_CAP, gens)[0]:
            assert max(len(lvl.keys) for lvl in group._chain) <= max(
                len(lvl.keys) for lvl in oracle._chain)
        words = gens[rng.integers(0, 4, size=(40, 6))]
        queries = words[:, 0]
        for i in range(1, 6):
            queries = mat_mul(ctx, queries, words[:, i])
        queries = np.concatenate([queries, random_mats(ctx, 8)])
        assert np.array_equal(group.contains_batch(queries), oracle.contains_batch(queries))


def fourspace_first_candidates(ctx, gens):
    """The base points chains drew from while a form on F_q^4 was solved for
    before the root span W: isotropic points of a single nondegenerate form
    on F_q^4; else, where W is proper, those of a single nondegenerate form
    on W when W has dimension 3, or W's reduced rows as vectors; then e1..e4
    as vectors."""
    basis = [(e, False) for e in identity()]
    if ctx.q % 2 == 0:
        return basis
    span = identity()
    form = _invariant_form(ctx, gens)
    if form is None:
        rows, pivots = _row_reduce(ctx, np.swapaxes(ctx.sub(gens, span), 1, 2).reshape(-1, 4), 4)
        span = rows[: len(pivots)]
        if len(span) == 4:
            return basis
        if len(span) == 3:
            form = _invariant_form(ctx, mat_mul(ctx, gens, span.T)[:, pivots])
        if form is None:
            return [(v, False) for v in span] + basis
    l1, l2 = (_lines(ctx, ctx.mul(l, span, np.matmul)) for l in _isotropic_pair(ctx, form))
    return [(l1, True), (l2, True), (l1, False), *basis]


@pytest.mark.parametrize("q", [q for q in PRIMES if q <= 61])
def test_base_candidates_match_fourspace_first_oracle(q):
    # solving for a form on W alone gives the candidates of solving on F_q^4
    # first: a proper W makes phi (x) phi invariant for every phi vanishing
    # on W, so a single form on F_q^4 is degenerate there. The singular full
    # groups (k = 5 at q = 5, k = 6 at q = 9) have W = F_q^4 and no single
    # form, and open with e1..e4 alone
    def as_list(cands):
        return [(point.tobytes(), line) for point, line in cands]

    for k in (3, 4, 5, 6):
        ctx, gens = gens_of(k, *PRIMES[q])
        for n in range(1, 5):
            for subset in itertools.combinations(range(4), n):
                got = matgroup._base_candidates(ctx, gens[list(subset)])
                want = fourspace_first_candidates(ctx, gens[list(subset)])
                assert as_list(got) == as_list(want), (k, subset)
        if (k, q) in ((5, 5), (6, 9)):
            assert as_list(matgroup._base_candidates(ctx, gens)) == as_list(
                [(e, False) for e in identity()])


def test_rank3_chains_solve_one_form(monkeypatch):
    # G0 and G2 at k = 6, q = 59 solve for a form on their root span only
    calls = []

    def counted(ctx, gens):
        calls.append(gens.shape)
        return _invariant_form(ctx, gens)

    monkeypatch.setattr(matgroup, "_invariant_form", counted)
    ctx, gens = gens_of(6, *PRIMES[59])
    for omit in "02":
        calls.clear()
        bsgs_group(ctx, gens[kept(omit)])
        assert calls == [(3, 3, 3)], omit


@pytest.mark.parametrize("k,prime", [(3, (7, 0)), (4, (7, 0)), (5, (7, 0)), (6, (7, 0)), (3, (-13, -3))])
def test_line_chain_order_matches_classification(k, prime):
    # q = 49 (degree 2) and q = 199: level 0 is the orbit of an isotropic
    # line, q^2 + 1 points for O^- and (q + 1)^2 for O^+
    ctx, gens = gens_of(k, *prime)
    group = bsgs_group(ctx, gens)
    level0 = group._chain[0]
    assert level0.line
    assert len(level0.keys) in (ctx.q**2 + 1, (ctx.q + 1) ** 2)
    params = StarParams(k, classify_prime(GoldenInt(*prime)))
    assert group.order == classify_rank4(params).predicted_order


def test_largest_fields_reach_the_cap_at_once():
    # the form solve and the isotropic search cost nothing proportional to q,
    # so the first orbit build is what meets the cap
    for prime in ((32759, 18), (32717, 0)):
        ctx, gens = gens_of(3, *prime)
        with pytest.raises(OverCapError):
            bsgs_group(ctx, gens, cap=5000)


# both degrees: q = 4, 9, 49 and 169 are squares of primes
INVERSE_QS = [4, 5, 9, 11, 19, 49, 61, 169]


@pytest.mark.parametrize("q", INVERSE_QS)
def test_inverse_table_inverts_every_code(q):
    ctx = ctx_of(*PRIMES[q])
    _lines(ctx, identity())
    table = ctx.tables["inverses"]
    assert table.shape == (q,) and table[0] == 0
    assert (ctx.mul(np.arange(1, q), table[1:]) == 1).all()


def lines_reference(ctx, vecs):
    """``_lines`` by one ``pow_`` of the leading entries, the table's own rule."""
    lead = np.take_along_axis(vecs, np.argmax(vecs != 0, axis=-1)[..., None], axis=-1)
    return ctx.mul(vecs, ctx.pow_(lead, ctx.q - 2))


@pytest.mark.parametrize("prime", [PRIMES[q] for q in INVERSE_QS] + [(32759, 18), (32717, 0)],
                         ids=[f"q{q}" for q in INVERSE_QS] + ["q-largest-1", "q-largest-2"])
def test_lines_match_pow_reference(prime):
    # the two largest fields of the cap test lie above 65,535, where vector
    # keys are void and no table is built
    ctx = ctx_of(*prime)
    vecs = RNG.integers(0, ctx.q, size=(200, 4), dtype=np.int64)
    vecs[:60, :2] = 0  # leading zeros
    vecs[60:70] = 0  # zero vectors stay zero
    for v in (vecs, vecs[:, 1:], vecs[:40].reshape(5, 8, 4), vecs[0], vecs[65]):
        got = _lines(ctx, v)
        assert got.shape == v.shape and np.array_equal(got, lines_reference(ctx, v))
    assert ("inverses" in ctx.tables) == (ctx.q <= 0xFFFF)


def test_inverse_table_is_built_once_per_field(monkeypatch):
    # one pow_ over all q codes per field, kept in that field's tables alone,
    # which take no part in equality
    calls = []
    pow_ = FieldCtx.pow_

    def counted(self, u, e):
        calls.append(np.shape(u))
        return pow_(self, u, e)

    monkeypatch.setattr(FieldCtx, "pow_", counted)
    ctx, fresh = ctx_of(*PRIMES[61]), ctx_of(*PRIMES[61])
    for _ in range(3):
        _lines(ctx, RNG.integers(0, 61, size=(20, 4), dtype=np.int64))
    assert calls == [(61,)]
    assert list(ctx.tables) == ["inverses"] and not fresh.tables
    assert ctx == fresh and hash(ctx) == hash(fresh) and repr(ctx) == repr(fresh)
    table = ctx.tables["inverses"]
    assert all(r is ctx.tables for r in gc.get_referrers(table) if isinstance(r, dict))
    _lines(fresh, identity())
    assert calls == [(61,), (61,)]
    assert fresh.tables["inverses"] is not table
    assert np.array_equal(fresh.tables["inverses"], table)


# rank-3 and smaller subsets at q = 4, 5, 9, 11, 19, 29, 31 (chains on basis
# vectors), and the whole group at q = 5, which for k = 3, 4, 6 preserves
# a single form (a chain on isotropic lines)
PROPERTY_PRIMES = [(2, 0), (-1, 2), (3, 0), (3, 1), (-4, -1), (-5, -1), (5, 2)]
_SUBSETS = st.one_of(
    st.tuples(st.sampled_from(PROPERTY_PRIMES), st.sets(st.integers(0, 3), min_size=1, max_size=3)),
    st.tuples(st.just((-1, 2)), st.just({0, 1, 2, 3})),
)


@settings(max_examples=40, deadline=None)
@given(
    prime_subset=_SUBSETS,
    k=st.sampled_from([3, 4, 5, 6]),
    conjugate=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_bsgs_agrees_with_enumeration(prime_subset, k, conjugate, seed):
    # BFS is the chain's independent second path: the same order and the
    # same membership answers, also after conjugating every generator by a
    # random invertible matrix, which moves the form and its isotropic points
    prime, subset = prime_subset
    ctx, all_gens = gens_of(k, *prime)
    rng = np.random.default_rng(seed)
    while conjugate:
        m = rng.integers(0, ctx.q, size=(4, 4), dtype=np.int64)
        try:
            all_gens = mat_mul(ctx, mat_mul(ctx, m, all_gens), mat_inv(ctx, m))
            break
        except SingularMatrixError:
            continue
    gens = all_gens[sorted(subset)]
    try:
        bfs = enumerate_group(ctx, gens, cap=60_000)
    except OverCapError:
        assume(False)
    chain = bsgs_group(ctx, gens)
    assert chain.order == bfs.order
    members = bfs.elements[rng.choice(bfs.order, size=min(bfs.order, 24), replace=False)]
    queries = np.concatenate([
        members,
        mat_mul(ctx, members[:, None], all_gens[None]).reshape(-1, 4, 4),
        rng.integers(0, ctx.q, size=(8, 4, 4), dtype=np.int64),
    ])
    assert np.array_equal(chain.contains_batch(queries), bfs.contains_batch(queries))


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


def assert_schreier_tree(ctx, lvl):
    """t of each point but the base point is g t(parent), g its edge's generator."""
    root = np.flatnonzero(lvl.edge < 0)
    assert len(root) == 1 and lvl.parent[root[0]] == -1 and is_identity(lvl.t[root[0]])
    child = lvl.edge >= 0
    edge_gens = np.stack(lvl.gens)[lvl.edge[child]]
    assert np.array_equal(lvl.t[child], mat_mul(ctx, edge_gens, lvl.t[lvl.parent[child]]))


def schreier_reference(ctx, lvl):
    """The sorted distinct keys of t(g x)^-1 g t(x) over every generator g
    and every orbit point x of a level, no pair skipped."""
    keys = []
    for g in lvl.gens:
        for i in range(0, len(lvl.t), 4096):
            prods = mat_mul(ctx, g, lvl.t[i : i + 4096])
            pos = _find(lvl.keys, _point_keys(ctx, lvl.line, mat_vec(ctx, prods, lvl.point)))
            keys.append(_keys(ctx, mat_mul(ctx, lvl.t_inv[pos], prods)))
    return sorted_unique(np.concatenate(keys))


@pytest.mark.parametrize(
    "k,q,omit",
    [(3, 19, ""), (6, 19, ""), (3, 29, ""), (3, 61, ""), (3, 169, ""), (6, 59, "0"), (6, 59, "2")],
    ids=["k3-q19", "k6-q19", "k3-q29", "k3-q61", "k3-q169", "G0-k6-q59", "G2-k6-q59"],
)
def test_schreier_generators_skip_only_identities(k, q, omit):
    # every level's transversal is a Schreier tree, t = g t(parent), and the
    # Schreier generators formed without the pairs that give the identity by
    # construction are, with the identity, those of every pair; breadth-first
    # levels and one-generator cycles both occur
    ctx, gens = gens_of(k, *PRIMES[q])
    chain = bsgs_group(ctx, gens[kept(omit)])._chain
    ident = _keys(ctx, identity()[None])
    for lvl in chain:
        assert_schreier_tree(ctx, lvl)
        got = matgroup._schreier_generators(ctx, lvl)
        want = schreier_reference(ctx, lvl)
        assert np.array_equal(sorted_unique(np.concatenate([got, ident])),
                              sorted_unique(np.concatenate([want, ident])))


def tree_digest(chain):
    h = hashlib.sha256()
    for lvl in chain:
        for arr in (lvl.point, [lvl.line], lvl.keys, lvl.t, lvl.t_inv, lvl.parent, lvl.edge,
                    lvl.gens, lvl.gen_invs):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# every level's base point, orbit keys, transversal, Schreier tree (parent
# and edge) and generators, with levels extended in place; REBUILT_TREES
# are those of the same chains when each level that a residue joined was
# built again, which ``rebuild_bsgs`` still gives. G0's one extension
# grows a cycle of two points to 118, to the tree a rebuild makes
EXTENDED_TREES = {
    "k3-q19": "9f557be227f2d44d5a43731d184142bc4dac764b748ca874031f768f6da54efb",
    "k6-q19": "0e21d278b697696a0eba1c9ca610a67011489ae0cd54457656c160a9471ad3be",
    "k3-q29": "78bbd4e9c34cf2f1688c6473aafa3c1a09ef173b190dcf6e0e57c981b7691f5d",
    "k3-q61": "c4646cc7631c50e6e6ee3d14694aa1f72be08a30dcebeb5e1980e47a3c20091c",
    "k3-q169": "0d1d3da140392e3394488352901d03bfd0492759e7375d0f3df22f49671e6928",
    "G0-k6-q59": "450a32284bf38bb18dcf4bceb6387d06308fff635565135e8e4aa1eafda59c5e",
    "G2-k6-q59": "16de39d65c9ba35d4a5061f7b6d4974e1c341076e0e4e7aa716740bc97dd9f78",
}
REBUILT_TREES = {
    "k3-q19": "ce83ecdb670ef8006572afc6d9c454a56d53d305dbbd4a46917714bcdd25e453",
    "k6-q19": "255066a85a94fff8e4f213e161d82f4edb2338a1178a9519c5eec715ac79a356",
    "k3-q29": "d45de82ddf9b181df67e0831c517d4f035b419a2247a7d64285a7f093a3877f2",
    "k3-q61": "621019c2151ed84194e9577610f99683ec3cdfb5d3fc8a3168b167c962cb5329",
    "k3-q169": "b288abbbbff505a08e998e9ef2a0e32c5ff2c2fa26d55461711ea91767099765",
    "G0-k6-q59": "450a32284bf38bb18dcf4bceb6387d06308fff635565135e8e4aa1eafda59c5e",
    "G2-k6-q59": "800f6646e1e237826538466a44bc74819110dbf9900f5fdde4803dfcd7224d50",
}
TREE_CHAINS = {"k3-q19": (3, 19, ""), "k6-q19": (6, 19, ""), "k3-q29": (3, 29, ""),
               "k3-q61": (3, 61, ""), "k3-q169": (3, 169, ""), "G0-k6-q59": (6, 59, "0"),
               "G2-k6-q59": (6, 59, "2")}


@pytest.mark.parametrize("name", TREE_CHAINS)
def test_schreier_trees_are_pinned(name):
    k, q, omit = TREE_CHAINS[name]
    ctx, gens = gens_of(k, *PRIMES[q])
    assert tree_digest(bsgs_group(ctx, gens[kept(omit)])._chain) == EXTENDED_TREES[name]


def rebuild_bsgs(ctx, gens, cap=matgroup.DEFAULT_CAP):
    """``bsgs_group`` as it was before levels were extended in place: a
    level that a residue joins drops its unsifted record, builds its orbit
    again from the base point and forms every Schreier generator anew. A
    level with ``built`` = 0 is built from the one-point orbit."""
    gens = [g for g in _dedup(ctx, np.asarray(gens, dtype=np.int64).reshape(-1, 4, 4))
            if not is_identity(g)]
    candidates = matgroup._base_candidates(ctx, np.stack(gens))
    chain = []
    for g in gens:
        matgroup._add_generator(ctx, chain, g, 0, candidates)
    unsifted = {}
    i = len(chain) - 1
    while i >= 0:
        if i not in unsifted:
            chain[i].built = 0
            matgroup._build_orbit(ctx, chain[i], cap)
            unsifted[i] = matgroup._schreier_generators(ctx, chain[i])
        res = _sift(ctx, chain, i + 1, _decode(ctx, unsifted[i]))
        moved = np.flatnonzero((res != identity()).any(axis=(1, 2)))
        if not len(moved):
            i -= 1
            continue
        first = int(moved[0])
        unsifted[i] = unsifted[i][first + 1 :]
        j = matgroup._add_generator(ctx, chain, res[first], i + 1, candidates)
        for l in range(i + 1, j + 1):
            unsifted.pop(l, None)
        i = j
    return matgroup.GroupHandle(ctx, np.stack(gens), cap, chain=chain)


@pytest.mark.parametrize("name", ["k3-q19", "k3-q29", "G0-k6-q59", "G2-k6-q59"])
def test_rebuild_oracle_gives_the_rebuilt_trees(name):
    k, q, omit = TREE_CHAINS[name]
    ctx, gens = gens_of(k, *PRIMES[q])
    assert tree_digest(rebuild_bsgs(ctx, gens[kept(omit)])._chain) == REBUILT_TREES[name]


# full groups at k = 3..6 and the subgroups G0 and G2 at k = 6, q = 59; at
# q = 169 the cap boundary is checked for k = 4 and 5 alone, to bound the time
EXTEND_CASES = [(k, q, "") for q in (9, 19, 29, 49, 61, 169) for k in (3, 4, 5, 6)]
EXTEND_CASES += [(6, 59, "0"), (6, 59, "2")]


@pytest.mark.parametrize("k,q,omit", EXTEND_CASES,
                         ids=[f"{'G' + o if o else 'k'}{k}-q{q}" for k, q, o in EXTEND_CASES])
def test_extended_chain_matches_rebuild_oracle(k, q, omit):
    # extending a level in place changes which strong generators a chain
    # keeps, never its base, its orbits, its order, its membership answers
    # or the cap at which it stops: a chain is held to the cap by its
    # largest orbit, and the orbits grow only with the generators
    ctx, gens = gens_of(k, *PRIMES[q])
    gens = gens[kept(omit)]
    oracle = rebuild_bsgs(ctx, gens)
    largest = max(len(lvl.keys) for lvl in oracle._chain)
    group = bsgs_group(ctx, gens, cap=largest)
    assert group.order == oracle.order
    assert [(lvl.point.tolist(), lvl.line) for lvl in group._chain] == [
        (lvl.point.tolist(), lvl.line) for lvl in oracle._chain]
    for got, want in zip(group._chain, oracle._chain):
        assert np.array_equal(got.keys, want.keys)
    rng = np.random.default_rng(1000 * k + q)
    words = gens[rng.integers(0, len(gens), size=(60, 8))]
    queries = words[:, 0]
    for i in range(1, 8):
        queries = mat_mul(ctx, queries, words[:, i])
    queries = np.concatenate([queries, random_mats(ctx, 20)])
    answers = group.contains_batch(queries)
    assert answers[:60].all()
    assert np.array_equal(answers, oracle.contains_batch(queries))
    if q < 169 or k in (4, 5):
        for build in (bsgs_group, rebuild_bsgs):
            with pytest.raises(OverCapError):
                build(ctx, gens, cap=largest - 1)


def record_extensions(monkeypatch):
    """Check every orbit build of the bsgs_group calls that follow: each
    keeps the points, transversal and tree it held, and leaves a Schreier
    tree. Return a list of the levels extended, one entry per extension,
    and a map from each level to the products g t(x) its Schreier
    generators were formed from, as (keys of the g, keys of the points x),
    a row for each pair of a batch; ``pair_ids`` reads them once the levels
    are final."""
    formed, extended = {}, []
    build, schreier, mul = matgroup._build_orbit, matgroup._schreier_generators, matgroup.mat_mul
    current, last = [], [None]  # last: the product g t(x) of the batch

    def checked_build(ctx, lvl, cap):
        held = None
        if lvl.built:
            held = [np.copy(a) for a in (lvl.keys, lvl.t, lvl.t_inv, lvl.parent, lvl.edge)]
        paired = build(ctx, lvl, cap)
        assert np.array_equal(np.sort(lvl.keys), lvl.keys)
        assert np.array_equal(lvl.image_keys(ctx, lvl.t), lvl.keys)
        assert (mat_mul(ctx, lvl.t_inv, lvl.t) == identity()).all()
        assert_schreier_tree(ctx, lvl)
        assert paired.shape == lvl.keys.shape
        if held is not None:
            extended.append(lvl)
            keys, t, t_inv, parent, edge = held
            pos = _find(lvl.keys, keys)
            assert (pos >= 0).all()
            assert np.array_equal(lvl.t[pos], t) and np.array_equal(lvl.t_inv[pos], t_inv)
            assert np.array_equal(lvl.edge[pos], edge)
            assert np.array_equal(lvl.parent[pos], np.where(parent >= 0, pos[parent], -1))
        return paired

    def tracked_schreier(ctx, lvl, *paired):
        current.append(lvl)
        try:
            return schreier(ctx, lvl, *paired)
        finally:
            current.pop()
            last[0] = None

    def recorded_mul(ctx, a, b):
        out = mul(ctx, a, b)
        # a batch forms g t(x) for a stack of pairs, then maps the base
        # point by it (a matrix-vector product) and multiplies it by
        # t(g x)^-1; the last takes the first's product as its right factor
        if current and b.shape[-1] == 4 and b is not last[0]:
            formed.setdefault(current[-1], []).append((_keys(ctx, a), current[-1].image_keys(ctx, b)))
            last[0] = out
        return out

    monkeypatch.setattr(matgroup, "_build_orbit", checked_build)
    monkeypatch.setattr(matgroup, "_schreier_generators", tracked_schreier)
    monkeypatch.setattr(matgroup, "mat_mul", recorded_mul)
    return extended, formed


def pair_ids(ctx, lvl, formed):
    n = len(lvl.keys)
    ids = []
    gen_keys = _keys(ctx, np.stack(lvl.gens))
    by_key = np.argsort(gen_keys)
    assert len(sorted_unique(gen_keys)) == len(gen_keys)
    for row_gens, point_keys in formed:
        j = _find(gen_keys[by_key], row_gens)  # each row's generator, by key
        pos = _find(lvl.keys, point_keys)
        assert (j >= 0).all() and (pos >= 0).all()
        ids.append(by_key[j] * n + pos)
    return np.concatenate(ids) if ids else np.zeros(0, dtype=np.int64)


def identity_pair_ids(lvl):
    """The pairs of the final tree that give the identity by construction:
    (edge generator, parent) of each point but the base point, and (g, y)
    with g the inverse of y's edge generator."""
    n, child = len(lvl.keys), np.flatnonzero(lvl.edge >= 0)
    ids = [lvl.edge[child] * n + lvl.parent[child]]
    for j, g in enumerate(lvl.gens):
        undo = [s for s, inv in enumerate(lvl.gen_invs) if np.array_equal(g, inv)]
        ids.append(j * n + child[np.isin(lvl.edge[child], undo)])
    return sorted_unique(np.concatenate(ids))


@pytest.mark.parametrize("name", ["k3-q19", "k6-q19", "k3-q29", "k3-q61", "G0-k6-q59",
                                  "G2-k6-q59"])
def test_each_schreier_pair_is_formed_once(name, monkeypatch):
    # over a whole run, every (generator, point) pair of a level's final
    # orbit is formed exactly once or gives the identity by construction in
    # the final tree, never both; every build keeps the tree it held
    k, q, omit = TREE_CHAINS[name]
    ctx, gens = gens_of(k, *PRIMES[q])
    extended, formed = record_extensions(monkeypatch)
    chain = bsgs_group(ctx, gens[kept(omit)])._chain
    monkeypatch.undo()
    assert extended
    for lvl in chain:
        ids = pair_ids(ctx, lvl, formed.get(lvl, []))
        assert len(sorted_unique(ids)) == len(ids)
        skipped = identity_pair_ids(lvl)
        assert not np.isin(ids, skipped).any()
        assert len(ids) + len(skipped) == len(lvl.gens) * len(lvl.keys)


@pytest.mark.parametrize("name", ["k6-q19", "k3-q29", "k3-q61", "G2-k6-q59"])
def test_a_level_is_extended_once_its_schreier_generators_are_spent(name, monkeypatch):
    # a residue joins only levels below the one it left, and those are
    # complete: every Schreier generator they formed has sifted to the
    # identity through the levels below them. So when a level is extended,
    # its earlier Schreier generators still do, by the same path (old points
    # keep their transversal), and it sifts only those of its new pairs.
    # Every Schreier generator is sifted through the levels below it after
    # it is formed, also the rest of a level's record on a revisit
    k, q, omit = TREE_CHAINS[name]
    ctx, gens = gens_of(k, *PRIMES[q])
    build, schreier, sift = matgroup._build_orbit, matgroup._schreier_generators, matgroup._sift
    formed, pending, chains, extensions = {}, {}, [], []

    def checked_build(ctx, lvl, cap):
        if lvl.built:
            chain = chains[0]
            below = next(l for l, other in enumerate(chain) if other is lvl) + 1
            earlier = _decode(ctx, np.concatenate(formed[lvl]))
            assert (sift(ctx, chain, below, earlier) == identity()).all()
            extensions.append(len(earlier))
        return build(ctx, lvl, cap)

    def recorded_schreier(ctx, lvl, *paired):
        keys = schreier(ctx, lvl, *paired)
        formed.setdefault(lvl, []).append(keys)
        pending.setdefault(lvl, set()).update(keys.tolist())
        return keys

    def recorded_sift(ctx, chain, start, mats):
        chains[:] = [chain]
        if start:
            pending[chain[start - 1]] -= set(_keys(ctx, mats).tolist())
        return sift(ctx, chain, start, mats)

    monkeypatch.setattr(matgroup, "_build_orbit", checked_build)
    monkeypatch.setattr(matgroup, "_schreier_generators", recorded_schreier)
    monkeypatch.setattr(matgroup, "_sift", recorded_sift)
    bsgs_group(ctx, gens[kept(omit)])
    assert extensions and sum(extensions) > 0
    assert not any(pending.values())


def test_cycle_is_extended_by_a_second_generator(monkeypatch):
    # a level first built by cyclic doubling, then extended breadth-first:
    # the Coxeter element r0 r1 r2 r3 makes cycles of 18 points on e1 and of
    # 9 on the line of l1 at q = 19, and r1 joins them. The extended orbit
    # matches a build of both generators from the base point, the returned
    # pairing marks the held cycle, and every build keeps the tree it held
    ctx, gens = gens_of(3, *PRIMES[19])
    r0, r1, r2, r3 = gens
    l1, _ = _isotropic_pair(ctx, _invariant_form(ctx, gens))
    coxeter = mat_mul(ctx, mat_mul(ctx, r0, r1), mat_mul(ctx, r2, r3))
    extended, _ = record_extensions(monkeypatch)
    for point, line in ((identity()[0], False), (l1, True)):
        lvl = matgroup._Level(point, line)
        lvl.gens, lvl.gen_invs = [coxeter], [mat_inv(ctx, coxeter)]
        assert not matgroup._build_orbit(ctx, lvl, cap=1000).any()
        cycle = lvl.keys
        assert len(cycle) == (9 if line else 18)
        lvl.gens.append(r1)
        lvl.gen_invs.append(r1)
        paired = matgroup._build_orbit(ctx, lvl, cap=1000)
        assert lvl.built == 2
        assert np.array_equal(paired, np.where(_find(cycle, lvl.keys) >= 0, 1, 0))
        fresh = matgroup._Level(point, line)
        fresh.gens, fresh.gen_invs = list(lvl.gens), list(lvl.gen_invs)
        assert not matgroup._build_orbit(ctx, fresh, cap=1000).any()
        assert np.array_equal(lvl.keys, fresh.keys)
        assert len(lvl.keys) > len(cycle)
        # an extension is held to the cap by the whole orbit, and one that
        # meets it changes nothing
        lvl.gens.append(r0)
        lvl.gen_invs.append(r0)
        held = lvl.keys
        with pytest.raises(OverCapError):
            matgroup._build_orbit(ctx, lvl, cap=len(held) - 1)
        assert lvl.built == 2 and lvl.keys is held
    assert len(extended) == 2


def reference_build(ctx, lvl, cap):
    """``_build_orbit`` as it was while each step took ``np.unique`` of the
    images' keys, ``_find`` for the fresh ones and ``np.insert`` into the
    held keys, and formed the transversal of the new points at once, in the
    compact dtype, ordered by key at the end."""
    compact = matgroup._compact_dtype(ctx)
    gens, invs = np.stack(lvl.gens), np.stack(lvl.gen_invs)
    old = lvl.built
    if not old:
        lvl.keys = lvl.image_keys(ctx, identity()[None])
        lvl.t = lvl.t_inv = identity()[None]
        lvl.parent = lvl.edge = np.full(1, -1)
    cyclic = not old and len(gens) == 1
    keys, t, t_inv = lvl.keys, lvl.t, lvl.t_inv
    vecs = keys.view(compact).reshape(-1, 4).astype(np.int64)
    steps, step_invs = gens[old:], invs[old:]
    found, ts, t_invs, parents, edges = [keys], [t], [t_inv], [lvl.parent], [lvl.edge]
    while len(vecs):
        imgs = mat_vec(ctx, steps[:, None], vecs[None]).reshape(-1, 4)
        cand, first = np.unique(_point_keys(ctx, lvl.line, imgs), return_index=True)
        fresh = _find(keys, cand) < 0
        cand, first = cand[fresh], first[fresh]
        if len(keys) + len(cand) > cap:
            raise OverCapError(f"orbit exceeds cap {cap}")
        keys = np.insert(keys, np.searchsorted(keys, cand), cand)
        if cyclic:  # the insert takes key order; the tree takes power order
            by_first = np.argsort(first)
            cand, first = cand[by_first], first[by_first]
        s, f = np.divmod(first, len(vecs))  # step element and source of each new point
        new = imgs[first], mat_mul(ctx, steps[s], t[f]), mat_mul(ctx, t_inv[f], step_invs[s])
        found.append(cand)
        ts.append(new[1].astype(compact))
        t_invs.append(new[2].astype(compact))
        # each new point's parent, as an index in found order: breadth-first
        # its source, one of the last len(vecs) points found; by cyclic
        # doubling the point found before it, g^(n+f-1) p before g^(n+f) p
        back = 1 if cyclic else len(vecs)
        parents.append(len(keys) - len(cand) - back + f)
        edges.append(s + len(gens) - len(steps))  # the first step's are the new generators
        if not cyclic:
            vecs, t, t_inv = new
            steps, step_invs = gens, invs
            continue
        if len(cand) < len(vecs):  # p has come round
            break
        vecs, t, t_inv = (np.concatenate(pair) for pair in zip((vecs, t, t_inv), new))
        steps, step_invs = mat_mul(ctx, steps, steps), mat_mul(ctx, step_invs, step_invs)
    order = np.argsort(np.concatenate(found))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    lvl.keys = keys
    lvl.t = np.concatenate(ts)[order].astype(np.int64)
    lvl.t_inv = np.concatenate(t_invs)[order].astype(np.int64)
    lvl.edge = np.concatenate(edges)[order]
    lvl.parent = np.where(lvl.edge >= 0, rank[np.concatenate(parents)[order]], -1)
    lvl.built = len(gens)
    return np.where(order < len(found[0]), old, 0)


@pytest.mark.parametrize("name", TREE_CHAINS)
def test_orbit_builds_match_reference_build(name, monkeypatch):
    # every build of the chain, first or extension, on a deep copy of the
    # level through the reference: the same keys, transversal, tree, built
    # count and pairing, byte for byte, for breadth-first steps, cyclic
    # doubling and in-place extensions alike
    k, q, omit = TREE_CHAINS[name]
    ctx, gens = gens_of(k, *PRIMES[q])
    build, kinds = matgroup._build_orbit, set()

    def checked_build(ctx, lvl, cap):
        kinds.add("extension" if lvl.built else "cyclic" if len(lvl.gens) == 1 else "breadth-first")
        ref = copy.deepcopy(lvl)
        want = reference_build(ctx, ref, cap)
        got = build(ctx, lvl, cap)
        for a, b in [(got, want)] + [(getattr(lvl, f), getattr(ref, f))
                                     for f in ("keys", "t", "t_inv", "parent", "edge")]:
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert lvl.built == ref.built
        return got

    monkeypatch.setattr(matgroup, "_build_orbit", checked_build)
    bsgs_group(ctx, gens[kept(omit)])
    assert kinds == {"breadth-first", "cyclic", "extension"}


def reference_sift(ctx, chain, start, mats):
    """Residues through chain[start:] with a transversal product at every
    level, one-point levels included."""
    work, res, live = mats.copy(), mats.copy(), np.arange(len(mats))
    for lvl in chain[start:]:
        pos = _find(lvl.keys, _point_keys(ctx, lvl.line, mat_vec(ctx, work, lvl.point)))
        out = pos < 0
        res[live[out]] = work[out]
        live, work = live[~out], mat_mul(ctx, lvl.t_inv[pos[~out]], work[~out])
    res[live] = work
    return res


def test_sift_through_one_point_levels_matches_reference():
    # the q = 61, k = 4 chain ends in levels on e2 and e3 of one point each
    # and one on e4 of two; queries that fix e2, or e2 and e3, reach them,
    # and leave at the first of those points they move. A query that moves
    # e2 alone and maps e4 into the last orbit would pick up a product there
    # if it passed the level of e2
    ctx, gens = gens_of(4, *PRIMES[61])
    chain = bsgs_group(ctx, gens)._chain
    assert [len(lvl.keys) for lvl in chain][-3:] == [1, 1, 2]
    start = len(chain) - 3
    words = gens[RNG.integers(0, 4, size=(200, 12))]
    members = words[:, 0]
    for i in range(1, 12):
        members = mat_mul(ctx, members, words[:, i])
    fix_e2 = random_mats(ctx, 200)
    fix_e2[:, :, 1] = identity()[1]
    fix_e23 = fix_e2.copy()
    fix_e23[:, :, 2] = identity()[2]
    move_e2 = random_mats(ctx, 50)
    move_e2[:, :, 2] = identity()[2]
    move_e2[:, :, 3] = chain[-1].t[chain[-1].edge >= 0][0][:, 3]  # e4's other orbit point
    assert not (move_e2[:, :, 1] == identity()[1]).all(axis=1).any()
    queries = np.concatenate([members, random_mats(ctx, 50), fix_e2, fix_e23, move_e2,
                              mat_mul(ctx, members[:50], fix_e2[:50])])
    for s in (0, start):
        res = _sift(ctx, chain, s, queries)
        assert np.array_equal(res, reference_sift(ctx, chain, s, queries))
    levels = range(start, len(chain))

    def moves(lvl, m):
        here, there = lvl.image_keys(ctx, np.stack([identity(), m]))
        return here != there

    first_moved = {next((j for j in levels if moves(chain[j], m)), None)
                   for m in _sift(ctx, chain, start, queries)}
    assert {start, start + 1} <= first_moved


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


def all_vectors(ctx):
    return np.stack(np.meshgrid(*[np.arange(ctx.q)] * 4, indexing="ij"), axis=-1).reshape(-1, 4)


def fixing_count(ctx, small, big):
    """How many elements of small fix every vector that big's generators all
    fix, by brute force: the fixed vectors are found among all q^4 vectors,
    and the elements of small are enumerated."""
    vecs = all_vectors(ctx)
    fixed = vecs[(mat_vec(ctx, big.gens[:, None], vecs[None]) == vecs).all(axis=(0, 2))]
    elems = enumerate_group(ctx, small.gens).elements
    return int((mat_vec(ctx, elems[:, None], fixed[None]) == fixed).all(axis=(1, 2)).sum())


@pytest.mark.parametrize("batch", (8, 64))
@pytest.mark.parametrize("q,listed", ((11, "2"), (19, "0")))
def test_intersect_streams_the_smaller_side(q, listed, batch, monkeypatch):
    # k = 6: at q = 11, |G0| = 1,452 > |G2| = 1,320, so G2 is the listed
    # side; at q = 19, G0 is. A BATCH of 8 leaves two chain levels to index
    # by mixed radix, 64 one. A listed chain hands over only the elements
    # that fix the vectors the other side fixes; an enumerated side all
    ctx, gens = gens_of(6, *PRIMES[q])
    bfs = {o: enumerate_group(ctx, gens[kept(o)]) for o in "02"}
    chains = {o: bsgs_group(ctx, gens[kept(o)]) for o in "02"}
    want = np.intersect1d(bfs["0"]._sorted_keys, bfs["2"]._sorted_keys)
    monkeypatch.setattr(matgroup, "BATCH", batch)
    calls = []
    contains_batch = matgroup.GroupHandle.contains_batch

    def bounded(self, mats):
        assert len(mats) <= batch
        calls.append((self, len(mats)))
        return contains_batch(self, mats)

    monkeypatch.setattr(matgroup.GroupHandle, "contains_batch", bounded)
    for g0, g2 in ((chains["0"], chains["2"]), (bfs["0"], chains["2"]), (chains["0"], bfs["2"])):
        calls.clear()
        meet = g0.intersect(g2)
        assert np.array_equal(meet._sorted_keys, want)
        small, big = (g2, g0) if listed == "2" else (g0, g2)
        assert all(h is big for h, _ in calls)
        handed = sum(n for _, n in calls)
        if small._chain is None:
            assert handed == small.order
        else:
            assert handed == fixing_count(ctx, small, big) < small.order


def fixed_dim(ctx, group):
    return len(_kernel(ctx, ctx.sub(group.gens, identity()).reshape(-1, 4), 4))


@pytest.mark.parametrize("q", (4, 9, 11, 19, 29))
@pytest.mark.parametrize("k", (3, 4, 5, 6))
def test_intersect_matches_bfs_oracle(k, q):
    # the meet of each check's pair, each side a chain or a closure, has
    # the keys common to the two closures. Also: G0 against the full group,
    # which at odd q fixes no vector (at q = 4 it can fix a plane), and <r3>
    # and <r1> against <r1>, which fixes a space of dimension 3
    ctx, gens = gens_of(k, *PRIMES[q])
    omits = {o for pair in _CHECKS for o in pair} | {"012", "023"}
    bfs = {o: enumerate_group(ctx, gens[kept(o)]) for o in omits}
    chains = {o: bsgs_group(ctx, gens[kept(o)]) for o in omits}
    for i, j in (*_CHECKS, ("012", "023"), ("023", "023")):
        want = np.intersect1d(bfs[i]._sorted_keys, bfs[j]._sorted_keys)
        for a, b in itertools.product((bfs[i], chains[i]), (bfs[j], chains[j])):
            assert np.array_equal(a.intersect(b)._sorted_keys, want)
    assert fixed_dim(ctx, bfs["023"]) == 3
    full = bsgs_group(ctx, gens)
    assert fixed_dim(ctx, full) == 0 or q == 4
    assert np.array_equal(chains["0"].intersect(full)._sorted_keys, bfs["0"]._sorted_keys)


def test_chain_listing_honors_cap(monkeypatch):
    # G0 at k = 6, 3+t: its orbits of 121, 6 and 2 points fit a cap of 200,
    # but its 1,452 elements do not, so listing it raises before any product
    ctx, gens = gens_of(6, 3, 1)
    g0 = bsgs_group(ctx, gens[kept("0")], cap=200)
    full = bsgs_group(ctx, gens)
    products = []

    def counted(*args):
        products.append(args)
        return mat_mul(*args)

    monkeypatch.setattr(matgroup, "mat_mul", counted)
    with pytest.raises(OverCapError, match="closure exceeds cap 200"):
        g0.intersect(full)
    assert not products
    # G0 & G3 lists H3, the smaller side, within its cap: the meet is G03
    g3 = enumerate_group(ctx, gens[kept("3")])
    assert g3.intersect(g0).order == enumerate_group(ctx, gens[kept("03")]).order


def test_same_group_detects_difference():
    ctx, gens = gens_of(4, -1, 2)
    a = enumerate_group(ctx, gens[[0, 1]])
    b = enumerate_group(ctx, gens[[1, 2]])
    assert not a.same_group(b)
    assert a.same_group(enumerate_group(ctx, gens[[1, 0]]))


def test_same_group_makes_one_membership_call(monkeypatch):
    # G0 at k = 6, 3+t: an intersection handle lists every element as a
    # generator, so one call per generator would make 1,452 of them
    ctx, gens = gens_of(6, 3, 1)
    g = enumerate_group(ctx, gens[kept("0")])
    assert g.order == 1452
    meet = g.intersect(g)
    calls = []
    contains_batch = matgroup.GroupHandle.contains_batch

    def counted(self, mats):
        calls.append(len(mats))
        return contains_batch(self, mats)

    monkeypatch.setattr(matgroup.GroupHandle, "contains_batch", counted)
    assert meet.same_group(g)
    assert calls == [1452]
    # equal orders, different groups: the membership test decides
    a, b = enumerate_group(ctx, gens[[0, 2]]), enumerate_group(ctx, gens[[0, 3]])
    assert a.order == b.order == 4
    assert not a.same_group(b)
