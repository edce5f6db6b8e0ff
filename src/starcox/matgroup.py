"""4x4 matrix algebra over F_q and finite matrix-group machinery: breadth-first
enumeration, deterministic Schreier-Sims, membership, and intersection.

Matrices are numpy arrays of packed field codes (see field.FieldCtx). Batch
kernels stay in int64. One key scheme serves everything: a key holds a whole
matrix or vector, as one unsigned integer where it fits a machine word and
as a void-dtype view of its compact entries where it does not (``_keys``). A
set is a sorted key array, deduplicated by sorting and comparing neighbours
(``sorted_unique``) and searched by ``_find``. An enumerated group is stored
once, as the sorted keys of its elements, so the keys serve BFS
deduplication, membership and intersection alike, and ``elements`` decodes
them on access. A BFS layer takes the keys of x g for every key x and
generator g from ``_successors``: at q <= 16 by a table per generator from
row codes to row codes, built once per field on first use and kept on the
``FieldCtx`` (at most 2 q^4 bytes per generator), so it never decodes a
matrix, and above q = 16 by decoded products. At q <= 16 keys decode
through one digit table per field, kept beside the row tables. The BFS is a
frontier search: it also multiplies by the inverses of generators that are
not involutions, so its Cayley graph is undirected, a layer's candidates can
only meet the two layers before them, and the store is sorted once, at the
end. At odd q, where every generator has determinant -1 (reflections), the
layers alternate in determinant, so a layer's candidates can only meet the
layer before last, and are checked against it alone. A Schreier-Sims level
acts on vectors or on lines, a line keyed by its vector scaled so that its
first nonzero entry is one (its leading entry inverted through a table of
the inverses of all q codes, kept in the field's tables wherever vector
keys are integers), and stores its orbit as the sorted keys of its points,
with the transversal as stacked arrays in the same order. One method
(``_Level.image_keys``) applies that action to the base point, for the sift,
the Schreier generators and the joining rule alike. One orbit loop builds
every level, and extends a level's orbit in place when strong generators
join it, with two step rules: breadth-first layers, the first by the new
generators from every point held, and cyclic doubling of the cycle that one
generator makes. A step merges the keys of its images into the held keys
by one stable argsort and keeps the first of each run of equal keys, so a
new point is the first image of its key. Either way the transversal is a
Schreier tree, and each step records the parent and edge generator of each
point it finds, in the one order the points were found, while the points
held keep theirs; the search forms no transversal, and the steps are
replayed in order once it ends, straight into key order. One batched sift
serves membership and the Schreier generators alike, and one
rule (``_add_generator``) decides which levels a new strong generator joins:
every level from where it enters up to the first base point it moves. The
chain's base is drawn from the root span W, the sum of the images of g - I,
which the generators map to itself: it opens with isotropic lines of the
symmetric form that the generators preserve on W, derived from the
generators themselves, where W has dimension 3 or 4 and there is a single
nondegenerate one, and with a proper W's basis vectors otherwise.
Schreier-Sims is incremental: a level forms the Schreier generator of each
pair of a generator and an orbit point once, when the pair is new, without
the pairs that give the identity by construction (tree edges and their
reverses), BATCH pairs at a time whichever generators they take, and a
revisit sifts only those after the one whose residue was last added. A
sift passes a level of one point by its key test alone.
An intersection lists the side of smaller order, from either backend, BATCH
elements at a time (slices of an enumerated group's keys, or products of a
chain's transversals), and keeps those the other side contains; a listed
chain yields only the elements that fix the vectors the other side's
generators all fix, found by a meet-in-the-middle join of its heads and
tails on their images of those vectors, and listing a chain is bounded by
the cap it was built with. ``mat_pow`` takes powers by square-and-multiply.
"""

from __future__ import annotations

import math

import numpy as np

from .field import FieldCtx

DEFAULT_CAP = 2_500_000
# matrices per chunk where a call would otherwise scale with the group: the
# products of closure layers above q = 16, the elements an intersection
# lists, ``contains_batch`` and ``_schreier_generators``. Orbit steps and
# level sifts are not chunked; they scale with an orbit, so the orbit cap
# bounds them
BATCH = 1 << 13


class OverCapError(RuntimeError):
    """A closure or power computation exceeded its cap."""


class SingularMatrixError(ValueError):
    """Inversion of a singular matrix was requested."""


def identity() -> np.ndarray:
    return np.eye(4, dtype=np.int64)


def is_identity(m: np.ndarray) -> bool:
    return bool(np.array_equal(m, identity()))


def mat_mul(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over F_q; broadcasts over leading batch dimensions."""
    return ctx.mul(a, b, np.matmul)


def mat_vec(ctx: FieldCtx, m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply to column vectors; m is (..., 4, 4), v is (..., 4)."""
    return mat_mul(ctx, m, v[..., None])[..., 0]


def _row_reduce(ctx: FieldCtx, rows: np.ndarray, ncols: int) -> tuple[np.ndarray, list[int]]:
    """Gauss-Jordan elimination over F_q on the first ncols columns of a
    stack of rows: the reduced row echelon form and its pivot columns."""
    rows = np.array(rows, dtype=np.int64)
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        nonzero = np.flatnonzero(rows[r:, col])
        if not len(nonzero):
            continue
        piv = r + int(nonzero[0])
        rows[[r, piv]] = rows[[piv, r]]
        rows[r] = ctx.mul(ctx.inv(int(rows[r, col])), rows[r])
        factors = rows[:, col].copy()
        factors[r] = 0
        rows = ctx.sub(rows, ctx.mul(factors[:, None], rows[r]))
        pivots.append(col)
    return rows, pivots


def _kernel(ctx: FieldCtx, rows: np.ndarray, ncols: int) -> np.ndarray:
    """A basis of the vectors x with rows @ x = 0 over F_q, one row per free
    column of the reduced echelon form: one there, zero at the other free
    columns."""
    rows, pivots = _row_reduce(ctx, rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = ctx.neg(rows[: len(pivots), free]).T
    return basis


def mat_inv(ctx: FieldCtx, m: np.ndarray) -> np.ndarray:
    """Gauss-Jordan inverse of a single 4x4 matrix."""
    rows, pivots = _row_reduce(ctx, np.concatenate([m, identity()], axis=1), 4)
    if len(pivots) < 4:
        raise SingularMatrixError("matrix is singular over F_q")
    return rows[:, 4:]


def _det(ctx: FieldCtx, mats: np.ndarray) -> np.ndarray:
    """Determinants of a stack of 4x4 matrices, by Laplace expansion along
    rows 0-1: the sum of m_ij n_kl over the even permutations (i, j, k, l)
    of 0..3 with i < j, where m_ij = a_i b_j - a_j b_i is the 2x2 minor of
    rows 0-1 (a and b) on columns i and j, and n_kl that of rows 2-3. The
    six terms are summed by one 1x6 by 6x1 product, whose intermediates
    stay below 6 q^2 < 2^63 at every q < ``field.Q_LIMIT``."""
    prod = ctx.mul(mats[:, ::2, :, None], mats[:, 1::2, None, :])  # a_i b_j and c_k d_l
    minors = ctx.sub(prod, np.swapaxes(prod, 2, 3)).reshape(-1, 2, 16)  # minor ij at 4 i + j
    # (i, j, k, l) = 0123, 0231, 0312, 1203, 1320, 2301
    ij, kl = (1, 2, 3, 6, 7, 11), (11, 13, 6, 3, 8, 1)
    return ctx.mul(minors[:, :1, ij], minors[:, 1, kl, None], np.matmul)[:, 0, 0]


def element_order(ctx: FieldCtx, m: np.ndarray, cap: int = 10_000) -> int:
    """Smallest n >= 1 with m^n = I."""
    ident = identity()
    p = m
    for n in range(1, cap + 1):
        if np.array_equal(p, ident):
            return n
        p = mat_mul(ctx, p, m)
    raise OverCapError(f"element order exceeds {cap}")


def mat_pow(ctx: FieldCtx, m: np.ndarray, n: int) -> np.ndarray:
    """m^n, n >= 0, by square-and-multiply: at most 2 log2 n products.
    Broadcasts over a stack of matrices."""
    out, base = np.broadcast_to(identity(), m.shape).copy(), m
    while n:
        if n & 1:
            out = mat_mul(ctx, out, base)
        n >>= 1
        if n:
            base = mat_mul(ctx, base, base)
    return out


def _compact_dtype(ctx: FieldCtx) -> np.dtype:
    if ctx.q <= 0xFF:
        return np.dtype(np.uint8)
    if ctx.q <= 0xFFFF:
        return np.dtype(np.uint16)
    return np.dtype(np.uint32)


# a key of 4 or 8 bytes is held as one integer; a wider one stays void
_WORDS = {4: np.dtype(np.uint32), 8: np.dtype(np.uint64)}
# up to this q a row of four codes has a uint16 base-q code (q^4 <= 2^16), so
# a matrix key packs its four rows into one uint64
_ROW_Q = 16


def _keys(ctx: FieldCtx, arrs: np.ndarray, width: int = 16) -> np.ndarray:
    """Keys of a stack of matrices (width 16) or vectors (width 4); a key
    holds its whole matrix or vector. A key that fits a machine word is an
    unsigned integer: a matrix at q <= 16 is its four base-q row codes, row 0
    lowest, viewed as one uint64, and a vector is its compact entries viewed
    as uint32 (q <= 255) or uint64 (q <= 65,535). A wider key is a void-dtype
    view of the compact entries. Either way a matrix key is a mixed-radix
    number whose last entry is most significant."""
    if width == 16 and ctx.q <= _ROW_Q:
        compact = _pack_rows(ctx.q, arrs.reshape(-1, 4, 4))
    else:
        compact = np.ascontiguousarray(arrs.reshape(-1, width).astype(_compact_dtype(ctx)))
    nbytes = compact.shape[1] * compact.itemsize
    return compact.view(_WORDS.get(nbytes, f"V{nbytes}")).ravel()


def _pack_rows(q: int, rows: np.ndarray) -> np.ndarray:
    """The uint16 base-q codes c0 + q c1 + q^2 c2 + q^3 c3 of rows of four
    codes below q <= 16, along the last axis."""
    return (rows @ q ** np.arange(4)).astype(np.uint16)


def _digits(ctx: FieldCtx) -> np.ndarray:
    """The four codes of every base-q row code at q <= 16, a (q^4, 4) uint8
    table, built on first use and kept in ``ctx.tables``: 4 q^4 bytes."""
    if "digits" not in ctx.tables:
        rows = np.arange(ctx.q**4, dtype=np.uint16)[:, None]
        ctx.tables["digits"] = (rows // ctx.q ** np.arange(4) % ctx.q).astype(np.uint8)
    return ctx.tables["digits"]


def _decode(ctx: FieldCtx, keys: np.ndarray) -> np.ndarray:
    """The int64 matrices held by keys, in key order."""
    if ctx.q <= _ROW_Q:
        return np.take(_digits(ctx), keys.view(np.uint16), axis=0).reshape(-1, 4, 4).astype(np.int64)
    return keys.view(_compact_dtype(ctx)).reshape(-1, 4, 4).astype(np.int64)


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-D array, sorted. Unlike ``np.unique``,
    which puts an integer array through a hash table, this sorts and
    compares neighbours, which is faster on keys. The distinct keys are
    gathered by ``compress``, 3 to 5 times faster than a boolean-mask index
    on numpy 2.4."""
    keys = np.sort(keys)
    return keys.compress(_run_starts(keys))


def _run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """A mask of the first entry of each run of equal entries of a sorted array."""
    first = np.empty(len(sorted_keys), dtype=bool)
    first[:1] = True
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return first


def _find(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Positions of keys in sorted_keys, -1 where a key is absent."""
    pos = np.searchsorted(sorted_keys, keys)
    np.minimum(pos, len(sorted_keys) - 1, out=pos)
    return np.where(sorted_keys[pos] == keys, pos, -1)


def _missing(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """The keys absent from sorted_keys, both sorted and distinct. In
    sorted_keys twice over plus keys, a key of sorted_keys comes up at least
    twice and an absent one once; a stable sort merges the three runs."""
    merged = np.concatenate([sorted_keys, sorted_keys, keys])
    merged.sort(kind="stable")
    once = np.ones(len(merged) + 1, dtype=bool)
    once[1:-1] = merged[1:] != merged[:-1]
    return merged.compress(once[:-1] & once[1:])


def _dedup(ctx: FieldCtx, mats: np.ndarray) -> np.ndarray:
    return _decode(ctx, sorted_unique(_keys(ctx, mats)))


def _successors(ctx: FieldCtx, gens: np.ndarray):
    """The map from matrix keys to the keys of x g for every key x and every
    generator g, shape (len(gens), len(keys)). At q <= 16 a key is four
    base-q row codes and row i of x g is (row i of x) g, so one table per
    generator takes row codes to row codes ("Four Russians"; Albrecht, Bard
    and Hart, ACM TOMS 37 (2010)). A table is built by one product over all
    q^4 rows the first time a closure in the field uses its generator, and
    kept in ``ctx.tables`` under the generator's key: 2 q^4 bytes, at most
    128 KiB. Above q = 16 keys are decoded and multiplied BATCH products at
    a time."""
    if ctx.q > _ROW_Q:
        step = max(1, BATCH // max(1, len(gens)))

        def apply(keys: np.ndarray) -> np.ndarray:
            chunks = [keys[i : i + step] for i in range(0, len(keys), step)]
            return np.concatenate([
                _keys(ctx, mat_mul(ctx, _decode(ctx, c), gens[:, None])).reshape(-1, len(c))
                for c in chunks
            ], axis=1)

        return apply

    table = np.empty((len(gens), ctx.q**4), dtype=np.uint16)
    for i, (g, key) in enumerate(zip(gens, _keys(ctx, gens).tolist())):
        if key not in ctx.tables:
            ctx.tables[key] = _pack_rows(ctx.q, mat_mul(ctx, _digits(ctx).astype(np.int64), g))
        table[i] = ctx.tables[key]

    def apply(keys: np.ndarray) -> np.ndarray:
        return np.take(table, keys.view(np.uint16), axis=1).view(np.uint64)

    return apply


class GroupHandle:
    """A finite matrix group: enumerated when it holds the sorted keys of its
    elements, else a BSGS chain; the order is the number of keys, or the
    product of the chain's orbit sizes. cap is the cap the group was built
    with, and it also bounds the elements that may be listed from a chain."""

    def __init__(
        self,
        ctx: FieldCtx,
        gens: np.ndarray,
        cap: int,
        keys: np.ndarray | None = None,
        chain: list[_Level] | None = None,
    ):
        self.ctx = ctx
        self.gens = gens
        self.cap = cap
        self._sorted_keys = keys
        self._chain = chain
        self.order = len(keys) if keys is not None else math.prod(len(lvl.keys) for lvl in chain)

    @property
    def elements(self) -> np.ndarray:
        """Every element as an int64 matrix, in key order; decoded on each access."""
        if self._sorted_keys is None:
            raise ValueError("group is not enumerated")
        return _decode(self.ctx, self._sorted_keys)

    def _batches(self, fixed: np.ndarray | None):
        """Every element once, as int64 matrices, at most BATCH at a time. An
        enumerated group decodes slices of its keys. A chain lists the
        products t_0[i_0] t_1[i_1] ... of its transversals, skipping levels
        of one point: the products of the lower levels are formed once,
        while they fit in BATCH, and the upper levels are indexed by mixed
        radix, BATCH // len(tail) at a time; where every level fits in the
        tail, the one head is the identity. A chain lists only the elements
        x = head tail with x fixed = fixed, fixed a 4 x d matrix, by a
        meet-in-the-middle join, as in Shanks' baby-step giant-step: x fixes
        fixed exactly when tail fixed = head^-1 fixed. The keys of tail
        fixed are sorted once. A head's key is head^-1 fixed, head^-1 being
        the product of its levels' t_inv in reverse order, and its
        searchsorted range of equal tail keys, which can repeat, gives its
        pairs. Only matched pairs are multiplied out, so a listing costs
        about len(tail) + heads products plus one per element listed, not
        one per pair. At d = 0 fixed is taken as the zero vector, which
        every pair matches. An enumerated group ignores fixed. Listing a
        group whose order exceeds its cap raises OverCapError before any
        product."""
        if self.order > self.cap:
            raise OverCapError(f"closure exceeds cap {self.cap}")
        ctx = self.ctx
        if self._sorted_keys is not None:
            for i in range(0, self.order, BATCH):
                yield _decode(ctx, self._sorted_keys[i : i + BATCH])
            return
        levels = [(lvl.t, lvl.t_inv) for lvl in self._chain if len(lvl.t) > 1]
        tail = identity()[None]
        while levels and len(tail) * len(levels[-1][0]) <= BATCH:
            tail = mat_mul(ctx, levels.pop()[0][:, None], tail[None]).reshape(-1, 4, 4)
        if not fixed.shape[1]:
            fixed = np.zeros((4, 1), dtype=np.int64)
        tail_keys = _keys(ctx, mat_mul(ctx, tail, fixed), fixed.size)
        by_key = tail_keys.argsort(kind="stable")
        tail_keys = tail_keys[by_key]
        levels = levels or [(identity()[None],) * 2]
        radix = [len(t) for t, _ in levels]
        step, heads = BATCH // len(tail), math.prod(radix)
        for start in range(0, heads, step):
            digits = np.unravel_index(np.arange(start, min(start + step, heads)), radix)
            moved = fixed
            for (_, t_inv), d in zip(levels, digits):
                moved = mat_mul(ctx, t_inv[d], moved)
            keys = _keys(ctx, moved, fixed.size)
            lo = np.searchsorted(tail_keys, keys)
            runs = np.searchsorted(tail_keys, keys, side="right") - lo
            h = np.repeat(np.arange(len(keys)), runs)
            # the pairs of head i take tail positions lo[i], ..., lo[i] + runs[i] - 1
            t = by_key[np.arange(len(h)) + np.repeat(lo - np.cumsum(runs) + runs, runs)]
            x = levels[0][0][digits[0][h]]  # t_0[i_0] of each matched head
            for (t_lvl, _), d in zip(levels[1:], digits[1:]):
                x = mat_mul(ctx, x, t_lvl[d[h]])
            yield mat_mul(ctx, x, tail[t])

    def contains_batch(self, mats: np.ndarray) -> np.ndarray:
        """Vectorized membership for a stack of matrices. On a chain a matrix
        is a member when its residue is the identity: one whose image leaves
        an orbit keeps a residue that moves that level's base point. Matrices
        are sifted BATCH at a time."""
        if self._sorted_keys is not None:
            return _find(self._sorted_keys, _keys(self.ctx, mats)) >= 0
        assert self._chain is not None
        ident = identity()
        out = np.empty(len(mats), dtype=bool)
        for i in range(0, len(mats), BATCH):
            res = _sift(self.ctx, self._chain, 0, mats[i : i + BATCH])
            out[i : i + BATCH] = (res == ident).all(axis=(1, 2))
        return out

    def intersect(self, other: GroupHandle) -> GroupHandle:
        """Intersection, enumerated. The side of smaller order (self on a
        tie), whichever backend holds it, is listed BATCH elements at a time
        (``_batches``), and the meet is the sorted keys of the listed
        elements that the other side contains. Every element of the other
        side fixes the vectors its generators all fix, so a listed chain
        yields only the elements that fix that space, every element when it
        is zero (Holt, Eick and O'Brien, *Handbook of Computational Group
        Theory*, 2005, ch. 4, prune by a property the other group keeps),
        found by joining its heads and tails on their images of the space
        rather than by testing every pair. An enumerated listed side is
        decoded whole: listing it forms no product."""
        ctx = self.ctx
        small, big = (other, self) if other.order < self.order else (self, other)
        fixed = None
        if small._chain is not None:
            fixed = _kernel(ctx, ctx.sub(big.gens, identity()).reshape(-1, 4), 4).T
        keys = [_keys(ctx, m[big.contains_batch(m)]) for m in small._batches(fixed)]
        meet = np.sort(np.concatenate(keys))
        return GroupHandle(ctx, _decode(ctx, meet), small.cap, meet)

    def same_group(self, other: GroupHandle) -> bool:
        """Equal orders and self's generators in other: then self lies in
        other, and a subgroup of equal order is the whole group."""
        return self.order == other.order and bool(other.contains_batch(self.gens).all())


def enumerate_group(ctx: FieldCtx, gens, cap: int = DEFAULT_CAP) -> GroupHandle:
    """Breadth-first closure of invertible generators under multiplication, by
    frontier search (Korf, Zhang, Thayer and Hohwald, J. ACM 52 (2005)).

    The search multiplies by the generators and by the inverses of those
    that are not involutions, so its Cayley graph is undirected: the
    distances from the identity of two neighbours differ by at most one, and
    every neighbour of layer n lies in layer n - 1, n or n + 1. So a
    candidate of layer n + 1 is fresh unless it lies in layer n - 1 or n, and
    it is checked against those two layers alone (``_missing``), never
    against the whole store. Where q is odd and every generator has
    determinant -1, as reflections do, the layers alternate in determinant:
    det is a homomorphism, so an element at distance n has det (-1)^n
    (Humphreys, Reflection Groups and Coxeter Groups, CUP 1990, section
    5.2), the inverses added have det -1 too, and -1 != 1 at odd q. Then a
    candidate of layer n + 1 cannot lie in layer n, and it is checked
    against layer n - 1 alone. The layers are collected, and the store is
    concatenated and sorted once, at the end. The cap bounds the running
    total of elements."""
    gens = _dedup(ctx, np.asarray(gens, dtype=np.int64).reshape(-1, 4, 4))
    alternating = ctx.q % 2 == 1 and bool((_det(ctx, gens) == ctx.neg(1)).all())
    squares_to_one = (mat_mul(ctx, gens, gens) == identity()).all(axis=(1, 2))
    invs = np.array([mat_inv(ctx, g) for g in gens[~squares_to_one]], dtype=np.int64)
    times_gens = _successors(ctx, np.concatenate([gens, invs.reshape(-1, 4, 4)]))
    frontier = _keys(ctx, identity()[None])
    layers, total = [frontier[:0], frontier], 1  # layer -1 is empty
    while len(frontier):
        frontier = sorted_unique(times_gens(frontier).ravel())
        for layer in layers[-2:-1] if alternating else layers[-2:]:
            frontier = _missing(frontier, layer)
        total += len(frontier)
        if total > cap:
            raise OverCapError(f"closure exceeds cap {cap}")
        layers.append(frontier)
    store = np.concatenate(layers)
    store.sort()
    return GroupHandle(ctx, gens, cap, store)


def _invariant_form(ctx: FieldCtx, gens: np.ndarray) -> np.ndarray | None:
    """The symmetric form B with g^T B g = B for every generator, found by
    solving for the d(d + 1)/2 entries of B on and above the diagonal, d the
    size of the generators. None unless those forms make a one-dimensional
    space whose B is nondegenerate."""
    d = gens.shape[-1]
    iu, ju = np.triu_indices(d)
    n = len(iu)  # the unknowns: entry (iu[u], ju[u]) of B
    basis = np.zeros((n, d, d), dtype=np.int64)
    basis[np.arange(n), iu, ju] = basis[np.arange(n), ju, iu] = 1
    # the equation of generator g and entry (a, b), a <= b, has coefficient
    # (g^T E_u g - E_u)[a, b] at unknown u, E_u the form with B_u = 1
    image = mat_mul(ctx, mat_mul(ctx, np.swapaxes(gens, 1, 2)[:, None], basis), gens[:, None])
    coeffs = ctx.sub(image, basis)[..., iu, ju]  # (generator, unknown, equation)
    solutions = _kernel(ctx, coeffs.transpose(0, 2, 1).reshape(-1, n), n)
    if len(solutions) != 1:
        return None
    form = np.zeros((d, d), dtype=np.int64)
    form[iu, ju] = form[ju, iu] = solutions[0]
    return form if len(_row_reduce(ctx, form, d)[1]) == d else None


def _lines(ctx: FieldCtx, vecs: np.ndarray) -> np.ndarray:
    """Each vector scaled so that its first nonzero entry is one; a zero
    vector stays zero. Where q <= 65,535, as vector keys are integers, the
    leading entries are inverted through a table of the inverses of all q
    codes (0 for code 0), made by one ``pow_`` when the field first needs
    it and kept in ``ctx.tables``: 8 q bytes, at most 512 KiB. Above that,
    by ``pow_`` itself."""
    flat = vecs.reshape(-1, vecs.shape[-1])
    lead = flat[np.arange(len(flat)), np.argmax(flat != 0, axis=1)]
    if ctx.q > 0xFFFF:
        inv = ctx.pow_(lead, ctx.q - 2)
    else:
        if "inverses" not in ctx.tables:
            ctx.tables["inverses"] = ctx.pow_(np.arange(ctx.q), ctx.q - 2)
        inv = ctx.tables["inverses"][lead]
    return ctx.mul(flat, inv[:, None]).reshape(vecs.shape)


def _isotropic_pair(ctx: FieldCtx, form: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two isotropic points l1, l2 of a nondegenerate symmetric form B on
    F_q^d, q odd and d >= 3, with B(l1, l2) != 0, each scaled so that its
    first nonzero entry is one.

    l1: Gram-Schmidt on the standard basis yields orthogonal f1, f2, f3 with
    d_i = B(f_i, f_i) != 0, unless it meets an isotropic vector first, which
    is then l1. Else l1 = x f1 + y f2 + f3 for the first code x for which
    y^2 = -(d1 x^2 + d3) / d2 has a root y, taken by one square root: the
    conic d1 x^2 + d2 y^2 + d3 = 0 has at least q - 1 points, so about half
    of all x have one. l2 = w - B(w, w) / (2 B(l1, w)) l1 for the first
    basis vector w with B(l1, w) != 0.
    """

    def bil(x, y):
        return int(ctx.mul(x, mat_vec(ctx, form, y), np.matmul))

    def over(u, v):
        return ctx.mul(u, ctx.inv(v))

    def isotropic_vector() -> np.ndarray:
        frame, diag = list(unit), []  # frame spans the complement of the f_i
        while True:
            norms = [bil(w, w) for w in frame]
            if 0 in norms:
                return frame[norms.index(0)]
            if len(diag) == 2:
                break
            f = frame.pop(0)
            diag.append((f, norms[0]))
            frame = [ctx.sub(w, ctx.mul(over(bil(w, f), norms[0]), f)) for w in frame]
        (f1, d1), (f2, d2), f3, d3 = *diag, frame[0], norms[0]
        for x in range(ctx.q):
            y = ctx.sqrt(ctx.neg(over(ctx.add(ctx.mul(d1, ctx.mul(x, x)), d3), d2)))
            if y is not None:
                return ctx.add(ctx.add(ctx.mul(x, f1), ctx.mul(y, f2)), f3)
        raise AssertionError("a nondegenerate ternary form over F_q is isotropic")

    unit = np.eye(len(form), dtype=np.int64)
    l1 = isotropic_vector()
    bl1 = [int(x) for x in mat_vec(ctx, form, l1)]
    j = next(j for j, x in enumerate(bl1) if x)
    l2 = ctx.sub(unit[j], ctx.mul(over(int(form[j, j]), ctx.add(bl1[j], bl1[j])), l1))
    return _lines(ctx, l1), _lines(ctx, l2)


class _Level:
    """One stabilizer level: a base point with its action, the generators that
    fix every earlier base point, and the orbit of the point. A vector level
    acts on the point as a vector; a line level acts on the line it spans,
    each line keyed by its vector scaled so that its first nonzero entry is
    one (``_point_keys``). ``image_keys`` is the one place the action is
    applied to the base point: the sift, the Schreier generators and the
    joining rule all look up the images of the point through it. The orbit
    is the sorted array of the keys of its points; ``t`` and ``t_inv`` are
    stacked arrays in key order, so ``t[i]`` maps the point to a vector of
    key ``keys[i]``. The transversal is a Schreier tree: ``t[i]`` is
    ``gens[edge[i]] @ t[parent[i]]``, in key order, except at the base
    point, whose parent and edge are -1. ``keys``, ``t``, ``t_inv``,
    ``parent`` and ``edge`` are set by ``_build_orbit``, which records the
    tree the same way under both of its step rules, and ``built`` is how
    many of ``gens`` the orbit is closed under, 0 before the first build.
    ``gens`` grow only through ``_add_generator``; the next build extends
    the orbit by those past ``built``, and a point once in the orbit keeps
    its ``t``, ``t_inv``, ``parent`` and ``edge`` (though not its index)."""

    __slots__ = ("point", "line", "gens", "gen_invs", "built", "keys", "t", "t_inv", "parent",
                 "edge")

    def __init__(self, point: np.ndarray, line: bool):
        self.point = point
        self.line = line
        self.gens: list[np.ndarray] = []
        self.gen_invs: list[np.ndarray] = []
        self.built = 0

    def image_keys(self, ctx: FieldCtx, mats: np.ndarray) -> np.ndarray:
        """Keys of the images of the base point under a stack of matrices."""
        return _point_keys(ctx, self.line, mat_vec(ctx, mats, self.point))


def _point_keys(ctx: FieldCtx, line: bool, vecs: np.ndarray) -> np.ndarray:
    """Keys of a stack of vectors acted on as vectors, or as the lines they span."""
    return _keys(ctx, _lines(ctx, vecs) if line else vecs, 4)


def _base_candidates(ctx: FieldCtx, gens: np.ndarray) -> list[tuple[np.ndarray, bool]]:
    """The base points a chain draws from, in order, read off the root span
    W, the sum of the images im(g - I), which every generator maps into
    itself. Over a field of odd order, where W has dimension at least 3 and
    the generators preserve a single nondegenerate symmetric form B on W, up
    to scalars, two isotropic points l1 and l2 of W with B(l1, l2) != 0 give
    l1 as a line, l2 as a line and l1 as a vector. Otherwise a proper W's
    basis vectors, in reduced echelon form, open the sequence as vectors.
    The standard basis vectors always follow, so that only the identity
    fixes every candidate. Each is a pair (point, line).

    No form on F_q^4 is solved apart from W's: where W is proper, every
    linear form phi that vanishes on W has phi g = phi, so phi (x) phi is an
    invariant form, and a single one is degenerate. So a single
    nondegenerate form on F_q^4 is found only where W = F_q^4, whose
    reduced basis is the identity."""
    basis = [(e, False) for e in identity()]
    if ctx.q % 2 == 0:  # the isotropic search divides by 2
        return basis
    rows, pivots = _row_reduce(ctx, np.swapaxes(ctx.sub(gens, identity()), 1, 2).reshape(-1, 4), 4)
    span = rows[: len(pivots)]
    form = None
    if len(span) >= 3:  # the isotropic search needs three dimensions
        # a vector of W has its coordinates at the pivots, so g acts on W by
        # the pivot rows of g span^T, which is g itself where W = F_q^4
        form = _invariant_form(ctx, mat_mul(ctx, gens, span.T)[:, pivots])
    if form is None:
        return basis if len(span) == 4 else [(v, False) for v in span] + basis
    l1, l2 = (_lines(ctx, ctx.mul(l, span, np.matmul)) for l in _isotropic_pair(ctx, form))
    return [(l1, True), (l2, True), (l1, False), *basis]


def _build_orbit(ctx: FieldCtx, lvl: _Level, cap: int) -> np.ndarray:
    """Extend the orbit the level holds, with its transversal, by the
    generators added since its last build, raising OverCapError past cap
    points; a level never built holds the orbit {p} of its base point p.
    Return, in key order, how many generators each point has been paired
    with: the old count for a point held before, zero for a new one (see
    ``_schreier_generators``). Each step maps source points by step elements
    and keeps the images not seen before. One stable argsort of the held
    keys followed by the images' keys merges them, and the first key of each
    run of equal ones is kept: a held point's own, else the first image of
    that key, as the new point. The held points are read from their keys,
    which decode as vectors.

    Breadth-first, the first step maps every held point by the new
    generators, and each later step maps the points the last step found by
    all the generators: the held orbit is closed under the old ones, so
    every point is then mapped by every generator (Holt, Eick and O'Brien,
    *Handbook of Computational Group Theory*, 2005, 4.4). A first build with
    one generator g makes a cycle, built by cyclic doubling: the sources are
    all n points g^i p found so far and the one step element is g^n, squared
    after each step, so t and t_inv are g^i and (g^-1)^i, as breadth-first
    search assigns them. The first image seen before is p itself (were
    g^L p = g^j p with 0 < j < L, then g^(L-j) p = p would have come round
    first), so the fresh images of a step are a prefix of its images, and
    the cycle is closed at the first step that meets one.

    The transversal is a Schreier tree (Seress, *Permutation Group
    Algorithms*, CUP 2003, 4.1): t of each point but p is g t of its
    parent, g the generator on its edge. A held point keeps its t, t_inv,
    parent and edge. Each step records, for each new point in the order
    found, its parent's index in that order and the generator on its edge.
    Breadth-first, the parent is the source and the edge the step element.
    By cyclic doubling a step takes its new points in the order first
    reached, g^n p, g^(n+1) p, ..., so the points are found in power order
    and the parent of each is the point found before it, by the one
    generator.

    The search forms no transversal: a step records its step elements and,
    for each new point, its step element and source. Once the search ends,
    one argsort of the keys in the order found gives each point's place in
    key order, and the steps are replayed in order straight into one int64
    array each for t and t_inv: t of a new point is its step element times
    t of its source, and t_inv is the source's t_inv times the step
    element's inverse."""
    gens, invs = np.stack(lvl.gens), np.stack(lvl.gen_invs)
    old = lvl.built
    if not old:
        lvl.keys = lvl.image_keys(ctx, identity()[None])
        lvl.t = lvl.t_inv = identity()[None]
        lvl.parent = lvl.edge = np.full(1, -1)
    cyclic = not old and len(gens) == 1
    keys = lvl.keys
    vecs = keys.view(_compact_dtype(ctx)).reshape(-1, 4).astype(np.int64)
    steps, step_invs = gens[old:], invs[old:]
    found, parents, edges, record = [keys], [lvl.parent], [lvl.edge], []
    while len(vecs):
        imgs = mat_vec(ctx, steps[:, None], vecs[None]).reshape(-1, 4)
        merged = np.concatenate([keys, _point_keys(ctx, lvl.line, imgs)])
        by_key = merged.argsort(kind="stable")
        merged = merged[by_key]
        lead = _run_starts(merged)
        merged, by_key = merged.compress(lead), by_key.compress(lead)
        if len(merged) > cap:
            raise OverCapError(f"orbit exceeds cap {cap}")
        fresh = by_key >= len(keys)
        cand, first = merged.compress(fresh), by_key.compress(fresh) - len(keys)
        if cyclic:  # the keys take key order; the tree takes power order
            by_first = np.argsort(first)
            cand, first = cand[by_first], first[by_first]
        s, f = np.divmod(first, len(vecs))  # step element and source of each new point
        src = len(keys) - len(vecs) + f  # the sources are the last len(vecs) points found
        found.append(cand)
        record.append((steps, step_invs, s, src))
        # each new point's parent, as an index in found order: breadth-first
        # its source; by cyclic doubling the point found before it,
        # g^(n+f-1) p before g^(n+f) p
        parents.append(len(keys) - 1 + f if cyclic else src)
        edges.append(s + len(gens) - len(steps))  # the first step's are the new generators
        keys, new = merged, imgs[first]
        if not cyclic:
            vecs, steps, step_invs = new, gens, invs
            continue
        if len(cand) < len(vecs):  # p has come round
            break
        vecs = np.concatenate([vecs, new])
        steps, step_invs = mat_mul(ctx, steps, steps), mat_mul(ctx, step_invs, step_invs)
    order = np.argsort(np.concatenate(found))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    t = np.empty((len(keys), 4, 4), dtype=np.int64)
    t_inv = np.empty_like(t)
    done = len(found[0])
    t[rank[:done]], t_inv[rank[:done]] = lvl.t, lvl.t_inv
    for steps, step_invs, s, src in record:
        new, at = rank[done : done + len(s)], rank[src]
        t[new] = mat_mul(ctx, steps[s], t[at])
        t_inv[new] = mat_mul(ctx, t_inv[at], step_invs[s])
        done += len(s)
    lvl.keys, lvl.t, lvl.t_inv = keys, t, t_inv
    lvl.edge = np.concatenate(edges)[order]
    lvl.parent = np.where(lvl.edge >= 0, rank[np.concatenate(parents)[order]], -1)
    lvl.built = len(gens)
    return np.where(order < len(found[0]), old, 0)


def _sift(ctx: FieldCtx, chain: list[_Level], start: int, mats: np.ndarray) -> np.ndarray:
    """The residues of a stack of matrices sifted through chain[start:]. A
    residue fixes the base points of the levels it entered, and moves that of
    the level whose orbit it left. A level of one point tests the point
    alone: its transversal is the identity. The matrices that stay are
    gathered by index, and only when some leave."""
    work = np.asarray(mats, dtype=np.int64)
    res = np.empty_like(work)
    live = np.arange(len(work))
    for lvl in chain[start:]:
        pos = _find(lvl.keys, lvl.image_keys(ctx, work))
        kept = np.flatnonzero(pos >= 0)
        if len(kept) < len(work):
            gone = np.flatnonzero(pos < 0)
            res[live.take(gone)] = work.take(gone, axis=0)
            live, work, pos = live.take(kept), work.take(kept, axis=0), pos.take(kept)
        if len(lvl.keys) > 1:
            work = mat_mul(ctx, lvl.t_inv[pos], work)
    res[live] = work
    return res


def _schreier_generators(ctx: FieldCtx, lvl: _Level, paired: np.ndarray | int = 0) -> np.ndarray:
    """The sorted keys of the distinct Schreier generators t(g x)^-1 g t(x)
    of a level, over the pairs of a generator g and an orbit point x not
    formed before: x has been paired with the generators before paired[x],
    as ``_build_orbit`` returns it, and with none by default. Two kinds of
    pair are skipped, which give the identity by construction, since the
    identity sifts to the identity (Seress, *Permutation Group Algorithms*,
    CUP 2003, 4.1): a tree edge (g, parent of y), where t(y) = g t(parent),
    and (g, y) where g is the inverse of the generator on y's edge, which
    maps y to its parent. One mask over every (generator, point) pair marks
    those to skip, and the products g t(x) of the rest are formed BATCH
    pairs at a time, whichever generators they take."""
    gens, n = np.stack(lvl.gens), len(lvl.t)
    child = lvl.edge >= 0
    skip = np.arange(len(gens))[:, None] < np.broadcast_to(paired, n)  # formed before
    skip[lvl.edge[child], lvl.parent[child]] = True  # tree edges
    undoes = (gens[:, None] == np.stack(lvl.gen_invs)[None]).all(axis=(2, 3))  # g_j = g_s^-1
    skip |= undoes[:, lvl.edge] & child  # reverse edges
    pairs = np.flatnonzero(~skip)  # j n + x for generator j and point x
    keys = [_keys(ctx, identity()[:0])]
    for i in range(0, len(pairs), BATCH):
        j, x = np.divmod(pairs[i : i + BATCH], n)
        prods = mat_mul(ctx, gens[j], lvl.t[x])
        pos = _find(lvl.keys, lvl.image_keys(ctx, prods))
        keys.append(_keys(ctx, mat_mul(ctx, lvl.t_inv[pos], prods)))
    return sorted_unique(np.concatenate(keys))


def _add_generator(
    ctx: FieldCtx,
    chain: list[_Level],
    m: np.ndarray,
    start: int,
    candidates: list[tuple[np.ndarray, bool]],
) -> int:
    """Add m, which fixes the base points before level start, and its inverse
    to every level from start up to the first whose base point m moves, and
    return that level. Where m fixes every base point from start on, the
    chain runs on: its base is a prefix of the candidates, so the next
    candidates join it in order, up to the first one that m moves. An
    involution is its own inverse, and no inverse is formed for it."""
    last = start
    while True:
        if last == len(chain):
            chain.append(_Level(*candidates[last]))
        here, there = chain[last].image_keys(ctx, np.stack([identity(), m]))
        if here != there:
            break
        last += 1
    minv = m if is_identity(mat_mul(ctx, m, m)) else mat_inv(ctx, m)
    for lvl in chain[start : last + 1]:
        lvl.gens.append(m)
        lvl.gen_invs.append(minv)
    return last


def bsgs_group(ctx: FieldCtx, gens, cap: int = DEFAULT_CAP) -> GroupHandle:
    """Deterministic Schreier-Sims on the action of the group on vectors and
    lines of F_q^4.

    The base is drawn from one fixed sequence of candidate points
    (``_base_candidates``), read off the root span W, the sum of the images
    im(g - I), which the group maps to itself. When the generators preserve
    a single nondegenerate symmetric form B on W, up to scalars, as the
    reduced groups do on W = F_q^4, the sequence opens with two isotropic
    points l1 and l2 of W, B(l1, l2) != 0: l1 as a line, l2 as a line, then
    l1 as a vector (Murray and O'Brien, "Selecting base points for the
    Schreier-Sims algorithm for matrix groups", J. Symbolic Comput. 19
    (1995)). An orthogonal group's orbit on isotropic lines has about q^2
    points, against about q^3 for its orbit on vectors; on a W of dimension
    3 the orbit is a conic of q + 1 lines, against about q^2 points for the
    orbit of a standard basis vector. A group with no such form, or with
    several, is based on a proper W's basis vectors. The standard basis
    vectors always follow. One rule places every strong generator, input
    or residue (``_add_generator``): it joins each level
    from where it enters up to the first base point it moves, and one that
    fixes every base point appends the next candidates, up to the first one
    that it moves, so the base is always a prefix of the sequence (and a
    level can keep an orbit of one point). Orbits are built and
    extended by one loop (``_build_orbit``): breadth-first, or by cyclic
    doubling on a level first built with one generator. An orbit of more
    than cap points raises OverCapError. The base only decides which
    Schreier generators are sifted, so the order is exact whatever the base.

    Levels are completed from the last one up. A level's new Schreier
    generators are formed, deduplicated and sifted through the levels below
    it in key order; the first one whose residue is not the identity joins
    the chain from the level below on, and the levels it joined extend
    their orbits by it in place (Holt, Eick and O'Brien, *Handbook of
    Computational Group Theory*, 2005, 4.4; Seress, *Permutation Group
    Algorithms*, CUP 2003, 4.2). Residues depend only on the chain, so this
    is a deterministic choice. Until its own generators change, a level
    keeps as its record the keys of the Schreier generators after the one
    whose residue was added, and a revisit sifts only those. That picks the
    same residue as sifting them all again: every earlier generator sifted
    to the identity through a chain that has only grown since, so it is
    still a member of the group below and still sifts to the identity, and
    so does the one whose residue was added. A residue joins only levels
    below the one it came from, and those are complete, every Schreier
    generator they formed having sifted to the identity; their old points
    keep their transversals, so those generators still sift to the
    identity, by the same path. So an extended level forms and sifts only
    the Schreier generators of its new pairs: a new generator with any
    point, and any generator with a new point. Every Schreier generator is
    sifted, so the order is exact.
    """
    gens = [g for g in _dedup(ctx, np.asarray(gens, dtype=np.int64).reshape(-1, 4, 4))
            if not is_identity(g)]
    candidates = _base_candidates(ctx, np.stack(gens)) if gens else []
    chain: list[_Level] = []
    for g in gens:
        _add_generator(ctx, chain, g, 0, candidates)

    ident = identity()
    # unsifted[l]: the sorted keys of level l's Schreier generators that are
    # still to be sifted, those of the pairs its last build made new
    unsifted: dict[int, np.ndarray] = {}
    i = len(chain) - 1
    while i >= 0:
        lvl = chain[i]
        if lvl.built < len(lvl.gens):
            unsifted[i] = _schreier_generators(ctx, lvl, _build_orbit(ctx, lvl, cap))
        res = _sift(ctx, chain, i + 1, _decode(ctx, unsifted[i]))
        moved = np.flatnonzero((res != ident).any(axis=(1, 2)))
        if not len(moved):
            i -= 1
            continue
        first = int(moved[0])
        unsifted[i] = unsifted[i][first + 1 :]
        i = _add_generator(ctx, chain, res[first], i + 1, candidates)
    return GroupHandle(ctx, np.stack(gens) if gens else ident[None], cap, chain=chain)
