"""4x4 matrix algebra over F_q and finite matrix-group machinery: breadth-first
enumeration, deterministic Schreier-Sims, membership, and intersection.

Matrices are numpy arrays of packed field codes (see field.FieldCtx). Batch
kernels stay in int64. One key scheme serves everything: a key holds a whole
matrix or vector, as one unsigned integer where it fits a machine word and
as a void-dtype view of its compact entries where it does not (``_keys``). A
set is a sorted key array, deduplicated by sorting and comparing neighbours
(``sorted_unique``) and searched by ``_find``. An enumerated group is stored
once, as the sorted keys of its elements, so the keys serve BFS
deduplication, membership, intersection and element positions alike, and
``elements`` decodes them on access. A Schreier-Sims level stores its orbit
as the sorted keys of the orbit vectors, with the transversal as stacked
arrays in the same order; one batched sift serves membership and the
Schreier generators alike. Schreier-Sims is incremental: a level's Schreier
generators are formed once per orbit build, and a revisit sifts only those
after the one whose residue was last added.
"""

from __future__ import annotations

import math

import numpy as np

from .field import FieldCtx

DEFAULT_CAP = 2_500_000
BATCH = 1 << 13  # matrices per batched kernel call, to bound memory


class OverCapError(RuntimeError):
    """A closure or power computation exceeded its cap."""


class SingularMatrixError(ValueError):
    """Inversion of a singular matrix was requested."""


def identity(ctx: FieldCtx) -> np.ndarray:
    return np.diag([ctx.one] * 4).astype(np.int64)


def is_identity(ctx: FieldCtx, m: np.ndarray) -> bool:
    return bool(np.array_equal(m, identity(ctx)))


def mat_mul(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over F_q; broadcasts over leading batch dimensions."""
    return ctx.mul(a, b, np.matmul)


def mat_vec(ctx: FieldCtx, m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply to column vectors; m is (..., 4, 4), v is (..., 4)."""
    return mat_mul(ctx, m, v[..., None])[..., 0]


def mat_inv(ctx: FieldCtx, m: np.ndarray) -> np.ndarray:
    """Gauss-Jordan inverse of a single 4x4 matrix."""
    a = [[int(x) for x in row] for row in m]
    b = [[int(x) for x in row] for row in identity(ctx)]
    for col in range(4):
        piv = next((r for r in range(col, 4) if a[r][col] != 0), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular over F_q")
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        inv = ctx.inv(a[col][col])
        a[col] = [ctx.mul(inv, x) for x in a[col]]
        b[col] = [ctx.mul(inv, x) for x in b[col]]
        for r in range(4):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(a[r], a[col])]
                b[r] = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(b[r], b[col])]
    return np.array(b, dtype=np.int64)


def element_order(ctx: FieldCtx, m: np.ndarray, cap: int = 10_000) -> int:
    """Smallest n >= 1 with m^n = I."""
    ident = identity(ctx)
    p = m
    for n in range(1, cap + 1):
        if np.array_equal(p, ident):
            return n
        p = mat_mul(ctx, p, m)
    raise OverCapError(f"element order exceeds {cap}")


def _compact_dtype(ctx: FieldCtx) -> np.dtype:
    if ctx.q <= 0xFF:
        return np.dtype(np.uint8)
    if ctx.q <= 0xFFFF:
        return np.dtype(np.uint16)
    return np.dtype(np.uint32)


# a key of 4 or 8 bytes is held as one integer; a wider one stays void
_WORDS = {4: np.dtype(np.uint32), 8: np.dtype(np.uint64)}
# codes below 16 fit in four bits, so up to this q a matrix key packs two
# entries to a byte: 8 bytes, one uint64
_NIBBLE_Q = 16


def _keys(ctx: FieldCtx, arrs: np.ndarray, width: int = 16) -> np.ndarray:
    """Keys of a stack of matrices (width 16) or vectors (width 4); a key
    holds its whole matrix or vector. A key that fits a machine word is an
    unsigned integer: a matrix at q <= 16 is a uint64 base-16 code, two
    entries to a byte, and a vector is its compact entries viewed as uint32
    (q <= 255) or uint64 (q <= 65,535). A wider key is a void-dtype view of
    the compact entries."""
    compact = np.ascontiguousarray(arrs.reshape(-1, width).astype(_compact_dtype(ctx)))
    if width == 16 and ctx.q <= _NIBBLE_Q:
        compact = compact[:, 0::2] | compact[:, 1::2] << 4
    nbytes = compact.shape[1] * compact.itemsize
    return compact.view(_WORDS.get(nbytes, f"V{nbytes}")).ravel()


def _decode(ctx: FieldCtx, keys: np.ndarray) -> np.ndarray:
    """The int64 matrices held by keys, in key order."""
    if ctx.q <= _NIBBLE_Q:
        packed = keys.view(np.uint8).reshape(-1, 8)
        return np.stack([packed & 0xF, packed >> 4], axis=-1).reshape(-1, 4, 4).astype(np.int64)
    return keys.view(_compact_dtype(ctx)).reshape(-1, 4, 4).astype(np.int64)


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-D array, sorted. Unlike ``np.unique``,
    which puts an integer array through a hash table, this sorts and
    compares neighbours, which is faster on keys."""
    keys = np.sort(keys)
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _find(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Positions of keys in sorted_keys, -1 where a key is absent."""
    pos = np.searchsorted(sorted_keys, keys).clip(max=len(sorted_keys) - 1)
    return np.where(sorted_keys[pos] == keys, pos, -1)


def _dedup(ctx: FieldCtx, mats: np.ndarray) -> np.ndarray:
    return _decode(ctx, sorted_unique(_keys(ctx, mats)))


def _pairwise(ctx: FieldCtx, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    return mat_mul(ctx, f[:, None], g[None, :]).reshape(-1, 4, 4)


class GroupHandle:
    """A finite matrix group: enumerated when it holds the sorted keys of its
    elements, else a BSGS chain; the order is the number of keys, or the
    product of the chain's orbit sizes."""

    def __init__(
        self,
        ctx: FieldCtx,
        gens: np.ndarray,
        keys: np.ndarray | None = None,
        chain: list[_Level] | None = None,
    ):
        self.ctx = ctx
        self.gens = gens
        self._sorted_keys = keys
        self._chain = chain
        self.order = len(keys) if keys is not None else math.prod(len(lvl.keys) for lvl in chain)

    def _enumerated_keys(self) -> np.ndarray:
        if self._sorted_keys is None:
            raise ValueError("group is not enumerated")
        return self._sorted_keys

    @property
    def elements(self) -> np.ndarray:
        """Every element as an int64 matrix, in key order; decoded on each access."""
        return _decode(self.ctx, self._enumerated_keys())

    def index(self, mats: np.ndarray) -> np.ndarray:
        """Positions of the given matrices in ``elements``; ValueError on a non-member."""
        pos = _find(self._enumerated_keys(), _keys(self.ctx, mats))
        if (pos < 0).any():
            raise ValueError("matrix is not a group element")
        return pos

    def contains(self, m: np.ndarray) -> bool:
        return bool(self.contains_batch(m[None])[0])

    def contains_batch(self, mats: np.ndarray) -> np.ndarray:
        """Vectorized membership for a stack of matrices. On a chain a matrix
        is a member when its residue is the identity: one whose image leaves
        an orbit keeps a residue that moves that level's base point. Matrices
        are sifted BATCH at a time."""
        if self._sorted_keys is not None:
            return _find(self._sorted_keys, _keys(self.ctx, mats)) >= 0
        assert self._chain is not None
        ident = identity(self.ctx)
        out = np.empty(len(mats), dtype=bool)
        for i in range(0, len(mats), BATCH):
            res, _ = _sift(self.ctx, self._chain, 0, mats[i : i + BATCH])
            out[i : i + BATCH] = (res == ident).all(axis=(1, 2))
        return out

    def intersect(self, other: GroupHandle) -> GroupHandle:
        """Intersection, listed from the smaller enumerated side."""
        small, big = self, other
        if small._sorted_keys is None or (big._sorted_keys is not None and big.order < small.order):
            small, big = big, small
        elems = small.elements
        inside = big.contains_batch(elems)
        return GroupHandle(self.ctx, elems[inside], small._sorted_keys[inside])

    def same_group(self, other: GroupHandle) -> bool:
        return (
            self.order == other.order
            and all(other.contains(g) for g in self.gens)
            and all(self.contains(g) for g in other.gens)
        )


def enumerate_group(ctx: FieldCtx, gens, cap: int = DEFAULT_CAP) -> GroupHandle:
    """Breadth-first closure of the generators under multiplication."""
    gens = _dedup(ctx, np.asarray(gens, dtype=np.int64).reshape(-1, 4, 4))
    frontier = identity(ctx)[None]
    sorted_keys = _keys(ctx, frontier)
    step = max(1, BATCH // max(1, len(gens)))
    while len(frontier):
        cand = sorted_unique(np.concatenate([
            _keys(ctx, _pairwise(ctx, frontier[i : i + step], gens))
            for i in range(0, len(frontier), step)
        ]))
        fresh = cand[_find(sorted_keys, cand) < 0]
        if len(sorted_keys) + len(fresh) > cap:
            raise OverCapError(f"closure exceeds cap {cap}")
        sorted_keys = np.insert(sorted_keys, np.searchsorted(sorted_keys, fresh), fresh)
        frontier = _decode(ctx, fresh)
    return GroupHandle(ctx, gens, sorted_keys)


class _Level:
    """One stabilizer level: a base point, the generators that fix every earlier
    base point, and the orbit of the point. The orbit is the sorted array of
    the keys of its vectors; ``t`` and ``t_inv`` are stacked arrays in key
    order, so ``t[i]`` maps the point to the vector of ``keys[i]``. ``keys``,
    ``t`` and ``t_inv`` are set by ``_build_orbit``."""

    __slots__ = ("point", "gens", "gen_invs", "keys", "t", "t_inv")

    def __init__(self, point: np.ndarray):
        self.point = point
        self.gens: list[np.ndarray] = []
        self.gen_invs: list[np.ndarray] = []


def _moved_basis_vector(ctx: FieldCtx, m: np.ndarray) -> np.ndarray:
    basis = identity(ctx)
    moved = (mat_vec(ctx, m, basis) != basis).any(axis=1)
    assert moved.any(), "the identity moves no basis vector"
    return basis[int(np.argmax(moved))]


def _build_orbit(ctx: FieldCtx, lvl: _Level, cap: int) -> None:
    """Breadth-first orbit of the base point, one layer for all generators at
    once, raising OverCapError past cap points. Each layer's transversal rows
    are appended in layer order, in the compact dtype, and only the keys and
    the row numbers are kept sorted; the rows are put in key order and
    widened to int64 once, at the end."""
    compact = _compact_dtype(ctx)
    gens, ginvs = np.stack(lvl.gens), np.stack(lvl.gen_invs)
    vecs = lvl.point[None]
    keys = _keys(ctx, vecs, 4)
    rows = np.zeros(1, dtype=np.intp)  # rows[i]: layer-order row of keys[i]
    t = t_inv = identity(ctx)[None]
    ts, t_invs = [t.astype(compact)], [t_inv.astype(compact)]
    while len(vecs):
        imgs = mat_vec(ctx, gens[:, None], vecs[None]).reshape(-1, 4)
        cand, first = np.unique(_keys(ctx, imgs, 4), return_index=True)
        fresh = _find(keys, cand) < 0
        cand, first = cand[fresh], first[fresh]
        if len(keys) + len(cand) > cap:
            raise OverCapError(f"orbit exceeds cap {cap}")
        g, f = np.divmod(first, len(vecs))
        vecs = imgs[first]
        t = mat_mul(ctx, gens[g], t[f])
        t_inv = mat_mul(ctx, t_inv[f], ginvs[g])
        pos = np.searchsorted(keys, cand)
        keys = np.insert(keys, pos, cand)
        rows = np.insert(rows, pos, np.arange(len(rows), len(rows) + len(cand)))
        ts.append(t.astype(compact))
        t_invs.append(t_inv.astype(compact))
    lvl.keys = keys
    lvl.t = np.concatenate(ts)[rows].astype(np.int64)
    lvl.t_inv = np.concatenate(t_invs)[rows].astype(np.int64)


def _sift(ctx: FieldCtx, chain: list[_Level], start: int, mats: np.ndarray):
    """Sift a stack of matrices through chain[start:]; returns their residues
    and, for each, the first level it did not enter."""
    work = np.asarray(mats, dtype=np.int64)
    res = np.empty_like(work)
    stop = np.full(len(work), len(chain))
    live = np.arange(len(work))
    for l in range(start, len(chain)):
        lvl = chain[l]
        pos = _find(lvl.keys, _keys(ctx, mat_vec(ctx, work, lvl.point), 4))
        out = pos < 0
        stop[live[out]] = l
        res[live[out]] = work[out]
        live, work = live[~out], mat_mul(ctx, lvl.t_inv[pos[~out]], work[~out])
    res[live] = work
    return res, stop


def _schreier_generators(ctx: FieldCtx, lvl: _Level) -> np.ndarray:
    """The sorted keys of the distinct Schreier generators t(g p)^-1 g t(p) of a level."""
    keys = []
    for g in lvl.gens:
        for i in range(0, len(lvl.t), BATCH):
            prods = mat_mul(ctx, g, lvl.t[i : i + BATCH])
            pos = _find(lvl.keys, _keys(ctx, mat_vec(ctx, prods, lvl.point), 4))
            keys.append(_keys(ctx, mat_mul(ctx, lvl.t_inv[pos], prods)))
    return sorted_unique(np.concatenate(keys))


def _add_generator(ctx: FieldCtx, chain: list[_Level], m: np.ndarray, levels: range) -> None:
    """Add m and its inverse to the given levels, extending the base by a basis
    vector that m moves when the levels run past the end of the chain."""
    if levels.stop > len(chain):
        chain.append(_Level(_moved_basis_vector(ctx, m)))
    minv = mat_inv(ctx, m)
    for l in levels:
        chain[l].gens.append(m)
        chain[l].gen_invs.append(minv)


def bsgs_group(ctx: FieldCtx, gens, cap: int = DEFAULT_CAP) -> GroupHandle:
    """Deterministic Schreier-Sims on the action on column vectors of F_q^4.

    Base points are standard basis vectors chosen greedily; the stabilizer of
    all four is trivial, so the chain has at most four levels. An orbit of
    more than cap points raises OverCapError.

    Levels are completed from the last one up. A level's Schreier generators
    are formed once per orbit build, deduplicated and sifted through the
    levels below it in key order; the first one whose residue is not the
    identity adds that residue to the levels it reached, and those levels
    are built again. Residues depend only on the chain, so this is a
    deterministic choice. Until its own generators change, a level keeps as
    its record the keys of the Schreier generators after the one whose
    residue was added, and a revisit sifts only those. That picks the same
    residue as sifting them all again: every earlier generator sifted to the
    identity through a chain that has only grown since, so it is still a
    member of the group below and still sifts to the identity, and so does
    the one whose residue was added. Every Schreier generator is sifted, so
    the order is exact.
    """
    gens = [g for g in _dedup(ctx, np.asarray(gens, dtype=np.int64).reshape(-1, 4, 4))
            if not is_identity(ctx, g)]
    chain: list[_Level] = []
    for g in gens:
        # g belongs to every level up to the first base point it moves
        moved = next(
            (l for l, lvl in enumerate(chain) if not np.array_equal(mat_vec(ctx, g, lvl.point), lvl.point)),
            len(chain),
        )
        _add_generator(ctx, chain, g, range(moved + 1))

    ident = identity(ctx)
    # unsifted[l]: the sorted keys of level l's Schreier generators that are
    # still to be sifted; a level whose generators changed has no record
    unsifted: dict[int, np.ndarray] = {}
    i = len(chain) - 1
    while i >= 0:
        if i not in unsifted:
            _build_orbit(ctx, chain[i], cap)
            unsifted[i] = _schreier_generators(ctx, chain[i])
        res, stop = _sift(ctx, chain, i + 1, _decode(ctx, unsifted[i]))
        moved = np.flatnonzero((res != ident).any(axis=(1, 2)))
        if not len(moved):
            i -= 1
            continue
        first, j = int(moved[0]), int(stop[moved[0]])
        unsifted[i] = unsifted[i][first + 1 :]
        _add_generator(ctx, chain, res[first], range(i + 1, j + 1))
        for l in range(i + 1, j + 1):
            unsifted.pop(l, None)
        i = j
    return GroupHandle(ctx, np.stack(gens) if gens else ident[None], chain=chain)
