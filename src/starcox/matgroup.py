"""4x4 matrix algebra over F_q and finite matrix-group machinery: breadth-first
enumeration, deterministic Schreier-Sims, membership, and intersection.

Matrices are numpy arrays of packed field codes (see field.FieldCtx). Batch
kernels stay in int64. An enumerated group is stored once, as the sorted
array of its keys: a key is a void-dtype view of a compact copy of the whole
matrix, so the keys serve BFS deduplication, membership, intersection and
element positions alike, and ``elements`` decodes them on access.
"""

from __future__ import annotations

import numpy as np

from .field import FieldCtx

DEFAULT_CAP = 2_500_000
_CHUNK = 1 << 21


class OverCapError(RuntimeError):
    """A closure or power computation exceeded its cap."""


class SingularMatrixError(ValueError):
    """Inversion of a singular matrix was requested."""


def mat_from_rows(ctx: FieldCtx, rows) -> np.ndarray:
    """Build a matrix of packed codes from rows of (x, y) pairs or ints."""
    out = np.zeros((4, 4), dtype=np.int64)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            out[i, j] = ctx.encode(*v) if isinstance(v, tuple) else ctx.encode(v)
    return out


def identity(ctx: FieldCtx) -> np.ndarray:
    return np.diag([ctx.one] * 4).astype(np.int64)


def is_identity(ctx: FieldCtx, m: np.ndarray) -> bool:
    return bool(np.array_equal(m, identity(ctx)))


def mat_mul(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over F_q; broadcasts over leading batch dimensions."""
    if ctx.degree == 1:
        return (a @ b) % ctx.q
    r = ctx.char
    xa, ya = a // r, a % r
    xb, yb = b // r, b % r
    x = (xa @ xb + ya @ yb) % r
    y = (xa @ yb + ya @ xb + ya @ yb) % r
    return x * r + y


def mat_vec(ctx: FieldCtx, m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply to column vectors; m is (..., 4, 4), v is (..., 4)."""
    if ctx.degree == 1:
        return np.einsum("...ij,...j->...i", m, v) % ctx.q
    r = ctx.char
    xm, ym = m // r, m % r
    xv, yv = v // r, v % r
    x = (np.einsum("...ij,...j->...i", xm, xv) + np.einsum("...ij,...j->...i", ym, yv)) % r
    y = (
        np.einsum("...ij,...j->...i", xm, yv)
        + np.einsum("...ij,...j->...i", ym, xv)
        + np.einsum("...ij,...j->...i", ym, yv)
    ) % r
    return x * r + y


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


def _keys(ctx: FieldCtx, mats: np.ndarray) -> np.ndarray:
    """Void-dtype keys of a stack of matrices; a key holds its whole matrix."""
    compact = np.ascontiguousarray(mats.reshape(-1, 16).astype(_compact_dtype(ctx)))
    return compact.view(f"V{compact.dtype.itemsize * 16}").ravel()


def _decode(ctx: FieldCtx, keys: np.ndarray) -> np.ndarray:
    """The int64 matrices held by keys, in key order."""
    return keys.view(_compact_dtype(ctx)).reshape(-1, 4, 4).astype(np.int64)


def _find(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Positions of keys in sorted_keys, -1 where a key is absent."""
    pos = np.searchsorted(sorted_keys, keys).clip(max=len(sorted_keys) - 1)
    return np.where(sorted_keys[pos] == keys, pos, -1)


def _dedup(ctx: FieldCtx, mats: np.ndarray) -> np.ndarray:
    return _decode(ctx, np.unique(_keys(ctx, mats)))


def _pairwise(ctx: FieldCtx, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    return mat_mul(ctx, f[:, None], g[None, :]).reshape(-1, 4, 4)


class GroupHandle:
    """A finite matrix group: enumerated when it holds sorted keys, else a BSGS chain."""

    def __init__(self, ctx: FieldCtx, gens: np.ndarray):
        self.ctx = ctx
        self.gens = gens
        self.order: int = 0
        self._sorted_keys: np.ndarray | None = None
        self._chain: list[_Level] | None = None

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
        if self._sorted_keys is not None:
            return bool(_find(self._sorted_keys, _keys(self.ctx, m))[0] >= 0)
        assert self._chain is not None
        res, _ = _strip(self.ctx, self._chain, 0, m)
        return is_identity(self.ctx, res)

    __contains__ = contains

    def contains_batch(self, mats: np.ndarray) -> np.ndarray:
        """Vectorized membership for a stack of matrices."""
        if self._sorted_keys is not None:
            return _find(self._sorted_keys, _keys(self.ctx, mats)) >= 0
        assert self._chain is not None
        ctx = self.ctx
        mask = np.ones(len(mats), dtype=bool)
        live = np.arange(len(mats))
        work = mats
        for lvl in self._chain:
            imgs = mat_vec(ctx, work, lvl.point)
            idx = np.array([lvl.orbit.get(k, -1) for k in _vec_keys(ctx, imgs)])
            bad = idx < 0
            mask[live[bad]] = False
            live, idx, work = live[~bad], idx[~bad], work[~bad]
            if not len(live):
                return mask
            work = mat_mul(ctx, np.stack([lvl.t_inv[i] for i in idx]), work)
        ident = identity(ctx)
        mask[live] = (work == ident).all(axis=(1, 2))
        return mask

    def intersect(self, other: GroupHandle) -> GroupHandle:
        """Intersection, listed from the smaller enumerated side."""
        small, big = self, other
        if small._sorted_keys is None or (big._sorted_keys is not None and big.order < small.order):
            small, big = big, small
        elems = small.elements
        inside = big.contains_batch(elems)
        return _from_keys(self.ctx, elems[inside], small._sorted_keys[inside])

    def same_group(self, other: GroupHandle) -> bool:
        return (
            self.order == other.order
            and all(other.contains(g) for g in self.gens)
            and all(self.contains(g) for g in other.gens)
        )


def _from_keys(ctx: FieldCtx, gens: np.ndarray, sorted_keys: np.ndarray) -> GroupHandle:
    h = GroupHandle(ctx, gens)
    h._sorted_keys = sorted_keys
    h.order = len(sorted_keys)
    return h


def enumerate_group(ctx: FieldCtx, gens, cap: int = DEFAULT_CAP) -> GroupHandle:
    """Breadth-first closure of the generators under multiplication."""
    gens = _dedup(ctx, np.asarray(gens, dtype=np.int64).reshape(-1, 4, 4))
    frontier = identity(ctx)[None]
    sorted_keys = _keys(ctx, frontier)
    step = max(1, _CHUNK // max(1, len(gens)))
    while len(frontier):
        cand = np.unique(np.concatenate([
            _keys(ctx, _pairwise(ctx, frontier[i : i + step], gens))
            for i in range(0, len(frontier), step)
        ]))
        fresh = cand[_find(sorted_keys, cand) < 0]
        if len(sorted_keys) + len(fresh) > cap:
            raise OverCapError(f"closure exceeds cap {cap}")
        sorted_keys = np.insert(sorted_keys, np.searchsorted(sorted_keys, fresh), fresh)
        frontier = _decode(ctx, fresh)
    return _from_keys(ctx, gens, sorted_keys)


class _Level:
    """One stabilizer level: base point, generators, orbit with transversal."""

    __slots__ = ("point", "gens", "gen_invs", "orbit", "vecs", "t", "t_inv", "stale")

    def __init__(self, point: np.ndarray):
        self.point = point
        self.gens: list[np.ndarray] = []
        self.gen_invs: list[np.ndarray] = []
        self.orbit: dict[int, int] = {}
        self.vecs: list[np.ndarray] = []
        self.t: list[np.ndarray] = []
        self.t_inv: list[np.ndarray] = []
        self.stale = True


def _vec_key(ctx: FieldCtx, v: np.ndarray) -> int:
    q = ctx.q
    return int(((int(v[0]) * q + int(v[1])) * q + int(v[2])) * q + int(v[3]))


def _vec_keys(ctx: FieldCtx, vs: np.ndarray) -> list[int]:
    q = ctx.q
    if q <= 55_108:  # q**4 fits in int64
        v = vs.reshape(-1, 4)
        return (((v[:, 0] * q + v[:, 1]) * q + v[:, 2]) * q + v[:, 3]).tolist()
    return [_vec_key(ctx, v) for v in vs.reshape(-1, 4)]


def _basis_vectors(ctx: FieldCtx) -> list[np.ndarray]:
    return [np.array([ctx.one if j == i else 0 for j in range(4)], dtype=np.int64) for i in range(4)]


def _moved_basis_vector(ctx: FieldCtx, m: np.ndarray) -> np.ndarray | None:
    for e in _basis_vectors(ctx):
        if not np.array_equal(mat_vec(ctx, m, e), e):
            return e
    return None


def _recompute_orbit(ctx: FieldCtx, lvl: _Level) -> None:
    ident = identity(ctx)
    lvl.vecs = [lvl.point]
    lvl.orbit = {_vec_key(ctx, lvl.point): 0}
    lvl.t = [ident]
    lvl.t_inv = [ident]
    frontier = [0]
    while frontier:
        vs = np.stack([lvl.vecs[i] for i in frontier])
        ts = np.stack([lvl.t[i] for i in frontier])
        tinvs = np.stack([lvl.t_inv[i] for i in frontier])
        frontier = []
        for g, ginv in zip(lvl.gens, lvl.gen_invs):
            imgs = mat_vec(ctx, g, vs)
            tnew = mat_mul(ctx, g, ts)
            tinvnew = mat_mul(ctx, tinvs, ginv)
            for fi, k in enumerate(_vec_keys(ctx, imgs)):
                if k not in lvl.orbit:
                    lvl.orbit[k] = len(lvl.vecs)
                    lvl.vecs.append(imgs[fi])
                    lvl.t.append(tnew[fi])
                    lvl.t_inv.append(tinvnew[fi])
                    frontier.append(len(lvl.vecs) - 1)
    lvl.stale = False


def _strip(ctx: FieldCtx, chain: list[_Level], start: int, m: np.ndarray):
    """Sift m through the chain; returns (residue, first level not entered)."""
    for l in range(start, len(chain)):
        lvl = chain[l]
        img = mat_vec(ctx, m, lvl.point)
        idx = lvl.orbit.get(_vec_key(ctx, img))
        if idx is None:
            return m, l
        m = mat_mul(ctx, lvl.t_inv[idx], m)
    return m, len(chain)


def _schreier_generators(ctx: FieldCtx, lvl: _Level) -> np.ndarray:
    t_stack = np.stack(lvl.t)
    out = []
    for g in lvl.gens:
        prods = mat_mul(ctx, g, t_stack)
        imgs = mat_vec(ctx, prods, lvl.point)
        idx = [lvl.orbit[k] for k in _vec_keys(ctx, imgs)]
        tinv = np.stack([lvl.t_inv[i] for i in idx])
        out.append(mat_mul(ctx, tinv, prods))
    return _dedup(ctx, np.concatenate(out))


def bsgs_group(ctx: FieldCtx, gens) -> GroupHandle:
    """Deterministic Schreier-Sims on the action on column vectors of F_q^4.

    Base points are standard basis vectors chosen greedily; the stabilizer of
    all four is trivial, so the chain has at most four levels.
    """
    gens = [g for g in _dedup(ctx, np.asarray(gens, dtype=np.int64).reshape(-1, 4, 4))
            if not is_identity(ctx, g)]
    chain: list[_Level] = []

    for g in gens:
        # g belongs to every level up to the first base point it moves;
        # extend the base if it fixes them all
        moved = next(
            (l for l, lvl in enumerate(chain) if not np.array_equal(mat_vec(ctx, g, lvl.point), lvl.point)),
            None,
        )
        if moved is None:
            e = _moved_basis_vector(ctx, g)
            assert e is not None
            chain.append(_Level(e))
            moved = len(chain) - 1
        ginv = mat_inv(ctx, g)
        for l in range(moved + 1):
            chain[l].gens.append(g)
            chain[l].gen_invs.append(ginv)
            chain[l].stale = True

    h = GroupHandle(ctx, np.stack(gens) if gens else identity(ctx)[None])
    if not chain:
        h._chain = []
        h.order = 1
        return h

    i = len(chain) - 1
    while i >= 0:
        lvl = chain[i]
        if lvl.stale:
            _recompute_orbit(ctx, lvl)
        descend = None
        for s in _schreier_generators(ctx, lvl):
            res, j = _strip(ctx, chain, i + 1, s)
            if not is_identity(ctx, res):
                descend = (res, j)
                break
        if descend is None:
            i -= 1
            continue
        res, j = descend
        if j == len(chain):
            e = _moved_basis_vector(ctx, res)
            assert e is not None
            chain.append(_Level(e))
        rinv = mat_inv(ctx, res)
        for l in range(i + 1, j + 1):
            chain[l].gens.append(res)
            chain[l].gen_invs.append(rinv)
            chain[l].stale = True
        i = j
    order = 1
    for lvl in chain:
        order *= len(lvl.vecs)
    h._chain = chain
    h.order = order
    return h
