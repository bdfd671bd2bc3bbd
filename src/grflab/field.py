"""Finite Karhunen-Loeve Gaussian fields.

A field is a finite expansion ``X = sum_n sigma_n xi_n f_n`` with
independent standard normals ``xi_n`` and closed-form basis functions
``f_n``.  The truncation is itself a legitimate Gaussian field, so all
covariance and support identities below hold exactly for it, not just in
the limit.

Sampling is reproducible: coefficient draws come from a named
:class:`~grflab.rng.RandomStream`, and Monte Carlo code derives one stream
per sample index, so identical ``(seed, index)`` always yields bit-identical
coefficients and windowed-design values.  BLAS may round the last bits of a
dense product differently with its row count, so such loops use fixed sizes.

Designs read the field's family table and build every requested
derivative order in one pass, stacked by column, :class:`Windowed` for bumps on the line.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .basis import BasisFunction, Box, Bump, bump_partial, evaluate, families, grid_points
from .linalg import solve_psd_pinv
from .multiindex import multi_indices, validate as mi_validate
from .rng import _TILE, RandomStream, normal_matrix

# entry budget of one dense block: a dense design above it is refused, and
# point, pair and sample loops are cut by ``_blocks`` to stay within it
_BLOCK_ENTRIES = 4_000_000
_TILE_ENTRIES = 40_000  # one dense kernel-distance pair tile, 320 kB: it stays in L2
_lookups = [0, 0]  # hits and misses of box_design, read by box_design.cache_info()
_FIRST_TERMS = 16  # terms in the first coefficient block of sups_below; each later one doubles


@dataclass(frozen=True)
class KLField:
    """Ordered finite expansion basis with per-term standard deviations."""

    basis: tuple
    sigmas: tuple
    m: int
    k: int

    def __post_init__(self):
        if self.m < 1 or self.k < 1:
            raise ValueError("need m >= 1 and k >= 1")
        if "basis" in self.__dict__:  # built from terms, not by from_bumps
            if len(self.basis) != len(self.sigmas):
                raise ValueError("need one sigma per basis function")
            for f in self.basis:
                if (f.m, f.k) != (self.m, self.k):
                    raise ValueError("all basis functions must share (m, k)")
        if not ((self.sigma_array > 0) & (self.sigma_array < np.inf)).all():
            raise ValueError("sigmas must be finite and positive")
        object.__setattr__(self, "_store", {})  # designs by (box, alphas), splits by (box, r)

    @classmethod
    def from_bumps(cls, amplitudes, centers, radii, sigmas) -> "KLField":
        """The field of the :class:`Bump` terms of (N, k) ``amplitudes``, (N, m) ``centers`` and
        (N,) ``radii``, copied into one family table; no term is made until ``basis`` is read."""
        params = tuple(np.array(p, dtype=np.float64) for p in (amplitudes, centers, radii))
        (amplitudes, centers, radii), n = params, len(sigmas)
        if ([p.ndim for p in params] != [2, 2, 1] or {p.shape[0] for p in params} != {n}
                or not (radii > 0).all()):
            raise ValueError("need (N, k) amplitudes, (N, m) centers, N positive radii, N sigmas")
        field = cls.__new__(cls)
        field.__dict__.update(sigmas=tuple(map(float, sigmas)), m=centers.shape[1],
                              k=amplitudes.shape[1],
                              _families=((Bump, np.arange(n), params, np.ones((0, n))),))
        field.__post_init__()
        return field

    def __getattr__(self, name):  # only the basis of a from_bumps field is ever missing
        if name != "basis":
            raise AttributeError(name)
        amps, centers, radii = (p.tolist() for p in self._families[0][2])
        self.__dict__["basis"] = tuple(map(Bump, map(tuple, centers), radii, map(tuple, amps)))
        return self.basis

    @property
    def size(self) -> int:
        return len(self.sigmas)

    @cached_property
    def sigma_array(self) -> np.ndarray:
        """The sigmas as one read-only array, made once."""
        sigmas = np.array(self.sigmas, dtype=np.float64)
        sigmas.setflags(write=False)
        return sigmas

    @cached_property
    def _families(self) -> tuple:
        # the basis' family table, kept on the field like BasisFunction._table
        return families(self.basis)


def kl_field(basis: Sequence[BasisFunction], sigmas=None, m=None, k=None) -> KLField:
    """Build a :class:`KLField`; sigmas default to 1, (m, k) inferred.

    ``m`` and ``k`` are only required for the empty expansion.
    """
    fs = tuple(basis)
    if sigmas is None:
        sigmas = (1.0,) * len(fs)
    if fs:
        m = fs[0].m if m is None else m
        k = fs[0].k if k is None else k
    elif m is None or k is None:
        raise ValueError("empty field needs explicit m and k")
    return KLField(fs, tuple(float(s) for s in sigmas), int(m), int(k))


@dataclass
class SamplePath:
    """One realization: the deterministic function ``sum_n coeffs_n f_n``."""

    field: KLField
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if self.coeffs.shape != (self.field.size,):
            raise ValueError("coefficient vector length must match the basis")


def sample(field: KLField, rng: RandomStream) -> SamplePath:
    """Draw one path; coefficient n is ``sigma_n`` times a standard normal."""
    return SamplePath(field, field.sigma_array * rng.normals(field.size))


def sample_batch_coeffs(field: KLField, seed: int, indices) -> np.ndarray:
    """Coefficient rows for the sample indices, one derived stream each."""
    z = normal_matrix(seed, indices, field.size)
    z *= field.sigma_array
    return z


def eval_sample(path: SamplePath, p, alpha=None) -> np.ndarray:
    """Exact value of ``d^alpha path`` at a point (or batch of points)."""
    field = path.field
    a = (0,) * field.m if alpha is None else mi_validate(alpha, field.m)
    single = np.asarray(p, dtype=np.float64).ndim <= 1
    pts = np.atleast_2d(np.asarray(p, dtype=np.float64))
    out = np.empty((pts.shape[0], field.k))
    for rows in _blocks(pts.shape[0], field.size * field.k):
        out[rows] = (path.coeffs[None] @ _design(field, pts[rows], a)).reshape(-1, field.k)
    return out[0] if single else out


# ---------------------------------------------------------------------------
# design matrices: basis values at points, one row per basis function
# ---------------------------------------------------------------------------

def _blocks(n: int, per_item: int, budget: int | None = None):
    """Slices cutting ``range(n)`` into blocks of ``budget // per_item`` items.

    ``per_item`` is the number of entries one item adds to a block and
    ``budget`` defaults to ``_BLOCK_ENTRIES``, read at each call; every
    block holds at least one item.
    """
    step = max(1, (_BLOCK_ENTRIES if budget is None else budget) // max(1, per_item))
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


def _usable_cores() -> int:
    # the cores this process may run on (``taskset`` restricts them), where
    # the platform says so
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_slices(fn, slices: list) -> list:
    """``fn`` of each of the slices, in order: the Monte Carlo pool.

    Fewer than two slices run in the caller and open no pool; more run on at
    most ``min(usable cores, 4)`` threads, so quarter-block chunks in flight
    hold at most one block.  Every slice runs under the caller's
    floating-point error state, which threads do not inherit.
    """
    def run(rows: slice, errors=np.geterr()):
        with np.errstate(**errors):
            return fn(rows)

    if len(slices) < 2:
        return [run(rows) for rows in slices]
    threads = min(_usable_cores(), 4, len(slices))
    # looked up here: concurrent.futures loads its thread module on first use,
    # so a command that opens no pool does not import it
    with concurrent.futures.ThreadPoolExecutor(threads) as pool:
        return list(pool.map(run, slices))


def _windowed(field: KLField) -> bool:
    """A non-empty field of (scaled) bumps with m = k = 1."""
    table = field._families
    return field.m == field.k == 1 and len(table) == 1 and table[0][0] is Bump


def _check_entries(n_entries: int) -> None:
    if n_entries > _BLOCK_ENTRIES:
        raise MemoryError(f"design of {n_entries} entries exceeds the supported size")


class Windowed:
    """The non-zero entries of an (N, C) design, read-only and sorted by row, then column.

    Products sum each output from 0.0 in order of the shared index, as CSR products do, so
    they round and drop zeros as scipy's ``csr_array`` did, and do not warn on overflow.
    Consumers use ``@`` (also via ``.T``; windowed by windowed stays windowed), column slices
    and masks, ``*`` by a vector or a windowed matrix, ``abs``, ``.sum`` and ``.max``."""

    __array_ufunc__ = None  # an ndarray's `@` and `*` defer to the reflected methods

    def __init__(self, rows: np.ndarray, cols: np.ndarray, data: np.ndarray, shape: tuple):
        nz = data != 0.0
        self.rows, self.cols, self.data = rows[nz], cols[nz], data[nz]
        self.shape, self.nnz = tuple(shape), self.data.size
        for arr in (self.rows, self.cols, self.data):
            arr.setflags(write=False)

    @property
    def T(self) -> "Windowed":
        order = np.lexsort((self.rows, self.cols))
        return Windowed(self.cols[order], self.rows[order], self.data[order], self.shape[::-1])

    @cached_property
    def _levels(self) -> list:  # entry indices by rank within their column, in row order
        by_col = np.argsort(self.cols, kind="stable")
        rank = np.arange(by_col.size) - np.searchsorted(self.cols[by_col], self.cols[by_col])
        return np.split(by_col[np.argsort(rank, kind="stable")], np.cumsum(np.bincount(rank))[:-1])

    def __rmatmul__(self, x) -> np.ndarray:
        """``x @ self`` for (N,) or (S, N) coefficients: a column appears once per level."""
        out = np.zeros(x.shape[:-1] + self.shape[1:])
        with np.errstate(over="ignore", invalid="ignore"):
            for e in self._levels:
                out[..., self.cols[e]] += x[..., self.rows[e]] * self.data[e]
        return out

    def __matmul__(self, other):
        if not isinstance(other, Windowed):
            return (other.T @ self.T).T
        # entry pairs (i, j) here, (j, l) there in this matrix's order: sums run over j upwards
        starts = np.searchsorted(other.rows, np.arange(other.shape[0] + 1))
        counts = np.diff(starts)[self.cols]
        mine = np.repeat(np.arange(self.nnz), counts)
        theirs = np.arange(mine.size) - np.repeat(np.cumsum(counts) - counts - starts[self.cols],
                                                  counts)
        q = other.shape[1]
        keys, slots = np.unique(self.rows[mine] * q + other.cols[theirs], return_inverse=True)
        with np.errstate(over="ignore", invalid="ignore"):  # bincount adds in order
            sums = np.bincount(slots, self.data[mine] * other.data[theirs], keys.size)
        return Windowed(keys // q, keys % q, sums, (self.shape[0], q))

    def __mul__(self, other) -> "Windowed":
        with np.errstate(over="ignore", invalid="ignore"):
            if isinstance(other, Windowed):
                _, i, j = np.intersect1d(self.rows * self.shape[1] + self.cols,
                                         other.rows * self.shape[1] + other.cols,
                                         assume_unique=True, return_indices=True)
                data = self.data[i] * other.data[j]
                return Windowed(self.rows[i], self.cols[i], data, self.shape)
            factor = other[self.rows, 0] if other.ndim == 2 else other[self.cols]
            return Windowed(self.rows, self.cols, self.data * factor, self.shape)

    __rmul__ = __mul__

    def __abs__(self) -> "Windowed":
        return Windowed(self.rows, self.cols, np.abs(self.data), self.shape)

    def __getitem__(self, key) -> "Windowed":  # [:, columns]: a slice of step > 0 or a mask
        kept = np.arange(self.shape[1])[key[1]]
        new = np.full(self.shape[1], -1)
        new[kept] = np.arange(kept.size)
        inside = new[self.cols] >= 0
        return Windowed(self.rows[inside], new[self.cols[inside]], self.data[inside],
                        (self.shape[0], kept.size))

    def sum(self, axis: int) -> np.ndarray:
        return np.ones(self.shape[0]) @ self if axis == 0 else self @ np.ones(self.shape[1])

    def max(self, axis=None):
        """Largest entry, with the zeros of columns that are not full: of all, or per column."""
        full = np.bincount(self.cols, minlength=self.shape[1]) == self.shape[0]
        out = np.where(full, -np.inf, 0.0)
        np.maximum.at(out, self.cols, self.data)
        return out if axis == 0 else out.max()

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = self.data
        return out


def _windowed_design(x: np.ndarray, alphas: tuple, centers: np.ndarray,
                     radii: np.ndarray, levels: np.ndarray) -> Windowed:
    # evaluate each row only at the points inside its support window, all
    # rows and orders in one call each.  The windows are found on the points
    # in sorted order; ``order`` maps them back to the caller's columns, so
    # unsorted and repeated points are fine
    order = np.argsort(x, kind="stable")
    axis = x[order]
    i0 = np.searchsorted(axis, centers - radii, side="left")
    counts = np.searchsorted(axis, centers + radii, side="right") - i0
    _check_entries(int(counts.sum()))
    rows = np.repeat(np.arange(centers.size), counts)
    starts = np.cumsum(counts) - counts
    pos = np.arange(rows.size) - np.repeat(starts - i0, counts)
    vals = bump_partial(axis[pos, None], centers[rows, None], radii[rows], alphas)
    for factor in levels:
        vals *= factor[rows]
    rows = np.broadcast_to(rows, vals.shape).ravel()
    cols = (order[pos] + x.shape[0] * np.arange(len(alphas))[:, None]).ravel()
    entries = np.lexsort((cols, rows))
    return Windowed(rows[entries], cols[entries], vals.ravel()[entries],
                    (centers.size, len(alphas) * x.shape[0]))


def _design(field: KLField, pts: np.ndarray, *alphas):
    """(N, A*G*k) design of d^alpha f_n at the (G, m) points; the one place it is built.

    All ``alphas`` are built in one pass over the field's family table; column
    ``(i*G + g)*k + j`` is ``alphas[i]`` at point ``g``, component ``j``, and
    :func:`_column_blocks` cuts out each order.  A :func:`_windowed` field gets
    a :class:`Windowed` design at any points; every other field a dense array.
    Either is refused with :class:`MemoryError` before it is built when one
    order would store more than ``_BLOCK_ENTRIES`` entries.  Consumers read either
    form through the operations both support: ``@``, elementwise ``*``,
    ``.sum(axis=...)``, column slices and ``abs(...).max(axis=0)``.
    """
    alphas = tuple(mi_validate(a, field.m) for a in alphas)
    if pts.ndim != 2 or pts.shape[1] != field.m:
        raise ValueError(f"points of shape {pts.shape} do not match dimension {field.m}")
    if _windowed(field):
        ((_, _, (amplitudes, centers, radii), factors),) = field._families
        return _windowed_design(pts[:, 0], alphas, centers[:, 0], radii,
                                np.vstack([amplitudes.T, factors]))
    _check_entries(field.size * pts.shape[0] * field.k)
    out = np.empty((field.size, len(alphas), pts.shape[0], field.k))
    evaluate(field._families, pts, alphas, out)
    return out.reshape(field.size, len(alphas) * pts.shape[0] * field.k)


def _column_blocks(design, n: int) -> list:
    """``design`` cut into ``n`` equal column blocks: one per order of a multi-order design."""
    side = design.shape[1] // n
    return [design[:, i * side:(i + 1) * side] for i in range(n)] if n > 1 else [design]


def _dense(x) -> np.ndarray:
    """A product of designs, such as a Gram matrix, never a design, as an ndarray."""
    return x.toarray() if isinstance(x, Windowed) else x


def box_design(field: KLField, b: Box, *alphas):
    """:func:`_design` of the multi-indices ``alphas`` on the grid of ``b``.

    Sparse for bump fields, dense otherwise.  Kept in the field's store and
    handed to every caller, so its arrays are read-only.
    """
    design = field._store.get((b, alphas))
    _lookups[design is None] += 1
    if design is None:
        design = field._store[b, alphas] = _design(field, grid_points(b), *alphas)
        if isinstance(design, np.ndarray):  # a windowed design is read-only as built
            design.setflags(write=False)
    return design


box_design.cache_info = lambda: tuple(_lookups)


def _sup_split(field: KLField, b: Box, r: int):
    """``(owners, peaks, rests)`` of the :func:`box_design` of orders <= r, for grid sups.

    A column with one stored entry ``d`` of term ``n`` holds the path value
    ``c_n*d``, rounded once, and ``|fl(c*d)| = fl(|c|*|d|)``; rounding is
    monotone, so the largest over a term's one-entry columns is
    ``|c_n|*peak_n`` with ``peak_n`` its largest ``|d|`` there.  ``owners``
    are the terms with such columns, ``peaks`` their peaks, and ``rests``
    the designs on the columns with two or more entries, each column summed
    in its own order: a windowed product sums each column alone, so all
    orders make one rest; a dense one is all rest, one design per order, as
    BLAS may round a product by its shape.  Columns without entries hold 0.
    Kept in the field's store beside the design, so the arrays are read-only.
    """
    if (b, r) in field._store:
        return field._store[b, r]
    alphas = multi_indices(field.m, r)
    design = box_design(field, b, *alphas)
    if isinstance(design, Windowed):
        per_column = np.bincount(design.cols, minlength=design.shape[1])
        single = per_column[design.cols] == 1
        peaks = np.zeros(design.shape[0])
        np.maximum.at(peaks, design.rows[single], np.abs(design.data[single]))
        owners = np.flatnonzero(peaks)  # stored entries are non-zero
        peaks, rests = peaks[owners], (design[:, per_column >= 2],)
    else:
        owners, peaks = np.empty(0, dtype=np.intp), np.empty(0)
        rests = tuple(_column_blocks(design, len(alphas)))  # views of the read-only design
    owners.setflags(write=False)
    peaks.setflags(write=False)
    return field._store.setdefault((b, r), (owners, peaks, rests))


def apply_design(coeffs: np.ndarray, design) -> np.ndarray:
    """Path values at the design's points for a batch of coefficient rows: (S, G*k)."""
    return coeffs @ design


def batch_seminorms(field: KLField, coeffs: np.ndarray, b: Box, r: int) -> np.ndarray:
    """Grid sup of all partials of order <= r, all components, per coefficient row.

    A lower bound for the true sup over the box, exact when the extrema lie
    on grid points.  Bits are those of ``max |coeffs @ box_design|``: see
    :func:`_sup_split`.
    """
    best = np.zeros(coeffs.shape[0])
    owners, peaks, rests = _sup_split(field, b, r)
    if owners.size:
        # every term owns a column on disjoint bumps: no copy of the coefficients
        vals = np.abs(coeffs if owners.size == coeffs.shape[1] else coeffs[:, owners])
        # an overflow is inf without a warning, as in a windowed product
        with np.errstate(over="ignore"):
            vals *= peaks
        np.maximum(best, np.max(vals, axis=1), out=best)
    for rest in rests:
        if rest.shape[1]:
            vals = apply_design(coeffs, rest)
            # vals is a fresh array: take |vals| in place, not in a chunk-sized temporary
            np.maximum(best, np.max(np.abs(vals, out=vals), axis=1), out=best)
    return best


def _owners_only(field: KLField, b: Box, r: int) -> bool:
    """Every term owns a one-entry column of the grid-sup split and no column is shared."""
    owners, _, rests = _sup_split(field, b, r)
    return owners.size == field.size and not any(rest.shape[1] for rest in rests)


def sups_below(field: KLField, seed: int, indices, b: Box, r: int, threshold: float) -> np.ndarray:
    """``batch_seminorms(field, sample_batch_coeffs(field, seed, indices), b, r) < threshold``
    for a field whose grid-sup split is :func:`_owners_only`.

    The grid sup is then the largest ``|c_n|*peak_n``, so coefficients are
    drawn in blocks of ``_FIRST_TERMS`` terms, then twice as many each time,
    and a sample stops at the first block whose largest ``|c_n|*peak_n`` is
    not below the threshold (nan included).  A block's live samples are cut
    into pieces of at most half a normal tile (``rng._TILE // 2`` draws, or one
    sample if its block is wider), so a block of more than half a tile runs
    on :func:`_map_slices`' pool: pieces change no bit.  The counterexample
    ``X_n``, each of whose terms fails ``sup < 1`` with probability 1/n, draws
    about 1.5 n of its n^2.
    """
    indices, sigmas, peaks = np.asarray(indices), field.sigma_array, _sup_split(field, b, r)[1]
    below = np.ones(indices.shape[0], dtype=bool)
    start, width = 0, _FIRST_TERMS
    while start < field.size and below.any():
        alive, stop = np.flatnonzero(below), min(start + width, field.size)

        def decide(rows: slice) -> np.ndarray:
            vals = normal_matrix(seed, indices[alive[rows]], stop - start, offset=start)
            vals *= sigmas[start:stop]  # as in sample_batch_coeffs, then batch_seminorms
            np.abs(vals, out=vals)
            with np.errstate(over="ignore"):
                vals *= peaks[start:stop]
            return np.max(vals, axis=1) < threshold

        pieces = list(_blocks(alive.size, stop - start, _TILE // 2))
        below[alive] = np.concatenate(_map_slices(decide, pieces))
        start, width = stop, 2 * width
    return below


def sample_seminorm(path: SamplePath, b: Box, r: int) -> float:
    """:func:`batch_seminorms` of one path."""
    return float(batch_seminorms(path.field, path.coeffs[None], b, r)[0])


# ---------------------------------------------------------------------------
# Cameron-Martin / support structure
# ---------------------------------------------------------------------------

@dataclass
class SupportBasisFunction:
    """The function ``q -> column j of K(q, p)`` for a fixed source point.

    It equals ``sum_n sigma_n^2 f_n^j(p) f_n`` and therefore lies exactly in
    the span of the expansion basis.
    """

    field: KLField
    point: tuple
    component: int
    coeffs: np.ndarray

    def as_sample_path(self) -> SamplePath:
        return SamplePath(self.field, self.coeffs)

    def eval(self, q) -> np.ndarray:
        return eval_sample(self.as_sample_path(), q)


def support_basis(field: KLField, p, j: int) -> SupportBasisFunction:
    """Support basis function at source point ``p``, output component ``j``.

    ``j`` is 0-based; coefficients are ``sigma_n^2 f_n^j(p)``.
    """
    if not 0 <= j < field.k:
        raise ValueError(f"component {j} out of range for k={field.k}")
    pt = np.atleast_1d(np.asarray(p, dtype=np.float64))
    # the sum over the design's one column j is that column's values
    values = _design(field, pt.reshape(1, -1), (0,) * field.m)[:, j::field.k].sum(axis=1)
    return SupportBasisFunction(field, tuple(pt), j, field.sigma_array ** 2 * values)


def cm_inner(field: KLField, pj, ql) -> float:
    """Reproducing inner product <h_p^j, h_q^l> = K^(j,l)(p, q).

    ``sum_n sigma_n^2 f_n^j(p) f_n^l(q)``: the support basis coefficients at p, the design at q.
    """
    (p, j), (q, l) = pj, ql
    if not 0 <= l < field.k:
        raise ValueError(f"component {l} out of range for k={field.k}")
    qt = np.atleast_1d(np.asarray(q, dtype=np.float64)).reshape(1, -1)
    return float((support_basis(field, p, j).coeffs @ _design(field, qt, (0,) * field.m))[l])


def projection_residual(field: KLField, g, b: Box) -> float:
    """RMS residual of least-squares projection of ``g`` onto span{f_n}.

    ``g`` may be a :class:`SamplePath`, a :class:`SupportBasisFunction`, or a
    callable point -> (k,) vector.  The normal equations are solved through
    the LAPACK eigensolver; a Gram condition estimate above 1e12 raises
    :class:`IllConditionedError` (report, don't guess), so every accepted
    eigenvalue is inverted.
    """
    pts = grid_points(b)
    if isinstance(g, SupportBasisFunction):
        g = g.as_sample_path()
    if isinstance(g, SamplePath):
        target = eval_sample(g, pts).ravel()
    elif callable(g):
        target = np.asarray([np.atleast_1d(g(row)) for row in pts],
                            dtype=np.float64).ravel()
    else:
        raise TypeError("g must be a SamplePath, SupportBasisFunction or callable")
    design = _design(field, pts, (0,) * field.m)
    gram = _dense(design @ design.T)
    rhs = design @ target
    coeffs = solve_psd_pinv(gram, rhs)
    resid = design.T @ coeffs - target
    return float(np.sqrt(np.mean(resid ** 2)))
