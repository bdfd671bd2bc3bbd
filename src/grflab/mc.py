"""Monte Carlo estimation of path-event probabilities and sup-norm means.

Events are deterministic predicates of a sample path restricted to a box
grid.  Estimation derives one random stream per sample index, so estimates
are reproducible bit-for-bit from ``(seed, n_samples, event)``, and chunks
of indices run on several threads without changing the result.
Indicator counts are integer sums (exact, order independent); real-valued
statistics are reduced with exact compensated summation.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from scipy.special import betaincinv

from .basis import Box
from .field import (KLField, _blocks, apply_design, batch_seminorms, box_design,
                    sample_batch_coeffs)
from .kernel import KernelSeminormSpec, kernel_distance, kernel_of, kernel_seminorm


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupNormBelow:
    """Sup of all partials of order <= ``order`` on the grid stays below ``threshold``."""

    box: Box
    order: int
    threshold: float


@dataclass(frozen=True)
class ZeroCountEquals:
    """The path (m = k = 1) has exactly ``count`` zeros along the grid.

    Zeros are counted as strict sign changes between adjacent grid values,
    plus one zero for every grid point whose value is exactly zero; such a
    point resets the scan, so a crossing through it is not double counted.
    A run of exact zeros therefore counts once per point: a field with flat
    zero gaps, such as the disjoint bumps of :mod:`grflab.counterexample`,
    counts every grid point of every gap.  Exact grid zeros form a
    measure-zero event for nondegenerate fields.
    """

    box: Box
    count: int


@dataclass(frozen=True)
class PositiveOnBox:
    """Every component at every grid point is strictly positive."""

    box: Box


@dataclass(frozen=True)
class DegenerateZero:
    """Some grid point (m = k = 1) has |f| < value_eps and |f'| < deriv_eps.

    Empirical diagnostic for near-degenerate zeros; the complement of the
    regularity that a nondegeneracy certificate guarantees almost surely.
    """

    box: Box
    value_eps: float
    deriv_eps: float


EventSpec = Union[SupNormBelow, ZeroCountEquals, PositiveOnBox, DegenerateZero]


def _check_event(event: EventSpec, field: KLField) -> None:
    if event.box.m != field.m:
        raise ValueError("event box dimension does not match the field")
    if isinstance(event, (ZeroCountEquals, DegenerateZero)):
        if field.m != 1 or field.k != 1:
            raise ValueError("zero-count events need m = 1, k = 1")


def _zero_count_rows(vals: np.ndarray) -> np.ndarray:
    """Zeros per row: exact zeros plus strict sign changes between neighbours.

    A value that is neither zero nor positive (nan included) is negative.
    """
    # one int8 array of signs +1, 0, -1: nan >= 0 is False, so nan gets -1
    sign = (vals > 0.0).view(np.int8)
    sign += vals >= 0.0
    sign -= 1
    # the scans read rows: copy the signs of an F-ordered (windowed) product row-major
    sign = np.ascontiguousarray(sign)
    return _row_counts(sign == 0) + _row_counts(sign[:, :-1] * sign[:, 1:] < 0)


def _row_counts(hits: np.ndarray) -> np.ndarray:
    """True entries per row of a boolean array, counted eight to a packed byte."""
    return np.bitwise_count(np.packbits(hits, axis=1)).sum(axis=1, dtype=np.intp)


def _indicator_batch(event: EventSpec, field: KLField, coeffs: np.ndarray) -> np.ndarray:
    if isinstance(event, SupNormBelow):
        sups = batch_seminorms(field, coeffs, event.box, event.order)
        return sups < event.threshold
    if isinstance(event, ZeroCountEquals):
        vals = apply_design(coeffs, box_design(field, event.box, (0,)))
        return _zero_count_rows(vals) == event.count
    if isinstance(event, PositiveOnBox):
        vals = apply_design(coeffs, box_design(field, event.box, (0,) * field.m))
        return np.min(vals, axis=1) > 0.0
    if isinstance(event, DegenerateZero):
        v0 = apply_design(coeffs, box_design(field, event.box, (0,)))
        v1 = apply_design(coeffs, box_design(field, event.box, (1,)))
        hit = (np.abs(v0) < event.value_eps) & (np.abs(v1) < event.deriv_eps)
        return hit.any(axis=1)
    raise TypeError(f"unknown event {event!r}")


# ---------------------------------------------------------------------------
# estimates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MCEstimate:
    """Estimate with a 95% confidence interval.

    For event probabilities ``ci95`` is the exact Clopper-Pearson interval
    of the hit count, which stays non-degenerate at 0 and ``n_samples``
    hits; for means it is the normal approximation ``mean +- 1.96 stderr``.
    ``stderr`` is the plug-in standard error in both cases.
    """

    p_hat: float
    stderr: float
    n_samples: int
    seed: int
    ci95: tuple


def _indicator_estimate(count: int, n: int, seed: int) -> MCEstimate:
    p = count / n
    se = math.sqrt(p * (1.0 - p) / n)
    lo = 0.0 if count == 0 else float(betaincinv(count, n - count + 1, 0.025))
    hi = 1.0 if count == n else float(betaincinv(count + 1, n - count, 0.975))
    return MCEstimate(p, se, n, seed, (lo, hi))


def _mean_estimate(values: np.ndarray, seed: int) -> MCEstimate:
    n = values.shape[0]
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    se = math.sqrt(var / n)
    return MCEstimate(mean, se, n, seed, (mean - 1.96 * se, mean + 1.96 * se))


def _usable_cores() -> int:
    # the cores this process may run on (``taskset`` restricts them), where
    # the platform says so
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_chunks(fn, field: KLField, b: Box, n_samples: int, seed: int) -> list:
    """``fn`` of the coefficient rows of each chunk of samples 0 .. n_samples-1, in order.

    A chunk is always a quarter block of coefficients and grid values, so
    results do not depend on the core count.  The caller runs the first
    chunk, which fills the design caches; the rest run on at most
    ``min(usable cores, 4)`` threads, so the chunks in flight hold at most
    one block.  A run of one chunk opens no pool.
    """
    chunks = list(_blocks(n_samples, 4 * (b.n_grid_points * field.k + field.size)))

    def run(rows: slice):
        return fn(sample_batch_coeffs(field, seed, np.arange(rows.start, rows.stop)))

    first = run(chunks[0])
    if len(chunks) == 1:
        return [first]
    threads = min(_usable_cores(), 4, len(chunks) - 1)
    # looked up here: concurrent.futures loads its thread module on first use,
    # so a command that opens no pool does not import it
    with concurrent.futures.ThreadPoolExecutor(threads) as pool:
        return [first, *pool.map(run, chunks[1:])]


def estimate_probability(field: KLField, event: EventSpec, n_samples: int = 20000,
                         seed: int = 0) -> MCEstimate:
    """Probability of ``event`` under the field's law, by direct simulation.

    Sample ``i`` always uses stream ``(seed, i)``, so the estimate does not
    depend on chunking and repeated runs are bit-identical.
    """
    if n_samples < 100:
        raise ValueError("need n_samples >= 100")
    _check_event(event, field)
    count = sum(_map_chunks(
        lambda coeffs: int(np.count_nonzero(_indicator_batch(event, field, coeffs))),
        field, event.box, n_samples, seed))
    return _indicator_estimate(count, n_samples, seed)


def empirical_sup_mean(field: KLField, b: Box, r: int, n_samples: int = 20000,
                       seed: int = 0) -> MCEstimate:
    """Monte Carlo mean of the order-r grid sup-norm of sample paths."""
    if n_samples < 2:
        raise ValueError("need n_samples >= 2")
    sups = _map_chunks(lambda coeffs: batch_seminorms(field, coeffs, b, r),
                       field, b, n_samples, seed)
    return _mean_estimate(np.concatenate(sups), seed)


@dataclass(frozen=True)
class GaussianRatio:
    """Ratio E||X||_(r-1) / sqrt(||K||_(r,r)) behind the Gaussian sup bound.

    The bound says the ratio is controlled by a constant depending only on
    the box, the order and the output dimension; ``zero_denominator`` flags
    fields whose kernel seminorm vanishes (ratio reported as 0).
    """

    ratio: float
    numerator: MCEstimate
    denominator: float
    zero_denominator: bool


def gaussian_ratio(field: KLField, b: Box, r: int, n_samples: int = 20000,
                   seed: int = 0) -> GaussianRatio:
    if r < 1:
        raise ValueError("need r >= 1")
    num = empirical_sup_mean(field, b, r - 1, n_samples, seed)
    denom_sq = kernel_seminorm(kernel_of(field), KernelSeminormSpec(b, r))
    if denom_sq <= 0.0:
        return GaussianRatio(0.0, num, 0.0, True)
    denom = math.sqrt(denom_sq)
    return GaussianRatio(num.p_hat / denom, num, denom, False)


@dataclass(frozen=True)
class LimitStudyRow:
    label: str
    kernel_distance: float
    estimate: MCEstimate
    is_limit: bool


def limit_study(fields: Sequence[KLField], limit_field: KLField, event: EventSpec,
                b: Box, r: int, n_samples: int = 20000, seed: int = 0,
                distance_order: int | None = None) -> list[LimitStudyRow]:
    """Kernel distance to the limit versus event probability, per field.

    Distances are evaluated at derivative order ``r + 2`` (the order whose
    convergence guarantees convergence of order-r event probabilities),
    overridable via ``distance_order`` to exhibit weaker-order convergence.
    All rows share the same seed (common random numbers), plus one row for
    the limit field itself.

    The event threshold is the caller's responsibility: it must be chosen
    so the limit law puts no mass on the event boundary (for sup-norm
    events any positive threshold works for continuous laws).
    """
    order = r + 2 if distance_order is None else distance_order
    spec = KernelSeminormSpec(b, order)
    k_limit = kernel_of(limit_field)
    rows = []
    for i, f in enumerate(fields):
        dist = kernel_distance(kernel_of(f), k_limit, spec)
        rows.append(LimitStudyRow(f"field_{i}", dist,
                                  estimate_probability(f, event, n_samples, seed), False))
    rows.append(LimitStudyRow("limit", 0.0,
                              estimate_probability(limit_field, event, n_samples, seed), True))
    return rows
