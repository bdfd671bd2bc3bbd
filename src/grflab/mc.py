"""Monte Carlo estimation of path-event probabilities and sup-norm means.

Events are deterministic predicates of a sample path restricted to a box
grid.  Estimation derives one random stream per sample index, so estimates
are reproducible bit-for-bit from ``(seed, n_samples, event)``, and chunks
of indices run on several threads without changing the result.  Each chunk
draws what its event reads.  A sup-norm event on disjoint bumps runs term
major instead: each block of terms is drawn for all live paths at once, in
pieces of one normal tile, and a path stops drawing once it has failed (see
:func:`~grflab.field.sups_below`).  Indicator counts are integer sums
(exact, order independent); real-valued statistics are reduced with exact
compensated summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .basis import Box
from .field import (KLField, _blocks, _map_slices, _owners_only, apply_design,
                    batch_seminorms, box_design, sample_batch_coeffs, sups_below)
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
    return _row_counts(sign == 0) + _row_counts(sign[:, :-1] * sign[:, 1:] < 0)


def _row_counts(hits: np.ndarray) -> np.ndarray:
    """True entries per row of a boolean array, counted eight to a packed byte."""
    return np.bitwise_count(np.packbits(hits, axis=1)).sum(axis=1, dtype=np.intp)


def _indicator_batch(event: EventSpec, field: KLField, seed: int,
                     indices: np.ndarray) -> np.ndarray:
    coeffs = sample_batch_coeffs(field, seed, indices)
    if isinstance(event, SupNormBelow):
        return batch_seminorms(field, coeffs, event.box, event.order) < event.threshold
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
    lo = 0.0 if count == 0 else _beta_quantile(count, n - count + 1, 0.025)
    hi = 1.0 if count == n else _beta_quantile(count + 1, n - count, 0.975)
    return MCEstimate(p, se, n, seed, (lo, hi))


def _beta_quantile(a: int, b: int, p: float) -> float:
    """x with ``I_x(a, b) = p`` by Newton steps safeguarded by bisection: within 1e-10
    relative of ``scipy.special.betaincinv`` up to 10^6 samples, or ArithmeticError."""
    log_beta = _log_beta(a, b)
    mean = a / (a + b)  # start at the normal approximation, z as Joiner and Rosenblatt's
    x = mean + 4.91 * (p ** 0.14 - (1 - p) ** 0.14) * math.sqrt(mean * (1 - mean) / (a + b + 1))
    lo, hi, x = 0.0, 1.0, x if 0.0 < x < 1.0 else mean
    for _ in range(200):
        f = _betainc(a, b, x, log_beta) - p
        lo, hi = (x, hi) if f < 0.0 else (lo, x)
        slope = math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
        new = x - f / slope if slope > 0.0 else math.nan
        if abs(new - x) <= 1e-12 * x:  # f is exact to about 1e-14: smaller steps are noise
            return new
        new = new if lo < new < hi else 0.5 * (lo + hi)
        if new in (lo, hi):
            return new
        x = new
    raise ArithmeticError(f"no beta quantile found for a={a}, b={b}, p={p}")


def _betainc(a: float, b: float, x: float, log_beta: float) -> float:
    """Regularized incomplete beta ``I_x(a, b)`` by Lentz's continued fraction."""
    if x > (a + 1) / (a + b + 2):  # the fraction converges fast only below this point
        return 1.0 - _betainc(b, a, 1.0 - x, log_beta)
    c = 1.0
    d = h = 1.0 / ((1.0 - (a + b) * x / (a + 1)) or 1e-300)
    for m in range(1, 100_000):
        for n in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                  -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / ((1.0 + n * d) or 1e-300)
            c = (1.0 + n / c) or 1e-300
            h *= c * d
        if abs(c * d - 1.0) < 3e-16:
            return math.exp(a * math.log(x) + b * math.log1p(-x) - log_beta) * h / a
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}, b={b}")


def _log_beta(a: float, b: float) -> float:
    """``log B(a, b)``, with the cancelling ``lgamma(q) - lgamma(p + q)`` from Stirling's series."""
    p, q = min(a, b), max(a, b)
    if q < 10:
        return math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)
    return (math.lgamma(p) + _stirling(q) - _stirling(p + q) + p - p * math.log(p + q)
            + (q - 0.5) * math.log1p(-p / (p + q)))


def _stirling(x: float) -> float:
    """``lgamma(x) - (x - 1/2) log x + x - log sqrt(2 pi)`` for x >= 10, by Stirling's series."""
    x2 = 1.0 / (x * x)
    return (1 / 12 + x2 * (-1 / 360 + x2 * (1 / 1260 + x2 * (-1 / 1680 + x2 * (
        1 / 1188 + x2 * (-691 / 360360 + x2 / 156)))))) / x


def _mean_estimate(values: np.ndarray, seed: int) -> MCEstimate:
    n = values.shape[0]
    mean = math.fsum(values) / n
    var = math.fsum((values - mean) ** 2) / (n - 1)
    se = math.sqrt(var / n)
    return MCEstimate(mean, se, n, seed, (mean - 1.96 * se, mean + 1.96 * se))


def _map_chunks(fn, field: KLField, b: Box, n_samples: int) -> list:
    """``fn`` of each chunk of 0 .. n_samples-1, a quarter block of coefficients and grid
    values whatever the cores, in order.  The caller runs the first chunk, which fills the
    field's design store, and :func:`_map_slices` the rest."""
    first, *rest = _blocks(n_samples, 4 * (b.n_grid_points * field.k + field.size))
    return [fn(first), *_map_slices(fn, rest)]


def estimate_probability(field: KLField, event: EventSpec, n_samples: int = 20000,
                         seed: int = 0) -> MCEstimate:
    """Probability of ``event`` under the field's law, by direct simulation.

    Sample ``i`` always uses stream ``(seed, i)``, so the estimate does not
    depend on chunking and repeated runs are bit-identical.  Sup-norm events on
    disjoint bumps run term major, over ranges of a quarter block of paths
    (:func:`~grflab.field.sups_below`); any other event chunk by chunk.
    """
    if n_samples < 100:
        raise ValueError("need n_samples >= 100")
    _check_event(event, field)
    if isinstance(event, SupNormBelow) and _owners_only(field, event.box, event.order):
        hits = (sups_below(field, seed, np.arange(rows.start, rows.stop), event.box, event.order,
                           event.threshold) for rows in _blocks(n_samples, 4))
    else:
        hits = _map_chunks(lambda rows: _indicator_batch(event, field, seed, np.arange(
            rows.start, rows.stop)), field, event.box, n_samples)
    return _indicator_estimate(sum(int(np.count_nonzero(h)) for h in hits), n_samples, seed)


def empirical_sup_mean(field: KLField, b: Box, r: int, n_samples: int = 20000,
                       seed: int = 0) -> MCEstimate:
    """Monte Carlo mean of the order-r grid sup-norm of sample paths."""
    if n_samples < 2:
        raise ValueError("need n_samples >= 2")
    sups = _map_chunks(lambda rows: batch_seminorms(field, sample_batch_coeffs(
        field, seed, np.arange(rows.start, rows.stop)), b, r), field, b, n_samples)
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


def limit_study(fields: Iterable[KLField], limit_field: KLField, event: EventSpec,
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
    for f in fields:
        dist = kernel_distance(kernel_of(f), k_limit, spec)
        rows.append(LimitStudyRow(f"field_{len(rows)}", dist,
                                  estimate_probability(f, event, n_samples, seed), False))
        del f  # no name or enumerate tuple holds a field, and its designs, past its row
    rows.append(LimitStudyRow("limit", 0.0,
                              estimate_probability(limit_field, event, n_samples, seed), True))
    return rows
