"""Disjoint-bump ensembles: covariances that vanish while the fields do not.

For each ``n`` the field ``X_n`` is a sum of ``n^2`` unit-peak bumps with disjoint
supports in the box, every coefficient scaled by ``1/a_n`` where ``a_n`` is
the symmetric normal quantile with two-sided tail mass ``1/n``.  The
kernel sup then equals ``1/a_n^2`` and decays to zero, while the sup of the
field is ``max_i |gamma_i| / a_n``, which concentrates above 1.  The small
sup-norm probability is exactly ``(1 - 1/n)^(n^2)`` because the bumps are
disjoint with their peaks on grid points.

``Y_n``, its r-fold integral (r >= 1), is the field of the r-fold antiderivatives of
those bumps.  Its order r is ``X_n``, so its (r, r) kernel seminorm decays like 1/a_n^2
and its grid C^r small-ball probability on the unit interval is that of ``X_n``; only
its order-(r + 2) seminorm, the one the paper's sufficient condition uses, grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import Box, IntegratedBump, unit_interval
from .field import KLField, kl_field
from .kernel import KernelSeminormSpec, kernel_of, kernel_seminorm
from .mc import MCEstimate, SupNormBelow, estimate_probability
from .rng import normal_quantile

GAP_FRACTION = 0.1  # fraction of each slot left empty so supports stay disjoint


@dataclass(frozen=True)
class CounterexampleConfig:
    """Ensemble size ``n`` (n^2 bumps), base box (m = 1), integration order."""

    n: int
    base_box: Box
    integration_order: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2")
        if self.base_box.m != 1:
            raise ValueError("the construction is one dimensional")
        if self.integration_order < 0:
            raise ValueError("integration order must be >= 0")


def config(n: int, base_box: Box | None = None, integration_order: int = 0) -> CounterexampleConfig:
    return CounterexampleConfig(n, base_box or unit_interval(), integration_order)


def a_n(n: int) -> float:
    """Scale with two-sided tail mass 1/n: P{|gamma| > a_n} = 1/n."""
    if n < 2:
        raise ValueError("need n >= 2")
    return normal_quantile(1.0 - 1.0 / (2.0 * n))


def grid_box(cfg: CounterexampleConfig) -> Box:
    """Base box with resolution forced so every bump center is a grid point.

    Centers sit at odd multiples of half a slot width, so the resolution
    must be a multiple of 2 n^2; the smallest such multiple at least the
    base resolution is used.
    """
    slots = 2 * cfg.n * cfg.n
    base = cfg.base_box.resolution[0]
    res = slots * max(1, math.ceil(base / slots))
    return Box(cfg.base_box.lower, cfg.base_box.upper, (res,))


def bump_layout(cfg: CounterexampleConfig) -> tuple[np.ndarray, float]:
    """Centers and common radius of the n^2 disjoint bumps."""
    n_sq = cfg.n * cfg.n
    width = cfg.base_box.width(0)
    lo = cfg.base_box.lower[0]
    centers = lo + width * (np.arange(1, n_sq + 1) - 0.5) / n_sq
    radius = width * (1.0 - GAP_FRACTION) / (2.0 * n_sq)
    return centers, radius


def build_X_n(cfg: CounterexampleConfig) -> KLField:
    """The ensemble: n^2 unit-peak disjoint bumps, all sigmas 1/a_n, as one bump family."""
    centers, radius = bump_layout(cfg)
    n_sq = centers.size
    return KLField.from_bumps(np.ones((n_sq, 1)), centers[:, None], np.full(n_sq, radius),
                              (1.0 / a_n(cfg.n),) * n_sq)


def exact_small_norm_prob(n: int) -> float:
    """P{sup |X_n| < 1} = (1 - 1/n)^(n^2), exact for this construction.

    The grid sup equals max_i |gamma_i| / a_n because the bumps are
    disjoint with unit peaks on grid points, so this is the exact event
    probability, not only an upper bound.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return (1.0 - 1.0 / n) ** (n * n)


def kernel_sup_decay(n_values, base_box: Box | None = None) -> list[float]:
    """Order-(0,0) kernel seminorm of each ensemble; equals 1/a_n^2."""
    out = []
    for n in n_values:
        cfg = config(int(n), base_box)
        field = build_X_n(cfg)
        spec = KernelSeminormSpec(grid_box(cfg), 0)
        out.append(kernel_seminorm(kernel_of(field), spec))
    return out


def build_Y_n(cfg: CounterexampleConfig) -> KLField:
    """The r-fold integral of :func:`build_X_n`, r = ``cfg.integration_order`` >= 1."""
    centers, radius = bump_layout(cfg)
    return kl_field([IntegratedBump((c,), radius, (1.0,), cfg.integration_order)
                     for c in centers.tolist()], (1.0 / a_n(cfg.n),) * centers.size)


# ---------------------------------------------------------------------------
# study report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StudyRow:
    n: int
    a_n: float
    exact_prob: float
    estimate: MCEstimate
    kernel_sup: float


def study(n_values, n_samples: int = 20000, seed: int = 0,
          base_box: Box | None = None) -> list[StudyRow]:
    """Per-n report: scale, exact probability, MC estimate, kernel sup."""
    rows = []
    for n in n_values:
        cfg = config(int(n), base_box)
        field = build_X_n(cfg)
        gbox = grid_box(cfg)
        est = estimate_probability(field, SupNormBelow(gbox, 0, 1.0), n_samples, seed)
        sup = kernel_seminorm(kernel_of(field), KernelSeminormSpec(gbox, 0))
        rows.append(StudyRow(int(n), a_n(int(n)), exact_small_norm_prob(int(n)), est, sup))
    return rows
