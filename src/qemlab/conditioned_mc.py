"""Weighted-and-killed particle simulation with conditioned Birkhoff averages.

The ensemble realizes the Feynman-Kac flow behind the conditioned process:
each particle carries log-mass S_n phi accumulated along its path, dies when
it leaves the region, and the conditioned average of an observable h is the
mass-weighted ratio

    E[ e^{S_n phi} 1_{alive at n} (1/n) sum_i h(X_i) ]
    ----------------------------------------------------
    E[ e^{S_n phi} 1_{alive at n} ]

estimated over the population.  Because the numerator weights degenerate
exponentially, systematic resampling (equal-mass reset, Birkhoff accumulators
cloned with their particle) is triggered whenever the effective sample size
drops below ``resample_threshold`` times the block size.

Resampling correlates particles through shared ancestry, which invalidates
i.i.d. error bars; worse, after many resampling generations the whole
population can descend from a handful of ancestors, so a jackknife over
blocks of an interacting population is blind to most of the fluctuation.
The population is therefore split into 10 blocks that resample strictly
within themselves: the blocks are independent replicas by construction, and
the block jackknife of the ratio estimator gives honest standard errors.

Small blocks on long horizons can collapse: once a block resamples from a
handful of ancestors its particle cloud narrows, the killing acts on it
coherently, and the block dies in a burst.  Populations of a few hundred
particles per block (a few thousand in total) keep that risk negligible;
a fully extinct ensemble raises EnsembleExtinctError either way.  Each run
reports, per block, how often it resampled, its smallest ESS fraction and
whether it died out (``EnsembleStats.diagnostics``, which the ``mc`` command
writes to ``diagnostics.json``).

The ensemble is stepped as whole arrays.  Every slot, dead or alive, is
mapped, perturbed by its own noise draw and evaluated; a slot is dead
exactly when its mass is 0 (log-mass -inf), and the sums of dead slots are
never read.  Mass 0 comes from leaving the region or from a weight of 0, so
a zero weight kills.  Blocks are contiguous slot ranges, so their ESS tests
and their systematic resamplings run in one pass over all blocks, with one
uniform per resampling block.  A step costs the same for every slot, so its
cost scales with ``n_particles``, not with the survivors: a dead slot comes
back only when its block resamples, and a run that seldom resamples
(``resample_threshold`` 0, say) keeps paying for its dead slots.  Runs are
deterministic given the seed; the draws differ from versions that stepped
only live particles, so ``mc.json`` for a given seed differs from theirs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .dynamics import MapSystem, NoiseModel, RegionSpec, WeightField, step_points
from .ulam import GridPartition

Array = np.ndarray

JACKKNIFE_BLOCKS = 10


def _seed_key(seed) -> list[int]:
    if np.isscalar(seed):
        return [int(seed)]
    return [int(s) for s in seed]


class EnsembleExtinctError(RuntimeError):
    """The ensemble's mass fell to 0 before the requested horizon."""

    def __init__(self, time: int):
        super().__init__(f"ensemble extinct at step {time}")
        self.time = time


@dataclass(eq=False)
class EnsembleStats:
    """Summary of one conditioned run.

    ``log_mass_series[t]`` is log of the mean particle mass after t steps
    (the unnormalized survival-mass curve used for escape-rate fits).  The
    per-block lists have one entry per jackknife block: how many steps it
    resampled at, and the smallest ESS / block size after any step (before
    its resampling; 0 once extinct).  ``extinct_blocks`` counts the blocks
    with no mass left at the end.
    """

    averages: dict[str, float]
    standard_errors: dict[str, float]
    survival_fraction: float
    escape_rate_estimate: float
    log_mass_series: Array
    n_steps: int
    n_particles: int
    resample_times: list[int] = field(default_factory=list)
    occupation: Array | None = None
    block_resamplings: list[int] = field(default_factory=list)
    block_min_ess_fraction: list[float] = field(default_factory=list)
    extinct_blocks: int = 0

    def scalars(self) -> dict:
        return {
            "averages": self.averages,
            "standard_errors": self.standard_errors,
            "survival_fraction": self.survival_fraction,
            "escape_rate_estimate": self.escape_rate_estimate,
            "n_steps": self.n_steps,
            "n_particles": self.n_particles,
            "n_resamplings": len(self.resample_times),
        }

    def diagnostics(self) -> dict:
        """Per-block resampling counters, apart from the primary results."""
        return {
            "n_blocks": len(self.block_resamplings),
            "block_resamplings": self.block_resamplings,
            "block_min_ess_fraction": self.block_min_ess_fraction,
            "extinct_blocks": self.extinct_blocks,
        }


def _normalize_observables(observables) -> dict[str, Callable]:
    if callable(observables):
        return {"h": observables}
    if isinstance(observables, Mapping):
        return dict(observables)
    raise TypeError("observables must be a callable or a name->callable mapping")


def _coords(positions: Array, dimension: int) -> Array:
    return positions[:, 0] if dimension == 1 else positions


def _resample_counts(weights: Array, sizes: Array, jitter: Array) -> Array:
    """Offspring counts of systematic resampling, one block per row.

    Row b holds block b's nonnegative weights in its first ``sizes[b]``
    entries, zeros after them, and draws ``sizes[b]`` offspring at the
    evenly spaced quantiles ``(jitter[b] + j) / sizes[b]``, each of which
    picks the first slot whose normalised cumulative weight reaches it (Douc,
    Cappe & Moulines, 2005).  The counts equal those of ``searchsorted`` on
    the same quantiles.  With every jitter in [2**-53, 1], as ``1 - U`` is
    for a uniform draw U in [0, 1), no quantile is 0, so zero weights get no
    offspring.
    """
    cum = np.cumsum(weights, axis=1)
    cum /= cum[np.arange(sizes.size), sizes - 1][:, None]
    m = sizes[:, None]
    u = jitter[:, None]
    # quantiles at or below each cumulative weight; the floor is exact up to
    # rounding, and one step either way puts it where the quantiles do
    below = np.floor(cum * m - u) + 1.0
    below += (u + below) / m <= cum
    below -= (u + (below - 1.0)) / m > cum
    np.minimum(below, m, out=below)
    return np.diff(below.astype(np.int64), axis=1, prepend=0)


class _Blocks:
    """The jackknife blocks: contiguous slot ranges of near-equal size."""

    def __init__(self, n_particles: int):
        self.block_of = np.arange(n_particles) * JACKKNIFE_BLOCKS // n_particles
        sizes = np.bincount(self.block_of)
        self.sizes = sizes[sizes > 0]
        self.starts = np.concatenate(([0], np.cumsum(self.sizes)[:-1]))
        # row b lists block b's slots, padded with its last slot
        offsets = np.arange(self.sizes.max())
        self.table = self.starts[:, None] + np.minimum(offsets, self.sizes[:, None] - 1)
        self.in_block = offsets < self.sizes[:, None]
        self._identity = np.arange(n_particles)

    def weights(self, log_mass: Array) -> tuple[Array, Array, Array]:
        """Each block's peak log-mass, every slot's mass relative to its
        block's peak, and each block's total of those.

        Dead slots (log-mass -inf) weigh 0; an extinct block has peak -inf
        and total 0.
        """
        peak = np.maximum.reduceat(log_mass, self.starts)
        shift = np.where(peak > -math.inf, peak, 0.0)
        w = np.exp(log_mass - np.repeat(shift, self.sizes))
        return peak, w, np.add.reduceat(w, self.starts)

    def ess_fractions(self, w: Array, total: Array) -> Array:
        """Effective sample size over block size, 0 for extinct blocks."""
        ess = np.zeros(self.sizes.size)
        np.divide(total * total, np.add.reduceat(w * w, self.starts) * self.sizes,
                  out=ess, where=total > 0.0)
        return ess

    def sources(self, w: Array, fire: Array, jitter: Array) -> Array:
        """The slot each slot copies after systematic resampling of the
        blocks flagged in ``fire``, with one jitter per such block (see
        ``_resample_counts``); slots of other blocks copy themselves."""
        fired = np.flatnonzero(fire)
        rows = self.table[fired]
        counts = _resample_counts(w[rows] * self.in_block[fired],
                                  self.sizes[fired], jitter)
        src = self._identity.copy()
        src[np.repeat(fire, self.sizes)] = np.repeat(rows.ravel(), counts.ravel())
        return src


def _log_mean_mass(peak: Array, total: Array, n_particles: int) -> float:
    """log of the mean slot mass from per-block peaks and relative totals."""
    top = float(np.max(peak))
    if top == -math.inf:
        return top
    return (top + math.log(float(np.sum(total * np.exp(peak - top))))
            - math.log(n_particles))


def _constant_log_weight(weight: WeightField) -> float | None:
    if callable(weight.log_weight) or weight.support_cutoff is not None:
        return None
    return float(weight.log_weight)


def run_conditioned(system: MapSystem, noise: NoiseModel, weight: WeightField,
                    region: RegionSpec, start, n: int, n_particles: int,
                    observables, resample_threshold: float = 0.5,
                    seed: int = 0, occupation_grid: GridPartition | None = None,
                    ) -> EnsembleStats:
    """Run the killed, e^phi-weighted ensemble for n steps.

    ``start`` is either a point inside the region or a RegionSpec to sample
    uniformly from.  Deterministic given ``seed``.  Raises
    EnsembleExtinctError when the ensemble's mass is 0 at some step <= n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n_particles < 2:
        raise ValueError("n_particles must be >= 2")
    obs = _normalize_observables(observables)
    rng = np.random.default_rng(_seed_key(seed))
    d = system.dimension

    if isinstance(start, RegionSpec):
        pos = _sample_region(start, n_particles, rng)
    else:
        pt = np.atleast_1d(np.asarray(start, dtype=float))
        pos = np.tile(pt, (n_particles, 1))

    # a slot is alive exactly while its log-mass is finite
    log_mass = np.where(region.contains(pos), 0.0, -math.inf)
    if not np.any(log_mass > -math.inf):
        raise EnsembleExtinctError(0)  # started inside the killing region
    const_lw = _constant_log_weight(weight)
    birk = {name: np.zeros(n_particles) for name in obs}
    resample_times: list[int] = []
    occ = (np.zeros(occupation_grid.n_cells)
           if occupation_grid is not None else None)
    occ_window = (n // 4, (3 * n) // 4)

    blocks = _Blocks(n_particles)
    sizes = blocks.sizes
    block_resamplings = np.zeros(sizes.size, dtype=np.int64)
    min_ess = np.ones(sizes.size)

    series = np.empty(n + 1)
    peak, _, total = blocks.weights(log_mass)
    series[0] = _log_mean_mass(peak, total, n_particles)

    for t in range(n):
        coords = _coords(pos, d)
        for name, h in obs.items():
            birk[name] += np.asarray(h(coords), dtype=float)
        if const_lw is None:
            with np.errstate(divide="ignore"):  # weight 0 gives mass 0: dead
                log_weight = np.log(weight.values(pos))
            # dead slots stay dead, whatever the weight is where they sit
            np.add(log_mass, log_weight, out=log_mass, where=log_mass > -math.inf)
        elif const_lw != 0.0:
            log_mass += const_lw
        if occ is not None and occ_window[0] <= t < occ_window[1]:
            top = np.max(log_mass)
            if top > -math.inf:
                w = np.exp(log_mass - top)
                cells = occupation_grid.find_cells(pos)
                good = cells >= 0
                occ += np.bincount(cells[good], weights=w[good],
                                   minlength=occupation_grid.n_cells) / np.sum(w)

        new_pos, moved_alive = step_points(system, noise, pos, rng)
        if not np.all(moved_alive):  # keep absorbed slots on domain points
            new_pos[~moved_alive] = pos[~moved_alive]
        pos = new_pos
        log_mass = np.where(moved_alive & region.contains(pos), log_mass,
                            -math.inf)

        peak, w, total = blocks.weights(log_mass)
        series[t + 1] = _log_mean_mass(peak, total, n_particles)
        if series[t + 1] == -math.inf:
            raise EnsembleExtinctError(t + 1)
        ess = blocks.ess_fractions(w, total)
        np.minimum(min_ess, ess, out=min_ess)
        fire = (total > 0.0) & (ess < resample_threshold)
        if not np.any(fire):
            continue

        # equal-mass reset of every firing block, preserving its total mass
        src = blocks.sources(w, fire, 1.0 - rng.uniform(size=np.count_nonzero(fire)))
        pos = np.take(pos, src, axis=0)
        for name in birk:
            birk[name] = np.take(birk[name], src)
        level = np.zeros(sizes.size)
        level[fire] = peak[fire] + np.log(total[fire]) - np.log(sizes[fire])
        log_mass = np.where(np.repeat(fire, sizes), np.repeat(level, sizes),
                            log_mass)
        block_resamplings += fire
        resample_times.append(t + 1)

    alive = log_mass > -math.inf
    averages, errors = _ratio_with_jackknife(log_mass, alive, birk, n,
                                            blocks.block_of)
    stats = EnsembleStats(
        averages=averages,
        standard_errors=errors,
        survival_fraction=float(np.mean(alive)),
        escape_rate_estimate=math.nan,
        log_mass_series=series,
        n_steps=n,
        n_particles=n_particles,
        resample_times=resample_times,
        occupation=(occ / occ.sum() if occ is not None and occ.sum() > 0 else occ),
        block_resamplings=block_resamplings.tolist(),
        block_min_ess_fraction=min_ess.tolist(),
        extinct_blocks=int(np.sum(total == 0.0)),
    )
    try:
        stats.escape_rate_estimate = escape_rate_mc(stats)
    except ValueError:
        stats.escape_rate_estimate = math.nan  # horizon too short for a fit
    return stats


def _sample_region(region: RegionSpec, n: int, rng) -> Array:
    vols = np.asarray([b.volume for b in region.boxes])
    picks = rng.choice(len(region.boxes), size=n, p=vols / vols.sum())
    pos = np.empty((n, region.dimension))
    for b, box in enumerate(region.boxes):
        sel = picks == b
        k = int(np.sum(sel))
        if k:
            pos[sel] = np.asarray(box.lo) + rng.uniform(size=(k, region.dimension)) * box.widths
    return pos


def _ratio_with_jackknife(log_mass, alive, birk, n, block_of):
    """Equal-weight mean of per-block conditioned ratios, with jackknife SE.

    Each block is an independent replica, so its mass-weighted ratio is a
    consistent estimate of the same conditioned average; combining blocks
    with equal weights (rather than by their total masses, which drift apart
    multiplicatively over long runs) keeps every replica informative.
    Extinct blocks are dropped.
    """
    ids = np.flatnonzero(alive)
    blocks = block_of[ids]
    # per-block weights, each block normalized by its own peak for stability
    peak_b = np.full(JACKKNIFE_BLOCKS, -math.inf)
    np.maximum.at(peak_b, blocks, log_mass[ids])
    w = np.exp(log_mass[ids] - peak_b[blocks])
    denom_b = np.bincount(blocks, weights=w, minlength=JACKKNIFE_BLOCKS)
    live_blocks = denom_b > 0.0
    averages, errors = {}, {}
    for name, b_all in birk.items():
        vals = b_all[ids] / n
        numer_b = np.bincount(blocks, weights=w * vals, minlength=JACKKNIFE_BLOCKS)
        theta = numer_b[live_blocks] / denom_b[live_blocks]
        m = theta.size
        averages[name] = float(np.mean(theta))
        if m > 1:
            loo = (np.sum(theta) - theta) / (m - 1)
            errors[name] = float(np.sqrt((m - 1) / m * np.sum((loo - loo.mean()) ** 2)))
        else:
            errors[name] = math.nan
    return averages, errors


def escape_rate_mc(stats: EnsembleStats, burn_in_fraction: float = 0.2) -> float:
    """Escape rate from the survival-mass curve: minus its late-time log slope.

    The first ``burn_in_fraction`` of steps is discarded (transient alignment
    with the dominant eigenfunction); the rate is the least-squares slope of
    log mean mass over the remaining window.  ``exp(-rate)`` estimates the
    leading eigenvalue of the killed operator.
    """
    series = stats.log_mass_series
    start = int(math.ceil(burn_in_fraction * (series.size - 1)))
    window = series[start:]
    if window.size < 3:
        raise ValueError("need at least two mass windows past the burn-in")
    if not np.all(np.isfinite(window)):
        raise ValueError("mass series contains an extinct window")
    t = np.arange(window.size, dtype=float)
    slope = float(np.polyfit(t, window, 1)[0])
    return -slope


@dataclass
class IndependenceReport:
    """Comparison of conditioned averages from two start points."""

    averages_a: dict[str, float]
    averages_b: dict[str, float]
    standard_errors_a: dict[str, float]
    standard_errors_b: dict[str, float]

    def delta(self, name: str) -> float:
        return abs(self.averages_a[name] - self.averages_b[name])

    def allowance(self, name: str) -> float:
        return 3.0 * (self.standard_errors_a[name] + self.standard_errors_b[name])

    @property
    def passed(self) -> bool:
        return all(self.delta(k) <= self.allowance(k) for k in self.averages_a)


def starting_point_independence(system, noise, weight, region, x_a, x_b,
                                n, n_particles, observables,
                                resample_threshold: float = 0.5,
                                seed: int = 0) -> IndependenceReport:
    """Run the conditioned ensemble from two starts and compare the limits.

    Both points must lie where the survival profile is positive; the check
    passes when every observable agrees within 3 combined standard errors.
    """
    stats_a = run_conditioned(system, noise, weight, region, x_a, n,
                              n_particles, observables, resample_threshold,
                              seed=[int(seed), 0])
    stats_b = run_conditioned(system, noise, weight, region, x_b, n,
                              n_particles, observables, resample_threshold,
                              seed=[int(seed), 1])
    return IndependenceReport(stats_a.averages, stats_b.averages,
                              stats_a.standard_errors, stats_b.standard_errors)
