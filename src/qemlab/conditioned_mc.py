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
a fully extinct ensemble raises EnsembleExtinctError either way.
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
    """Every particle died before the requested horizon."""

    def __init__(self, time: int):
        super().__init__(f"ensemble extinct at step {time}")
        self.time = time


@dataclass(eq=False)
class EnsembleStats:
    """Summary of one conditioned run.

    ``log_mass_series[t]`` is log of the mean particle mass after t steps
    (the unnormalized survival-mass curve used for escape-rate fits).
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


def _normalize_observables(observables) -> dict[str, Callable]:
    if callable(observables):
        return {"h": observables}
    if isinstance(observables, Mapping):
        return dict(observables)
    raise TypeError("observables must be a callable or a name->callable mapping")


def _coords(positions: Array, dimension: int) -> Array:
    return positions[:, 0] if dimension == 1 else positions


def _systematic_resample(weights: Array, n_out: int,
                         rng: np.random.Generator) -> Array:
    """Low-variance resampling: n_out evenly spaced quantiles with one jitter."""
    cum = np.cumsum(weights)
    cum /= cum[-1]
    u = (rng.uniform(0.0, 1.0) + np.arange(n_out)) / n_out
    return np.searchsorted(cum, u)


def _log_mean_mass(log_mass: Array, alive: Array) -> float:
    if not np.any(alive):
        return -math.inf
    m = log_mass[alive]
    peak = float(np.max(m))
    return peak + math.log(float(np.sum(np.exp(m - peak)))) - math.log(log_mass.size)


def run_conditioned(system: MapSystem, noise: NoiseModel, weight: WeightField,
                    region: RegionSpec, start, n: int, n_particles: int,
                    observables, resample_threshold: float = 0.5,
                    seed: int = 0, occupation_grid: GridPartition | None = None,
                    ) -> EnsembleStats:
    """Run the killed, e^phi-weighted ensemble for n steps.

    ``start`` is either a point inside the region or a RegionSpec to sample
    uniformly from.  Deterministic given ``seed``.  Raises
    EnsembleExtinctError when all particles die before time n.
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

    log_mass = np.zeros(n_particles)
    alive = np.asarray(region.contains(pos), dtype=bool).copy()
    if not np.any(alive):
        raise EnsembleExtinctError(0)  # started inside the killing region
    birk = {name: np.zeros(n_particles) for name in obs}
    series = np.empty(n + 1)
    series[0] = _log_mean_mass(log_mass, alive)
    resample_times: list[int] = []
    occ = (np.zeros(occupation_grid.n_cells)
           if occupation_grid is not None else None)
    occ_window = (n // 4, (3 * n) // 4)
    block_of = np.minimum(np.arange(n_particles) * JACKKNIFE_BLOCKS // n_particles,
                          JACKKNIFE_BLOCKS - 1)
    block_slots = [np.flatnonzero(block_of == b) for b in range(JACKKNIFE_BLOCKS)]

    for t in range(n):
        ids = np.flatnonzero(alive)
        coords = _coords(pos[ids], d)
        for name, h in obs.items():
            birk[name][ids] += np.asarray(h(coords), dtype=float)
        log_mass[ids] += np.log(weight.values(pos[ids]))
        if occ is not None and occ_window[0] <= t < occ_window[1]:
            w = np.exp(log_mass[ids] - np.max(log_mass[ids]))
            cells = occupation_grid.find_cells(pos[ids])
            good = cells >= 0
            occ += np.bincount(cells[good], weights=w[good],
                               minlength=occupation_grid.n_cells) / np.sum(w)

        new_pos, moved_alive = step_points(system, noise, pos[ids], rng)
        pos[ids] = new_pos
        still = moved_alive & region.contains(new_pos)
        alive[ids] = still
        if not np.any(alive):
            raise EnsembleExtinctError(t + 1)
        series[t + 1] = _log_mean_mass(log_mass, alive)

        if resample_threshold > 0.0:
            fired = False
            for slots in block_slots:
                live = slots[alive[slots]]
                if live.size == 0:
                    continue  # extinct block: stays extinct, carries no mass
                w = np.exp(log_mass[live] - np.max(log_mass[live]))
                ess = float(np.sum(w)) ** 2 / float(np.sum(w * w))
                if ess >= resample_threshold * slots.size:
                    continue
                # equal-mass reset preserving the block's total mass
                peak = float(np.max(log_mass[live]))
                block_total = peak + math.log(float(np.sum(np.exp(log_mass[live] - peak))))
                picks = live[_systematic_resample(w, slots.size, rng)]
                pos[slots] = pos[picks]
                for name in birk:
                    birk[name][slots] = birk[name][picks]
                log_mass[slots] = block_total - math.log(slots.size)
                alive[slots] = True
                fired = True
            if fired:
                resample_times.append(t + 1)

    averages, errors = _ratio_with_jackknife(log_mass, alive, birk, n, block_of)
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
