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
uniform per resampling block; resampling reads and writes only the slots of
the blocks that resample.  Apart from that, a step costs the same for every
slot, so its cost scales with ``n_particles``, not with the survivors: a
dead slot comes back only when its block resamples, and a run that seldom
resamples (``resample_threshold`` 0, say) keeps paying for its dead slots.
Runs are deterministic given the integer seed; the draws differ from
versions that stepped only live particles, so ``mc.json`` for a given seed
differs from theirs.

The particle route shares only :mod:`qemlab.dynamics` (map, noise, weight
and region) with the spectral route: it reads no grid, and the seed is an
input of this route alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .dynamics import MapSystem, NoiseModel, RegionSpec, WeightField, step_points

Array = np.ndarray

JACKKNIFE_BLOCKS = 10


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


class _Blocks:
    """The jackknife blocks: contiguous slot ranges of near-equal size, and
    the slot weights, in arrays allocated once and overwritten every step."""

    def __init__(self, n_particles: int):
        sizes = np.bincount(np.arange(n_particles) * JACKKNIFE_BLOCKS // n_particles)
        self.sizes = sizes[sizes > 0]
        self.block_of = np.repeat(np.arange(self.sizes.size), self.sizes)
        self.starts = np.concatenate(([0], np.cumsum(self.sizes)[:-1]))
        # row b lists block b's slots, then the slots after them up to the
        # length of the longest block
        self._rows = self.starts[:, None] + np.arange(self.sizes.max())
        self._w = np.empty(n_particles)
        self._w2 = np.empty(n_particles)

    def weigh(self, log_mass: Array) -> tuple[Array, Array, Array, Array]:
        """Each block's peak log-mass, every slot's mass relative to its
        block's peak, each block's total of those, and its effective sample
        size over block size.

        Dead slots (log-mass -inf) weigh 0; an extinct block has peak -inf,
        total 0 and ESS fraction 0.  The slot masses are overwritten by the
        next call.
        """
        peak = np.maximum.reduceat(log_mass, self.starts)
        shift = np.where(peak > -math.inf, peak, 0.0)
        w = np.subtract(log_mass, shift.repeat(self.sizes), out=self._w)
        np.exp(w, out=w)
        total = np.add.reduceat(w, self.starts)
        ess = np.zeros(self.sizes.size)
        np.divide(total * total,
                  np.add.reduceat(np.multiply(w, w, out=self._w2), self.starts)
                  * self.sizes, out=ess, where=total > 0.0)
        return peak, w, total, ess

    def sources(self, w: Array, fire: Array, jitter: Array) -> Array:
        """The slot each slot of the blocks flagged in ``fire`` copies under
        systematic resampling, in slot order, with one jitter per such block.

        Block b draws ``sizes[b]`` offspring at the evenly spaced quantiles
        ``(jitter + j) / sizes[b]``, each of which picks the first slot whose
        normalised cumulative weight reaches it (Douc, Cappe & Moulines,
        2005).  The picks equal those of ``searchsorted`` on the same
        quantiles.  With every jitter in [2**-53, 1], as ``1 - U`` is for a
        uniform draw U in [0, 1), no quantile is 0, so zero weights get no
        offspring.
        """
        fired = np.flatnonzero(fire)
        # one row per firing block; in the row of a short block, the extra
        # last slot leaves the cumulative weights before it alone and gets no
        # offspring, as its normalised cumulative weight is 1 or more
        rows = self._rows[fired]
        cum = w.take(rows, mode="clip")
        cum.cumsum(axis=1, out=cum)
        cum /= cum[np.arange(fired.size), self.sizes[fired] - 1, None]
        # sizes and jitters spread along the rows, which is faster than
        # broadcasting them
        m, u = (v.repeat(rows.shape[1]).reshape(rows.shape)
                for v in (self.sizes[fired].astype(float), jitter))
        # quantiles at or below each cumulative weight; the floor is exact up
        # to rounding, and one step either way puts it where the quantiles do
        below = cum * m
        below -= u
        np.floor(below, out=below)
        below += 1.0
        q = below + u
        q /= m
        below += q <= cum
        np.subtract(below, 1.0, out=q)
        q += u
        q /= m
        below -= q > cum
        np.minimum(below, m, out=below)
        counts = np.empty(rows.shape, dtype=np.int64)
        counts[:, 0] = below[:, 0]
        np.subtract(below[:, 1:], below[:, :-1], out=counts[:, 1:], casting="unsafe")
        return rows.ravel().repeat(counts.ravel())


def _log_mean_mass(peak: Array, total: Array, n_particles: int) -> float:
    """log of the mean slot mass from per-block peaks and relative totals."""
    top = float(peak.max())
    if top == -math.inf:
        return top
    return (top + math.log(float((total * np.exp(peak - top)).sum()))
            - math.log(n_particles))


def _constant_log_weight(weight: WeightField) -> float | None:
    if callable(weight.log_weight) or weight.support_cutoff is not None:
        return None
    return float(weight.log_weight)


def run_conditioned(system: MapSystem, noise: NoiseModel, weight: WeightField,
                    region: RegionSpec, start, n: int, n_particles: int,
                    observables, resample_threshold: float = 0.5,
                    seed: int = 0) -> EnsembleStats:
    """Run the killed, e^phi-weighted ensemble for n steps.

    ``start`` is either a point inside the region or a RegionSpec to sample
    uniformly from.  Deterministic given the integer ``seed``.  Raises
    EnsembleExtinctError when the ensemble's mass is 0 at some step <= n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n_particles < 2:
        raise ValueError("n_particles must be >= 2")
    obs = _normalize_observables(observables)
    rng = np.random.default_rng([int(seed)])
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

    blocks = _Blocks(n_particles)
    sizes = blocks.sizes
    block_resamplings = np.zeros(sizes.size, dtype=np.int64)
    min_ess = np.ones(sizes.size)

    series = np.empty(n + 1)
    peak, _, total, _ = blocks.weigh(log_mass)
    series[0] = _log_mean_mass(peak, total, n_particles)

    for t in range(n):
        coords = _coords(pos, d)
        for name, h in obs.items():
            birk[name] += np.asarray(h(coords), dtype=float)
        if const_lw is None:
            log_weight = weight.effective_log_values(pos)  # -inf kills
            # dead slots stay dead, whatever the weight is where they sit
            np.add(log_mass, log_weight, out=log_mass, where=log_mass > -math.inf)
        elif const_lw != 0.0:
            log_mass += const_lw

        new_pos, moved_alive = step_points(system, noise, pos, rng)
        if not moved_alive.all():  # keep absorbed slots on domain points
            np.copyto(new_pos, pos, where=~moved_alive[:, None])
        pos = new_pos
        log_mass = np.where(moved_alive & region.contains(pos), log_mass,
                            -math.inf)

        peak, w, total, ess = blocks.weigh(log_mass)
        series[t + 1] = _log_mean_mass(peak, total, n_particles)
        if series[t + 1] == -math.inf:
            raise EnsembleExtinctError(t + 1)
        np.minimum(min_ess, ess, out=min_ess)
        fire = (total > 0.0) & (ess < resample_threshold)
        if not fire.any():
            continue

        # equal-mass reset of every firing block, preserving its total mass
        src = blocks.sources(w, fire, 1.0 - rng.uniform(size=np.count_nonzero(fire)))
        reset = fire.repeat(sizes)
        for col in (*pos.T, *birk.values()):
            col[reset] = col[src]
        level = peak[fire] + np.log(total[fire]) - np.log(sizes[fire])
        log_mass[reset] = level.repeat(sizes[fire])
        block_resamplings += fire
        resample_times.append(t + 1)

    averages, errors = _ratio_with_jackknife(blocks, log_mass, birk, n)
    stats = EnsembleStats(
        averages=averages,
        standard_errors=errors,
        survival_fraction=float(np.mean(log_mass > -math.inf)),
        escape_rate_estimate=math.nan,
        log_mass_series=series,
        n_steps=n,
        n_particles=n_particles,
        resample_times=resample_times,
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


def _ratio_with_jackknife(blocks: _Blocks, log_mass, birk, n):
    """Equal-weight mean of per-block conditioned ratios, with jackknife SE.

    Each block is an independent replica, so its mass-weighted ratio is a
    consistent estimate of the same conditioned average; combining blocks
    with equal weights (rather than by their total masses, which drift apart
    multiplicatively over long runs) keeps every replica informative.
    Extinct blocks are dropped.  The slot masses are those of
    :meth:`_Blocks.weigh`, relative to their block's peak; the sums run over
    the live slots in slot order.
    """
    _, w, _, _ = blocks.weigh(log_mass)
    ids = np.flatnonzero(log_mass > -math.inf)
    of = blocks.block_of[ids]
    w = w[ids]
    denom_b = np.bincount(of, weights=w, minlength=blocks.sizes.size)
    live_blocks = denom_b > 0.0
    averages, errors = {}, {}
    for name, b_all in birk.items():
        vals = b_all[ids] / n
        numer_b = np.bincount(of, weights=w * vals, minlength=blocks.sizes.size)
        theta = numer_b[live_blocks] / denom_b[live_blocks]
        m = theta.size
        averages[name] = float(np.mean(theta))
        if m > 1:
            loo = (np.sum(theta) - theta) / (m - 1)
            errors[name] = float(np.sqrt((m - 1) / m * np.sum((loo - loo.mean()) ** 2)))
        else:
            errors[name] = math.nan
    return averages, errors


def escape_rate_mc(stats: EnsembleStats) -> float:
    """Escape rate from the survival-mass curve: minus its late-time log slope.

    The first fifth of the steps is discarded (transient alignment with the
    dominant eigenfunction); the rate is the least-squares slope of log mean
    mass over the remaining window.  ``exp(-rate)`` estimates the leading
    eigenvalue of the killed operator.
    """
    series = stats.log_mass_series
    start = int(math.ceil(0.2 * (series.size - 1)))
    window = series[start:]
    if window.size < 3:
        raise ValueError("need at least two mass windows past the burn-in")
    if not np.all(np.isfinite(window)):
        raise ValueError("mass series contains an extinct window")
    t = np.arange(window.size, dtype=float)
    slope = float(np.polyfit(t, window, 1)[0])
    return -slope

