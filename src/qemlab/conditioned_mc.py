"""Weighted-and-killed particle simulation with conditioned averages.

The ensemble realizes the Feynman-Kac flow behind the conditioned process:
each particle carries log-mass S_t phi accumulated along its path and dies
when it leaves the region.  The quasi-ergodic average of an observable h is
the limit of the conditioned Birkhoff averages

    E[ e^{S_n phi} 1_{alive at n} (1/n) sum_i h(X_i) ]
    ----------------------------------------------------
    E[ e^{S_n phi} 1_{alive at n} ]

and every term with both i and n - i large reads the same measure.  The run
estimates it with a fixed-lag smoother on one population (Olsson, Cappe,
Douc & Moulines, *Bernoulli* 2008).  From step ``max(n // 10, LAG + 1)``
on, every ``RECORD_EVERY`` steps t, a record is the mass-weighted mean over
the current particles of h at their ancestors' positions ``LAG`` steps back:
the i = t - LAG > 0 term of the ratio above with n = t.  At lag 0 a record
would read the quasi-stationary distribution instead, a different measure;
the lag lets the conditioning on the future of X_{t-LAG} act.  The estimate
is the mean of the records.  Its standard error comes from ``BATCHES``
batch means of consecutive records, which filter stability makes nearly
independent (Del Moral & Guionnet, *Ann. Inst. H. Poincare* 2001); it is
NaN only when the records fill fewer than two batches.

The mass-weighted average would degenerate exponentially without
resampling, so systematic resampling (an equal-mass reset that keeps the
total mass) runs whenever the effective sample size falls below
``resample_threshold`` times the population.  Averages of whole paths,
cloned with their particles, would rest on the few ancestral lines that
survive many resamplings (path degeneracy; Jacob, Murray & Rubenthaler,
*Stat. Comput.* 2015); a record looks back only ``LAG`` steps, where many
lines are still distinct.  To find the ancestors, the run keeps the position
array of the record's anchor step ``t - LAG`` (every step makes a new one)
and composes the source map of each resampling since then into one ancestor
map, one integer gather per resampling.  The observables are read only on
recording steps.  Each run reports how often it resampled, its smallest ESS
fraction and its record count (``EnsembleStats.diagnostics``, which the
``mc`` command writes to ``diagnostics.json``); a fully extinct ensemble
raises EnsembleExtinctError.

The ensemble is stepped as whole arrays.  Every slot, dead or alive, is
mapped, perturbed by its own noise draw and evaluated; a boolean mask says
which slots are alive.  A slot dies on leaving the region or where its
log-mass reaches -inf, so a weight of 0 kills.  A constant weight (phi = 0
included) gives every live slot the same mass, so the run keeps one log
scale for all of them and each live mass is exactly 1; any other weight
keeps a log-mass per slot, read only where the slot is alive.  Neither
evaluates ``exp`` at -inf, which NumPy computes far more slowly than at
finite inputs.  The map, noise and region cost the same for every slot, so
they scale with ``n_particles``; a resampling reads only the slots of
positive mass, so it scales with the survivors, and a dead slot comes back
only there.  Runs are deterministic given the integer seed.

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

LAG = 10  # steps from a record's anchor to the record
RECORD_EVERY = 10  # steps between records; at least LAG, so one anchor is open
BATCHES = 20  # batch means behind a standard error
MIN_STEPS = LAG + 1  # the shortest horizon with a record past the start


class EnsembleExtinctError(RuntimeError):
    """The ensemble's mass fell to 0 before the requested horizon."""

    def __init__(self, time: int):
        super().__init__(f"ensemble extinct at step {time}")
        self.time = time


@dataclass(eq=False)
class EnsembleStats:
    """Summary of one conditioned run.

    ``log_mass_series[t]`` is log of the mean particle mass after t steps
    (the unnormalized survival-mass curve used for escape-rate fits).
    ``resample_times`` lists the steps the population resampled at,
    ``min_ess_fraction`` is the smallest ESS over population size after any
    step (before its resampling) and ``n_records`` the number of records
    behind each average.
    """

    averages: dict[str, float]
    standard_errors: dict[str, float]
    survival_fraction: float
    escape_rate_estimate: float
    log_mass_series: Array
    n_steps: int
    n_particles: int
    resample_times: list[int] = field(default_factory=list)
    min_ess_fraction: float = 1.0
    n_records: int = 0

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
        """Resampling and record counters, apart from the primary results."""
        return {
            "resamplings": len(self.resample_times),
            "min_ess_fraction": self.min_ess_fraction,
            "records": self.n_records,
            "lag": LAG,
            "record_every": RECORD_EVERY,
            "batches": BATCHES,
        }


def _constant_log_weight(weight: WeightField) -> float | None:
    if callable(weight.log_weight) or weight.support_cutoff is not None:
        return None
    return float(weight.log_weight)


def _systematic_sources(slots: Array, cum: Array, m: int, jitter: float) -> Array:
    """The slot each of ``m`` slots copies under systematic resampling.

    ``slots`` are the slots of positive mass in order, ``cum`` their
    unnormalised cumulative masses.  Pick j goes to the first slot whose
    normalised cumulative mass reaches the quantile ``(jitter + j) / m``
    (Douc, Cappe & Moulines, 2005), as ``searchsorted`` would.  With the
    jitter in [2**-53, 1], as ``1 - U`` is for a uniform draw U in [0, 1),
    no quantile is 0 and none exceeds 1, so every pick is one of ``slots``.
    Each slot counts the quantiles at or below its cumulative mass and takes
    its count less the previous slot's: the work scales with ``slots.size``.
    A mass of 0 adds +0.0 to a cumulative sum, so these are the picks of
    the masses of all ``m`` slots.
    """
    cum = cum / cum[-1]
    # the floor is exact up to rounding, and one step either way puts it
    # where the quantiles do
    below = cum * m
    below -= jitter
    np.floor(below, out=below)
    below += 1.0
    # each step adds or takes a comparison's 0.0 or 1.0; the quantiles and
    # the comparisons share one buffer
    quantile = np.add(below, jitter)
    quantile /= m
    below += np.less_equal(quantile, cum, out=quantile)
    np.subtract(below, 1.0, out=quantile)
    quantile += jitter
    quantile /= m
    below -= np.greater(quantile, cum, out=quantile)
    np.minimum(below, m, out=below)  # no count is below 0; the last can be m + 1
    quantile[0] = below[0]
    np.subtract(below[1:], below[:-1], out=quantile[1:])
    return slots.repeat(quantile.astype(np.intp))


def run_conditioned(system: MapSystem, noise: NoiseModel, weight: WeightField,
                    region: RegionSpec, start, n: int, n_particles: int,
                    observables: Mapping[str, Callable[[Array], Array]],
                    resample_threshold: float = 0.5,
                    seed: int = 0) -> EnsembleStats:
    """Run the killed, e^phi-weighted ensemble for n steps.

    ``start`` is a point inside the region or a RegionSpec, to start uniformly
    on the union of its boxes.  ``observables`` maps each name to a callable
    that takes the ancestor points as ``(k, d)`` rows and gives one value per
    row, or one value for all of them.  Deterministic given the integer ``seed``.
    Raises ValueError when n is below ``MIN_STEPS``, the shortest horizon
    with a record, or when an observable's value does not broadcast to one
    per row, and EnsembleExtinctError when the ensemble's mass is 0 at some
    step <= n.
    """
    if n < MIN_STEPS:
        raise ValueError(f"n must be >= {MIN_STEPS}, the shortest horizon "
                         f"with a record")
    if n_particles < 2:
        raise ValueError("n_particles must be >= 2")
    obs = dict(observables)
    rng = np.random.default_rng([int(seed)])

    if isinstance(start, RegionSpec):
        pos = _sample_region(start, n_particles, rng)
    else:
        pos = np.tile(np.asarray(start, dtype=float), (n_particles, 1))

    live = region.contains(pos)
    count = np.count_nonzero(live)
    if not count:
        raise EnsembleExtinctError(0)  # started inside the killing region
    # a constant weight gives every live slot one log-mass, ``scale``; any
    # other weight keeps each slot's own, read only where the slot is live
    const_lw = _constant_log_weight(weight)
    scale = 0.0
    log_mass = None if const_lw is not None else np.zeros(n_particles)
    # the cumulative masses of ones, a constant weight's at every resampling
    ones_cum = np.arange(1.0, n_particles + 1) if log_mass is None else None
    log_n = math.log(n_particles)
    resample_times: list[int] = []
    min_ess = 1.0

    series = np.empty(n + 1)
    series[0] = math.log(count) - log_n

    first = max(n // 10, LAG + 1)
    records = np.empty((len(obs), (n - first) // RECORD_EVERY + 1))
    # the open record's anchor step and positions, and each slot's ancestor
    # among them (None: the slot itself, before any resampling)
    anchor_at, anchor, ancestor = first - LAG, None, None

    for t in range(n):
        if t == anchor_at:
            anchor, ancestor = pos, None
        if log_mass is None:
            scale += const_lw
        else:
            log_mass += weight.effective_log_values(pos)
            live &= log_mass > -math.inf  # a weight of 0 kills

        new_pos, moved_alive = step_points(system, noise, pos, rng)
        if not moved_alive.all():  # keep absorbed slots on domain points
            np.copyto(new_pos, pos, where=~moved_alive[:, None])
        pos = new_pos
        live &= moved_alive
        live &= region.contains(pos)

        if log_mass is None:
            # every live mass is exactly 1, and so is each square
            total = sum_sq = float(np.count_nonzero(live))
            if not total:
                raise EnsembleExtinctError(t + 1)
            peak = scale
        else:
            peak = float(np.where(live, log_mass, -math.inf).max())
            if peak == -math.inf:
                raise EnsembleExtinctError(t + 1)
            # dead slots read 0 before the exp, whatever their log-mass
            w = np.exp(np.where(live, log_mass - peak, 0.0))
            w *= live
            total, sum_sq = float(w.sum()), float((w * w).sum())
        series[t + 1] = peak + math.log(total) - log_n
        ess = total * total / sum_sq / n_particles
        min_ess = min(min_ess, ess)

        recording, resampling = t + 1 == anchor_at + LAG, ess < resample_threshold
        if recording or resampling:  # the slots of positive mass
            kept = np.flatnonzero(live if log_mass is None else w)

        if recording:
            at = anchor.take(kept if ancestor is None else ancestor[kept], axis=0)
            w_kept = np.ones(kept.size) if log_mass is None else w[kept]
            k = (t + 1 - first) // RECORD_EVERY
            # one sum for numerator and denominator, so h = 1 reads exactly 1
            for i, (name, h) in enumerate(obs.items()):
                value = np.asarray(h(at), dtype=float)
                try:  # a (k, 1) value would broadcast to (k, k)
                    value = np.broadcast_to(value, w_kept.shape)
                except ValueError as exc:
                    raise ValueError(f"observable {name!r} must give one "
                                     f"value per point: {exc}") from None
                records[i, k] = (w_kept * value).sum() / w_kept.sum()
            anchor_at += RECORD_EVERY
            anchor = None

        if resampling:
            cum = ones_cum[:kept.size] if log_mass is None else np.cumsum(w[kept])
            src = _systematic_sources(kept, cum, n_particles, 1.0 - rng.uniform())
            pos = pos.take(src, axis=0)
            if anchor is not None:
                ancestor = src if ancestor is None else ancestor[src]
            live[:] = True
            if log_mass is None:
                scale = float(series[t + 1])
            else:
                log_mass.fill(series[t + 1])
            resample_times.append(t + 1)

    averages, errors = _batch_means(obs, records)
    stats = EnsembleStats(
        averages=averages,
        standard_errors=errors,
        survival_fraction=float(np.mean(live)),
        escape_rate_estimate=math.nan,
        log_mass_series=series,
        n_steps=n,
        n_particles=n_particles,
        resample_times=resample_times,
        min_ess_fraction=min_ess,
        n_records=records.shape[1],
    )
    stats.escape_rate_estimate = escape_rate_mc(stats)
    return stats


def _sample_region(region: RegionSpec, n: int, rng) -> Array:
    """``n`` points uniform on the union of the region's boxes: a box drawn by
    volume and a point uniform in it, kept when that box is the first one
    holding the point, else drawn again.  Disjoint boxes keep every draw."""
    boxes, d = region.boxes, region.dimension
    vols = np.asarray([b.volume for b in boxes])
    pos = np.empty((n, d))
    todo = np.arange(n)
    while todo.size:
        picks = rng.choice(len(boxes), size=todo.size, p=vols / vols.sum())
        for b, box in enumerate(boxes):
            sel = todo[picks == b]
            if sel.size:
                pos[sel] = np.asarray(box.lo) + rng.uniform(
                    size=(sel.size, d)) * box.widths
        first = np.full(todo.size, -1)
        for b in range(len(boxes) - 1, -1, -1):
            first[boxes[b].contains(pos[todo])] = b
        todo = todo[first != picks]
    return pos


def _batch_means(obs, records: Array) -> tuple[dict, dict]:
    """Each observable's mean record, and its standard error from the means
    of up to ``BATCHES`` batches of consecutive records, as equal in size as
    the count allows (NaN with fewer than two batches)."""
    batches = min(BATCHES, records.shape[1])
    means = np.array([b.mean(axis=1)
                      for b in np.array_split(records, batches, axis=1)])
    if batches > 1:
        errors = means.std(axis=0, ddof=1) / math.sqrt(batches)
    else:
        errors = np.full(len(obs), math.nan)
    return (dict(zip(obs, records.mean(axis=1).tolist())),
            dict(zip(obs, errors.tolist())))


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
