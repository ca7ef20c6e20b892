import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qemlab import conditioned_mc
from qemlab.conditioned_mc import (LAG, MIN_STEPS, RECORD_EVERY,
                                   EnsembleExtinctError, EnsembleStats,
                                   _batch_means, _constant_log_weight,
                                   _sample_region,
                                   _systematic_sources, escape_rate_mc,
                                   run_conditioned)
from qemlab.dynamics import (Box, Domain, MapSystem, NoiseModel, RegionSpec,
                             WeightField, make_system, step_points)

TERNARY = make_system("ternary_hole")
NOISE = NoiseModel(1e-3)
FULL = RegionSpec((Box((0.0,), (1.0,)),), label="full")
X = {"x": lambda c: c[:, 0]}


class TestRunConditioned:
    def test_no_killing_is_plain_monte_carlo(self):
        stats = run_conditioned(TERNARY.system, NOISE, WeightField(), FULL,
                                FULL, n=4000, n_particles=4000,
                                observables=X, seed=1)
        assert stats.survival_fraction == 1.0
        assert stats.resample_times == []
        assert abs(stats.averages["x"] - 0.5) <= 3 * stats.standard_errors["x"]

    def test_symmetric_hole_mean(self):
        stats = run_conditioned(TERNARY.system, NOISE, WeightField(),
                                TERNARY.survivor, np.array([0.1]),
                                n=3000, n_particles=3000,
                                observables=X, seed=2)
        assert abs(stats.averages["x"] - 0.5) <= 3 * stats.standard_errors["x"]
        # survival mass decays (strictly, in the aggregate) under killing
        series = stats.log_mass_series
        assert series[-1] < series[0]
        assert np.all(np.diff(series) <= 1e-12)

    @staticmethod
    def _assert_constant_observable_is_exact(weight):
        stats = run_conditioned(TERNARY.system, NOISE, weight,
                                TERNARY.survivor, np.array([0.1]),
                                n=200, n_particles=2000,
                                observables={"one": lambda c: np.ones(len(c))},
                                seed=3)
        # every record is exactly 1, not only their mean
        assert stats.averages["one"] == 1.0
        assert stats.standard_errors["one"] == 0.0

    def test_constant_observable_is_exact(self):
        self._assert_constant_observable_is_exact(WeightField())

    def test_constant_observable_is_exact_under_varying_weight(self):
        # a weight that varies makes the masses unequal, where a sum and a
        # dot product can round apart
        self._assert_constant_observable_is_exact(
            WeightField(lambda p: np.cos(2 * np.pi * p[:, 0])))

    def test_observable_of_a_column_of_points_rejected(self):
        # (k, 1) would broadcast against the k masses to (k, k)
        with pytest.raises(ValueError, match="'x'"):
            run_conditioned(TERNARY.system, NOISE, WeightField(), FULL, FULL,
                            n=MIN_STEPS, n_particles=50,
                            observables={"x": lambda p: p}, seed=1)

    def test_observable_of_one_value_runs(self):
        stats = run_conditioned(TERNARY.system, NOISE, WeightField(), FULL,
                                FULL, n=MIN_STEPS, n_particles=50,
                                observables={"two": lambda p: 2.0}, seed=1)
        assert stats.averages == {"two": 2.0}

    def test_extinct_start_in_hole(self):
        with pytest.raises(EnsembleExtinctError) as err:
            run_conditioned(TERNARY.system, NoiseModel(0.0), WeightField(),
                            TERNARY.survivor, np.array([0.5]),
                            n=100, n_particles=50, observables=X, seed=4)
        assert err.value.time == 0

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            run_conditioned(TERNARY.system, NOISE, WeightField(),
                            TERNARY.survivor, np.array([0.1]), n=0,
                            n_particles=10, observables=X)
        with pytest.raises(ValueError):
            run_conditioned(TERNARY.system, NOISE, WeightField(),
                            TERNARY.survivor, np.array([0.1]), n=10,
                            n_particles=1, observables=X)

    def test_deterministic_given_seed(self):
        kw = dict(n=150, n_particles=1000, observables=X, seed=9)
        a = run_conditioned(TERNARY.system, NOISE, WeightField(),
                            TERNARY.survivor, np.array([0.1]), **kw)
        b = run_conditioned(TERNARY.system, NOISE, WeightField(),
                            TERNARY.survivor, np.array([0.1]), **kw)
        assert a.averages == b.averages
        assert np.array_equal(a.log_mass_series, b.log_mass_series)

    def test_resampling_unbiased_vs_plain(self):
        # short horizon so the never-resampled ensemble keeps survivors; its
        # one record reads the start of the paths that survive it, so the
        # start is spread and the error bar comes from repeated runs
        kw = dict(n=12, n_particles=20_000, observables=X)
        means = {}
        for threshold, seeds in ((0.0, range(7, 15)), (0.5, range(15, 23))):
            runs = [run_conditioned(TERNARY.system, NOISE, WeightField(),
                                    TERNARY.survivor, TERNARY.survivor,
                                    resample_threshold=threshold, seed=seed,
                                    **kw) for seed in seeds]
            assert all(r.n_records == 1 for r in runs)
            assert all((len(r.resample_times) > 0) == (threshold > 0.0)
                       for r in runs)
            x = np.array([r.averages["x"] for r in runs])
            means[threshold] = (x.mean(), x.std(ddof=1) / math.sqrt(x.size))
        (plain, se_plain), (resampled, se_resampled) = means[0.0], means[0.5]
        assert abs(plain - resampled) <= 3 * math.hypot(se_plain, se_resampled)

    def test_weight_shift_leaves_averages_and_scales_mass(self):
        kw = dict(n=400, n_particles=2000, observables=X, seed=12)
        s0 = run_conditioned(TERNARY.system, NOISE, WeightField(),
                             TERNARY.survivor, np.array([0.1]), **kw)
        s2 = run_conditioned(TERNARY.system, NOISE,
                             WeightField(math.log(2.0)),
                             TERNARY.survivor, np.array([0.1]), **kw)
        assert abs(s0.averages["x"] - s2.averages["x"]) <= 1e-12
        ratio = math.exp(-s2.escape_rate_estimate) \
            / math.exp(-s0.escape_rate_estimate)
        assert ratio == pytest.approx(2.0, rel=1e-6)

    @pytest.mark.filterwarnings("error")
    def test_zero_weight_kills(self):
        # every particle reaches ~0.9 after two steps, where the weight is 0
        weight = WeightField(0.0, support_cutoff=RegionSpec(
            (Box((0.0,), (1.0 / 3.0,)),)), taper_width=0.0)
        with pytest.raises(EnsembleExtinctError) as err:
            run_conditioned(TERNARY.system, NOISE, weight, TERNARY.survivor,
                            np.array([0.1]), n=MIN_STEPS, n_particles=1000,
                            observables=X, seed=1)
        assert err.value.time == 3

    @pytest.mark.filterwarnings("error")
    def test_weight_off_the_region_is_never_read(self):
        # dead slots sit in the hole, where this log-weight is NaN; they
        # must stay dead, so the run equals the one with phi = 0
        survivor = TERNARY.survivor

        def phi(p):
            return np.where(survivor.contains(p), 0.0, math.nan)

        kw = dict(n=200, n_particles=2000, observables=X, seed=5)
        nan_off = run_conditioned(TERNARY.system, NOISE, WeightField(phi),
                                  survivor, np.array([0.1]), **kw)
        plain = run_conditioned(TERNARY.system, NOISE, WeightField(),
                                survivor, np.array([0.1]), **kw)
        assert np.all(np.isfinite(nan_off.log_mass_series))
        assert np.array_equal(nan_off.log_mass_series, plain.log_mass_series)
        assert nan_off.averages == plain.averages

    def test_callable_weight_below_exp_underflow(self):
        # e^-800 underflows to 0, so the log-weight must be summed as a log,
        # not as the log of the weight
        kw = dict(n=20, n_particles=200, observables=X, seed=1)
        const = run_conditioned(TERNARY.system, NOISE, WeightField(-800.0),
                                TERNARY.survivor, np.array([0.1]), **kw)
        called = run_conditioned(TERNARY.system, NOISE,
                                 WeightField(lambda p: np.full(len(p), -800.0)),
                                 TERNARY.survivor, np.array([0.1]), **kw)
        assert called.escape_rate_estimate == const.escape_rate_estimate
        assert called.averages == const.averages

    def test_absorbed_slots_stay_on_the_domain(self):
        # dead slots are stepped too, so an absorbed particle must not hand
        # the map a point outside the domain it is defined on
        def forward(p):
            if not np.all((p >= 0.0) & (p < 1.0)):
                raise ValueError("point outside the domain")
            return np.mod(3.0 * p, 1.0)

        t = TERNARY.system
        system = MapSystem(forward, t.jacobian_det,
                           Domain((Box((0.0,), (1.0,), (False,)),)), "absorbing")
        stats = run_conditioned(system, NoiseModel(0.05), WeightField(),
                                FULL, FULL, n=50, n_particles=500,
                                observables=X, seed=3)
        assert stats.log_mass_series[-1] < stats.log_mass_series[0]


class TestPopulationDiagnostics:
    def test_counts(self):
        stats = run_conditioned(TERNARY.system, NOISE, WeightField(),
                                TERNARY.survivor, np.array([0.1]), n=300,
                                n_particles=3003, observables=X, seed=14)
        diag = stats.diagnostics()
        assert diag == {"resamplings": len(stats.resample_times),
                        "min_ess_fraction": stats.min_ess_fraction,
                        "records": (300 - 30) // RECORD_EVERY + 1,
                        "lag": LAG, "record_every": RECORD_EVERY,
                        "batches": conditioned_mc.BATCHES}
        assert 0 < diag["resamplings"] < 300
        assert 0.0 < diag["min_ess_fraction"] < 0.5

    def test_zero_threshold_never_resamples(self):
        stats = run_conditioned(TERNARY.system, NOISE, WeightField(),
                                TERNARY.survivor, np.array([0.1]), n=12,
                                n_particles=2000, observables=X,
                                resample_threshold=0.0, seed=7)
        assert stats.diagnostics()["resamplings"] == 0
        assert 0.0 < stats.min_ess_fraction <= 1.0


class TestShortHorizons:
    @pytest.mark.parametrize("n", range(1, MIN_STEPS))
    def test_below_the_shortest_horizon_fails_fast(self, n):
        with pytest.raises(ValueError, match=f"n must be >= {MIN_STEPS}"):
            run_conditioned(TERNARY.system, NOISE, WeightField(),
                            TERNARY.survivor, np.array([0.1]), n=n,
                            n_particles=200, observables=X, seed=n)

    def test_the_shortest_horizon_reads_past_the_start(self):
        # a record anchored at step 0 would read a point start as h(start)
        def run(n):
            return run_conditioned(TERNARY.system, NOISE, WeightField(),
                                   TERNARY.survivor, np.array([0.1]), n=n,
                                   n_particles=2000, observables=X, seed=1)

        assert MIN_STEPS == 11
        with pytest.raises(ValueError, match="n must be >= 11"):
            run(10)
        stats = run(11)
        # the one record reads the positions after the first step, 0.3 + delta
        assert stats.n_records == 1
        assert abs(stats.averages["x"] - 0.3) <= NOISE.epsilon

    @pytest.mark.parametrize("n", [*range(MIN_STEPS, 31), 199, 200, 201])
    def test_every_horizon_gives_finite_averages(self, n):
        stats = run_conditioned(TERNARY.system, NOISE, WeightField(),
                                TERNARY.survivor, np.array([0.1]), n=n,
                                n_particles=500, observables=X, seed=n)
        first = max(n // 10, LAG + 1)
        assert stats.n_records == (n - first) // RECORD_EVERY + 1 >= 1
        assert math.isfinite(stats.averages["x"])
        assert math.isfinite(stats.escape_rate_estimate)
        # NaN only when the records fill fewer than two batches
        if stats.n_records > 1:
            assert stats.standard_errors["x"] > 0.0
        else:
            assert math.isnan(stats.standard_errors["x"])


def _loop_sources(w, jitter):
    """Reference: systematic resampling by a plain walk over the quantiles."""
    cum = np.cumsum(w)
    cum /= cum[-1]
    picks, i = [], 0
    for j in range(w.size):
        q = (jitter + j) / w.size
        while cum[i] < q:
            i += 1
        picks.append(i)
    return np.array(picks)


class TestSystematicResampling:
    # near-equal masses at an extreme jitter put the floor one above the
    # count, so this example needs the downward step
    @example(n_particles=100, kind="near_equal", dead=0.0, seed=0, jitter=1.0)
    @settings(max_examples=150, deadline=None)
    @given(n_particles=st.sampled_from([1, 10, 1003, 2000]) | st.integers(1, 400),
           kind=st.sampled_from(["random", "equal", "near_equal", "tiny"]),
           dead=st.floats(0.0, 0.95), seed=st.integers(0, 2 ** 32 - 1),
           jitter=st.sampled_from([2.0 ** -53, 1.0 - 2.0 ** -53, 1.0])
           | st.floats(2.0 ** -53, 1.0))
    def test_matches_a_loop_over_the_quantiles(self, n_particles, kind, dead,
                                               seed, jitter):
        rng = np.random.default_rng(seed)
        # near-equal weights put cumulative weights within ulps of the
        # quantiles, where rounding decides the counts
        w = {"random": rng.exponential(size=n_particles),
             "equal": np.ones(n_particles),
             "near_equal": 1.0 + rng.integers(-64, 65, n_particles) * 2.0 ** -52,
             "tiny": np.exp(-700.0 * rng.uniform(size=n_particles))}[kind]
        w[rng.uniform(size=n_particles) < dead] = 0.0
        w[rng.integers(n_particles)] = 1.0  # some mass is left
        slots = np.flatnonzero(w)
        src = _systematic_sources(slots, np.cumsum(w[slots]), w.size, jitter)
        assert np.array_equal(src, _loop_sources(w, jitter))
        assert np.all(np.diff(src) >= 0)
        assert np.all(w[src] > 0.0)

    # 4 of 10 slots live: quantile (0.5 + 2) / 10 is the first live slot's
    # cumulative fraction 1/4 exactly, and jitter 1 puts quantile 5/10 on 2/4
    @example(live=[True, False, True, False, False, True, False, True, False,
                   False], jitter=0.5)
    @example(live=[False, True, False, False, True, True, False, True, False,
                   False], jitter=1.0)
    @settings(max_examples=150, deadline=None)
    @given(live=st.lists(st.booleans(), min_size=1, max_size=300),
           jitter=st.sampled_from([2.0 ** -53, 1.0 - 2.0 ** -53, 1.0, 0.5])
           | st.floats(2.0 ** -53, 1.0))
    def test_equal_masses_pick_live_slots_in_order(self, live, jitter):
        # a constant weight passes the live slots and the counts 1..c
        live = np.asarray(live)
        live[len(live) // 2] = True  # some slot is live
        slots = np.flatnonzero(live)
        cum = np.arange(1.0, slots.size + 1)
        src = _systematic_sources(slots, cum, live.size, jitter)
        assert np.array_equal(src, _loop_sources(live.astype(float), jitter))
        assert src.size == live.size
        assert np.all(np.diff(src) >= 0)
        assert np.all(live[src])


class TestAncestry:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(MIN_STEPS, 45), n_particles=st.integers(2, 40),
           amplitude=st.floats(0.0, 3.0), threshold=st.floats(0.0, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_records_read_the_replayed_ancestors(self, n, n_particles,
                                                 amplitude, threshold, seed):
        # nothing dies on the full interval, so a record reads every slot;
        # the weight shapes the masses, so the population resamples
        stepped, sources, seen = [], [], []

        def step(system, noise, points, rng):
            stepped.append(points[:, 0].copy())
            return step_points(system, noise, points, rng)

        def resample(slots, cum, m, jitter):
            sources.append(_systematic_sources(slots, cum, m, jitter))
            return sources[-1]

        def h(c):
            seen.append(c[:, 0].copy())
            return c[:, 0]

        weight = WeightField(lambda p: amplitude * np.cos(2 * np.pi * p[:, 0]))
        with mock.patch.object(conditioned_mc, "step_points", step), \
                mock.patch.object(conditioned_mc, "_systematic_sources", resample):
            stats = run_conditioned(TERNARY.system, NOISE, weight, FULL, FULL,
                                    n=n, n_particles=n_particles,
                                    observables={"h": h},
                                    resample_threshold=threshold, seed=seed)
        source_at = dict(zip(stats.resample_times, sources))
        first = max(n // 10, LAG + 1)
        records = range(first, n + 1, RECORD_EVERY)
        assert len(seen) == len(records) == stats.n_records
        for got, t in zip(seen, records):
            ancestor = np.arange(n_particles)
            for s in range(t - LAG + 1, t):
                if s in source_at:
                    ancestor = ancestor[source_at[s]]
            assert np.array_equal(got, stepped[t - LAG][ancestor])


def _reference_run(system, noise, weight, region, start, n, n_particles,
                   observables, resample_threshold=0.5, seed=0):
    """Reference: the run with one log-mass per slot, -inf where the slot is
    dead, so every step takes the exp of every slot's mass; systematic
    resampling by the plain walk over the quantiles."""
    obs = dict(observables)
    rng = np.random.default_rng([int(seed)])

    if isinstance(start, RegionSpec):
        pos = _sample_region(start, system.domain, n_particles, rng)
    else:
        pt = np.atleast_1d(np.asarray(start, dtype=float))
        pos = np.tile(pt, (n_particles, 1))

    # a slot is alive exactly while its log-mass is finite
    log_mass = np.where(region.contains(pos), 0.0, -math.inf)
    if not np.any(log_mass > -math.inf):
        raise EnsembleExtinctError(0)  # started inside the killing region
    const_lw = _constant_log_weight(weight)
    log_n = math.log(n_particles)
    resample_times: list[int] = []
    min_ess = 1.0

    series = np.empty(n + 1)
    series[0] = math.log(np.count_nonzero(log_mass > -math.inf)) - log_n

    first = max(n // 10, LAG + 1)
    records = np.empty((len(obs), (n - first) // RECORD_EVERY + 1))
    # the open record's anchor step and positions, and each slot's ancestor
    # among them (None: the slot itself, before any resampling)
    anchor_at, anchor, ancestor = first - LAG, None, None

    for t in range(n):
        if t == anchor_at:
            anchor, ancestor = pos, None
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

        peak = float(log_mass.max())
        if peak == -math.inf:
            raise EnsembleExtinctError(t + 1)
        w = np.exp(log_mass - peak)
        total = float(w.sum())
        series[t + 1] = peak + math.log(total) - log_n
        ess = total * total / float((w * w).sum()) / n_particles
        min_ess = min(min_ess, ess)

        if t + 1 == anchor_at + LAG:
            live = np.flatnonzero(w)
            at = anchor[live if ancestor is None else ancestor[live]]
            w_live = w[live]
            k = (t + 1 - first) // RECORD_EVERY
            # one sum for numerator and denominator, so h = 1 reads exactly 1
            for i, h in enumerate(obs.values()):
                records[i, k] = ((w_live * np.asarray(h(at), dtype=float)).sum()
                                 / w_live.sum())
            anchor_at += RECORD_EVERY
            anchor = None

        if ess < resample_threshold:
            src = _loop_sources(w, 1.0 - rng.uniform())
            pos = pos[src]
            if anchor is not None:
                ancestor = src if ancestor is None else ancestor[src]
            log_mass = np.full(n_particles, series[t + 1])
            resample_times.append(t + 1)

    averages, errors = _batch_means(obs, records)
    stats = EnsembleStats(
        averages=averages,
        standard_errors=errors,
        survival_fraction=float(np.mean(log_mass > -math.inf)),
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


def _weights(builtin):
    """Weights of every kind the run tells apart, for ``builtin``'s points;
    the cutoff leaves out the top 0.1 of the first domain box's first axis."""
    lo, hi = builtin.system.domain.boxes[0].lo, builtin.system.domain.boxes[0].hi
    cut = Box(lo, (hi[0] - 0.1, *hi[1:]))
    return {
        "zero": WeightField(),
        "constant": WeightField(-0.3),
        "callable": WeightField(lambda p: 0.8 * np.cos(2 * np.pi * p[:, 0])),
        # a cutoff tapers the weight to 0 at its edge and is 0 past it
        "cutoff": WeightField(0.4, support_cutoff=RegionSpec((cut,)),
                              taper_width=0.05, domain=builtin.system.domain),
        # e^-800 underflows, so only the log-mass keeps these masses apart
        "underflow": WeightField(lambda p: -800.0 * p[:, 0]),
    }


REFERENCE_SYSTEMS = {label: make_system(label)
                     for label in ("ternary_hole", "two_repeller", "open_baker")}


class TestAgainstReference:
    @settings(max_examples=100, deadline=None)
    @given(label=st.sampled_from(sorted(REFERENCE_SYSTEMS)),
           kind=st.sampled_from(["zero", "constant", "callable", "cutoff",
                                 "underflow"]),
           threshold=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           from_region=st.booleans(), epsilon=st.sampled_from([0.0, 1e-3, 0.05]),
           n=st.integers(MIN_STEPS, 40), n_particles=st.integers(2, 100),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_same_bits_as_the_reference(self, label, kind, threshold,
                                        from_region, epsilon, n, n_particles,
                                        seed):
        builtin = REFERENCE_SYSTEMS[label]
        region = builtin.survivor
        start = region if from_region else np.asarray(
            [b + 0.1 for b in region.boxes[0].lo])
        args = (builtin.system, NoiseModel(epsilon), _weights(builtin)[kind],
                region, start)
        kw = dict(n=n, n_particles=n_particles, resample_threshold=threshold,
                  seed=seed, observables={
                      "x": lambda c: c[:, 0],
                      "one": lambda c: np.ones(len(c))})
        try:
            want = _reference_run(*args, **kw)
        except EnsembleExtinctError as exc:
            with pytest.raises(EnsembleExtinctError) as err:
                run_conditioned(*args, **kw)
            assert err.value.time == exc.time
            return
        got = run_conditioned(*args, **kw)
        assert (json.dumps(got.scalars(), sort_keys=True)
                == json.dumps(want.scalars(), sort_keys=True))
        assert got.diagnostics() == want.diagnostics()
        assert got.log_mass_series.tobytes() == want.log_mass_series.tobytes()
        assert got.resample_times == want.resample_times


def _reference_sample_region(region, n, rng):
    """Reference: a box picked by its volume, then a point uniform in it,
    with no redraw, so an overlap is drawn once per box that holds it."""
    vols = np.asarray([b.volume for b in region.boxes])
    picks = rng.choice(len(region.boxes), size=n, p=vols / vols.sum())
    pos = np.empty((n, region.dimension))
    for b, box in enumerate(region.boxes):
        sel = picks == b
        k = int(np.sum(sel))
        if k:
            pos[sel] = np.asarray(box.lo) + rng.uniform(
                size=(k, region.dimension)) * box.widths
    return pos


class TestRegionStart:
    def test_overlap_is_drawn_as_often_as_its_volume(self):
        # [0.25, 0.5) is 1/3 of the union [0, 0.75), not 1/2
        region = RegionSpec((Box((0.0,), (0.5,)), Box((0.25,), (0.75,))))
        n = 400_000
        x = _sample_region(region, TERNARY.system.domain, n,
                           np.random.default_rng(11))[:, 0]
        assert np.all((x >= 0.0) & (x < 0.75))
        share = np.count_nonzero((x >= 0.25) & (x < 0.5)) / n
        assert abs(share - 1 / 3) <= 4 * math.sqrt(1 / 3 * 2 / 3 / n)

    @pytest.mark.parametrize("label", ["ternary_hole", "two_repeller",
                                       "open_baker"])
    def test_disjoint_boxes_draw_the_reference_bits(self, label):
        builtin = make_system(label)
        region = builtin.survivor
        got = _sample_region(region, builtin.system.domain, 5000,
                             np.random.default_rng(3))
        want = _reference_sample_region(region, 5000, np.random.default_rng(3))
        assert got.tobytes() == want.tobytes()

    def test_draws_only_on_the_domain(self):
        # [0.5, 1.5) leaves ternary_hole's domain [0, 1): about half the
        # draws land off it and are drawn again
        region = RegionSpec((Box((0.5,), (1.5,)),))
        x = _sample_region(region, TERNARY.system.domain, 1000,
                           np.random.default_rng(1))[:, 0]
        assert np.all((x >= 0.5) & (x < 1.0))

    def test_a_region_with_no_volume_on_the_domain_is_rejected(self):
        # [1, 2) meets [0, 1) in no volume, so no draw could be kept
        region = RegionSpec((Box((1.0,), (2.0,)),))
        with pytest.raises(ValueError, match="no volume on the domain"):
            run_conditioned(TERNARY.system, NOISE, WeightField(), FULL, region,
                            n=MIN_STEPS, n_particles=10, observables=X)


class TestEscapeRate:
    def test_no_killing_rate_zero(self):
        stats = run_conditioned(TERNARY.system, NOISE, WeightField(), FULL,
                                FULL, n=500, n_particles=200,
                                observables=X, seed=5)
        assert abs(stats.escape_rate_estimate) <= 1e-12

    def test_ternary_rate_matches_eigenvalue(self):
        stats = run_conditioned(TERNARY.system, NOISE, WeightField(),
                                TERNARY.survivor, np.array([0.1]),
                                n=3000, n_particles=3000,
                                observables=X, seed=6)
        assert math.exp(-stats.escape_rate_estimate) \
            == pytest.approx(2.0 / 3.0, abs=0.02)

    def test_five_hole_rate(self):
        b = make_system("five_hole")
        stats = run_conditioned(b.system, NOISE, WeightField(), b.survivor,
                                np.array([0.1]), n=3000, n_particles=3000,
                                observables=X, seed=7)
        assert math.exp(-stats.escape_rate_estimate) \
            == pytest.approx(3.0 / 5.0, abs=0.02)

    def test_baker_rate(self):
        b = make_system("open_baker")
        stats = run_conditioned(b.system, NoiseModel(1e-3), WeightField(),
                                b.survivor, np.array([0.1, 0.4]),
                                n=2000, n_particles=2000,
                                observables={"x": lambda c: c[:, 0]}, seed=8)
        assert math.exp(-stats.escape_rate_estimate) \
            == pytest.approx(2.0 / 3.0, abs=0.02)

    def test_too_short_series(self):
        stats = run_conditioned(TERNARY.system, NOISE, WeightField(), FULL,
                                FULL, n=MIN_STEPS, n_particles=50,
                                observables=X, seed=9)
        stats.log_mass_series = stats.log_mass_series[:3]
        with pytest.raises(ValueError):
            escape_rate_mc(stats)
