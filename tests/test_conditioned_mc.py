import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qemlab.conditioned_mc import (EnsembleExtinctError, _Blocks,
                                   escape_rate_mc, run_conditioned,
                                   starting_point_independence)
from qemlab.dynamics import (Box, Domain, MapSystem, NoiseModel, RegionSpec,
                             WeightField, constant_weight, make_system,
                             zero_weight)
from qemlab.equilibrium import TestDictionary, weak_star_discrepancy
from qemlab.spectral import solve_triple
from qemlab.ulam import assemble_operator, build_grid

TERNARY = make_system("ternary_hole")
NOISE = NoiseModel(1e-3, 1)
FULL = RegionSpec((Box((0.0,), (1.0,)),), label="full")
X = {"x": lambda c: c}


class TestRunConditioned:
    def test_no_killing_is_plain_monte_carlo(self):
        stats = run_conditioned(TERNARY.system, NOISE, zero_weight(), FULL,
                                FULL, n=4000, n_particles=4000,
                                observables=X, seed=1)
        assert stats.survival_fraction == 1.0
        assert stats.resample_times == []
        assert abs(stats.averages["x"] - 0.5) <= 3 * stats.standard_errors["x"]

    def test_symmetric_hole_mean(self):
        stats = run_conditioned(TERNARY.system, NOISE, zero_weight(),
                                TERNARY.survivor, np.array([0.1]),
                                n=3000, n_particles=3000,
                                observables=X, seed=2)
        assert abs(stats.averages["x"] - 0.5) <= 3 * stats.standard_errors["x"]
        # survival mass decays (strictly, in the aggregate) under killing
        series = stats.log_mass_series
        assert series[-1] < series[0]
        assert np.all(np.diff(series) <= 1e-12)

    def test_constant_observable_is_exact(self):
        stats = run_conditioned(TERNARY.system, NOISE, zero_weight(),
                                TERNARY.survivor, np.array([0.1]),
                                n=200, n_particles=2000,
                                observables={"one": lambda c: np.ones_like(c)},
                                seed=3)
        assert stats.averages["one"] == 1.0

    def test_extinct_start_in_hole(self):
        with pytest.raises(EnsembleExtinctError) as err:
            run_conditioned(TERNARY.system, NoiseModel(0.0, 1), zero_weight(),
                            TERNARY.survivor, np.array([0.5]),
                            n=100, n_particles=50, observables=X, seed=4)
        assert err.value.time == 0

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            run_conditioned(TERNARY.system, NOISE, zero_weight(),
                            TERNARY.survivor, np.array([0.1]), n=0,
                            n_particles=10, observables=X)
        with pytest.raises(ValueError):
            run_conditioned(TERNARY.system, NOISE, zero_weight(),
                            TERNARY.survivor, np.array([0.1]), n=10,
                            n_particles=1, observables=X)

    def test_deterministic_given_seed(self):
        kw = dict(n=150, n_particles=1000, observables=X, seed=9)
        a = run_conditioned(TERNARY.system, NOISE, zero_weight(),
                            TERNARY.survivor, np.array([0.1]), **kw)
        b = run_conditioned(TERNARY.system, NOISE, zero_weight(),
                            TERNARY.survivor, np.array([0.1]), **kw)
        assert a.averages == b.averages
        assert np.array_equal(a.log_mass_series, b.log_mass_series)

    def test_resampling_unbiased_vs_plain(self):
        # short horizon so the never-resampled ensemble keeps survivors
        kw = dict(n=12, n_particles=20_000, observables=X)
        plain = run_conditioned(TERNARY.system, NOISE, zero_weight(),
                                TERNARY.survivor, np.array([0.1]),
                                resample_threshold=0.0, seed=7, **kw)
        resampled = run_conditioned(TERNARY.system, NOISE, zero_weight(),
                                    TERNARY.survivor, np.array([0.1]),
                                    resample_threshold=0.5, seed=8, **kw)
        allowance = 3 * (plain.standard_errors["x"]
                         + resampled.standard_errors["x"])
        assert abs(plain.averages["x"] - resampled.averages["x"]) <= allowance
        assert plain.resample_times == []
        assert len(resampled.resample_times) > 0

    def test_weight_shift_leaves_averages_and_scales_mass(self):
        kw = dict(n=400, n_particles=2000, observables=X, seed=12)
        s0 = run_conditioned(TERNARY.system, NOISE, zero_weight(),
                             TERNARY.survivor, np.array([0.1]), **kw)
        s2 = run_conditioned(TERNARY.system, NOISE,
                             constant_weight(math.log(2.0)),
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
                            np.array([0.1]), n=8, n_particles=1000,
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
        plain = run_conditioned(TERNARY.system, NOISE, zero_weight(),
                                survivor, np.array([0.1]), **kw)
        assert np.all(np.isfinite(nan_off.log_mass_series))
        assert np.array_equal(nan_off.log_mass_series, plain.log_mass_series)
        assert nan_off.averages == plain.averages

    def test_absorbed_slots_stay_on_the_domain(self):
        # dead slots are stepped too, so an absorbed particle must not hand
        # the map a point outside the domain it is defined on
        def forward(p):
            if not np.all((p >= 0.0) & (p < 1.0)):
                raise ValueError("point outside the domain")
            return np.mod(3.0 * p, 1.0)

        t = TERNARY.system
        system = MapSystem(1, forward, t.jacobian_det, t.unstable_log_expansion,
                           Domain((Box((0.0,), (1.0,), (False,)),)), "absorbing")
        stats = run_conditioned(system, NoiseModel(0.05, 1), zero_weight(),
                                FULL, FULL, n=50, n_particles=500,
                                observables=X, seed=3)
        assert stats.log_mass_series[-1] < stats.log_mass_series[0]


class TestBlockDiagnostics:
    def test_counts_on_uneven_blocks(self):
        stats = run_conditioned(TERNARY.system, NOISE, zero_weight(),
                                TERNARY.survivor, np.array([0.1]), n=300,
                                n_particles=3003, observables=X, seed=14)
        counts = stats.block_resamplings
        assert len(counts) == len(stats.block_min_ess_fraction) == 10
        assert max(counts) <= len(stats.resample_times) <= sum(counts)
        assert all(0.0 < f < 0.5 for f in stats.block_min_ess_fraction)
        assert stats.extinct_blocks == 0
        assert stats.diagnostics()["n_blocks"] == 10

    def test_zero_threshold_never_resamples(self):
        stats = run_conditioned(TERNARY.system, NOISE, zero_weight(),
                                TERNARY.survivor, np.array([0.1]), n=12,
                                n_particles=2000, observables=X,
                                resample_threshold=0.0, seed=7)
        assert stats.block_resamplings == [0] * 10
        assert all(0.0 < f <= 1.0 for f in stats.block_min_ess_fraction)

    def test_extinct_blocks_are_counted(self):
        # blocks of 10 particles under wide noise: some die out, not all
        stats = run_conditioned(TERNARY.system, NoiseModel(0.1, 1),
                                zero_weight(), TERNARY.survivor,
                                TERNARY.survivor, n=100, n_particles=100,
                                observables=X, seed=1)
        dead = sum(f == 0.0 for f in stats.block_min_ess_fraction)
        assert 0 < stats.extinct_blocks == dead < 10
        assert stats.survival_fraction <= 1.0 - dead / 10


def _systematic_resample(weights, n_out, jitter):
    """Reference: systematic resampling of one block by searchsorted."""
    cum = np.cumsum(weights)
    cum /= cum[-1]
    u = (jitter + np.arange(n_out)) / n_out
    return np.searchsorted(cum, u)


class TestAllBlockResampling:
    @settings(max_examples=150, deadline=None)
    @given(n_particles=st.sampled_from([10, 1003, 2000]) | st.integers(2, 400),
           kind=st.sampled_from(["random", "equal", "near_equal", "tiny"]),
           dead=st.floats(0.0, 0.95), seed=st.integers(0, 2 ** 32 - 1),
           data=st.data())
    def test_matches_per_block_searchsorted(self, n_particles, kind, dead,
                                            seed, data):
        blocks = _Blocks(n_particles)
        rng = np.random.default_rng(seed)
        # near-equal weights put cumulative weights within ulps of the
        # quantiles, where rounding decides the counts
        w = {"random": rng.exponential(size=n_particles),
             "equal": np.ones(n_particles),
             "near_equal": 1.0 + rng.integers(-64, 65, n_particles) * 2.0 ** -52,
             "tiny": np.exp(-700.0 * rng.uniform(size=n_particles))}[kind]
        w[rng.uniform(size=n_particles) < dead] = 0.0
        n_blocks = blocks.sizes.size
        totals = np.add.reduceat(w, blocks.starts)
        fire = data.draw(arrays(bool, n_blocks)) & (totals > 0.0)
        jitter = np.asarray(data.draw(st.lists(
            st.sampled_from([2.0 ** -53, 1.0]) | st.floats(2.0 ** -53, 1.0),
            min_size=int(fire.sum()), max_size=int(fire.sum()))), dtype=float)
        src = blocks.sources(w, fire, jitter)
        k = 0
        for b, (lo, m) in enumerate(zip(blocks.starts, blocks.sizes)):
            slots = np.arange(lo, lo + m)
            if fire[b]:
                want = slots[_systematic_resample(w[slots], m, jitter[k])]
                k += 1
                assert np.all(w[src[slots]] > 0.0)
            else:
                want = slots
            assert np.array_equal(src[slots], want), b


class TestEscapeRate:
    def test_no_killing_rate_zero(self):
        stats = run_conditioned(TERNARY.system, NOISE, zero_weight(), FULL,
                                FULL, n=500, n_particles=200,
                                observables=X, seed=5)
        assert abs(stats.escape_rate_estimate) <= 1e-12

    def test_ternary_rate_matches_eigenvalue(self):
        stats = run_conditioned(TERNARY.system, NOISE, zero_weight(),
                                TERNARY.survivor, np.array([0.1]),
                                n=3000, n_particles=3000,
                                observables=X, seed=6)
        assert math.exp(-stats.escape_rate_estimate) \
            == pytest.approx(2.0 / 3.0, abs=0.02)

    def test_five_hole_rate(self):
        b = make_system("five_hole")
        stats = run_conditioned(b.system, NOISE, zero_weight(), b.survivor,
                                np.array([0.1]), n=3000, n_particles=3000,
                                observables=X, seed=7)
        assert math.exp(-stats.escape_rate_estimate) \
            == pytest.approx(3.0 / 5.0, abs=0.02)

    def test_baker_rate(self):
        b = make_system("open_baker")
        stats = run_conditioned(b.system, NoiseModel(1e-3, 2), zero_weight(),
                                b.survivor, np.array([0.1, 0.4]),
                                n=2000, n_particles=2000,
                                observables={"x": lambda c: c[:, 0]}, seed=8)
        assert math.exp(-stats.escape_rate_estimate) \
            == pytest.approx(2.0 / 3.0, abs=0.02)

    def test_too_short_series(self):
        stats = run_conditioned(TERNARY.system, NOISE, zero_weight(), FULL,
                                FULL, n=2, n_particles=50,
                                observables=X, seed=9)
        with pytest.raises(ValueError):
            escape_rate_mc(stats, burn_in_fraction=0.9)


class TestStartingPointIndependence:
    def test_two_basin_points_agree(self):
        report = starting_point_independence(
            TERNARY.system, NOISE, zero_weight(), TERNARY.survivor,
            np.array([0.1]), np.array([0.9]), n=2500, n_particles=2500,
            observables=X, seed=10)
        assert report.passed

    def test_identical_starts(self):
        report = starting_point_independence(
            TERNARY.system, NOISE, zero_weight(), TERNARY.survivor,
            np.array([0.1]), np.array([0.1]), n=150, n_particles=1000,
            observables=X, seed=11)
        assert report.delta("x") <= 2 * report.allowance("x")

    def test_start_in_hole_extinguishes(self):
        with pytest.raises(EnsembleExtinctError):
            starting_point_independence(
                TERNARY.system, NoiseModel(0.0, 1), zero_weight(),
                TERNARY.survivor, np.array([0.1]), np.array([0.5]),
                n=100, n_particles=100, observables=X, seed=12)


class TestOccupationMeasure:
    def test_occupation_close_to_spectral_qem(self):
        grid = build_grid(TERNARY.system.domain, 27)
        stats = run_conditioned(TERNARY.system, NOISE, zero_weight(),
                                TERNARY.survivor, np.array([0.1]),
                                n=3000, n_particles=3000, observables=X,
                                seed=13, occupation_grid=grid)
        M = assemble_operator(TERNARY.system, NOISE, zero_weight(),
                              TERNARY.survivor, grid, 3, seed=13)
        triple = solve_triple(M, with_gap=False)
        disc = weak_star_discrepancy(stats.occupation, triple.qem,
                                     TestDictionary(), grid.centers())
        assert disc <= 0.05
