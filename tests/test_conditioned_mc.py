import math

import numpy as np
import pytest

from qemlab.conditioned_mc import (EnsembleExtinctError, escape_rate_mc,
                                   run_conditioned,
                                   starting_point_independence)
from qemlab.dynamics import (Box, NoiseModel, RegionSpec, constant_weight,
                             make_system, zero_weight)
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
