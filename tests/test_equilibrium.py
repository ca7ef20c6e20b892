import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qemlab.dynamics import Box
from qemlab.equilibrium import (MarkovModel, _members,
                                equilibrium_cylinder_measure,
                                full_shift_model, model_for, pressure_sft,
                                w1_1d, weak_star_discrepancy)
from qemlab.ulam import build_grid

from oracles import quad_w1_uniform_vs_cantor

TERNARY = model_for("ternary_hole")
FIVE = model_for("five_hole")
GOLDEN = MarkovModel.from_matrix([[1.0, 1.0], [1.0, 0.0]], digits=(0, 1), base=2)


def unit_grid(resolution):
    return build_grid([Box((0.0,), (1.0,))], resolution)


def _monotone_w1(mu, nu, x):
    """Reference: the cost of the monotone coupling of two sets of point
    masses at the points x, moved left to right one pair at a time."""
    order = np.argsort(x)
    mu, nu, x = list(mu[order]), list(nu[order]), x[order]
    i = j = 0
    cost = 0.0
    while i < len(x) and j < len(x):
        moved = min(mu[i], nu[j])
        cost += moved * abs(x[i] - x[j])
        mu[i] -= moved
        nu[j] -= moved
        if mu[i] <= 0.0:
            i += 1
        if nu[j] <= 0.0:
            j += 1
    return cost


class TestPressure:
    def test_ternary(self):
        assert pressure_sft(TERNARY) == pytest.approx(math.log(2.0 / 3.0))

    def test_five(self):
        assert pressure_sft(FIVE) == pytest.approx(math.log(3.0 / 5.0))

    def test_single_loop(self):
        assert pressure_sft(MarkovModel(np.zeros((1, 1)))) == pytest.approx(0.0)

    def test_constant_shift(self):
        c = 0.37
        shifted = full_shift_model((0, 2), 3, c - math.log(3.0))
        assert pressure_sft(shifted) == pytest.approx(pressure_sft(TERNARY) + c)

    def test_reducible_takes_max_block(self):
        A = np.zeros((3, 3))
        A[0, 0] = 0.4
        A[1:, 1:] = 0.3  # Perron root 0.6 on the second block
        assert pressure_sft(MarkovModel.from_matrix(A)) \
            == pytest.approx(math.log(0.6))

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            MarkovModel.from_matrix(np.zeros((2, 2)))


class TestEquilibriumMeasure:
    def test_ternary_depth1_uniform(self):
        m = equilibrium_cylinder_measure(TERNARY, 1)
        assert np.allclose(m.masses, 0.5)

    def test_ternary_depth2_product(self):
        m = equilibrium_cylinder_measure(TERNARY, 2)
        assert len(m.words) == 4
        assert np.allclose(m.masses, 0.25)

    def test_golden_mean_parry(self):
        m = equilibrium_cylinder_measure(GOLDEN, 1)
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        expected = {(0,): phi ** 2 / (1 + phi ** 2), (1,): 1 / (1 + phi ** 2)}
        for w, mass in zip(m.words, m.masses):
            assert mass == pytest.approx(expected[w])

    def test_golden_mean_forbidden_word_has_no_mass(self):
        m = equilibrium_cylinder_measure(GOLDEN, 3)
        assert all((1, 1) != w[i:i + 2] for w in m.words for i in range(2))
        assert m.masses.sum() == pytest.approx(1.0)

    def test_moment_oracle(self):
        deep = equilibrium_cylinder_measure(TERNARY, 12)
        assert deep.mean() == pytest.approx(0.5, abs=1e-9)
        assert deep.variance() == pytest.approx(0.125, abs=1e-6)

    def test_marginalization_consistency(self):
        m7 = equilibrium_cylinder_measure(TERNARY, 7)
        summed: dict[tuple[int, ...], float] = {}
        for w, m in zip(m7.words, m7.masses):
            summed[w[:-1]] = summed.get(w[:-1], 0.0) + float(m)
        direct = equilibrium_cylinder_measure(TERNARY, 6)
        assert sorted(summed) == direct.words
        assert np.allclose([summed[w] for w in direct.words], direct.masses)

    def test_uniform_bernoulli_masses(self):
        m = equilibrium_cylinder_measure(FIVE, 3)
        assert np.allclose(m.masses, 3.0 ** -3)

    def test_shift_invariance(self):
        shifted = full_shift_model((0, 2), 3, 1.3 - math.log(3.0))
        a = equilibrium_cylinder_measure(TERNARY, 4)
        b = equilibrium_cylinder_measure(shifted, 4)
        assert np.allclose(a.masses, b.masses)

    def test_reducible_rejected(self):
        A = np.eye(2) * 0.5
        with pytest.raises(ValueError, match="reducible"):
            equilibrium_cylinder_measure(MarkovModel.from_matrix(A), 2)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            equilibrium_cylinder_measure(TERNARY, 0)

    def test_grid_projection_sums_to_one(self):
        grid = unit_grid(729)
        proj = equilibrium_cylinder_measure(TERNARY, 7).grid_projection(grid)
        assert proj.sum() == pytest.approx(1.0)
        hole = (grid.centers()[:, 0] >= 1 / 3) & (grid.centers()[:, 0] < 2 / 3)
        assert proj[hole].max() == 0.0


class TestDictionaryAndMetrics:
    def test_members_are_lipschitz(self):
        xs = np.linspace(0.0, 1.0, 4001)[:, None]
        for name, f in _members(1):
            vals = f(xs)
            slopes = np.abs(np.diff(vals)) / np.diff(xs[:, 0])
            assert slopes.max() <= 1.0 + 1e-6, name

    def test_discrepancy_zero_for_equal(self):
        grid = unit_grid(81)
        mu = np.full(81, 1.0 / 81.0)
        assert weak_star_discrepancy(mu, mu, grid.centers()) == 0.0

    def test_discrepancy_separated_point_masses(self):
        grid = unit_grid(2000)
        mu = np.zeros(2000); mu[0] = 1.0
        nu = np.zeros(2000); nu[1000] = 1.0
        disc = weak_star_discrepancy(mu, nu, grid.centers())
        assert disc >= 1.0 / math.pi - 1e-2
        assert disc == pytest.approx(1.0 / math.pi, abs=1e-2)

    def test_discrepancy_sees_every_coordinate(self):
        # two measures on a 2-D grid that differ only in y have the
        # discrepancy of their y-marginals
        grid = build_grid([Box((0.0, 0.0), (1.0, 1.0))], 8)
        y = grid.centers()[:, 1]
        mu = np.where(y < 0.5, 2.0, 0.0) / grid.n_cells
        nu = np.where(y >= 0.5, 2.0, 0.0) / grid.n_cells
        disc = weak_star_discrepancy(mu, nu, grid.centers())
        line = unit_grid(8)
        y_line = line.centers()[:, 0]
        marginal = weak_star_discrepancy(np.where(y_line < 0.5, 0.25, 0.0),
                                         np.where(y_line >= 0.5, 0.25, 0.0),
                                         line.centers())
        assert disc > 0.2
        assert disc == pytest.approx(marginal, rel=1e-12)

    def test_discrepancy_one_cell_shift(self):
        grid = unit_grid(729)
        g = np.random.default_rng(0)
        mu = g.uniform(size=729)
        mu /= mu.sum()
        nu = np.roll(mu, 1)
        disc = weak_star_discrepancy(mu, nu, grid.centers())
        assert disc <= 1.0 / 729.0 + 1e-12  # Lipschitz-1 members

    def test_w1_identical(self):
        grid = unit_grid(10)
        mu = np.full(10, 0.1)
        assert w1_1d(mu, mu, grid.centers()) == 0.0

    def test_w1_end_point_masses(self):
        # half-cell quantization: centers sit 1/(2*100) in from each end
        grid = unit_grid(100)
        mu = np.zeros(100); mu[0] = 1.0
        nu = np.zeros(100); nu[-1] = 1.0
        assert w1_1d(mu, nu, grid.centers()) \
            == pytest.approx(0.99, abs=1e-12)

    def test_w1_uniform_vs_cantor_quadrature(self):
        grid = unit_grid(2187)
        uniform = np.full(2187, 1.0 / 2187.0)
        proj = equilibrium_cylinder_measure(TERNARY, 7).grid_projection(grid)
        lhs = w1_1d(uniform, proj, grid.centers())
        rhs = quad_w1_uniform_vs_cantor(100_001)
        assert lhs == pytest.approx(rhs, abs=1e-3)

    def test_w1_requires_1d(self):
        grid = build_grid([Box((0.0, 0.0), (1.0, 1.0))], 4)
        mu = np.full(16, 1 / 16)
        with pytest.raises(ValueError):
            w1_1d(mu, mu, grid.centers())

    def test_w1_two_box_gap(self):
        grid = build_grid([Box((0.0,), (1.0,)), Box((2.0,), (3.0,))], 2)
        mu = np.array([1.0, 0.0, 0.0, 0.0])   # center 0.25
        nu = np.array([0.0, 0.0, 1.0, 0.0])   # center 2.25
        assert w1_1d(mu, nu, grid.centers()) \
            == pytest.approx(2.0, abs=0.5 / 2.0 + 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(boxes=st.sampled_from([
        [Box((0.0,), (1.0,))],
        [Box((0.0,), (1.0,)), Box((2.0,), (3.0,))],
        [Box((2.0,), (3.0,)), Box((0.0,), (1.0,))],  # centers out of order
        [Box((-1.0,), (0.0,)), Box((0.0,), (1.0,))]]),
        resolution=st.integers(1, 12), data=st.data())
    def test_w1_is_the_monotone_coupling_cost(self, boxes, resolution, data):
        # W1 of masses at the centers: the cost of moving one to the other
        # along the line, whatever the gaps between the boxes
        grid = build_grid(boxes, resolution)
        masses = arrays(float, grid.n_cells, elements=st.floats(0.0, 1.0)
                        | st.just(0.0)).filter(lambda m: m.sum() > 0.0)
        mu, nu = data.draw(masses), data.draw(masses)
        mu, nu = mu / mu.sum(), nu / nu.sum()
        x = grid.centers()[:, 0]
        want = _monotone_w1(mu, nu, x)
        assert w1_1d(mu, nu, grid.centers()) == pytest.approx(want, abs=1e-12)
        assert w1_1d(nu, mu, grid.centers()) == w1_1d(mu, nu, grid.centers())

    def test_metric_grid_mismatch(self):
        grid = unit_grid(10)
        with pytest.raises(ValueError):
            w1_1d(np.ones(9) / 9, np.ones(10) / 10, grid.centers())
        with pytest.raises(ValueError):
            weak_star_discrepancy(np.ones(9) / 9, np.ones(10) / 10,
                                  grid.centers())


class TestGeometry:
    def test_cylinder_intervals(self):
        lo, hi = TERNARY.cylinder_interval((0, 1))  # symbols 0, 2 -> digits
        assert (lo, hi) == (pytest.approx(2.0 / 9.0), pytest.approx(3.0 / 9.0))
        lo, hi = FIVE.cylinder_interval((2,))
        assert (lo, hi) == (pytest.approx(0.4), pytest.approx(0.6))

    def test_no_geometry_model(self):
        m = MarkovModel.from_matrix([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            m.cylinder_interval((0,))

    def test_model_for_unknown(self):
        with pytest.raises(KeyError):
            model_for("smooth_perturbed")
