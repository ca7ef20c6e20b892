import math

import numpy as np
import pytest

from qemlab.dynamics import NoiseModel, WeightField, \
    constant_weight, make_system, zero_weight
from qemlab.spectral import (NonConvergenceError, assemble_qem, leading_left,
                             leading_pair, solve_triple, support_check)
from qemlab.ulam import assemble_operator, build_grid, restrict_operator
from qemlab.equilibrium import w1_1d

from oracles import growth_rate_dense, matrix_from_dense

RANK1 = np.full((2, 2), 1.0 / 3.0)


class TestLeadingPair:
    def test_rank_one(self):
        lam, right, res = leading_pair(matrix_from_dense(RANK1))
        assert lam == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert np.allclose(right, [1.0, 1.0])
        assert res <= 1e-10 * lam

    def test_identity(self):
        lam, right, _ = leading_pair(matrix_from_dense(np.eye(5)))
        assert lam == 1.0
        assert np.allclose(right, 1.0)

    def test_scaling(self):
        M = matrix_from_dense(RANK1)
        M5 = matrix_from_dense(5.0 * RANK1)
        lam, right, _ = leading_pair(M)
        lam5, right5, _ = leading_pair(M5)
        assert lam5 == pytest.approx(5.0 * lam)
        assert np.allclose(right, right5)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="no positive spectral radius"):
            leading_pair(matrix_from_dense(np.zeros((2, 2))))

    def test_non_convergence_reports_residual(self):
        # eigenvalues +-sqrt(2): no spectral gap, iteration oscillates
        M = matrix_from_dense(np.array([[0.0, 2.0], [1.0, 0.0]]))
        with pytest.raises(NonConvergenceError) as err:
            leading_pair(M, tol=1e-12, max_iters=300)
        assert err.value.residual > 0.0


class TestLeadingLeft:
    def test_density_normalization(self):
        lam, left, _ = leading_left(matrix_from_dense(RANK1, cell_volume=1 / 3))
        assert lam == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert np.allclose(left, [1.5, 1.5])

    def test_identity_uniform(self):
        lam, left, _ = leading_left(matrix_from_dense(np.eye(4), cell_volume=0.25))
        assert lam == 1.0
        assert np.allclose(left, 1.0)

    def test_left_right_eigenvalue_consistency(self):
        b = make_system("ternary_hole")
        grid = build_grid(b.system.domain, 81)
        M = assemble_operator(b.system, NoiseModel(1e-3, 1), zero_weight(),
                              b.survivor, grid, 3, seed=1)
        lam_r, _, _ = leading_pair(M, tol=1e-10)
        lam_l, _, _ = leading_left(M, tol=1e-10)
        assert abs(lam_l - lam_r) <= 2e-10 * lam_r


class TestAssembleQem:
    def test_two_cell_example(self):
        qem = assemble_qem(np.array([1.0, 1.0]), np.array([1.5, 1.5]), 1 / 3)
        assert np.allclose(qem, [0.5, 0.5])

    def test_point_mass(self):
        e = np.array([0.0, 1.0, 0.0])
        assert np.allclose(assemble_qem(e, e, 0.1), e)

    def test_scale_cancellation(self):
        r = np.array([0.2, 0.8, 0.4])
        l = np.array([1.0, 0.5, 2.0])
        a = assemble_qem(r, l, 0.5)
        b = assemble_qem(7.0 * r, l / 7.0, 0.5)
        assert np.allclose(a, b)

    def test_disjoint_supports_rejected(self):
        with pytest.raises(ValueError, match="degenerate eigendata"):
            assemble_qem(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1.0)


class TestGapEstimate:
    def test_rank_one_gap_zero(self):
        t = solve_triple(matrix_from_dense(RANK1))
        assert t.gap_ratio == pytest.approx(0.0, abs=1e-9)

    def test_identity_no_gap(self):
        t = solve_triple(matrix_from_dense(np.eye(3)))
        assert t.gap_ratio == pytest.approx(1.0, abs=1e-8)

    def test_diagonal_spectrum(self):
        t = solve_triple(matrix_from_dense(np.diag([1.0, 0.5])))
        assert t.gap_ratio == pytest.approx(0.5, abs=1e-6)


class TestSupportCheck:
    def test_two_cell_pass(self):
        t = solve_triple(matrix_from_dense(RANK1, cell_volume=1 / 3))
        report = support_check(t, [0, 1], floor=0.1)
        assert report.passed and report.min_mass == pytest.approx(0.5)

    def test_hole_cell_violation(self):
        b = make_system("ternary_hole")
        grid = build_grid(b.system.domain, 3)
        M = assemble_operator(b.system, NoiseModel(0.0, 1), zero_weight(),
                              b.survivor, grid, 1, seed=0)
        t = solve_triple(M)
        report = support_check(t, [1], floor=0.1)
        assert not report.passed
        assert report.violations == [(1, 0.0)]

    def test_empty_reference_vacuous(self):
        t = solve_triple(matrix_from_dense(RANK1))
        assert support_check(t, [], floor=0.9).passed


class TestTripleInvariants:
    def test_qem_probability_vector(self):
        b = make_system("ternary_hole")
        grid = build_grid(b.system.domain, 243)
        M = assemble_operator(b.system, NoiseModel(1e-3, 1), zero_weight(),
                              b.survivor, grid, 3, seed=3)
        t = solve_triple(M)
        assert np.all(t.qem >= 0.0)
        assert abs(t.qem.sum() - 1.0) <= 1e-12
        assert np.all(t.right >= 0.0) and np.all(t.left >= 0.0)
        assert t.right.max() == pytest.approx(1.0)
        assert np.sum(t.left) * M.cell_volume == pytest.approx(1.0)
        support = t.qem > 0
        assert np.all(t.right[support] > 0) and np.all(t.left[support] > 0)

    def test_left_fixed_point_l1_residual(self):
        b = make_system("ternary_hole")
        grid = build_grid(b.system.domain, 81)
        M = assemble_operator(b.system, NoiseModel(1e-3, 1), zero_weight(),
                              b.survivor, grid, 3, seed=4)
        tol = 1e-10
        lam, m, _ = leading_left(M, tol=tol)
        r = M.apply_adjoint(m) - lam * m
        assert np.sum(np.abs(r)) <= tol * lam * np.sum(np.abs(m))

    def test_weight_rescaling_invariance(self):
        b = make_system("ternary_hole")
        grid = build_grid(b.system.domain, 27)
        kw = dict(region=b.survivor, grid=grid, samples_per_cell=3, seed=6)
        M0 = assemble_operator(b.system, NoiseModel(1e-3, 1), zero_weight(), **kw)
        M2 = assemble_operator(b.system, NoiseModel(1e-3, 1),
                               constant_weight(math.log(2.0)), **kw)
        t0, t2 = solve_triple(M0), solve_triple(M2)
        assert abs(t2.lam - 2.0 * t0.lam) <= 1e-10
        assert np.max(np.abs(t2.qem - t0.qem)) <= 1e-10

    def test_brute_force_equivalence_small_matrices(self):
        b = make_system("ternary_hole")
        small = []
        for res, eps, k in [(3, 0.0, 1), (6, 0.0, 2), (6, 0.01, 3)]:
            grid = build_grid(b.system.domain, res)
            small.append(assemble_operator(
                b.system, NoiseModel(eps, 1), zero_weight(), b.survivor,
                grid, k, seed=9))
        small.append(restrict_operator(small[0], [0, 2]))
        for M in small:
            assert M.n_cells <= 8
            lam, right, _ = leading_pair(M, tol=1e-12)
            lam_d, right_d, _ = growth_rate_dense(M.toarray())
            assert abs(lam - lam_d) <= 1e-8
            assert np.max(np.abs(right - right_d)) <= 1e-6


class TestBoundaryWeightSensitivity:
    def test_visible_taper_shifts_the_measure(self):
        """A taper the grid can resolve moves the conditioned measure by much
        more than a cell width: survivor mass accumulates at the region
        boundary, so boundary-layer reweighting acts at a Hoelder rate, not
        linearly.  Sub-cell tapers are the only ones compatible with the
        piecewise-constant weight projection."""
        b = make_system("ternary_hole")
        res = 243
        grid = build_grid(b.system.domain, res)
        noise = NoiseModel(1e-3, 1)
        plain = assemble_operator(b.system, noise, zero_weight(), b.survivor,
                                  grid, 3, seed=21)
        tapered_w = WeightField(0.0, support_cutoff=b.survivor,
                                taper_width=3.0 / res, domain=b.system.domain)
        tapered = assemble_operator(b.system, noise, tapered_w, b.survivor,
                                    grid, 3, seed=21)
        qa = solve_triple(plain, with_gap=False).qem
        qb = solve_triple(tapered, with_gap=False).qem
        assert w1_1d(qa, qb, grid.centers(), grid.cell_volume) > 2.0 / res
