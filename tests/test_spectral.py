import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qemlab import spectral
from qemlab.dynamics import NoiseModel, WeightField, make_system
from qemlab.spectral import (NonConvergenceError, ZeroOperatorError,
                             assemble_qem, leading_left, leading_pair,
                             solve_triple, support_check)
from qemlab.ulam import GridPartition, assemble_operator, restrict_operator
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
        # eigenvalue ratio 0.999: the residual falls by 0.1% a step, far too
        # slowly to reach 1e-12 in 300 steps
        M = matrix_from_dense(np.diag([1.0, 0.999]))
        with pytest.raises(NonConvergenceError) as err:
            leading_pair(M, tol=1e-12, max_iters=300)
        assert err.value.residual > 0.0
        assert err.value.iterations == 300


# periodic (imprimitive) irreducible matrices: several eigenvalues share the
# modulus of the Perron root, so the plain iterates cycle and only the shift
# converges
PERIODIC = {
    "2-cycle": ([[0.0, 2.0], [1.0, 0.0]], math.sqrt(2.0)),
    "3-cycle": ([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0], [3.0, 0.0, 0.0]],
                6.0 ** (1.0 / 3.0)),
    "bipartite": ([[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0],
                   [1.0, 2.0, 0.0, 0.0], [3.0, 1.0, 0.0, 0.0]], math.sqrt(7.0)),
}


class TestPeriodicMatrices:
    @pytest.mark.parametrize("name", sorted(PERIODIC))
    @pytest.mark.parametrize("side", ["apply", "apply_adjoint"])
    def test_shift_converges_in_a_few_hundred_matvecs(self, name, side):
        dense, rho = PERIODIC[name]
        M = matrix_from_dense(np.array(dense))
        matvecs = []
        product = getattr(M, side)
        setattr(M, side, lambda x: matvecs.append(1) or product(x))
        solve = leading_pair if side == "apply" else leading_left
        lam, vec, res = solve(M)
        assert lam == pytest.approx(rho, rel=1e-9)
        assert np.all(vec > 0.0)
        assert res <= 1e-10 * lam * float(np.max(vec))
        assert spectral.STALL_WINDOW < len(matvecs) <= spectral.STALL_WINDOW + 100

    @pytest.mark.parametrize("side", ["apply", "apply_adjoint"])
    def test_zero_row_keeps_a_zero_and_still_shifts(self, side):
        # the third cell is off every cycle, so every iterate keeps a zero
        # there; the support stops shrinking after one step
        M = matrix_from_dense(np.array([[0.0, 2.0, 0.0], [1.0, 0.0, 0.0],
                                        [0.0, 0.0, 0.0]]))
        matvecs = []
        product = getattr(M, side)
        setattr(M, side, lambda x: matvecs.append(1) or product(x))
        solve = leading_pair if side == "apply" else leading_left
        lam, vec, _ = solve(M)
        assert lam == pytest.approx(math.sqrt(2.0), rel=1e-9)
        assert vec[2] == 0.0 and np.all(vec[:2] > 0.0)
        assert len(matvecs) <= spectral.STALL_WINDOW + 100

    def test_long_nilpotent_chain_is_still_a_zero_operator(self):
        # the chain stalls for longer than STALL_WINDOW, but every step
        # loses one nonzero entry, so it never shifts and its iterates
        # vanish at step 150
        n = 150
        A = np.zeros((n, n))
        A[np.arange(1, n), np.arange(n - 1)] = 1.0
        with pytest.raises(ZeroOperatorError):
            leading_pair(matrix_from_dense(A))


def _plain_power_iteration(matvec, n, tol, max_iters, l1=False):
    """The plain power iteration with fresh temporaries at every step: the
    reference the in-place loop must match bit for bit until it shifts."""
    v = np.ones(n)
    for step in range(max_iters):
        w = matvec(v)
        lam = float(np.max(np.abs(w)))
        diff = w - lam * v
        res = float(np.max(np.abs(diff)))
        if res <= tol * lam and (not l1 or float(np.sum(np.abs(diff)))
                                 <= tol * lam * float(np.sum(np.abs(v)))):
            return lam, v, res, step + 1
        v = w / lam
    raise AssertionError("reference did not converge")


def _assert_matches_plain(M, tol=1e-10):
    """leading_pair and leading_left against the reference loop: the same
    bits and the same number of matvecs."""
    for solve, side, l1 in ((leading_pair, "apply", False),
                            (leading_left, "apply_adjoint", True)):
        product = getattr(M, side)
        lam, v, res, steps = _plain_power_iteration(product, M.n_cells, tol,
                                                     100_000, l1)
        if l1:
            total = float(np.sum(v) * M.cell_volume)
            v, res = v / total, res / total
        matvecs = []
        setattr(M, side, lambda x: matvecs.append(1) or product(x))
        got = solve(M, tol)
        del M.__dict__[side]
        assert got[0] == lam and got[2] == res and len(matvecs) == steps
        assert np.array_equal(got[1], v)


class TestInPlaceIteration:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 12), density=st.floats(0.3, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_random_primitive_matrices(self, n, density, seed):
        # a positive diagonal and a positive cycle through every cell make
        # the matrix irreducible and aperiodic, so primitive
        rng = np.random.default_rng(seed)
        A = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < density)
        A[np.arange(n), np.arange(n)] += rng.uniform(0.1, 1.0, n)
        A[np.arange(n), np.roll(np.arange(n), 1)] += rng.uniform(0.1, 1.0, n)
        _assert_matches_plain(matrix_from_dense(A, cell_volume=1.0 / n))

    def test_builtin_run_longer_than_the_stall_window(self):
        # two_repeller at 405 cells per box takes more power steps than
        # STALL_WINDOW, so a residual that stopped falling would show here
        b = make_system("two_repeller")
        grid = GridPartition(b.system.domain, 405)
        M = assemble_operator(b.system, NoiseModel(1e-3), WeightField(),
                              b.survivor, grid, 15)
        matvecs = []
        apply = M.apply
        M.apply = lambda x: matvecs.append(1) or apply(x)
        leading_pair(M)
        del M.apply
        assert len(matvecs) > spectral.STALL_WINDOW
        _assert_matches_plain(M)


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
        grid = GridPartition(b.system.domain, 81)
        M = assemble_operator(b.system, NoiseModel(1e-3), WeightField(),
                              b.survivor, grid, 3)
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

    def test_without_gap_not_converged(self):
        scalars = solve_triple(matrix_from_dense(RANK1), with_gap=False).scalars()
        assert math.isnan(scalars["gap_ratio"])
        assert scalars["gap_converged"] is False


def _builtin_operator(label, resolution, epsilon, samples):
    b = make_system(label)
    grid = GridPartition(b.system.domain, resolution)
    M = assemble_operator(b.system, NoiseModel(epsilon),
                          WeightField(), b.survivor, grid, samples)
    return M, grid


def _dense_ratio(M):
    moduli = np.sort(np.abs(np.linalg.eigvals(M.toarray())))
    return moduli[-2] / moduli[-1]


def _two_repeller_stratum():
    M, grid = _builtin_operator("two_repeller", 243, 1e-3, 15)
    return restrict_operator(M, np.flatnonzero(grid.centers()[:, 0] < 1.5))


BUILTIN_GAP_CASES = {
    "ternary_hole-729": lambda: _builtin_operator("ternary_hole", 729, 1e-3, 3)[0],
    "five_hole-625": lambda: _builtin_operator("five_hole", 625, 1e-3, 3)[0],
    "open_baker-27x27": lambda: _builtin_operator("open_baker", 27, 1e-3,
                                                  (3, 1))[0],
    "two_repeller-243": lambda: _builtin_operator("two_repeller", 243, 1e-3,
                                                  15)[0],
    "two_repeller-stratum": _two_repeller_stratum,
    "smooth_perturbed-243": lambda: _builtin_operator("smooth_perturbed", 243,
                                                      1e-3, 3)[0],
}


# branch-aligned grids at eps 0
NOISELESS_CASES = [("ternary_hole", 729, 1), ("five_hole", 625, 1),
                   ("open_baker", 27, (1, 1))]


class TestGapAgainstDenseEigenvalues:
    @pytest.mark.parametrize("case", sorted(BUILTIN_GAP_CASES))
    def test_builtin_gap(self, case):
        M = BUILTIN_GAP_CASES[case]()
        assert M.n_cells <= 729
        t = solve_triple(M)
        assert t.gap_converged
        assert abs(t.gap_ratio - _dense_ratio(M)) <= 1e-6

    @pytest.mark.parametrize("label,resolution,samples", NOISELESS_CASES)
    def test_eps0_not_certified(self, label, resolution, samples):
        # the deflated operator is nilpotent at eps 0 (see the oracle below),
        # so every small Ritz value sits on a roundoff-split Jordan block
        # whose condition number rules out any certificate
        M, _ = _builtin_operator(label, resolution, 0.0, samples)
        t = solve_triple(M)
        assert t.gap_converged is False
        assert 0.0 <= t.gap_ratio < 0.01

    @pytest.mark.parametrize("label,resolution,samples", NOISELESS_CASES)
    def test_eps0_deflation_is_nilpotent(self, label, resolution, samples):
        # on a branch-aligned grid at eps 0 the Ulam matrix of these Markov
        # maps is a killed de Bruijn shift: M^k has rank one for k the
        # number of symbols needed to name a cell, so the true gap is 0
        M, _ = _builtin_operator(label, resolution, 0.0, samples)
        A = M.toarray()
        lam, right, left = growth_rate_dense(A)
        D = A - lam * np.outer(right, left) / np.dot(left, right)
        k = round(math.log(M.n_cells) / math.log(
            {"ternary_hole": 3, "five_hole": 5, "open_baker": 3}[label]))
        power = np.linalg.matrix_power(D, k - 1)
        assert np.max(np.abs(power)) >= 1e-3
        assert np.max(np.abs(power @ D)) <= 1e-12


class TestGapCertificate:
    def test_long_shift_not_certified(self):
        # a Perron cell beside a 60-step shift: the deflated operator is
        # nilpotent with a Jordan block longer than KRYLOV_DIM, so the first
        # Arnoldi cycle runs to the full basis without a breakdown, and the
        # shift's pseudo-eigenvalues give Ritz values with tiny residuals
        n = 61
        A = np.zeros((n, n))
        A[0, 0] = 1.0
        A[np.arange(2, n), np.arange(1, n - 1)] = 1.0
        M = matrix_from_dense(A)
        assert np.max(np.abs(np.linalg.matrix_power(A[1:, 1:], 60))) == 0.0
        matvecs = []
        apply = M.apply
        M.apply = lambda x: matvecs.append(1) or apply(x)
        t = solve_triple(M)
        assert t.gap_converged is False
        assert len(matvecs) < 10_000


def _planted_matrix(n, kind, seed):
    """Nonnegative n x n matrix whose subdominant eigenvalues are a planted
    complex pair or a planted +-mu pair.

    A = alpha r l^T / (l.r) + S K S^-1, where S = [r | basis of l-perp] and
    K is zero in its first row and column, so (alpha, r, l) is the Perron
    triple and the rest of the spectrum is that of K.  alpha is raised until
    every entry is nonnegative.
    """
    rng = np.random.default_rng(seed)
    r, l = rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, n)
    q, _ = np.linalg.qr(np.column_stack([l, rng.standard_normal((n, n - 1))]))
    S = np.column_stack([r, q[:, 1:]])
    mu = rng.uniform(0.2, 0.9)
    if kind == "complex":
        angle = rng.uniform(0.3, 2.8)
        c, s = np.cos(angle), np.sin(angle)
        block = mu * np.array([[c, -s], [s, c]])
    else:
        block = np.diag([mu, -mu])
    K = np.zeros((n, n))
    K[1:3, 1:3] = block
    K[3:, 3:] = np.diag(rng.uniform(-0.5, 0.5, n - 3) * mu)
    B = S @ K @ np.linalg.inv(S)
    base = np.outer(r, l) / np.dot(l, r)
    alpha = max(1.0, 1.1 * float(np.max(-B / base)))
    return alpha * base + B


class TestGapProperties:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 12), kind=st.sampled_from(["complex", "pm"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_planted_subdominant_pair(self, n, kind, seed):
        A = _planted_matrix(n, kind, seed)
        assert np.all(A >= 0.0)
        M = matrix_from_dense(A)
        t = solve_triple(M)
        assert t.gap_converged
        assert abs(t.gap_ratio - _dense_ratio(M)) <= 1e-8
        again = solve_triple(M)
        assert again.gap_ratio == t.gap_ratio


class TestSupportCheck:
    def test_two_cell_pass(self):
        t = solve_triple(matrix_from_dense(RANK1, cell_volume=1 / 3))
        report = support_check(t, [0, 1], floor=0.1)
        assert report.passed and report.min_mass == pytest.approx(0.5)

    def test_hole_cell_violation(self):
        b = make_system("ternary_hole")
        grid = GridPartition(b.system.domain, 3)
        M = assemble_operator(b.system, NoiseModel(0.0), WeightField(),
                              b.survivor, grid, 1)
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
        grid = GridPartition(b.system.domain, 243)
        M = assemble_operator(b.system, NoiseModel(1e-3), WeightField(),
                              b.survivor, grid, 3)
        t = solve_triple(M)
        assert np.all(t.qem >= 0.0)
        assert abs(t.qem.sum() - 1.0) <= 1e-12
        assert np.all(t.right >= 0.0) and np.all(t.left >= 0.0)
        assert t.right.max() == pytest.approx(1.0)
        assert np.sum(t.left) * M.cell_volume == pytest.approx(1.0)
        support = t.qem > 0
        assert np.all(t.right[support] > 0) and np.all(t.left[support] > 0)

    @settings(max_examples=60, deadline=None)
    @given(core=st.integers(1, 5), extra=st.integers(0, 5),
           periodic=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_eigenvectors_have_no_negative_entry(self, core, extra, periodic,
                                                 seed):
        # power iterates of a nonnegative matrix from the all-ones vector,
        # and the shift's v * lam, are sums, products and quotients of
        # nonnegative numbers, so no entry is negative and none is -0.0.
        # The matrix: one core block that is a weighted cycle (periodic
        # from 2 cells) or primitive, plus extra cells off every other
        # cycle, some of them zero rows
        rng = np.random.default_rng(seed)
        n = core + extra
        A = np.zeros((n, n))
        ring = np.arange(core)
        A[ring, np.roll(ring, 1)] = rng.uniform(0.1, 1.0, core)
        if not periodic or core == 1:
            A[ring, ring] = rng.uniform(0.1, 1.0, core)
            A[:core, :core] += rng.uniform(0.0, 1.0, (core, core))
        sparse = rng.uniform(size=(n, n)) < 0.5
        A[:core, core:] = (rng.uniform(0.0, 1.0, (core, extra))
                           * sparse[:core, core:])
        A[core:, :] = np.triu(rng.uniform(0.0, 1.0, (extra, n)) * sparse[core:],
                              k=core + 1)
        A[core:][rng.uniform(size=extra) < 0.4] = 0.0
        t = solve_triple(matrix_from_dense(A, cell_volume=1.0 / n),
                         with_gap=False)
        assert not np.signbit(t.right).any()
        assert not np.signbit(t.left).any()

    def test_left_fixed_point_l1_residual(self):
        b = make_system("ternary_hole")
        grid = GridPartition(b.system.domain, 81)
        M = assemble_operator(b.system, NoiseModel(1e-3), WeightField(),
                              b.survivor, grid, 3)
        tol = 1e-10
        lam, m, _ = leading_left(M, tol=tol)
        r = M.apply_adjoint(m) - lam * m
        assert np.sum(np.abs(r)) <= tol * lam * np.sum(np.abs(m))

    def test_weight_rescaling_invariance(self):
        b = make_system("ternary_hole")
        grid = GridPartition(b.system.domain, 27)
        kw = dict(region=b.survivor, grid=grid, samples_per_cell=3)
        M0 = assemble_operator(b.system, NoiseModel(1e-3), WeightField(), **kw)
        M2 = assemble_operator(b.system, NoiseModel(1e-3),
                               WeightField(math.log(2.0)), **kw)
        t0, t2 = solve_triple(M0), solve_triple(M2)
        assert abs(t2.lam - 2.0 * t0.lam) <= 1e-10
        assert np.max(np.abs(t2.qem - t0.qem)) <= 1e-10

    def test_brute_force_equivalence_small_matrices(self):
        b = make_system("ternary_hole")
        small = []
        for res, eps, k in [(3, 0.0, 1), (6, 0.0, 2), (6, 0.01, 3)]:
            grid = GridPartition(b.system.domain, res)
            small.append(assemble_operator(
                b.system, NoiseModel(eps), WeightField(), b.survivor,
                grid, k))
        small.append(restrict_operator(small[0], [0, 2]))
        for M in small:
            assert M.n_cells <= 8
            lam, right, _ = leading_pair(M, tol=1e-12)
            lam_d, right_d, _ = growth_rate_dense(M.toarray())
            assert abs(lam - lam_d) <= 1e-8
            assert np.max(np.abs(right - right_d)) <= 1e-6


class TestLeftSideOnFirstRead:
    LEFT_SIDE = ("left", "left_residual", "pairing", "qem")

    @pytest.mark.parametrize("label,resolution,samples", [
        ("ternary_hole", 243, 3), ("two_repeller", 135, 15),
        ("open_baker", 27, (3, 1))])
    def test_read_later_bitwise_equals_the_gap_solve(self, label, resolution,
                                                     samples):
        M, _ = _builtin_operator(label, resolution, 1e-3, samples)
        eager, later = solve_triple(M), solve_triple(M, with_gap=False)
        for name in self.LEFT_SIDE:
            got, want = getattr(later, name), getattr(eager, name)
            assert type(got) is type(want)
            assert np.array_equal(got, want), name

    def test_solved_once_on_first_read(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return leading_left(*args, **kwargs)

        monkeypatch.setattr(spectral, "leading_left", counted)
        t = solve_triple(matrix_from_dense(RANK1), with_gap=False)
        assert t.lam == pytest.approx(2.0 / 3.0) and not calls
        for name in self.LEFT_SIDE:
            getattr(t, name)
        t.scalars()
        assert len(calls) == 1

    def test_holds_the_matrix_until_the_left_side_is_solved(self):
        M = matrix_from_dense(RANK1)
        t, held = solve_triple(M, with_gap=False), weakref.ref(M)
        del M
        gc.collect()
        assert held() is not None
        t.qem
        gc.collect()
        assert held() is None

    def test_left_failure_raises_at_first_read(self, monkeypatch):
        def fails(*args, **kwargs):
            raise NonConvergenceError("adjoint power iteration did not "
                                      "converge", 1.0, 1)

        monkeypatch.setattr(spectral, "leading_left", fails)
        M = matrix_from_dense(RANK1)
        t = solve_triple(M, with_gap=False)
        with pytest.raises(NonConvergenceError):
            t.qem
        # the gap needs the left side, so that solve raises as it always did
        with pytest.raises(NonConvergenceError):
            solve_triple(M)


class TestBoundaryWeightSensitivity:
    def test_visible_taper_shifts_the_measure(self):
        """A taper the grid can resolve moves the conditioned measure by much
        more than a cell width: survivor mass accumulates at the region
        boundary, so boundary-layer reweighting acts at a Hoelder rate, not
        linearly.  Sub-cell tapers are the only ones compatible with the
        piecewise-constant weight projection."""
        b = make_system("ternary_hole")
        res = 243
        grid = GridPartition(b.system.domain, res)
        noise = NoiseModel(1e-3)
        plain = assemble_operator(b.system, noise, WeightField(), b.survivor,
                                  grid, 3)
        tapered_w = WeightField(0.0, support_cutoff=b.survivor,
                                taper_width=3.0 / res, domain=b.system.domain)
        tapered = assemble_operator(b.system, noise, tapered_w, b.survivor,
                                    grid, 3)
        qa = solve_triple(plain, with_gap=False).qem
        qb = solve_triple(tapered, with_gap=False).qem
        assert w1_1d(qa, qb, grid.centers()) > 2.0 / res
