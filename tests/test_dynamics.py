import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qemlab.dynamics import (Box, Domain, NoiseModel, WeightField, _wrap_mod,
                             builtin_labels, constant_weight, eval_weight,
                             geometric_potential, make_system, region_fraction,
                             step_points, zero_weight)


def rng(seed=0):
    return np.random.default_rng(seed)


def step_one(system, noise, x, generator):
    """One random step of a single point: (new point, alive flag)."""
    new, alive = step_points(system, noise, np.atleast_2d(x), generator)
    return new[0], bool(alive[0])


class TestStepRandom:
    def test_ternary_deterministic_step(self):
        b = make_system("ternary_hole")
        out, alive = step_one(b.system, NoiseModel(0.0, 1), [0.1], rng())
        assert alive
        assert out[0] == pytest.approx(0.3)

    def test_noise_stays_in_kernel_support(self):
        b = make_system("ternary_hole")
        for seed in range(20):
            out, _ = step_one(b.system, NoiseModel(0.01, 1), [0.1], rng(seed))
            assert 0.29 <= out[0] <= 0.31

    def test_baker_fixed_point(self):
        b = make_system("open_baker")
        out, _ = step_one(b.system, NoiseModel(0.0, 2), [0.0, 0.0], rng())
        assert np.allclose(out, [0.0, 0.0])

    @pytest.mark.parametrize("label", builtin_labels())
    def test_zero_noise_equals_map(self, label):
        b = make_system(label)
        d = b.system.dimension
        pts = np.asarray([box.lo for box in b.system.domain.boxes]) + 0.1379
        new, alive = step_points(b.system, NoiseModel(0.0, d), pts, rng())
        assert alive.all()
        assert np.allclose(new, b.system.forward(pts))

    def test_seeded_step_is_bit_reproducible(self):
        b = make_system("five_hole")
        noise = NoiseModel(2e-3, 1)
        a, _ = step_one(b.system, noise, [0.2], np.random.default_rng(42))
        c, _ = step_one(b.system, noise, [0.2], np.random.default_rng(42))
        assert a[0] == c[0]

    def test_absorbing_boundary_returns_cemetery(self):
        # expanding map on [0,1) with absorbing edges: noise can push out,
        # and a point pushed out comes back with alive=False
        dom = Domain((Box((0.0,), (1.0,), (False,)),))
        system = make_system("ternary_hole").system
        absorbing = type(system)(
            dimension=1, forward=system.forward,
            jacobian_det=system.jacobian_det,
            unstable_log_expansion=system.unstable_log_expansion,
            domain=dom, label="absorbing")
        pts = np.full((200, 1), 0.333)
        new, alive = step_points(absorbing, NoiseModel(0.05, 1), pts, rng())
        assert not alive.all()  # 3*0.333=0.999, half the kernel exits
        assert ((new[alive, 0] >= 0.0) & (new[alive, 0] < 1.0)).all()

    def test_two_repeller_preserves_boxes(self):
        b = make_system("two_repeller")
        pts = np.array([[0.1], [0.9], [2.05], [2.95]])
        new, alive = step_points(b.system, NoiseModel(1e-3, 1), pts, rng(3))
        assert alive.all()
        assert (new[:2, 0] < 1.0).all() and (new[2:, 0] >= 2.0).all()


FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def _per_box_boundary(domain, base, moved):
    """Reference: the boundary rule applied box by box, axis by axis."""
    pts = np.array(np.atleast_2d(moved), dtype=float)
    bs = np.atleast_2d(base)
    which = np.full(bs.shape[0], -1)
    for b, box in enumerate(domain.boxes):
        hit = np.all((bs >= np.asarray(box.lo)) & (bs < np.asarray(box.hi)), axis=1)
        which[(which < 0) & hit] = b
    alive = which >= 0
    for b, box in enumerate(domain.boxes):
        sel = which == b
        lo, w = np.asarray(box.lo), box.widths
        sub = pts[sel]
        for k in range(box.dimension):
            if box.wrap[k]:
                sub[:, k] = lo[k] + np.mod(sub[:, k] - lo[k], w[k])
            else:
                bad = (sub[:, k] < lo[k]) | (sub[:, k] >= lo[k] + w[k])
                alive[np.flatnonzero(sel)[bad]] = False
        pts[sel] = sub
    return pts, alive, which


BOUNDARY_DOMAINS = {
    "two_repeller": make_system("two_repeller").system.domain,
    "absorbing": Domain((Box((0.0,), (1.0,), (False,)),)),
    "open_baker": make_system("open_baker").system.domain,
    "mixed_2d": Domain((Box((0.0, -1.0), (2.0, 0.5), (True, False)),
                        Box((2.5, 0.0), (3.0, 1.0), (False, True)))),
}


class TestBoundaryKernels:
    @settings(max_examples=200, deadline=None)
    @given(a=arrays(float, st.integers(1, 40), elements=FINITE),
           w=st.just(1.0) | st.floats(1e-3, 1e3))
    def test_wrap_mod_is_bitwise_np_mod(self, a, w):
        assert np.array_equal(_bits(_wrap_mod(a, w)), _bits(np.mod(a, w)))

    def test_wrap_mod_signed_zero_and_tiny(self):
        a = np.array([-0.0, 0.0, -1e-300, -5e-324, -1.0, -3.0, 1.0 - 2 ** -53])
        assert np.array_equal(_bits(_wrap_mod(a, 1.0)), _bits(np.mod(a, 1.0)))

    @settings(max_examples=100, deadline=None)
    @given(name=st.sampled_from(sorted(BOUNDARY_DOMAINS)), data=st.data())
    def test_apply_boundary_matches_per_box_rule(self, name, data):
        domain = BOUNDARY_DOMAINS[name]
        d = domain.dimension
        n = data.draw(st.integers(1, 40))
        base = data.draw(arrays(float, (n, d), elements=st.floats(-1.5, 3.5)))
        delta = data.draw(arrays(float, (n, d), elements=st.floats(-0.6, 0.6)))
        got, alive = domain.apply_boundary(base, base + delta)
        want, want_alive, which = _per_box_boundary(domain, base, base + delta)
        assert np.array_equal(alive, want_alive)
        located = which >= 0  # rows outside every box are unspecified
        assert np.array_equal(_bits(got[located]), _bits(want[located]))


class TestJacobians:
    @pytest.mark.parametrize("label,slope", [
        ("ternary_hole", 3.0), ("five_hole", 5.0), ("open_baker", 1.0),
    ])
    def test_jacobian_matches_branch_slopes(self, label, slope):
        b = make_system(label)
        pts = np.full((5, b.system.dimension), 0.05) + \
            np.linspace(0, 0.9, 5)[:, None] * 0.1
        assert np.allclose(b.system.jacobian_det(pts), slope)

    def test_two_repeller_jacobian_per_box(self):
        b = make_system("two_repeller")
        assert np.allclose(b.system.jacobian_det(np.array([[0.1]])), 3.0)
        assert np.allclose(b.system.jacobian_det(np.array([[2.1]])), 5.0)

    def test_smooth_perturbed_jacobian(self):
        b = make_system("smooth_perturbed", a=0.03)
        x = np.array([[0.2]])
        expected = 3.0 + 2.0 * math.pi * 0.03 * math.cos(2 * math.pi * 0.2)
        assert b.system.jacobian_det(x)[0] == pytest.approx(expected)
        assert (b.system.jacobian_det(np.linspace(0, 1, 50)[:, None]) > 0).all()


class TestGeometricPotential:
    def test_values(self):
        assert geometric_potential(make_system("ternary_hole").system, [0.1]) \
            == pytest.approx(-math.log(3.0))
        assert geometric_potential(make_system("open_baker").system, [0.1, 0.4]) \
            == pytest.approx(-math.log(3.0))
        assert geometric_potential(make_system("five_hole").system, [0.1]) \
            == pytest.approx(-math.log(5.0))


class TestWeights:
    def test_constant_weights(self):
        assert eval_weight(zero_weight(), [0.77]) == 1.0
        assert eval_weight(constant_weight(math.log(2.0)), [0.2]) \
            == pytest.approx(2.0)

    def test_taper_vanishes_on_cutoff_boundary(self):
        b = make_system("ternary_hole")
        w = WeightField(0.0, support_cutoff=b.survivor, taper_width=0.01,
                        domain=b.system.domain)
        assert eval_weight(w, [1.0 / 3.0]) == 0.0
        assert eval_weight(w, [2.0 / 3.0]) == 0.0
        # deep interior unaffected; wrap seam at 0/1 is not a boundary
        assert eval_weight(w, [0.1]) == pytest.approx(1.0)
        assert eval_weight(w, [0.0001]) == pytest.approx(1.0)
        assert eval_weight(w, [0.9999]) == pytest.approx(1.0)
        # strictly positive just inside, increasing with depth
        near = eval_weight(w, [1.0 / 3.0 - 1e-3])
        deeper = eval_weight(w, [1.0 / 3.0 - 5e-3])
        assert 0.0 < near < deeper <= 1.0

    def test_weight_zero_outside_cutoff(self):
        b = make_system("ternary_hole")
        w = WeightField(0.0, support_cutoff=b.survivor, taper_width=0.01,
                        domain=b.system.domain)
        assert eval_weight(w, [0.5]) == 0.0

    def test_taper_on_two_box_domain_keeps_boxes_separate(self):
        # boundary points of one box must not bleed into the other box's
        # circle arithmetic
        b = make_system("two_repeller")
        w = WeightField(0.0, support_cutoff=b.survivor, taper_width=0.05,
                        domain=b.system.domain)
        assert eval_weight(w, [0.01]) == pytest.approx(1.0)   # far from 1/3, 2/3
        assert eval_weight(w, [0.99]) == pytest.approx(1.0)
        assert eval_weight(w, [2.0]) == 0.0                   # genuine boundary
        assert eval_weight(w, [2.6 - 1e-9]) == pytest.approx(0.0, abs=1e-6)
        assert eval_weight(w, [2.3]) == pytest.approx(1.0)


class TestNoiseModel:
    def test_samples_within_bounds(self):
        noise = NoiseModel(0.02, 2)
        s = noise.sample(rng(1), 5000)
        assert s.shape == (5000, 2)
        assert np.all(np.abs(s) <= 0.02)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(-0.1, 1)


class TestRegionFraction:
    def setup_method(self):
        self.region = make_system("ternary_hole").survivor

    def test_full_containment_exact(self):
        assert region_fraction(self.region, [0.0], [1.0 / 3.0]) == 1.0

    def test_full_exclusion_exact(self):
        assert region_fraction(self.region, [1.0 / 3.0], [2.0 / 3.0]) == 0.0

    def test_straddling_cell_estimate(self):
        frac = region_fraction(self.region, [0.25], [0.40],
                               subsamples=10_000, seed=4)
        assert frac == pytest.approx(5.0 / 9.0, abs=0.02)

    def test_degenerate_cell_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            region_fraction(self.region, [0.2], [0.2])


class TestBuiltins:
    @pytest.mark.parametrize("label,lam", [
        ("ternary_hole", 2.0 / 3.0), ("open_baker", 2.0 / 3.0),
        ("five_hole", 3.0 / 5.0), ("two_repeller", 2.0 / 3.0),
    ])
    def test_escape_eigenvalue_oracles(self, label, lam):
        assert make_system(label).escape_eigenvalue == pytest.approx(lam)

    def test_smooth_perturbed_has_no_oracle(self):
        assert make_system("smooth_perturbed").escape_eigenvalue is None

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            make_system("nope")

    def test_smooth_perturbed_amplitude_guard(self):
        with pytest.raises(ValueError):
            make_system("smooth_perturbed", a=0.06)

    @pytest.mark.parametrize("label", builtin_labels())
    def test_forward_finite_on_domain(self, label):
        b = make_system(label)
        g = np.random.default_rng(7)
        for box in b.system.domain.boxes:
            pts = np.asarray(box.lo) + g.uniform(size=(200, b.system.dimension)) \
                * (np.asarray(box.hi) - np.asarray(box.lo))
            out = b.system.forward(pts)
            assert np.all(np.isfinite(out))
            assert (b.system.domain.locate(out) >= 0).all()
