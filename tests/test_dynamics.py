import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qemlab.dynamics import (Box, Domain, NoiseModel, RegionSpec, WeightField,
                             _wrap_mod, builtin_labels, constant_weight,
                             eval_weight, make_system, region_fraction,
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
        out, alive = step_one(b.system, NoiseModel(0.0), [0.1], rng())
        assert alive
        assert out[0] == pytest.approx(0.3)

    def test_noise_stays_in_kernel_support(self):
        b = make_system("ternary_hole")
        for seed in range(20):
            out, _ = step_one(b.system, NoiseModel(0.01), [0.1], rng(seed))
            assert 0.29 <= out[0] <= 0.31

    def test_baker_fixed_point(self):
        b = make_system("open_baker")
        out, _ = step_one(b.system, NoiseModel(0.0), [0.0, 0.0], rng())
        assert np.allclose(out, [0.0, 0.0])

    @pytest.mark.parametrize("label", builtin_labels())
    def test_zero_noise_equals_map(self, label):
        b = make_system(label)
        d = b.system.dimension
        pts = np.asarray([box.lo for box in b.system.domain.boxes]) + 0.1379
        new, alive = step_points(b.system, NoiseModel(0.0), pts, rng())
        assert alive.all()
        assert np.allclose(new, b.system.forward(pts))

    def test_seeded_step_is_bit_reproducible(self):
        b = make_system("five_hole")
        noise = NoiseModel(2e-3)
        a, _ = step_one(b.system, noise, [0.2], np.random.default_rng(42))
        c, _ = step_one(b.system, noise, [0.2], np.random.default_rng(42))
        assert a[0] == c[0]

    def test_absorbing_boundary_returns_cemetery(self):
        # expanding map on [0,1) with absorbing edges: noise can push out,
        # and a point pushed out comes back with alive=False
        dom = Domain((Box((0.0,), (1.0,), (False,)),))
        system = make_system("ternary_hole").system
        absorbing = type(system)(
            forward=system.forward,
            jacobian_det=system.jacobian_det,
            domain=dom, label="absorbing")
        pts = np.full((200, 1), 0.333)
        new, alive = step_points(absorbing, NoiseModel(0.05), pts, rng())
        assert not alive.all()  # 3*0.333=0.999, half the kernel exits
        assert ((new[alive, 0] >= 0.0) & (new[alive, 0] < 1.0)).all()

    def test_baker_offsets_are_independent_per_axis(self):
        # product noise: x and y each get their own offset, as in assembly
        b = make_system("open_baker")
        pts = np.full((2000, 2), 0.1)
        new, alive = step_points(b.system, NoiseModel(0.01), pts, rng(5))
        offsets = new - b.system.forward(pts)
        assert alive.all() and np.all(np.abs(offsets) <= 0.01)
        assert abs(np.corrcoef(offsets.T)[0, 1]) < 0.1
        assert np.count_nonzero(offsets[:, 0] == offsets[:, 1]) == 0

    def test_two_repeller_preserves_boxes(self):
        b = make_system("two_repeller")
        pts = np.array([[0.1], [0.9], [2.05], [2.95]])
        new, alive = step_points(b.system, NoiseModel(1e-3), pts, rng(3))
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
    # the single wrapped unit box of the 1-D builtins
    "ternary_hole": make_system("ternary_hole").system.domain,
    # a wrapped width other than 1 goes through np.mod
    "wide_wrap": Domain((Box((-0.5,), (1.75,), (True,)),)),
    # boxes may share a face: 1.0 lies in the second, wrapped box only
    "touching": Domain((Box((0.0,), (1.0,), (False,)),
                        Box((1.0,), (2.0,), (True,)))),
}


def _masked_locate(domain, points):
    """Reference: box indices by boolean-mask scatters, last box first."""
    p = np.atleast_2d(points)
    out = np.full(p.shape[0], -1, dtype=np.int64)
    for b in range(len(domain.boxes) - 1, -1, -1):
        out[domain.boxes[b].contains(p)] = b
    return out


def _masked_two_repeller_forward(p):
    """Reference: the two-repeller map by boolean-mask scatters."""
    out = np.empty_like(p)
    left = p[:, 0] < 1.5
    out[left, 0] = _wrap_mod(3.0 * p[left, 0], 1.0)
    out[~left, 0] = 2.0 + _wrap_mod(5.0 * (p[~left, 0] - 2.0), 1.0)
    return out


class TestBoundaryKernels:
    @settings(max_examples=200, deadline=None)
    @given(a=arrays(float, st.integers(1, 40), elements=FINITE),
           w=st.just(1.0) | st.floats(1e-3, 1e3))
    def test_wrap_mod_is_bitwise_np_mod(self, a, w):
        assert np.array_equal(_bits(_wrap_mod(a, w)), _bits(np.mod(a, w)))

    def test_wrap_mod_signed_zero_and_tiny(self):
        a = np.array([-0.0, 0.0, -1e-300, -5e-324, -1.0, -3.0, 1.0 - 2 ** -53])
        assert np.array_equal(_bits(_wrap_mod(a, 1.0)), _bits(np.mod(a, 1.0)))

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(sorted(BOUNDARY_DOMAINS)), data=st.data())
    def test_apply_boundary_matches_per_box_rule(self, name, data):
        domain = BOUNDARY_DOMAINS[name]
        d = domain.dimension
        n = data.draw(st.integers(1, 40))
        one_box = data.draw(st.none() | st.sampled_from(domain.boxes))
        if one_box is None:
            base = data.draw(arrays(float, (n, d), elements=st.floats(-1.5, 3.5)))
        else:
            # every base row in one box, where a box need not mask its rows;
            # a face at 0 also meets -0.0, and the top face one ulp below
            base = np.column_stack([data.draw(arrays(float, n, elements=(
                st.floats(lo, hi, exclude_max=True)
                | st.sampled_from([lo, np.nextafter(hi, -np.inf)]
                                  + [-0.0] * (lo == 0.0)))))
                for lo, hi in zip(one_box.lo, one_box.hi)])
        delta = data.draw(arrays(float, (n, d), elements=st.floats(-0.6, 0.6)
                                 | st.sampled_from([-0.0, 0.0])))
        got, alive = domain.apply_boundary(base, base + delta)
        want, want_alive, which = _per_box_boundary(domain, base, base + delta)
        assert np.array_equal(alive, want_alive)
        located = which >= 0  # rows outside every box are unspecified
        assert np.array_equal(_bits(got[located]), _bits(want[located]))

    @pytest.mark.parametrize("boxes", [
        [Box((0.0,), (2.0,)), Box((1.0,), (3.0,))],
        [Box((0.0,), (1.0,)), Box((0.5,), (0.75,))],  # one inside the other
        [Box((2.0,), (3.0,)), Box((0.0,), (1.0,)), Box((0.0,), (1.0,))],
        [Box((0.0, 0.0), (1.0, 1.0)), Box((0.9, 0.9), (2.0, 2.0))],
    ])
    def test_overlapping_domain_boxes_rejected(self, boxes):
        with pytest.raises(ValueError, match="overlap"):
            Domain(tuple(boxes))

    @pytest.mark.parametrize("boxes", [
        [Box((0.0,), (1.0,)), Box((1.0,), (2.0,))],
        [Box((1.0,), (2.0,)), Box((0.0,), (1.0,))],
        # they share the face y = 1, where their x ranges overlap
        [Box((0.0, 0.0), (1.0, 1.0)), Box((0.5, 1.0), (2.0, 2.0))],
        [Box((0.0, 0.0), (1.0, 1.0)), Box((1.0, 1.0), (2.0, 2.0))],
    ])
    def test_boxes_with_touching_faces_accepted(self, boxes):
        assert Domain(tuple(boxes)).boxes == tuple(boxes)

    @settings(max_examples=100, deadline=None)
    @given(name=st.sampled_from(sorted(BOUNDARY_DOMAINS)), data=st.data())
    def test_locate_matches_masked_scatter(self, name, data):
        domain = BOUNDARY_DOMAINS[name]
        n = data.draw(st.integers(1, 40))
        pts = data.draw(arrays(float, (n, domain.dimension),
                               elements=st.floats(-1.5, 3.5)))
        got = domain.locate(pts)
        assert got.dtype == np.int64
        assert np.array_equal(got, _masked_locate(domain, pts))

    @settings(max_examples=100, deadline=None)
    @given(pts=arrays(float, st.tuples(st.integers(1, 40), st.just(1)),
                      elements=st.floats(-1.5, 3.5)
                      | st.sampled_from([0.0, -0.0, 1.0, 1.5, 2.0, 3.0 - 2 ** -51])))
    def test_two_repeller_forward_matches_masked_scatter(self, pts):
        forward = make_system("two_repeller").system.forward
        got = forward(pts)
        want = _masked_two_repeller_forward(pts)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(_bits(got), _bits(want))


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


# ---------------------------------------------------------------------------
# references: the taper and region fraction before they shared one
# coordinate compression
# ---------------------------------------------------------------------------

def _reference_boundary_points_1d(weight):
    """Boundary coordinates of a 1-D cutoff, ``(coordinate, box_lo,
    box_width, box_wraps)``: the ends of the merged cutoff intervals in each
    domain box, without the seam of a wrapped box that the cutoff covers on
    both sides.  Intervals merge and ends match with 1e-12 tolerances."""
    intervals = sorted((b.lo[0], b.hi[0]) for b in weight.support_cutoff.boxes)
    merged = []
    for lo, hi in intervals:
        if merged and lo <= merged[-1][1] + 1e-12:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    pts = [p for m in merged for p in m]
    boxes = (weight.domain.boxes if weight.domain is not None
             else (Box((min(pts),), (max(pts) + 1.0,)),))
    out = []
    for box in boxes:
        blo, bhi = box.lo[0], box.hi[0]
        local = [p for p in pts if blo - 1e-12 <= p <= bhi + 1e-12]
        if box.wrap[0]:
            first = any(abs(m[0] - blo) < 1e-12 for m in merged)
            last = any(abs(m[1] - bhi) < 1e-12 for m in merged)
            if first and last:
                local = [p for p in local
                         if abs(p - blo) > 1e-12 and abs(p - bhi) > 1e-12]
        out.extend((p, blo, bhi - blo, box.wrap[0]) for p in local)
    return out


def _reference_values_1d(weight, points):
    """e^phi times the smoothstep of the circle distance, in the point's own
    domain box, to the nearest boundary coordinate; 0 without one."""
    x = np.atleast_2d(points)[:, 0]
    dist = np.full(x.shape[0], np.inf)
    for coord, blo, width, wrap in _reference_boundary_points_1d(weight):
        in_box = (x >= blo) & (x < blo + width)
        d = np.abs(x - coord)
        if wrap:
            d = np.minimum(d, width - d)
        dist = np.where(in_box, np.minimum(dist, d), dist)
    dist = np.where(np.isfinite(dist), dist, 0.0)
    t = np.clip(dist / weight.taper_width, 0.0, 1.0)
    taper = weight.support_cutoff.contains(np.atleast_2d(points)) \
        * (t * t * (3.0 - 2.0 * t))
    return np.exp(weight.log_values(points)) * taper


def _reference_region_fraction(region, cell_lo, cell_hi):
    """Covered fraction by coordinate compression of the clipped faces alone."""
    lo = np.asarray(cell_lo, dtype=float)
    hi = np.asarray(cell_hi, dtype=float)
    box_lo = np.array([b.lo for b in region.boxes], dtype=float)
    box_hi = np.array([b.hi for b in region.boxes], dtype=float)
    if np.any(np.all((lo >= box_lo) & (hi <= box_hi), axis=1)):
        return 1.0
    box_lo = np.clip(box_lo, lo, hi)
    box_hi = np.clip(box_hi, lo, hi)
    meets = np.all(box_hi > box_lo, axis=1)
    box_lo, box_hi = box_lo[meets], box_hi[meets]
    if box_lo.shape[0] == 0:
        return 0.0
    cuts = [np.sort(np.concatenate([box_lo[:, k], box_hi[:, k]]))
            for k in range(lo.size)]
    mids = np.stack([g.ravel() for g in np.meshgrid(
        *[(c[:-1] + c[1:]) / 2.0 for c in cuts], indexing="ij")], axis=1)
    sizes = np.stack([g.ravel() for g in np.meshgrid(
        *[np.diff(c) for c in cuts], indexing="ij")], axis=1)
    covered = np.any(np.all((mids[:, None, :] >= box_lo)
                            & (mids[:, None, :] < box_hi), axis=2), axis=1)
    return float(np.sum(np.prod(sizes[covered], axis=1)) / np.prod(hi - lo))


# 1-D domains of one or two boxes, wrapped or absorbing
TAPER_DOMAINS = [((0.0, 1.0),), ((0.0, 1.0), (2.0, 3.0)), ((-0.5, 1.75),)]


@st.composite
def cutoffs_1d(draw):
    """A 1-D cutoff of 1-4 intervals with ends on an eighth of a domain box,
    so that intervals overlap or meet, its domain (or None) and a taper."""
    spans = draw(st.sampled_from(TAPER_DOMAINS))
    wraps = draw(st.lists(st.booleans(), min_size=len(spans),
                          max_size=len(spans)))
    boxes = []
    for _ in range(draw(st.integers(1, 4))):
        lo, hi = spans[draw(st.integers(0, len(spans) - 1))]
        a, b = sorted(draw(st.lists(st.integers(0, 8), min_size=2, max_size=2,
                                    unique=True)))
        boxes.append(Box((lo + a * (hi - lo) / 8,), (lo + b * (hi - lo) / 8,)))
    domain = (Domain(tuple(Box((lo,), (hi,), (w,))
                           for (lo, hi), w in zip(spans, wraps)))
              if draw(st.booleans()) else None)
    weight = WeightField(draw(st.floats(-2.0, 2.0)),
                         support_cutoff=RegionSpec(tuple(boxes)),
                         taper_width=draw(st.sampled_from([0.01, 0.05, 0.3, 2.0])),
                         domain=domain)
    ends = [p for b in boxes for p in (b.lo[0], b.hi[0])]
    inside = [draw(st.floats(lo, hi, exclude_max=True)) for lo, hi in spans
              for _ in range(8)]
    return weight, np.array(ends + inside + [lo for lo, _ in spans])[:, None]


def _covers_a_wrapped_box(weight):
    if weight.domain is None:
        return False
    return any(box.wrap[0] and weight.support_cutoff.contains(
        np.linspace(box.lo[0], box.hi[0], 4097)[:-1, None]).all()
        for box in weight.domain.boxes)


@st.composite
def unions(draw):
    """A union of 1-8 overlapping 1-D or 2-D boxes and a cell, with corners
    on a grid of sixteenths, where faces repeat, or anywhere."""
    d = draw(st.integers(1, 2))
    grid = st.integers(0, 16).map(lambda i: i / 16)

    def box(coord):
        ends = [sorted(draw(st.lists(coord, min_size=2, max_size=2, unique=True)))
                for _ in range(d)]
        return tuple(e[0] for e in ends), tuple(e[1] for e in ends)

    coord = grid if draw(st.booleans()) else st.floats(-0.2, 1.2)
    region = RegionSpec(tuple(Box(*box(coord))
                              for _ in range(draw(st.integers(1, 8)))))
    return region, box(grid | st.floats(0.0, 1.0))


class TestSharedCompression:
    @settings(max_examples=300, deadline=None)
    @given(case=cutoffs_1d())
    def test_1d_taper_matches_the_boundary_point_reference(self, case):
        weight, points = case
        assume(not _covers_a_wrapped_box(weight))
        assert np.array_equal(_bits(weight.values(points)),
                              _bits(_reference_values_1d(weight, points)))

    @settings(max_examples=600, deadline=None)
    @given(case=unions())
    def test_region_fraction_matches_the_face_compression(self, case):
        region, (lo, hi) = case
        got = region_fraction(region, lo, hi)
        assert _bits(got) == _bits(_reference_region_fraction(region, lo, hi))

    @pytest.mark.parametrize("boxes", [[(0.0, 1.0)], [(0.0, 0.5), (0.5, 1.0)],
                                       [(0.0, 0.7), (0.2, 1.0)]])
    def test_full_cover_of_a_wrapped_box_is_untapered(self, boxes):
        # no boundary: the weight is e^phi everywhere, not 0
        cutoff = RegionSpec(tuple(Box((a,), (b,)) for a, b in boxes))
        w = WeightField(0.7, support_cutoff=cutoff, taper_width=0.05,
                        domain=make_system("ternary_hole").system.domain)
        x = np.array([[0.0], [1e-9], [0.5], [1.0 - 1e-9]])
        assert np.array_equal(w.values(x), np.full(4, math.exp(0.7)))

    def test_open_baker_survivor_continues_across_both_seams(self):
        b = make_system("open_baker")
        w = WeightField(0.0, support_cutoff=b.survivor, taper_width=0.05,
                        domain=b.system.domain)
        pts = np.array([[0.1, 0.001], [0.001, 0.5], [0.999, 0.5]])
        assert np.array_equal(w.values(pts), np.ones(3))
        # the faces at x = 1/3 and 2/3 are boundary
        assert eval_weight(w, [1.0 / 3.0 - 0.01, 0.5]) \
            == pytest.approx(0.2 ** 2 * (3.0 - 0.4))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_2d_taper_is_invariant_under_torus_translation(self, data):
        # boxes and shifts in eighths, points in 64ths: every value is exact
        def seam_cut(a, b):
            """[a, b) moved into [0, 8), cut where it crosses the seam."""
            lo, hi = a % 8, a % 8 + b - a
            return [(lo, hi)] if hi <= 8 else [(lo, 8), (0, hi - 8)]

        def weight(boxes):
            torus = Domain((Box((0.0, 0.0), (1.0, 1.0), (True, True)),))
            return WeightField(0.0, taper_width=0.2, domain=torus,
                               support_cutoff=RegionSpec(tuple(
                                   Box((x0 / 8, y0 / 8), (x1 / 8, y1 / 8))
                                   for (x0, x1), (y0, y1) in boxes)))

        ends = st.lists(st.integers(0, 8), min_size=2, max_size=2,
                        unique=True).map(sorted)
        boxes = data.draw(st.lists(st.tuples(ends, ends), min_size=1, max_size=3))
        sx, sy = data.draw(st.integers(0, 7)), data.draw(st.integers(0, 7))
        moved_boxes = [(xs, ys) for (x0, x1), (y0, y1) in boxes
                       for xs in seam_cut(x0 + sx, x1 + sx)
                       for ys in seam_cut(y0 + sy, y1 + sy)]
        pts = np.array(data.draw(st.lists(st.tuples(st.integers(0, 63),
                                                    st.integers(0, 63)),
                                          min_size=1, max_size=20))) / 64.0
        moved = np.mod(pts + [sx / 8, sy / 8], 1.0)
        assert np.array_equal(weight(boxes).values(pts),
                              weight(moved_boxes).values(moved))

    def test_domain_none_measures_in_the_bounding_box(self):
        # two boxes meeting at x = 0.5 merge; the bounding box's faces absorb
        cutoff = RegionSpec((Box((0.0, 0.0), (0.5, 1.0)), Box((0.5, 0.0), (1.0, 1.0))))
        w = WeightField(0.0, support_cutoff=cutoff, taper_width=0.25)
        pts = np.array([[0.49, 0.5], [0.5, 0.5], [0.1, 0.5], [0.5, 0.9]])
        t = np.array([0.49, 0.5, 0.1, 0.1]) / 0.25
        t = np.minimum(t, 1.0)
        assert np.allclose(w.values(pts), t * t * (3.0 - 2.0 * t), rtol=1e-12)


class TestNoiseModel:
    def test_samples_within_bounds(self):
        noise = NoiseModel(0.02)
        s = noise.sample(rng(1), (5000, 2))
        assert s.shape == (5000, 2)
        assert np.all(np.abs(s) <= 0.02)

    @pytest.mark.parametrize("epsilon", [1e-3, 0.05, 1.0 / 3.0, 8e307])
    def test_samples_are_the_bits_of_uniform(self, epsilon):
        # the draw is scaled in place, rounded as rng.uniform rounds it, so
        # a particle run writes the same bytes
        got = NoiseModel(epsilon).sample(rng(4), (1000, 2))
        want = rng(4).uniform(-epsilon, epsilon, size=(1000, 2))
        assert np.array_equal(_bits(got), _bits(want))

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(-0.1)

    @pytest.mark.parametrize("epsilon", [1e308, math.inf, math.nan])
    def test_epsilon_whose_width_is_not_finite_rejected(self, epsilon):
        with pytest.raises(ValueError):
            NoiseModel(epsilon)
        NoiseModel(8e307).sample(rng(1), (3,))  # 2 eps is finite


class TestRegionFraction:
    def setup_method(self):
        self.region = make_system("ternary_hole").survivor

    def test_full_containment_exact(self):
        assert region_fraction(self.region, [0.0], [1.0 / 3.0]) == 1.0

    def test_full_exclusion_exact(self):
        assert region_fraction(self.region, [1.0 / 3.0], [2.0 / 3.0]) == 0.0

    def test_straddling_cell_estimate(self):
        frac = region_fraction(self.region, [0.25], [0.40])
        assert frac == pytest.approx(5.0 / 9.0, rel=1e-12)

    def test_overlapping_boxes_counted_once(self):
        # [0, .5)^2 and [.25, .75)^2 overlap in [.25, .5)^2: 1/4 + 1/4 - 1/16;
        # the cell [0, 1) x [0, .5) holds 1/4 + 1/8 - 1/16 of it, over 1/2
        region = RegionSpec((Box((0.0, 0.0), (0.5, 0.5)),
                             Box((0.25, 0.25), (0.75, 0.75))))
        assert region_fraction(region, [0.0, 0.0], [1.0, 1.0]) \
            == pytest.approx(7.0 / 16.0, rel=1e-12)
        assert region_fraction(region, [0.0, 0.0], [1.0, 0.5]) \
            == pytest.approx(0.625, rel=1e-12)

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
