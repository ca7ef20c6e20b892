import math
import warnings
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qemlab import ulam
from qemlab.dynamics import (Box, Domain, NoiseModel, RegionSpec, WeightField,
                             make_system)
from qemlab.ulam import (_h_antideriv, _segment_cdf, _strata_counts,
                         GridPartition, assemble_operator, export_matrix,
                         load_matrix, region_fractions, restrict_operator)

from oracles import entries_from_rows, matrix_from_dense


def ternary_matrix(resolution, eps=0.0, samples=1, weight=None, region=None):
    b = make_system("ternary_hole")
    grid = GridPartition(b.system.domain, resolution)
    return assemble_operator(
        b.system, NoiseModel(eps), weight or WeightField(),
        region or b.survivor, grid, samples_per_cell=samples), grid


UNIT = Box((0.0,), (1.0,))
SQUARE = Box((0.0, 0.0), (1.0, 1.0))


def cell_box(grid, i):
    """Lower and upper corner of grid cell i, row-major within its box."""
    box = grid.domain.boxes[i // grid.cells_per_box]
    rem, coords = i % grid.cells_per_box, []
    for _ in range(grid.dimension):
        coords.append(rem % grid.resolution)
        rem //= grid.resolution
    h = box.widths / grid.resolution
    lo = np.asarray(box.lo) + np.asarray(coords[::-1]) * h
    return lo, lo + h


class TestBuildGrid:
    def test_interval(self):
        g = GridPartition(Domain((UNIT,)), 3)
        assert g.n_cells == 3
        assert g.cell_volume == pytest.approx(1.0 / 3.0)
        assert np.allclose(g.centers()[:, 0], [1 / 6, 1 / 2, 5 / 6])

    def test_square(self):
        g = GridPartition(Domain((SQUARE,)), 3)
        assert g.n_cells == 9
        assert g.cell_volume == pytest.approx(1.0 / 9.0)

    def test_two_boxes(self):
        g = GridPartition(Domain((UNIT, Box((2.0,), (3.0,)))), 3)
        assert g.n_cells == 6
        assert g.centers()[3, 0] == pytest.approx(2.0 + 1.0 / 6.0)

    def test_bad_resolution(self):
        with pytest.raises(ValueError):
            GridPartition(Domain((UNIT,)), 0)

    def test_degenerate_box(self):
        with pytest.raises(ValueError):
            GridPartition(Domain((Box((0.0,), (0.0,)),)), 3)

    def test_index_round_trip(self):
        g = GridPartition(Domain((SQUARE, Box((2.0, 0.0), (3.0, 1.0)))), 4)
        for i in range(g.n_cells):
            lo, hi = cell_box(g, i)
            assert np.array_equal((lo + hi) / 2.0, g.centers()[i])

    @pytest.mark.parametrize("boxes,res", [
        ([UNIT], 2187), ([UNIT, Box((2.0,), (3.0,))], 243), ([SQUARE], 27),
        ([Box((0.0, 0.0), (1.0, 2.0)), Box((2.0, 0.0), (4.0, 1.0))], 9)])
    def test_cell_boxes_bitwise(self, boxes, res):
        g = GridPartition(Domain(tuple(boxes)), res)
        for i in range(g.n_cells):
            lo, hi = cell_box(g, i)
            assert np.array_equal(g.cell_lo[i], lo)
            assert np.array_equal(g.cell_lo[i] + g.cell_width[i], hi)


class TestRegionFractions:
    def test_boxes_of_different_shapes(self):
        # equal cell volumes, unequal cell widths: the second box's cells
        # are 1 x 0.5, not box 0's 0.5 x 1
        g = GridPartition(Domain((Box((0.0, 0.0), (1.0, 2.0)),
                                  Box((2.0, 0.0), (4.0, 1.0)))), 2)
        region = RegionSpec((Box((2.0, 0.0), (4.0, 1.0)),))
        assert np.array_equal(region_fractions(region, g),
                              [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])


class TestAssembly:
    def test_resolution3_exact_rows(self):
        M, _ = ternary_matrix(3)
        expected = np.array([
            [1 / 3, 0.0, 1 / 3],
            [0.0, 0.0, 0.0],
            [1 / 3, 0.0, 1 / 3],
        ])
        assert np.allclose(M.toarray(), expected, atol=1e-14)

    def test_resolution9_depth2_structure(self):
        # one step: the four depth-2 survivor cells spread onto one branch
        # image (3 cells, killed cells excluded); cells mapping into the hole
        # have empty rows even though they are alive sources.
        M, _ = ternary_matrix(9)
        A = M.toarray()
        surviving = [0, 2, 6, 8]
        dying = [1, 7]
        hole = [3, 4, 5]
        for i in surviving:
            row = A[i]
            assert np.count_nonzero(row) == 3
            assert np.allclose(row[row > 0], 1.0 / 3.0)
            assert row.sum() == pytest.approx(1.0)
        for i in dying + hole:
            assert np.all(A[i] == 0.0)
        # two steps: exactly the 6-entry rows of value 1/9 with sum 2/3
        A2 = A @ A
        for i in surviving:
            row = A2[i]
            assert np.count_nonzero(row) == 6
            assert np.allclose(row[row > 0], 1.0 / 9.0)
            assert row.sum() == pytest.approx(2.0 / 3.0)

    def test_weight_scales_matrix(self):
        M0, _ = ternary_matrix(27, eps=1e-3, samples=3)
        M2, _ = ternary_matrix(27, eps=1e-3, samples=3,
                               weight=WeightField(math.log(2.0)))
        assert np.array_equal(M0.indices, M2.indices)
        assert np.allclose(2.0 * M0.data, M2.data, rtol=1e-14)

    @pytest.mark.parametrize("k,samples", [(1, 1), (2, 1), (3, 3), (4, 1)])
    def test_markov_exactness_ternary(self, k, samples):
        from qemlab.spectral import leading_pair
        M, _ = ternary_matrix(3 ** k, samples=samples)
        lam, _, _ = leading_pair(M)
        assert abs(lam - 2.0 / 3.0) < 1e-12

    def test_markov_exactness_five(self):
        from qemlab.spectral import leading_pair
        b = make_system("five_hole")
        grid = GridPartition(b.system.domain, 25)
        M = assemble_operator(b.system, NoiseModel(0.0), WeightField(),
                              b.survivor, grid, samples_per_cell=1)
        lam, _, _ = leading_pair(M)
        assert abs(lam - 3.0 / 5.0) < 1e-12

    def test_assembly_deterministic(self):
        M1, _ = ternary_matrix(27, eps=2e-3, samples=4)
        M2, _ = ternary_matrix(27, eps=2e-3, samples=4)
        assert np.array_equal(M1.rows, M2.rows)
        assert np.array_equal(M1.indices, M2.indices)
        assert np.array_equal(M1.data, M2.data)

    def test_entries_nonnegative_and_row_bound(self):
        M, grid = ternary_matrix(81, eps=1e-3, samples=3)
        assert np.all(M.data >= 0.0)
        inside = make_system("ternary_hole").survivor.contains(grid.centers())
        sums = M.apply(np.ones(M.n_cells))
        bound = WeightField().values(grid.centers())
        assert np.all(sums[inside] <= bound[inside] + 1e-12)
        assert np.all(sums[~inside] == 0.0)

    def test_region_monotonicity(self):
        # enlarging the killing-complement never decreases an entry
        small = RegionSpec((Box((0.0,), (1 / 3,)),), label="small")
        b = make_system("ternary_hole")
        big = b.survivor
        M_small, _ = ternary_matrix(27, eps=1e-3, samples=3, region=small)
        M_big, _ = ternary_matrix(27, eps=1e-3, samples=3, region=big)
        assert np.all(M_big.toarray() - M_small.toarray() >= -1e-15)

    def test_empty_region_rejected(self):
        off = RegionSpec((Box((5.0,), (6.0,)),), label="offgrid")
        with pytest.raises(ValueError, match="empty conditioning region"):
            ternary_matrix(9, region=off)

    @pytest.mark.parametrize("boxes", [slice(None, None, -1), slice(0, 1)])
    def test_grid_of_another_domain_rejected(self, boxes):
        # the grid's boxes number the columns, the system's locate images:
        # in reverse order the grid read lambda 0.6393 for 2/3, and the first
        # box alone assembled 27 cells
        b = make_system("two_repeller")
        grid = GridPartition(Domain(b.system.domain.boxes[boxes]), 27)
        with pytest.raises(ValueError, match="domain"):
            assemble_operator(b.system, NoiseModel(1e-3), WeightField(),
                              b.survivor, grid)

    def test_metadata_names_a_callable_weight(self):
        M, _ = ternary_matrix(9, weight=WeightField(
            lambda p: np.cos(2 * np.pi * p[:, 0])))
        assert M.metadata["weight"] == "phi=callable"

    def test_metadata_recorded(self):
        M, _ = ternary_matrix(9, eps=1e-3, samples=3)
        md = M.metadata
        assert md["epsilon"] == 1e-3
        assert "seed" not in md
        assert md["samples_per_cell"] == 3
        assert md["region"] == "survivor:ternary"

    @pytest.mark.parametrize("label, resolution, eps", [
        ("open_baker", 81, 1.0),  # about 4.7e8 pairs
        ("ternary_hole", 27, 8e307),  # 2 eps / h overflows
    ])
    def test_a_dense_operator_fails_before_any_pass(self, label, resolution,
                                                    eps):
        b = make_system(label)
        grid = GridPartition(b.system.domain, resolution)
        with mock.patch.object(ulam._Assembly, "rows",
                               side_effect=AssertionError("a pass ran")), \
                pytest.raises(ulam.DenseOperatorError, match="about") as err:
            assemble_operator(b.system, NoiseModel(eps), WeightField(),
                              b.survivor, grid)
        assert isinstance(err.value, ValueError)

    def test_a_dense_but_small_operator_assembles(self):
        # every target cell at epsilon 1: about 2.1M pairs, under the bound
        M, _ = ternary_matrix(729, eps=1.0, samples=3)
        assert M.nnz == 486 * 486

    def test_baker_assembly_exact_eigenvalue(self):
        from qemlab.spectral import leading_pair
        b = make_system("open_baker")
        grid = GridPartition(b.system.domain, 9)
        M = assemble_operator(b.system, NoiseModel(0.0), WeightField(),
                              b.survivor, grid, samples_per_cell=(3, 1))
        lam, _, _ = leading_pair(M)
        assert abs(lam - 2.0 / 3.0) < 1e-12


class TestRestrict:
    def test_restrict_to_all_is_identity(self):
        M, _ = ternary_matrix(3)
        R = restrict_operator(M, [0, 1, 2])
        assert np.array_equal(R.toarray(), M.toarray())

    def test_restrict_to_survivors(self):
        M, _ = ternary_matrix(3)
        R = restrict_operator(M, [0, 2])
        assert np.allclose(R.toarray(), np.full((2, 2), 1.0 / 3.0))
        assert np.array_equal(R.toarray(), M.toarray()[np.ix_([0, 2], [0, 2])])

    def test_restrict_to_hole_is_zero(self):
        M, _ = ternary_matrix(3)
        R = restrict_operator(M, [1])
        assert R.nnz == 0

    def test_empty_subset_rejected(self):
        M, _ = ternary_matrix(3)
        with pytest.raises(ValueError):
            restrict_operator(M, [])

    def test_restriction_composes(self):
        M, _ = ternary_matrix(9)
        a, b = np.array([0, 2, 6, 8]), np.array([0, 3])
        R2 = restrict_operator(restrict_operator(M, a), b)
        _assert_same_entries(R2, entries_of(restrict_operator(M, a[b])))


class TestExport:
    def test_json_round_trip(self, tmp_path):
        M, _ = ternary_matrix(27, eps=1e-3, samples=3)
        path = tmp_path / "operator.json"
        export_matrix(M, path)
        loaded = load_matrix(path)
        assert loaded.n_cells == M.n_cells
        assert np.array_equal(loaded.rows, M.rows)
        assert np.array_equal(loaded.indices, M.indices)
        assert np.array_equal(loaded.data, M.data)
        assert loaded.metadata == M.metadata
        assert loaded.cell_volume == M.cell_volume

    def test_entries_in_any_order_load_sorted(self, tmp_path):
        import json
        M, _ = ternary_matrix(27, eps=1e-3, samples=3)
        path = tmp_path / "operator.json"
        export_matrix(M, path)
        payload = json.loads(path.read_text())
        np.random.default_rng(3).shuffle(payload["entries"])
        path.write_text(json.dumps(payload))
        loaded = load_matrix(path)
        for got, want in ((loaded.rows, M.rows), (loaded.indices, M.indices),
                          (loaded.data, M.data)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_a_stale_row_weight_key_is_ignored(self, tmp_path):
        # files written before the operator dropped its row weights hold a
        # row_weight key; they load to the same matrix as files without it
        import json
        M, _ = ternary_matrix(27, eps=1e-3, samples=3)
        path = tmp_path / "operator.json"
        export_matrix(M, path)
        payload = json.loads(path.read_text())
        assert "row_weight" not in payload
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps({**payload, "row_weight": [1.0] * 27}))
        fresh, old = load_matrix(path), load_matrix(stale)
        for got, want in ((old.rows, fresh.rows), (old.indices, fresh.indices),
                          (old.data, fresh.data)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert (old.n_cells, old.cell_volume, old.metadata) \
            == (fresh.n_cells, fresh.cell_volume, fresh.metadata)

    @pytest.mark.parametrize("fault, message", [
        ("row 30 of 27", "not a cell index"),
        ("column -1", "not a cell index"),
        ("repeated pair", "pair repeats"),
        ("negative value", "negative or not finite"),
        ("infinite value", "negative or not finite"),
    ])
    def test_malformed_file_rejected(self, tmp_path, fault, message):
        import json
        M, _ = ternary_matrix(27, eps=1e-3, samples=3)
        path = tmp_path / "operator.json"
        export_matrix(M, path)
        payload = json.loads(path.read_text())
        entries = payload["entries"]
        if fault == "row 30 of 27":
            entries[0][0] = 30
        elif fault == "column -1":
            entries[0][1] = -1
        elif fault == "repeated pair":
            entries.append(list(entries[0]))
        elif fault == "negative value":
            entries[0][2] = -entries[0][2]
        else:
            entries[0][2] = float("inf")
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message):
            load_matrix(path)


class TestApply:
    def test_zero_matrix(self):
        M = matrix_from_dense(np.zeros((3, 3)))
        assert np.all(M.apply(np.ones(3)) == 0.0)
        assert np.all(M.apply_adjoint(np.ones(3)) == 0.0)

    def test_row_sums_via_apply(self):
        M, _ = ternary_matrix(3)
        out = M.apply(np.ones(3))
        assert np.allclose(out, [2 / 3, 0.0, 2 / 3])

    def test_adjoint_duality(self):
        M, _ = ternary_matrix(27, eps=1e-3, samples=3)
        g = np.random.default_rng(5)
        for _ in range(5):
            v = g.standard_normal(M.n_cells)
            u = g.standard_normal(M.n_cells)
            lhs = float(np.dot(M.apply(v), u))
            rhs = float(np.dot(v, M.apply_adjoint(u)))
            assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(v) * np.linalg.norm(u)

    def test_length_mismatch(self):
        M, _ = ternary_matrix(3)
        with pytest.raises(ValueError):
            M.apply(np.ones(4))


class TestSegmentCdf:
    @pytest.mark.parametrize("eps", [5e-324, 1e-320])
    def test_subnormal_epsilon_gives_the_limits_without_warnings(self, eps):
        # a point mass at 0.5, then the segment [0.25, 0.75]: the CDFs of
        # eps = 0, with 1/2 at the point mass itself
        z = np.array([0.25, 0.5, 0.75, 0.0, 0.25, 0.5, 0.75, 1.0])
        p = np.array([0.5] * 3 + [0.25] * 5)
        q = np.array([0.5] * 3 + [0.75] * 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _segment_cdf(z, p, q, eps)
        assert got.tolist() == [0.0, 0.5, 1.0, 0.0, 0.0, 0.5, 1.0, 1.0]


# ---------------------------------------------------------------------------
# reference: the per-cell, per-stratum, per-axis assembly loop
# ---------------------------------------------------------------------------

def _segment_cdf_scalar(z, p, q, eps):
    if q > p:
        return (_h_antideriv(z - p, eps) - _h_antideriv(z - q, eps)) / (q - p)
    if eps > 0.0:
        with np.errstate(over="ignore"):  # a subnormal eps overflows to +-inf
            return np.clip((z - p + eps) / (2.0 * eps), 0.0, 1.0)
    return (z > p).astype(float)


def _axis_cell_masses_scalar(p, q, eps, res, width, wrap):
    h = width / res
    lo_s, hi_s = p - eps, q + eps
    if wrap:
        k0 = int(np.floor(lo_s / width))
        k1 = int(np.floor(hi_s / width + 1e-15))
    else:
        k0 = k1 = 0
    coords_all, masses_all = [], []
    for k in range(k0, k1 + 1):
        shift = k * width
        pp, qq = p - shift, q - shift
        c0 = max(0, int(np.floor((pp - eps) / h)))
        c1 = min(res - 1, int(np.floor((qq + eps) / h)))
        if c1 < c0:
            continue
        edges = (np.arange(c0, c1 + 2)) * h
        masses = np.diff(_segment_cdf_scalar(edges, pp, qq, eps))
        keep = masses > 1e-14
        if np.any(keep):
            coords_all.append(np.arange(c0, c1 + 1)[keep])
            masses_all.append(masses[keep])
    if not coords_all:
        return np.empty(0, dtype=np.int64), np.empty(0)
    return np.concatenate(coords_all), np.concatenate(masses_all)


def reference_assemble(system, noise, weight, region, grid, samples_per_cell):
    """The assembly one cell, one stratum and one axis at a time."""
    d = grid.dimension
    eps = noise.epsilon
    counts = _strata_counts(samples_per_cell, d)
    n_strata = int(np.prod(counts))
    frac = region_fractions(region, grid)
    res = grid.resolution
    weights_at_centers = weight.values(grid.centers())
    rel_axes = [(np.arange(m) / m) for m in counts]
    rel_lo = np.stack([g.ravel() for g in
                       np.meshgrid(*rel_axes, indexing="ij")], axis=1)
    rel_w = np.asarray([1.0 / m for m in counts])
    corner_signs = np.array(list(product((0.0, 1.0), repeat=d)))
    eta = 1e-12
    rows = []
    empty = (np.empty(0, dtype=np.int64), np.empty(0))
    for i in range(grid.n_cells):
        if frac[i] <= 0.0 or weights_at_centers[i] <= 0.0:
            rows.append(empty)
            continue
        lo_i, hi_i = cell_box(grid, i)
        h = hi_i - lo_i
        s_lo = lo_i + rel_lo * h
        s_w = rel_w * h
        mids = s_lo + 0.5 * s_w
        keep = region.contains(mids)
        if not np.any(keep):
            rows.append(empty)
            continue
        shr = corner_signs * (1.0 - 2.0 * eta) + eta
        corners = s_lo[:, None, :] + shr[None, :, :] * s_w
        img_corners = system.forward(corners.reshape(-1, d)).reshape(n_strata, -1, d)
        img_mids = system.forward(mids)
        jac_mid = system.jacobian_det(mids)
        boxes_of = system.domain.locate(img_mids)
        ids_parts, val_parts = [], []
        for s in np.flatnonzero(keep):
            b = boxes_of[s]
            if b < 0:
                continue
            box = system.domain.boxes[b]
            blo = np.asarray(box.lo)
            bw = box.widths
            cmin = img_corners[s].min(axis=0) - blo
            cmax = img_corners[s].max(axis=0) - blo
            centerp = (cmin + cmax) / 2.0
            half = (cmax - cmin) / 2.0 / (1.0 - 2.0 * eta)
            mid_rel = img_mids[s] - blo
            vol_ratio = (np.prod(2.0 * half) /
                         (jac_mid[s] * np.prod(s_w) + 1e-300))
            consistent = (np.all(mid_rel >= cmin - 1e-12)
                          and np.all(mid_rel <= cmax + 1e-12)
                          and 0.5 <= vol_ratio <= 2.0
                          and np.all(2.0 * half <= bw * (1.0 + 1e-9)))
            if not consistent:
                centerp = mid_rel
                half = np.zeros(d)
            per_axis = [_axis_cell_masses_scalar(
                centerp[k] - half[k], centerp[k] + half[k], eps, res, bw[k],
                box.wrap[k]) for k in range(d)]
            if any(a[0].size == 0 for a in per_axis):
                continue
            cell_ids, masses = per_axis[0]
            for ck, mk in per_axis[1:]:
                cell_ids = (cell_ids[:, None] * res + ck[None, :]).ravel()
                masses = (masses[:, None] * mk[None, :]).ravel()
            ids_parts.append(b * grid.cells_per_box + cell_ids)
            val_parts.append(masses * (1.0 / n_strata))
        if not ids_parts:
            rows.append(empty)
            continue
        ids = np.concatenate(ids_parts)
        vals = np.concatenate(val_parts) * frac[ids]
        dense = np.bincount(ids, weights=vals, minlength=grid.n_cells)
        nz = np.flatnonzero(dense > 1e-300)
        rows.append((nz.astype(np.int64), dense[nz] * weights_at_centers[i]))
    return entries_from_rows(grid.n_cells, rows)


def reference_restrict(matrix, cells):
    """The restriction one kept row at a time."""
    cells = np.unique(np.asarray(cells, dtype=np.int64))
    remap = np.full(matrix.n_cells, -1, dtype=np.int64)
    remap[cells] = np.arange(cells.size)
    rows = []
    for old_i in cells:
        sl = matrix.rows == old_i
        cols = remap[matrix.indices[sl]]
        good = cols >= 0
        rows.append((cols[good], matrix.data[sl][good]))
    return entries_from_rows(cells.size, rows)


def entries_of(matrix):
    return matrix.rows, matrix.indices, matrix.data


def _assert_same_entries(matrix, entries):
    for got, want in zip(entries_of(matrix), entries):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@st.composite
def assembly_cases(draw):
    label = draw(st.sampled_from(["ternary_hole", "five_hole",
                                  "smooth_perturbed", "two_repeller",
                                  "open_baker"]))
    b = make_system(label)
    d = b.system.dimension
    # 9 and 27 are branch-aligned for the ternary maps, 10 and 17 are not
    res = draw(st.sampled_from([9, 10, 17, 27]) | st.integers(1, 40)
               if d == 1 else st.integers(1, 10))
    strata = draw(st.integers(1, 5) if d == 1 else
                  st.integers(1, 5) | st.tuples(st.integers(1, 3),
                                                st.integers(1, 3)))
    # up to 1.5 the support of a stratum can wrap onto itself
    eps = draw(st.sampled_from([0.0, 1e-3]) | st.floats(0.0, 1.5))
    kind = draw(st.sampled_from(["zero", "constant", "callable", "tapered"]))
    if kind == "zero":
        weight = WeightField()
    elif kind == "constant":
        weight = WeightField(draw(st.floats(-3.0, 3.0)))
    elif kind == "callable":
        # weight 0 (phi = -inf) on a band of cells, smooth elsewhere
        cut = draw(st.floats(0.0, 1.0))
        weight = WeightField(lambda p: np.where(
            np.abs(p[:, 0] - cut) < 0.2, -np.inf, np.sin(5.0 * p[:, 0])))
    else:
        weight = WeightField(0.5, support_cutoff=b.survivor, taper_width=0.05,
                             domain=b.system.domain)
    if draw(st.booleans()):
        region = b.survivor
    else:
        lo = b.system.domain.boxes[0].lo
        a = [draw(st.floats(0.0, 0.6)) for _ in range(d)]
        w = [draw(st.floats(0.05, 0.4)) for _ in range(d)]
        boxes = [Box(tuple(lo[k] + a[k] for k in range(d)),
                     tuple(lo[k] + a[k] + w[k] for k in range(d)))]
        if draw(st.booleans()):  # an overlapping second box
            boxes.append(Box(tuple(lo[k] + a[k] + w[k] / 2 for k in range(d)),
                             tuple(lo[k] + a[k] + 2 * w[k] for k in range(d))))
        region = RegionSpec(tuple(boxes), label="custom")
    grid = GridPartition(b.system.domain, res)
    return (b.system, NoiseModel(eps), weight, region, grid, strata)


class TestWholeArrayAssembly:
    @settings(max_examples=120, deadline=None)
    @given(case=assembly_cases(), chunk=st.sampled_from([1, 3, 7, 128]),
           bins_per_entry=st.sampled_from([0, 4, 10 ** 9]))
    def test_bitwise_equal_to_per_cell_loop(self, case, chunk, bins_per_entry):
        # small passes put the cells of one grid into several passes; every
        # pass sorts its sums with a bin budget of 0 and none with 10**9
        with mock.patch.object(ulam, "_CHUNK_CELLS", chunk), \
                mock.patch.object(ulam, "_BINS_PER_ENTRY", bins_per_entry):
            try:
                want = reference_assemble(*case)
            except ValueError:  # the region meets no grid cell
                with pytest.raises(ValueError, match="empty conditioning region"):
                    assemble_operator(*case)
                return
            _assert_same_entries(assemble_operator(*case), want)

    @pytest.mark.parametrize("label,res,eps,strata", [
        ("ternary_hole", 2187, 1e-3, 3), ("two_repeller", 1215, 1e-3, 15),
        ("open_baker", 27, 1e-3, (3, 1)), ("smooth_perturbed", 243, 1e-2, 4)])
    def test_builtin_sizes_bitwise(self, label, res, eps, strata):
        b = make_system(label)
        case = (b.system, NoiseModel(eps), WeightField(),
                b.survivor, GridPartition(b.system.domain, res), strata)
        _assert_same_entries(assemble_operator(*case), reference_assemble(*case))

    def test_pass_with_every_stratum_killed(self):
        # cell 0 meets the region, but its one stratum's midpoint 1/18 does
        # not, so its pass of one cell sums no entry
        b = make_system("ternary_hole")
        region = RegionSpec((Box((0.0,), (0.05,)), Box((0.5,), (1.0,))))
        case = (b.system, NoiseModel(1e-3), WeightField(), region,
                GridPartition(b.system.domain, 9), 1)
        with mock.patch.object(ulam, "_CHUNK_CELLS", 1):
            M = assemble_operator(*case)
        assert region_fractions(region, case[4])[0] > 0 and 0 not in M.rows
        assert M.nnz > 0
        _assert_same_entries(M, reference_assemble(*case))

    @pytest.mark.parametrize("bins_per_entry", [0, 4, 10 ** 9])
    @pytest.mark.parametrize("label,res,eps,strata", [
        ("ternary_hole", 81, 1e-2, 3), ("two_repeller", 81, 3e-2, 5),
        ("open_baker", 27, 1e-2, (3, 1))])
    def test_rows_that_wrap_a_seam(self, label, res, eps, strata,
                                   bins_per_entry):
        # a row whose image wraps the seam holds the first and the last
        # column of its box, so its band spans the whole box; with 10**9
        # bins per entry every pass sums in bands, 2-D ones included
        b = make_system(label)
        grid = GridPartition(b.system.domain, res)
        case = (b.system, NoiseModel(eps), WeightField(),
                b.survivor, grid, strata)
        with mock.patch.object(ulam, "_BINS_PER_ENTRY", bins_per_entry):
            M = assemble_operator(*case)
        per_box = grid.cells_per_box
        assert any(c.size and c[0] % per_box == 0
                   and c[-1] % per_box == per_box - 1
                   for c in np.split(M.indices, np.flatnonzero(np.diff(M.rows)) + 1))
        _assert_same_entries(M, reference_assemble(*case))

    def test_counts_point_masses(self):
        # with one stratum per cell, the cells holding the branch points 1/3
        # and 2/3 straddle a discontinuity; nothing leaves the circle
        full = RegionSpec((Box((0.0,), (1.0,)),), label="full")
        M, _ = ternary_matrix(10, eps=1e-3, region=full)
        assert M.diagnostics == {"point_mass_strata": 2, "absorbed_strata": 0}

    def test_counts_absorbed_strata(self):
        # x -> 3x on an absorbing [0, 1): cells from 1/3 on leave the domain
        from qemlab.dynamics import Domain, MapSystem
        t = make_system("ternary_hole").system
        system = MapSystem(lambda p: 3.0 * p, t.jacobian_det,
                           Domain((Box((0.0,), (1.0,), (False,)),)), "open")
        full = RegionSpec((Box((0.0,), (1.0,)),), label="full")
        M = assemble_operator(system, NoiseModel(0.0), WeightField(), full,
                              GridPartition(system.domain, 9), 1)
        assert M.diagnostics == {"point_mass_strata": 0, "absorbed_strata": 6}
        assert np.array_equal(np.bincount(M.rows, minlength=9) > 0,
                              np.arange(9) < 3)

    @pytest.mark.parametrize("label,res,strata,point_masses", [
        # the corner shrink is below one ulp at the branch point, so one
        # corner maps to the far end of the circle (lower edge 2.4 and
        # upper edge 0.6)
        ("two_repeller", 1215, 15, 1), ("five_hole", 625, 15, 1),
        # two strata straddle a branch point: their corner images wrap
        ("smooth_perturbed", 729, 3, 2),
        ("ternary_hole", 2187, 3, 0), ("open_baker", 27, (3, 1), 0)])
    def test_point_masses_on_aligned_grids(self, label, res, strata,
                                           point_masses):
        b = make_system(label)
        M = assemble_operator(b.system, NoiseModel(1e-3),
                              WeightField(), b.survivor,
                              GridPartition(b.system.domain, res), strata)
        assert M.diagnostics == {"point_mass_strata": point_masses,
                                 "absorbed_strata": 0}


class TestWholeArrayRestrict:
    @settings(max_examples=60, deadline=None)
    @given(res=st.sampled_from([9, 10, 27]), seed=st.integers(0, 2 ** 31 - 1),
           keep=st.floats(0.0, 1.0))
    def test_equal_to_per_row_loop(self, res, seed, keep):
        M, _ = ternary_matrix(res, eps=3e-2, samples=3)
        cells = np.flatnonzero(np.random.default_rng(seed).uniform(size=res) < keep)
        if cells.size == 0:
            cells = np.array([res - 1])
        R = restrict_operator(M, cells)
        _assert_same_entries(R, reference_restrict(M, cells))
        _assert_same_entries(restrict_operator(R, [0]), reference_restrict(R, [0]))
