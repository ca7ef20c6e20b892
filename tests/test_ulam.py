import math

import numpy as np
import pytest

from qemlab.dynamics import (Box, NoiseModel, RegionSpec, constant_weight,
                             make_system, zero_weight)
from qemlab.ulam import (assemble_operator, build_grid, export_matrix,
                         load_matrix, restrict_operator)

from oracles import matrix_from_dense


def ternary_matrix(resolution, eps=0.0, samples=1, seed=0, weight=None,
                   region=None):
    b = make_system("ternary_hole")
    grid = build_grid(b.system.domain, resolution)
    return assemble_operator(
        b.system, NoiseModel(eps, 1), weight or zero_weight(),
        region or b.survivor, grid, samples_per_cell=samples, seed=seed), grid


class TestBuildGrid:
    def test_interval(self):
        g = build_grid([([0.0], [1.0])], 3)
        assert g.n_cells == 3
        assert g.cell_volume == pytest.approx(1.0 / 3.0)
        assert np.allclose(g.centers()[:, 0], [1 / 6, 1 / 2, 5 / 6])

    def test_square(self):
        g = build_grid([([0.0, 0.0], [1.0, 1.0])], 3)
        assert g.n_cells == 9
        assert g.cell_volume == pytest.approx(1.0 / 9.0)

    def test_two_boxes(self):
        g = build_grid([([0.0], [1.0]), ([2.0], [3.0])], 3)
        assert g.n_cells == 6
        assert g.centers()[3, 0] == pytest.approx(2.0 + 1.0 / 6.0)

    def test_bad_resolution(self):
        with pytest.raises(ValueError):
            build_grid([([0.0], [1.0])], 0)

    def test_degenerate_box(self):
        with pytest.raises(ValueError):
            build_grid([([0.0], [0.0])], 3)

    def test_index_round_trip(self):
        g = build_grid([([0.0, 0.0], [1.0, 1.0]), ([2.0, 0.0], [3.0, 1.0])], 4)
        for i in range(g.n_cells):
            lo, hi = g.cell_box(i)
            center = (lo + hi) / 2.0
            assert g.find_cells(center[None, :])[0] == i


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
        M0, _ = ternary_matrix(27, eps=1e-3, samples=3, seed=5)
        M2, _ = ternary_matrix(27, eps=1e-3, samples=3, seed=5,
                               weight=constant_weight(math.log(2.0)))
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
        grid = build_grid(b.system.domain, 25)
        M = assemble_operator(b.system, NoiseModel(0.0, 1), zero_weight(),
                              b.survivor, grid, samples_per_cell=1, seed=0)
        lam, _, _ = leading_pair(M)
        assert abs(lam - 3.0 / 5.0) < 1e-12

    def test_assembly_deterministic(self):
        M1, _ = ternary_matrix(27, eps=2e-3, samples=4, seed=11)
        M2, _ = ternary_matrix(27, eps=2e-3, samples=4, seed=11)
        assert np.array_equal(M1.indptr, M2.indptr)
        assert np.array_equal(M1.indices, M2.indices)
        assert np.array_equal(M1.data, M2.data)

    def test_entries_nonnegative_and_row_bound(self):
        M, grid = ternary_matrix(81, eps=1e-3, samples=3, seed=2)
        assert np.all(M.data >= 0.0)
        inside = make_system("ternary_hole").survivor.contains(grid.centers())
        sums = M.row_sums()
        assert np.all(sums[inside] <= M.row_weight[inside] + 1e-12)
        assert np.all(sums[~inside] == 0.0)

    def test_region_monotonicity(self):
        # enlarging the killing-complement never decreases an entry
        small = RegionSpec((Box((0.0,), (1 / 3,)),), label="small")
        b = make_system("ternary_hole")
        big = b.survivor
        M_small, _ = ternary_matrix(27, eps=1e-3, samples=3, seed=8,
                                    region=small)
        M_big, _ = ternary_matrix(27, eps=1e-3, samples=3, seed=8, region=big)
        assert np.all(M_big.toarray() - M_small.toarray() >= -1e-15)

    def test_empty_region_rejected(self):
        off = RegionSpec((Box((5.0,), (6.0,)),), label="offgrid")
        with pytest.raises(ValueError, match="empty conditioning region"):
            ternary_matrix(9, region=off)

    def test_metadata_recorded(self):
        M, _ = ternary_matrix(9, eps=1e-3, samples=3, seed=17)
        md = M.metadata
        assert md["epsilon"] == 1e-3
        assert md["seed"] == 17
        assert md["samples_per_cell"] == 3
        assert md["region"] == "survivor:ternary"

    def test_baker_assembly_exact_eigenvalue(self):
        from qemlab.spectral import leading_pair
        b = make_system("open_baker")
        grid = build_grid(b.system.domain, 9)
        M = assemble_operator(b.system, NoiseModel(0.0, 2), zero_weight(),
                              b.survivor, grid, samples_per_cell=(3, 1), seed=0)
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
        assert np.array_equal(R.cell_ids, [0, 2])

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
        R1 = restrict_operator(M, [0, 2, 6, 8])
        R2 = restrict_operator(R1, [0, 3])
        assert np.array_equal(R2.cell_ids, [0, 8])


class TestExport:
    def test_json_round_trip(self, tmp_path):
        M, _ = ternary_matrix(27, eps=1e-3, samples=3, seed=5)
        path = tmp_path / "operator.json"
        export_matrix(M, path)
        loaded = load_matrix(path)
        assert loaded.n_cells == M.n_cells
        assert np.array_equal(loaded.indptr, M.indptr)
        assert np.array_equal(loaded.indices, M.indices)
        assert np.array_equal(loaded.data, M.data)
        assert loaded.metadata == M.metadata
        assert loaded.cell_volume == M.cell_volume


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
        M, _ = ternary_matrix(27, eps=1e-3, samples=3, seed=1)
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
