import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qemlab.dynamics import NoiseModel, WeightField, make_system
from qemlab.filtration import (CycleError, PressureTieError, assign_basin,
                               filtration_order, stratified_qem_workflow)
from qemlab.ulam import GridPartition, assemble_operator

SEVEN = ({i: 0.1 * i for i in range(1, 8)}, [(1, 4), (4, 2), (2, 7), (5, 6)])


def witness(pressures, edges):
    """The cycle witness of the ordering, or None when it finds no cycle."""
    try:
        filtration_order(pressures, edges)
    except CycleError as exc:
        return exc.witness
    return None


class TestGraphValidation:
    def test_self_edge(self):
        with pytest.raises(ValueError, match="self-edge"):
            filtration_order({1: 0.1}, [(1, 1)])

    def test_unknown_edge_endpoint(self):
        with pytest.raises(ValueError, match="unknown node"):
            filtration_order({1: 0.1, 2: 0.2}, [(1, 3)])

    def test_bad_edge_before_cycle_before_tie(self):
        tied_cycle = [(1, 2), (2, 1)]
        with pytest.raises(ValueError, match="self-edge"):
            filtration_order({1: 0.5, 2: 0.5}, tied_cycle + [(2, 2)])
        with pytest.raises(CycleError):
            filtration_order({1: 0.5, 2: 0.5}, tied_cycle)


class TestDetectCycles:
    def test_dag_ok(self):
        assert witness({1: 0.1, 2: 0.2, 3: 0.3}, [(1, 2), (2, 3)]) is None

    def test_two_cycle(self):
        w = witness({1: 0.1, 2: 0.2}, [(1, 2), (2, 1)])
        assert sorted(w) == [1, 2]

    def test_three_cycle(self):
        w = witness({1: 0.1, 2: 0.2, 3: 0.3}, [(1, 2), (2, 3), (3, 1)])
        assert sorted(w) == [1, 2, 3]

    def test_cycle_off_the_main_component(self):
        w = witness({1: 0.1, 2: 0.2, 3: 0.3, 4: 0.4}, [(1, 2), (3, 4), (4, 3)])
        assert sorted(w) == [3, 4]


def _has_cycle(ids, edges):
    """Reference: a graph is cyclic iff repeatedly removing its sources
    leaves nodes behind."""
    left, edges = set(ids), set(edges)
    while True:
        sources = left - {b for _, b in edges}
        if not sources:
            return bool(left)
        left -= sources
        edges = {(a, b) for a, b in edges if a in left}


class TestCycleWitnessContract:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 7), data=st.data())
    def test_witness_is_a_cycle_exactly_when_one_exists(self, n, data):
        ids = list(range(1, n + 1))
        pairs = [(a, b) for a in ids for b in ids if a != b]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)
                          if pairs else st.just([]))
        w = witness({i: 0.1 * i for i in ids}, edges)
        assert (w is not None) == _has_cycle(ids, edges)
        if w is not None:
            assert len(set(w)) == len(w)
            assert all((a, b) in edges for a, b in zip(w, w[1:] + w[:1]))


class TestFiltrationOrder:
    def test_seven_node_example(self):
        order = filtration_order(*SEVEN)
        assert order.sequence == (1, 4, 2, 7, 5, 6, 3)
        assert order.subgraphs == ((1, 4, 2, 7), (5, 6), (3,))
        assert order.indices == (4, 2, 1)
        assert order.t == 2
        assert order.relabel == {1: 7, 4: 6, 2: 5, 7: 4, 5: 3, 6: 2, 3: 1}

    def test_single_node(self):
        order = filtration_order({9: 1.0}, [])
        assert order.sequence == (9,)
        assert order.indices == (1,)
        assert order.t == 0

    def test_two_disconnected_nodes(self):
        order = filtration_order({1: 1.0, 2: 2.0}, [])
        assert order.sequence == (2, 1)
        assert order.subgraphs == ((2,), (1,))

    def test_cycle_rejected_with_witness(self):
        with pytest.raises(CycleError) as err:
            filtration_order({1: 0.1, 2: 0.2, 3: 0.3},
                             [(1, 2), (2, 3), (3, 1)])
        assert sorted(err.value.witness) == [1, 2, 3]

    def test_pressure_tie_rejected(self):
        with pytest.raises(PressureTieError):
            filtration_order({1: 0.5, 2: 0.5 + 1e-13}, [])

    def test_linear_extension_property(self):
        g = np.random.default_rng(3)
        for trial in range(25):
            n = int(g.integers(2, 10))
            ids = list(range(1, n + 1))
            pressures = {i: float(g.uniform()) for i in ids}
            topo = list(g.permutation(ids))
            edges = []
            for i in range(n):
                for j in range(i + 1, n):
                    if g.uniform() < 0.3:
                        edges.append((topo[i], topo[j]))
            order = filtration_order(pressures, edges)
            pos = {node: k for k, node in enumerate(order.sequence)}
            for a, b in edges:
                assert pos[a] < pos[b]
            # ranks descend along the sequence and indices strictly decrease
            ranks = [order.relabel[i] for i in order.sequence]
            assert ranks == sorted(ranks, reverse=True)
            assert list(order.indices) == sorted(order.indices, reverse=True)

    def test_input_order_irrelevant(self):
        pressures, edges = SEVEN
        base = filtration_order(pressures, edges)
        g = np.random.default_rng(0)
        for _ in range(5):
            ids = [int(i) for i in g.permutation(list(pressures))]
            shuffled = {i: pressures[i] for i in ids}
            order = filtration_order(shuffled, edges[::-1])
            assert order.sequence == base.sequence

    def test_consistent_edge_added_keeps_sequence(self):
        pressures, edges = SEVEN
        base = filtration_order(pressures, edges)
        pos = {node: k for k, node in enumerate(base.sequence)}
        assert pos[1] < pos[2]
        extra = filtration_order(pressures, edges + [(1, 2)])
        assert extra.sequence == base.sequence


class TestAssignBasin:
    def setup_method(self):
        self.order = filtration_order(*SEVEN)

    @pytest.mark.parametrize("rank,k", [(7, 0), (5, 0), (4, 0),
                                        (3, 1), (2, 1), (1, 2)])
    def test_examples(self, rank, k):
        assert assign_basin(self.order, rank) == k

    def test_monotone(self):
        ks = [assign_basin(self.order, j) for j in range(1, 8)]
        assert ks == sorted(ks, reverse=True)

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            assign_basin(self.order, 0)
        with pytest.raises(ValueError):
            assign_basin(self.order, 8)


class TestStratifiedWorkflow:
    def setup_method(self):
        self.builtin = make_system("two_repeller")
        self.grid = GridPartition(self.builtin.system.domain, 135)
        self.matrix = assemble_operator(
            self.builtin.system, NoiseModel(1e-3), WeightField(),
            self.builtin.survivor, self.grid, 15)
        centers = self.grid.centers()[:, 0]
        self.strata = {2: np.flatnonzero(centers < 1.5),
                       1: np.flatnonzero(centers > 1.5)}

    def test_two_repeller_lambdas(self):
        report = stratified_qem_workflow(self.matrix, self.strata)
        lams = {key: triple.lam for key, triple in report.per_stratum.items()}
        assert lams[2] == pytest.approx(2.0 / 3.0, abs=1e-3)
        assert lams[1] == pytest.approx(3.0 / 5.0, abs=1e-3)
        assert report.lambda_global == pytest.approx(2.0 / 3.0, abs=1e-3)
        assert report.deviation <= 1e-6
        assert report.argmax_key == 2

    def test_single_stratum_equals_global(self):
        report = stratified_qem_workflow(
            self.matrix, {2: np.arange(self.matrix.n_cells)})
        triple = report.per_stratum[2]
        assert triple.lam == pytest.approx(report.lambda_global, abs=1e-12)
        assert np.allclose(triple.qem, report.global_triple.qem, atol=1e-9)

    def test_solves_no_spectral_gap(self, monkeypatch):
        from qemlab import spectral

        def no_gap(*args, **kwargs):
            raise AssertionError("the workflow reads no spectral gap")

        monkeypatch.setattr(spectral, "_deflated_ratio", no_gap)
        report = stratified_qem_workflow(self.matrix, self.strata)
        assert math.isnan(report.global_triple.gap_ratio)
        assert all(math.isnan(triple.gap_ratio)
                   for triple in report.per_stratum.values())

    def test_solves_no_left_side_until_read(self, monkeypatch):
        from qemlab import spectral

        def fails(*args, **kwargs):
            raise spectral.NonConvergenceError(
                "adjoint power iteration did not converge", 1.0, 1)

        monkeypatch.setattr(spectral, "leading_left", fails)
        report = stratified_qem_workflow(self.matrix, self.strata)
        assert report.argmax_key == 2
        assert None not in report.per_stratum.values()
        # a failing left solve raises where the left side is first read
        with pytest.raises(spectral.NonConvergenceError):
            report.global_triple.qem

    def test_argmax_is_the_first_of_equal_eigenvalues(self):
        cells = self.strata[2]
        report = stratified_qem_workflow(self.matrix, {1: cells, 2: cells})
        assert report.per_stratum[1].lam == report.per_stratum[2].lam
        assert report.argmax_key == 2

    def test_zero_stratum_recorded_absent(self):
        centers = self.grid.centers()[:, 0]
        hole = np.flatnonzero((centers >= 1.0 / 3.0) & (centers < 2.0 / 3.0))
        strata = dict(self.strata)
        strata[0] = hole
        report = stratified_qem_workflow(self.matrix, strata)
        assert report.per_stratum[0] is None
        assert list(report.per_stratum) == [2, 1, 0]
