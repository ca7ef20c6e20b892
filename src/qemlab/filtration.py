"""Ordering of interacting repellers and per-stratum spectral problems.

A directed edge i -> j between repellers declares a heteroclinic connection
(mass can travel from the neighbourhood of i to that of j), and each node
carries a topological pressure.  From the pressures by node id and the
edges, :func:`filtration_order` builds a total order compatible with the
connections:

1. pick the remaining node of maximal pressure;
2. group it with every node that can reach it (transitively);
3. order the group by a topological sort of the connections, breaking the
   order of incomparable pairs by descending pressure;
4. append the group and repeat on what is left.

Relabelling the sequence with descending ranks n..1 yields the indices
i_0 > i_1 > ... > i_t (the rank of each group's selected node, which is
always last in its group).  Rank j then belongs to stratum k via
i_k <= j < i_{k-1}, which is what :func:`assign_basin` computes.  A cycle
of connections has no compatible order: its nodes reach one another, so
they fall in one group, and step 3 rejects that group.

:func:`stratified_qem_workflow` solves the restricted spectral problem of
each stratum and reports each stratum's triple by its key.

Edges are supplied by the user; certifying actual stable/unstable-set
intersections numerically is out of scope.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .spectral import SpectralTriple, solve_triple
from .ulam import AnnealedMatrix, restrict_operator

PRESSURE_TIE_TOL = 1e-12


class CycleError(ValueError):
    """The connection relation contains a cycle."""

    def __init__(self, witness: list[int]):
        super().__init__(f"connection graph has a cycle: {'>'.join(map(str, witness))}")
        self.witness = witness


class PressureTieError(ValueError):
    """Two nodes have numerically equal pressures (config error, not a choice)."""


@dataclass(frozen=True)
class FiltrationOrder:
    """Total order on node ids with its group decomposition.

    ``sequence`` lists ids from greatest to least; ``relabel`` maps each id
    to its rank (n for the first, 1 for the last); ``indices`` are the ranks
    i_0 > ... > i_t of the selected maximal-pressure nodes.
    """

    sequence: tuple[int, ...]
    subgraphs: tuple[tuple[int, ...], ...]
    indices: tuple[int, ...]
    relabel: dict[int, int]

    @property
    def n(self) -> int:
        return len(self.sequence)

    @property
    def t(self) -> int:
        return len(self.indices) - 1

    def to_dict(self) -> dict:
        return {
            "sequence": list(self.sequence),
            "subgraphs": [list(s) for s in self.subgraphs],
            "indices": list(self.indices),
            "relabel": {str(k): v for k, v in self.relabel.items()},
        }


def _reaching_set(target: int, members: set[int], succ: dict[int, set[int]]) -> set[int]:
    out, grown = {target}, {target}
    while grown:
        grown = {a for a in members - out if succ[a] & out}
        out |= grown
    return out


def _priority_toposort(members: set[int], succ: dict[int, set[int]],
                       pressure: dict[int, float]) -> list[int]:
    indeg = {i: 0 for i in members}
    for a in members:
        for b in succ[a]:
            if b in members:
                indeg[b] += 1
    heap = [(-pressure[i], i) for i in members if indeg[i] == 0]
    heapq.heapify(heap)
    out: list[int] = []
    while heap:
        _, node = heapq.heappop(heap)
        out.append(node)
        for b in succ[node]:
            if b in members:
                indeg[b] -= 1
                if indeg[b] == 0:
                    heapq.heappush(heap, (-pressure[b], b))
    return out


def filtration_order(pressures: Mapping[int, float],
                     edges: Iterable[tuple[int, int]]) -> FiltrationOrder:
    """Build the total order of the nodes ``pressures`` maps to their
    pressure, under the connections ``edges``.

    Raises ValueError on a self-edge or an edge to an unknown node, then
    CycleError with a cycle witness, then PressureTieError naming two
    pressures within 1e-12 absolute.  Each node that the sort of a cyclic
    group cannot place has a predecessor among the others it cannot place,
    so walking predecessors from one closes a cycle.
    """
    succ: dict[int, set[int]] = {i: set() for i in pressures}
    for a, b in edges:
        if a == b:
            raise ValueError(f"self-edge on node {a}")
        if a not in succ or b not in succ:
            raise ValueError(f"edge ({a}, {b}) references unknown node")
        succ[a].add(b)
    remaining = set(pressures)
    sequence: list[int] = []
    subgraphs: list[tuple[int, ...]] = []
    selected: list[int] = []
    while remaining:
        top = max(remaining, key=lambda i: pressures[i])
        members = _reaching_set(top, remaining, succ)
        block = _priority_toposort(members, succ, pressures)
        if len(block) < len(members):
            stuck = members - set(block)
            pred = {b: a for a in sorted(stuck) for b in succ[a] if b in stuck}
            walk = [min(stuck)]
            while pred[walk[-1]] not in walk:
                walk.append(pred[walk[-1]])
            raise CycleError(walk[walk.index(pred[walk[-1]]):][::-1])
        sequence.extend(block)
        subgraphs.append(tuple(block))
        selected.append(top)
        remaining -= members
    ordered = sorted(pressures.items(), key=lambda kv: kv[1])
    for (id_a, p_a), (id_b, p_b) in zip(ordered, ordered[1:]):
        if abs(p_a - p_b) <= PRESSURE_TIE_TOL:
            raise PressureTieError(
                f"pressure tie between nodes {id_a} and {id_b}: "
                f"{p_a!r} vs {p_b!r}")
    n = len(sequence)
    relabel = {node: n - pos for pos, node in enumerate(sequence)}
    indices = tuple(relabel[s] for s in selected)
    return FiltrationOrder(tuple(sequence), tuple(subgraphs), indices, relabel)


def assign_basin(order: FiltrationOrder, j: int) -> int:
    """Stratum index k with i_k <= j < i_{k-1} (i_{-1} = n + 1).

    ``j`` is a rank in the relabelled order: the rank of the repeller whose
    stable set contains the start point.  Monotone: larger ranks map to
    smaller k.
    """
    if not 1 <= j <= order.n:
        raise ValueError(f"rank {j} outside 1..{order.n}")
    previous = order.n + 1
    for k, ik in enumerate(order.indices):
        if ik <= j < previous:
            return k
        previous = ik
    raise ValueError(f"rank {j} not covered by indices {order.indices}")


@dataclass(eq=False)
class StratifiedReport:
    """Restricted spectral problems per stratum plus the global consistency gap.

    ``per_stratum`` maps each stratum key, in descending order, to its
    triple, or to None when the restricted block is zero; ``argmax_key`` is
    the first key of the largest restricted eigenvalue in that order.
    """

    global_triple: SpectralTriple
    per_stratum: dict[int, SpectralTriple | None]
    argmax_key: int

    @property
    def lambda_global(self) -> float:
        return self.global_triple.lam

    @property
    def lambda_max_restricted(self) -> float:
        return self.per_stratum[self.argmax_key].lam

    @property
    def deviation(self) -> float:
        return abs(self.lambda_global - self.lambda_max_restricted)


def stratified_qem_workflow(matrix: AnnealedMatrix,
                            strata: Mapping[int, Sequence[int]],
                            tol: float = 1e-10, max_iters: int = 100_000
                            ) -> StratifiedReport:
    """Solve the global problem and one restricted problem per stratum.

    ``strata`` maps a rank (or any stable key) to the grid cells of that
    stratum.  The strata are solved in descending key order, which is the
    filtration order when the keys are the ranks of a
    :class:`FiltrationOrder`.  The report maps each key to its triple and
    records that the global leading eigenvalue equals the largest restricted
    one.  No spectral gap is solved (``gap_ratio`` is NaN), and each triple
    solves its left side only when it is read (see
    :class:`qemlab.spectral.SpectralTriple`).  So a stratum maps to None
    only when its right solve raises a ValueError, as on a zero principal
    submatrix; a left solve that fails, or a degenerate pairing, raises
    where ``left`` or ``qem`` is first read.  Raises ValueError when every
    stratum maps to None.
    """
    solver = {"tol": tol, "max_iters": max_iters, "with_gap": False}
    global_triple = solve_triple(matrix, **solver)
    per_stratum: dict[int, SpectralTriple | None] = {}
    for key in sorted(strata, reverse=True):
        cells = np.asarray(list(strata[key]), dtype=np.int64)
        sub = restrict_operator(matrix, cells)
        try:
            per_stratum[key] = solve_triple(sub, **solver)
        except ValueError:
            per_stratum[key] = None
    lams = {key: triple.lam for key, triple in per_stratum.items()
            if triple is not None}
    if not lams:
        raise ValueError("every stratum produced a zero operator")
    return StratifiedReport(global_triple, per_stratum, max(lams, key=lams.get))
