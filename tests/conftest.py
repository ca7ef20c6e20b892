import pytest

from qemlab.dynamics import NoiseModel, WeightField, make_system
from qemlab.equilibrium import equilibrium_cylinder_measure, model_for
from qemlab.spectral import solve_triple
from qemlab.ulam import GridPartition, assemble_operator


@pytest.fixture(scope="session")
def ternary_fine():
    """Shared resolution-2187 ternary solves at the sweep noise levels."""
    b = make_system("ternary_hole")
    grid = GridPartition(b.system.domain, 2187)
    triples = {}
    for eps in (1e-2, 3e-3, 1e-3):
        matrix = assemble_operator(b.system, NoiseModel(eps), WeightField(),
                                   b.survivor, grid, 3)
        triples[eps] = solve_triple(matrix, with_gap=False)
    oracle = equilibrium_cylinder_measure(model_for("ternary_hole"), 7)
    return {
        "builtin": b,
        "grid": grid,
        "triples": triples,
        "oracle": oracle,
        "oracle_projection": oracle.grid_projection(grid),
    }
