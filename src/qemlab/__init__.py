"""qemlab: quasi-ergodic measures of randomly perturbed maps with holes.

Spectral analysis of grid-discretized annealed transfer operators, validated
against conditioned particle Monte Carlo and symbolic equilibrium-state
oracles, plus the filtration ordering of interacting repellers.
"""

from .dynamics import (Box, Builtin, Domain, MapSystem, NoiseModel, RegionSpec,
                       WeightField, builtin_labels, make_system,
                       region_fraction)
from .ulam import (AnnealedMatrix, GridPartition, assemble_operator,
                   export_matrix, load_matrix, restrict_operator)
from .spectral import (NonConvergenceError, SpectralTriple, SupportReport,
                       assemble_qem, leading_left, leading_pair, solve_triple,
                       support_check)
from .conditioned_mc import (EnsembleExtinctError, EnsembleStats,
                             escape_rate_mc, run_conditioned)
from .equilibrium import (MarkovModel, ReferenceMeasure,
                          equilibrium_cylinder_measure, full_shift_model,
                          model_for, pressure_sft, w1_1d,
                          weak_star_discrepancy)
from .filtration import (ConnectionGraph, CycleError, FiltrationOrder, Node,
                         PressureTieError, StratifiedReport, assign_basin,
                         detect_cycles, filtration_order,
                         stratified_qem_workflow)

__version__ = "0.1.0"
