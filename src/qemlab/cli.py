"""Config-driven experiment runner.

    qemlab <spectrum|mc|sweep|filtration> --config cfg.json [--out DIR]
           [--seed N] [--export-matrix (spectrum)] [--svg (sweep)]
    qemlab compare A/qem.csv B/qem.csv

Flags follow the command in any order, as ``--flag value`` or
``--flag=value``; ``-h`` or ``--help`` prints the lines above and exits 0,
and any other malformed command line exits 2.  ``sweep`` solves its epsilons
one after another; ``--export-matrix`` makes ``spectrum`` also write the
operator as ``operator.json``.  The seed drives the particle ensemble of
``mc`` and nothing else: ``spectrum``, ``sweep`` and ``filtration`` write
the same bytes at every seed.  ``compare`` prints the weak-* discrepancy
and, in 1d, the 1-Wasserstein distance of two quasi-ergodic vectors, with
the masses at the cell centers, using the metrics of
:mod:`qemlab.equilibrium`, as ``sweep`` does.

Configs are JSON with a versioned ``schema`` field; see README for the full
layout.  Exit codes: 0 success, 2 config or usage error, 3 numerical
failure (no convergence, or a nilpotent operator), 4 ensemble extinct; each
cause but a usage error prints its own ``error[code]``, none a traceback.
Given the same config and seed, re-runs write byte-identical primary
artifacts.  Only ``sweep`` writes wall-clock timings (``runtimes.csv``, one
row per epsilon).  Counters go to ``diagnostics.json``: the resampling
count, smallest ESS fraction and record count for ``mc``; for ``spectrum``
and ``filtration``, and per epsilon for ``sweep``, how many assembly strata
fell back to a point mass or were absorbed off the domain.
"""

from __future__ import annotations

import ctypes
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import equilibrium
from .conditioned_mc import MIN_STEPS, EnsembleExtinctError, run_conditioned
from .dynamics import (Box, Builtin, NoiseModel, RegionSpec, WeightField,
                       builtin_labels, make_system, region_fraction)
from .equilibrium import w1_1d, weak_star_discrepancy
from .filtration import (CycleError, PressureTieError, filtration_order,
                         stratified_qem_workflow)
from .spectral import NonConvergenceError, ZeroOperatorError, solve_triple
from .ulam import (DenseOperatorError, GridPartition, _strata_counts,
                   assemble_operator, export_matrix, region_fractions)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_EXTINCT = 4


class ConfigError(ValueError):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def _is_int(value, least: int) -> bool:
    """A JSON integer of at least ``least``: neither a bool nor a float."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _is_number(value) -> bool:
    """A finite JSON number: an integer or a float, neither a bool nor a
    string, within the float range.  Python's ``json`` reads ``NaN``,
    ``Infinity`` and ``1e999``, and no comparison with NaN holds."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


@dataclass
class ExperimentConfig:
    """Validated, normalized experiment description."""

    system: dict
    weight: dict
    region: dict
    grid: dict
    noise: dict
    solver: dict
    mc: dict
    filtration: dict | None
    reference: dict | None
    samples_per_cell: object
    seed: int

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict) or raw.get("schema") != SCHEMA_VERSION:
            raise ConfigError("schema", f"config must be an object with schema "
                                        f"{SCHEMA_VERSION}")
        seed = raw.get("seed", 0)
        if not (_is_int(seed, 0) and all(
                isinstance(raw.get(key, {}), dict) for key in (
                    "system", "weight", "region", "grid", "noise", "solver",
                    "mc", "filtration", "reference"))):
            raise ConfigError("schema", "config sections must be objects and "
                                        "the seed an integer >= 0")
        system = raw.get("system", {})
        label = system.get("label")
        if label is not None and label not in builtin_labels():
            raise ConfigError("unknown-system", f"unknown system label {label!r}")
        noise = raw.get("noise", {})
        eps = noise.get("epsilon", 0.0)
        eps_list = eps if isinstance(eps, list) else [eps]
        if not all(_is_number(e) for e in eps_list):
            raise ConfigError("bad-epsilon", "epsilon must be a finite number "
                                             "or a list of them")
        if any(e < 0 for e in eps_list):
            raise ConfigError("negative-epsilon", "epsilon must be >= 0")
        weight = raw.get("weight", {"kind": "zero"})
        if weight.get("kind", "zero") not in ("zero", "constant"):
            raise ConfigError("unknown-weight",
                              f"unknown weight kind {weight.get('kind')!r}")
        return ExperimentConfig(
            system=system,
            weight=weight,
            region=raw.get("region", {"kind": "survivor"}),
            grid=raw.get("grid", {}),
            noise=noise,
            solver=raw.get("solver", {}),
            mc=raw.get("mc", {}),
            filtration=raw.get("filtration"),
            reference=raw.get("reference"),
            samples_per_cell=raw.get("samples_per_cell", 3),
            seed=seed,
        )

    def dynamics(self) -> tuple[Builtin, RegionSpec, WeightField]:
        """Map, region and weight, all the particle route reads; a failing
        step gives its code, and so does an epsilon wider than every box."""
        label = self.system.get("label")
        if label is None:
            raise ConfigError("unknown-system", "config has no system label")
        params = {k: v for k, v in self.system.items() if k != "label"}
        if not all(_is_number(v) for v in params.values()):
            raise ConfigError("bad-system", "system parameters must be finite "
                                            "numbers")
        builtin = _checked("bad-system", lambda: make_system(label, **params))
        widest = max(float(box.widths.max()) for box in builtin.system.domain.boxes)
        if max(self.epsilons(), default=0.0) > widest:
            raise ConfigError("bad-epsilon", f"epsilon must be at most {widest:g}, "
                                             f"the widest side of a domain box")
        return (builtin,
                _checked("bad-region", lambda: self.region_spec(builtin)),
                _checked("bad-weight", lambda: self.weight_field(builtin)))

    def problem(self) -> Problem:
        """The dynamics and the grid, built once; a failing step gives its code."""
        builtin, region, weight = self.dynamics()
        counts = self.samples_per_cell
        if not all(_is_int(m, 1) for m in (counts if isinstance(counts, list)
                                            else [counts])):
            raise ConfigError("bad-strata", "samples_per_cell must be an "
                                            "integer >= 1 or a list of them")
        _checked("bad-strata", lambda: _strata_counts(self.samples_per_cell,
                                                      builtin.system.dimension))
        resolution = self.grid.get("resolution", 81)
        if not _is_int(resolution, 1):
            raise ConfigError("bad-resolution", "resolution must be an integer >= 1")
        problem = Problem(builtin, region, weight,
                          GridPartition(builtin.system.domain, resolution))
        if not np.any(region_fractions(problem.region, problem.grid) > 0):
            raise ConfigError("empty-region", "the region covers no grid cell")
        return problem

    def region_spec(self, builtin: Builtin) -> RegionSpec:
        kind = self.region.get("kind", "survivor")
        if kind == "survivor":
            return builtin.survivor
        if kind not in ("boxes", "custom"):  # two names for one kind
            raise ConfigError("bad-region", f"unknown region kind {kind!r}")
        return _parse_region(self.region["boxes"], builtin.system.dimension,
                             self.region.get("label", "region:custom"))

    def weight_field(self, builtin: Builtin) -> WeightField:
        kind = self.weight.get("kind", "zero")
        log_value = 0.0 if kind == "zero" else _number(self.weight["log_value"])
        cutoff = self.weight.get("cutoff")
        if cutoff is None:
            return WeightField(log_value)
        return WeightField(log_value, support_cutoff=_parse_region(
            cutoff["boxes"], builtin.system.dimension, "cutoff"),
            taper_width=_number(cutoff.get("taper_width", 0.0)),
            domain=builtin.system.domain)

    def epsilons(self) -> list[float]:
        eps = self.noise.get("epsilon", 0.0)
        return [float(e) for e in eps] if isinstance(eps, list) else [float(eps)]

    def single_epsilon(self, command: str) -> float:
        epsilons = self.epsilons()
        if len(epsilons) != 1:
            raise ConfigError("epsilon-list", f"{command} expects a single epsilon")
        return epsilons[0]

    def solver_kwargs(self) -> dict:
        tol = self.solver.get("tol", 1e-10)
        max_iters = self.solver.get("max_iters", 100_000)
        if not (_is_number(tol) and tol > 0 and _is_int(max_iters, 1)):
            raise ConfigError("bad-solver", "solver tol must be a finite "
                                            "number > 0 and max_iters an "
                                            "integer >= 1")
        return {"tol": float(tol), "max_iters": max_iters}


class Problem(NamedTuple):
    builtin: Builtin
    region: RegionSpec
    weight: WeightField
    grid: GridPartition


def _checked(code: str, build):
    """``build()``, with an error in it reported as config error ``code``."""
    try:
        return build()
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(code, repr(exc)) from None


def _number(value) -> float:
    """``value`` as a float when it is a finite JSON number, else a TypeError."""
    if not _is_number(value):
        raise TypeError(f"want a finite number, got {value!r}")
    return float(value)


def _integer(value) -> int:
    """``value`` when it is a JSON integer, neither a bool nor a float, else
    a TypeError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"want an integer, got {value!r}")
    return value


def _numbers(value) -> tuple[float, ...]:
    """A number or a list of numbers as floats, else a TypeError."""
    return tuple(_number(v) for v in (value if isinstance(value, list) else [value]))


def _parse_region(payload, dimension: int, label: str = "region") -> RegionSpec:
    """The region of the boxes ``[lo, hi]`` of a config list, all ``dimension``-d."""
    region = RegionSpec(tuple(Box(_numbers(lo), _numbers(hi)) for lo, hi in payload),
                        label)
    if region.dimension != dimension:
        raise ValueError(f"want {dimension}-d boxes")
    return region


def load_config(path: str, seed: int | None = None) -> ExperimentConfig:
    """The validated config at ``path``; a given ``seed`` replaces the file's
    before validation, so it is checked like one."""
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError("missing-config", f"config file {path!r} not found")
    except json.JSONDecodeError as exc:
        raise ConfigError("bad-json", f"cannot parse {path!r}: {exc}")
    if seed is not None and isinstance(raw, dict):
        raw["seed"] = seed
    return ExperimentConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# deterministic writers: str of a float is its shortest round-trip repr
# ---------------------------------------------------------------------------

def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(map(str, row)) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_series(path: Path, xs, ys) -> None:
    path.write_text("".join(f"{float(x)} {float(y)}\n"
                            for x, y in zip(xs, ys)))


def write_svg_line(path: Path, xs, ys, title: str) -> None:
    """Minimal self-contained SVG polyline (log-x) for quick inspection."""
    xs = np.log10(np.asarray(xs, dtype=float))
    ys = np.asarray(ys, dtype=float)
    w, h, pad = 640, 400, 50
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    sx = (w - 2 * pad) / (x1 - x0 if x1 > x0 else 1.0)
    sy = (h - 2 * pad) / (y1 - y0 if y1 > y0 else 1.0)
    pts = " ".join(f"{pad + (x - x0) * sx:.1f},{h - pad - (y - y0) * sy:.1f}"
                   for x, y in zip(xs, ys))
    path.write_text(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">'
        f'<rect width="{w}" height="{h}" fill="white"/>'
        f'<text x="{pad}" y="24" font-size="14">{title}</text>'
        f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1.5"/>'
        "</svg>\n")


def _vectors_csv(path: Path, grid: GridPartition, triple) -> None:
    """``qem.csv``: one row per cell, formatted column by column."""
    coord_cols = [f"center_{ax}" for ax in "xy"[:grid.dimension]]
    header = ["cell_index", *coord_cols, "right", "left", "qem"]
    columns = [range(grid.n_cells), *grid.centers().T.tolist(),
               triple.right.tolist(), triple.left.tolist(), triple.qem.tolist()]
    rows = map(",".join, zip(*(map(str, column) for column in columns)))
    path.write_text(",".join(header) + "\n" + "\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _operator(config: ExperimentConfig, problem: Problem, epsilon: float):
    """The Ulam matrix of the config's problem at one noise level."""
    builtin, region, weight, grid = problem
    noise = NoiseModel(epsilon)
    try:
        return assemble_operator(builtin.system, noise, weight, region, grid,
                                 samples_per_cell=config.samples_per_cell)
    except DenseOperatorError as exc:
        raise ConfigError("dense-operator", str(exc)) from None


def cmd_spectrum(config: ExperimentConfig, out: Path, args) -> int:
    problem = config.problem()
    matrix = _operator(config, problem, config.single_epsilon("spectrum"))
    triple = solve_triple(matrix, **config.solver_kwargs())
    payload = {**triple.scalars(), "metadata": matrix.metadata}
    write_json(out / "spectrum.json", payload)
    write_json(out / "diagnostics.json", matrix.diagnostics)
    _vectors_csv(out / "qem.csv", problem.grid, triple)
    if args.export_matrix:
        export_matrix(matrix, out / "operator.json")
    return EXIT_OK


def cmd_mc(config: ExperimentConfig, out: Path, args) -> int:
    builtin, region, weight = config.dynamics()
    if not any(region_fraction(region, box.lo, box.hi) > 0
               for box in builtin.system.domain.boxes):
        raise ConfigError("empty-region", "the region covers no part of the domain")
    dimension = builtin.system.dimension
    noise = NoiseModel(config.single_epsilon("mc"))
    run = _checked("bad-mc", lambda: _mc_arguments(config.mc, dimension, region))
    stats = run_conditioned(builtin.system, noise, weight, region,
                            seed=config.seed, **run)
    write_json(out / "mc.json", stats.scalars())
    write_json(out / "diagnostics.json", stats.diagnostics())
    write_csv(out / "mass_series.csv", ["step", "log_mean_mass"],
              [(t, float(v)) for t, v in enumerate(stats.log_mass_series)])
    return EXIT_OK


def _mc_arguments(mc: dict, dimension: int, region: RegionSpec) -> dict:
    """The ensemble arguments of ``run_conditioned`` from the ``mc`` section."""
    n, n_particles, start = (mc.get("n", 1000), mc.get("n_particles", 1000),
                             mc.get("start"))
    start = region if start is None else np.array(_numbers(start))
    if not (_is_int(n, MIN_STEPS) and _is_int(n_particles, 2)
            and (start is region or start.shape == (dimension,))):
        raise ValueError(f"mc needs integers n >= {MIN_STEPS} (the shortest "
                         f"horizon with a record) and n_particles >= 2 and a "
                         f"start point with {dimension} coordinates")
    return {"start": start, "n": n, "n_particles": n_particles,
            "resample_threshold": _number(mc.get("resample_threshold", 0.5)),
            "observables": {name: _expression_observable(name, dimension)
                            for name in mc.get("observables", ["x"])}}


def _expression_observable(expr: str, dimension: int):
    """Compile a tiny arithmetic observable like 'x', 'x**2', 'cos(2*pi*x)'.

    The observable reads ``(k, d)`` points, with ``x`` their first coordinate
    and, in 2d, ``y`` their second.  It is evaluated once, at the origin, so
    an expression that cannot run is config error ``bad-mc`` before the run
    starts.
    """
    ns = {"pi": math.pi, "cos": np.cos, "sin": np.sin, "exp": np.exp,
          "abs": np.abs, "__builtins__": {}}
    axes = "xy"[:dimension]
    try:
        code = compile(expr, "<observable>", "eval")
        observable = lambda c: eval(code, ns, {a: c[:, k]
                                               for k, a in enumerate(axes)})
        np.broadcast_to(np.asarray(observable(np.zeros((1, dimension))),
                                   dtype=float), (1,))
    except Exception as exc:  # whatever the user's expression raises
        raise ConfigError("bad-mc", f"observable {expr!r}: {exc!r}") from None
    return observable


def cmd_sweep(config: ExperimentConfig, out: Path, args) -> int:
    epsilons = config.epsilons()
    if len(epsilons) < 2:
        raise ConfigError("epsilon-list", "sweep needs at least two epsilons")
    if len({f"{eps:g}" for eps in epsilons}) < len(epsilons):
        raise ConfigError("epsilon-list", "sweep epsilons must differ in their "
                                          "label, the 6 significant digits that "
                                          "name their files")
    epsilons = sorted(epsilons, reverse=True)
    problem = config.problem()
    builtin, grid = problem.builtin, problem.grid
    reference = _reference_vector(config, builtin, grid)
    centers = grid.centers()

    rows, runtimes, diagnostics, failures = [], [], {}, []
    for eps in epsilons:
        t0 = time.perf_counter()
        try:
            matrix = _operator(config, problem, eps)
            triple = solve_triple(matrix, **config.solver_kwargs())
        except (NonConvergenceError, ZeroOperatorError) as exc:
            failures.append((eps, exc))  # flagged below; partial results land
            continue
        runtimes.append((eps, time.perf_counter() - t0))
        diagnostics[f"{eps:g}"] = matrix.diagnostics
        disc = (weak_star_discrepancy(triple.qem, reference, centers)
                if reference is not None else math.nan)
        w1 = (w1_1d(triple.qem, reference, centers)
              if reference is not None and grid.dimension == 1 else math.nan)
        rows.append((eps, triple.lam, triple.gap_ratio, disc, w1))
        _vectors_csv(out / f"qem_eps_{eps:g}.csv", grid, triple)
    write_csv(out / "sweep.csv",
              ["epsilon", "lambda", "gap_ratio", "discrepancy", "w1"], rows)
    write_csv(out / "runtimes.csv", ["epsilon", "seconds"], runtimes)
    write_json(out / "diagnostics.json", diagnostics)
    write_series(out / "series_lambda.txt", [r[0] for r in rows],
                 [r[1] for r in rows])
    if reference is not None:
        write_series(out / "series_discrepancy.txt", [r[0] for r in rows],
                     [r[3] for r in rows])
    if args.svg and rows:
        write_svg_line(out / "sweep_lambda.svg", [r[0] for r in rows],
                       [r[1] for r in rows], "lambda vs epsilon (log x)")
    if failures:
        write_json(out / "sweep_status.json", {
            "partial": True,
            "failed_epsilons": {f"{eps:g}": str(exc) for eps, exc in failures},
        })
        raise failures[0][1]
    return EXIT_OK


def _reference_vector(config: ExperimentConfig, builtin: Builtin,
                      grid: GridPartition):
    ref = config.reference
    if ref is None:
        return None
    if ref.get("kind") != "equilibrium":
        raise ConfigError("unknown-reference",
                          f"unknown reference kind {ref.get('kind')!r}")
    model = _checked("no-oracle", lambda: equilibrium.model_for(builtin.label))
    depth = ref.get("depth", 7)
    if not _is_int(depth, 1):
        raise ConfigError("bad-reference", "reference depth must be an integer >= 1")
    measure = equilibrium.equilibrium_cylinder_measure  # 1-d grids only
    return _checked("bad-reference", lambda: measure(
        model, depth).grid_projection(grid))


def cmd_filtration(config: ExperimentConfig, out: Path, args) -> int:
    if config.filtration is None:
        raise ConfigError("missing-graph", "filtration command needs a graph")
    pressures, edges = _checked("bad-graph", lambda: _graph(config.filtration))
    strata = config.filtration.get("strata")
    if strata and not isinstance(strata, dict):
        raise ConfigError("bad-region", "filtration strata must map ids to boxes")
    try:
        order = filtration_order(pressures, edges)
    except ValueError as exc:  # a bad edge, a cycle or a pressure tie
        raise ConfigError("graph-cycle" if isinstance(exc, CycleError) else
                          "pressure-tie" if isinstance(exc, PressureTieError)
                          else "bad-graph", str(exc)) from None
    if strata:  # every step that can fail runs before the first write
        problem = config.problem()
        matrix = _operator(config, problem, config.single_epsilon("filtration"))
        grid = problem.grid  # each stratum holds the cells its boxes center
        strata_cells = _checked("bad-region", lambda: {
            int(k): np.flatnonzero(_parse_region(v, grid.dimension).contains(
                grid.centers())) for k, v in strata.items()})
        report = stratified_qem_workflow(matrix, strata_cells,
                                         **config.solver_kwargs())
    write_json(out / "order.json", order.to_dict())
    (out / "sequence.txt").write_text(
        ">".join(str(i) for i in order.sequence) + "\n")
    if strata:
        write_json(out / "diagnostics.json", matrix.diagnostics)
        write_json(out / "strata_report.json", {
            "lambda_global": report.lambda_global,
            "lambda_max_restricted": report.lambda_max_restricted,
            "argmax_key": report.argmax_key,
            "deviation": report.deviation,
            "per_stratum": {
                str(key): (None if triple is None else triple.lam)
                for key, triple in report.per_stratum.items()
            },
        })
    return EXIT_OK


def _graph(section: dict) -> tuple[dict[int, float], list[tuple[int, int]]]:
    """The pressures by node id and the edges of a ``filtration`` section:
    each id given once, each id and edge end a JSON integer and each
    pressure a finite number, else a TypeError or ValueError."""
    pressures = {}
    for node in section["nodes"]:
        node_id = _integer(node["id"])
        if node_id in pressures:
            raise ValueError(f"node id {node_id} given twice")
        pressures[node_id] = _number(node["pressure"])
    return pressures, [(_integer(a), _integer(b))
                       for a, b in section.get("edges", ())]


def cmd_compare(args) -> int:
    """Print the weak-* discrepancy and, in 1d, the W1 of two ``qem.csv``."""
    centers, mu = _read_qem_csv(args.inputs[0])
    nu_centers, nu = _read_qem_csv(args.inputs[1])
    if centers.shape != nu_centers.shape or not np.allclose(centers, nu_centers):
        raise ConfigError("grid-mismatch", "qem files live on different grids")
    print(f"weak_star_discrepancy {weak_star_discrepancy(mu, nu, centers)!r}")
    if centers.shape[1] == 1:
        print(f"w1 {w1_1d(mu, nu, centers)!r}")
    return EXIT_OK


def _read_qem_csv(path: str):
    header = Path(path).read_text().split("\n", 1)[0].split(",")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    coord_cols = [i for i, name in enumerate(header) if name.startswith("center_")]
    return table[:, coord_cols], table[:, header.index("qem")]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# the flags of each command and the kind of value each takes; a bool flag
# takes none
_RUN_FLAGS = {"--config": str, "--out": str, "--seed": int}
_FLAGS = {
    "spectrum": {**_RUN_FLAGS, "--export-matrix": bool},
    "mc": _RUN_FLAGS,
    "sweep": {**_RUN_FLAGS, "--svg": bool},
    "filtration": _RUN_FLAGS,
    "compare": {},
}
_DEFAULTS = {"config": None, "out": "out", "seed": None, "export_matrix": False,
             "svg": False}


def _usage() -> str:
    """The usage lines of this module's docstring, unindented."""
    return "\n".join(line[4:] for line in __doc__.split("\n\n")[1].splitlines())


def _usage_error(message: str):
    print(f"{_usage()}\nqemlab: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_CONFIG)


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """The command, its positional inputs and its flags, defaults filled in.

    ``-h`` or ``--help`` anywhere prints the usage and exits 0; any other
    malformed command line prints the usage and an error and exits 2.  A
    flag's value is the next word, whatever it is, or follows an ``=``.
    """
    if "-h" in argv or "--help" in argv:
        print(_usage())
        raise SystemExit(EXIT_OK)
    if not argv or argv[0] not in _FLAGS:
        _usage_error(f"unknown command {argv[0]!r}" if argv else "no command")
    command, flags = argv[0], _FLAGS[argv[0]]
    args = SimpleNamespace(command=command, inputs=[], **_DEFAULTS)
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            args.inputs.append(word)
            continue
        name, eq, value = word.partition("=")
        kind = flags.get(name)
        if kind is None:
            _usage_error(f"{command} has no flag {name!r}")
        if kind is bool:
            if eq:
                _usage_error(f"{name} takes no value")
            value = True
        elif not eq:
            value = next(words, None)
            if value is None:
                _usage_error(f"{name} needs a value")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _usage_error(f"{name} needs an integer, not {value!r}")
        setattr(args, name[2:].replace("-", "_"), value)
    wanted = 2 if command == "compare" else 0
    if len(args.inputs) != wanted:
        _usage_error(f"{command} takes {wanted} files, got {args.inputs}")
    if command != "compare" and args.config is None:
        _usage_error(f"{command} needs --config")
    return args


# glibc's mallopt parameter for the free heap top it keeps (<malloc.h>), and
# the amount kept here: more than any heap swing of one command
_M_TRIM_THRESHOLD = -1
_KEPT_HEAP_BYTES = 64 << 20


def _keep_freed_heap() -> None:
    """Let glibc keep freed heap mapped for the rest of the process.

    By default glibc hands the top of the heap back to the kernel whenever
    128 KiB of it is free.  Assembly passes, power steps and particle steps
    each free their temporaries and then allocate them again, so the pages
    come straight back as page faults.  With glibc 2.36's default a
    ``strata_2rep`` command of the benchmark takes about 800 minor faults
    after set-up, a ``sweep_1d`` one about 3700 and an ``mc_1d`` one about
    30000; with the heap kept, about 140, 800 and 900.  Without glibc's
    ``mallopt`` (another C library) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_TRIM_THRESHOLD, _KEPT_HEAP_BYTES)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    _keep_freed_heap()
    try:
        if args.command == "compare":
            return cmd_compare(args)
        config = load_config(args.config, args.seed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        handler = {
            "spectrum": cmd_spectrum,
            "mc": cmd_mc,
            "sweep": cmd_sweep,
            "filtration": cmd_filtration,
        }[args.command]
        return handler(config, out, args)
    except ConfigError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonConvergenceError as exc:
        print(f"error[non-convergence]: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ZeroOperatorError as exc:
        print(f"error[zero-operator]: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except EnsembleExtinctError as exc:
        print(f"error[ensemble-extinct]: {exc}", file=sys.stderr)
        return EXIT_EXTINCT


if __name__ == "__main__":
    sys.exit(main())
