"""Config-driven experiment runner.

    qemlab <spectrum|mc|sweep|filtration> --config cfg.json
           [--out DIR] [--seed N] [--svg] [--export-matrix]
    qemlab compare A/qem.csv B/qem.csv [--dictionary K]

``sweep`` solves its epsilons one after another; ``--export-matrix`` makes
``spectrum`` also write the operator as ``operator.json``.  ``compare``
prints the weak-* discrepancy and, in 1d, the 1-Wasserstein distance of two
quasi-ergodic vectors, using the metrics of :mod:`qemlab.equilibrium`.

Configs are JSON with a versioned ``schema`` field; see README for the full
layout.  Exit codes: 0 success, 2 config error, 3 numerical non-convergence,
4 ensemble extinct.  Given the same config and seed, re-runs write
byte-identical primary artifacts (timings go to a separate runtimes file,
and ``mc`` writes its per-block resampling counters to ``diagnostics.json``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import equilibrium
from .conditioned_mc import EnsembleExtinctError, run_conditioned
from .dynamics import (Box, Builtin, NoiseModel, RegionSpec, WeightField,
                       builtin_labels, make_system)
from .equilibrium import TestDictionary, w1_1d, weak_star_discrepancy
from .filtration import (ConnectionGraph, CycleError, PressureTieError,
                         filtration_order, stratified_qem_workflow)
from .spectral import NonConvergenceError, solve_triple
from .ulam import GridPartition, assemble_operator, build_grid, export_matrix

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

@dataclass
class ExperimentConfig:
    """Validated, normalized experiment description.

    ``raw`` keeps the exact parsed JSON so configs round-trip losslessly.
    """

    raw: dict
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
        if raw.get("schema") != SCHEMA_VERSION:
            raise ConfigError("schema", f"config schema must be {SCHEMA_VERSION}")
        system = raw.get("system", {})
        label = system.get("label")
        if label is not None and label not in builtin_labels():
            raise ConfigError("unknown-system", f"unknown system label {label!r}")
        grid = raw.get("grid", {"resolution": 81})
        if int(grid.get("resolution", 0)) < 1:
            raise ConfigError("bad-resolution", "grid resolution must be >= 1")
        noise = raw.get("noise", {})
        eps = noise.get("epsilon", 0.0)
        eps_list = eps if isinstance(eps, list) else [eps]
        if any(e < 0 for e in eps_list):
            raise ConfigError("negative-epsilon", "epsilon must be >= 0")
        weight = raw.get("weight", {"kind": "zero"})
        if weight.get("kind", "zero") not in ("zero", "constant"):
            raise ConfigError("unknown-weight",
                              f"unknown weight kind {weight.get('kind')!r}")
        return ExperimentConfig(
            raw=raw,
            system=system,
            weight=weight,
            region=raw.get("region", {"kind": "survivor"}),
            grid=grid,
            noise=noise,
            solver=raw.get("solver", {}),
            mc=raw.get("mc", {}),
            filtration=raw.get("filtration"),
            reference=raw.get("reference"),
            samples_per_cell=raw.get("samples_per_cell", 3),
            seed=int(raw.get("seed", 0)),
        )

    def to_dict(self) -> dict:
        return self.raw

    def builtin(self) -> Builtin:
        label = self.system.get("label")
        if label is None:
            raise ConfigError("unknown-system", "config has no system label")
        params = {k: v for k, v in self.system.items() if k != "label"}
        return make_system(label, **params)

    def region_spec(self, builtin: Builtin) -> RegionSpec:
        if self.region.get("kind", "survivor") == "survivor":
            return builtin.survivor
        boxes = tuple(_parse_box(b) for b in self.region["boxes"])
        return RegionSpec(boxes, label=self.region.get("label", "region:custom"))

    def weight_field(self, builtin: Builtin) -> WeightField:
        kind = self.weight.get("kind", "zero")
        log_value = 0.0 if kind == "zero" else float(self.weight["log_value"])
        cutoff = self.weight.get("cutoff")
        if cutoff is None:
            return WeightField(log_value, label=f"phi={log_value:g}")
        boxes = tuple(_parse_box(b) for b in cutoff["boxes"])
        return WeightField(
            log_value,
            support_cutoff=RegionSpec(boxes, label="cutoff"),
            taper_width=float(cutoff.get("taper_width", 0.0)),
            domain=builtin.system.domain,
            label=f"phi={log_value:g},tapered",
        )

    def epsilons(self) -> list[float]:
        eps = self.noise.get("epsilon", 0.0)
        return [float(e) for e in eps] if isinstance(eps, list) else [float(eps)]

    def single_epsilon(self, command: str) -> float:
        epsilons = self.epsilons()
        if len(epsilons) != 1:
            raise ConfigError("epsilon-list", f"{command} expects a single epsilon")
        return epsilons[0]

    def solver_kwargs(self) -> dict:
        return {
            "tol": float(self.solver.get("tol", 1e-10)),
            "max_iters": int(self.solver.get("max_iters", 100_000)),
        }


def _parse_box(payload) -> Box:
    lo, hi = payload
    lo = tuple(float(v) for v in np.atleast_1d(lo))
    hi = tuple(float(v) for v in np.atleast_1d(hi))
    return Box(lo, hi)


def load_config(path: str) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError("missing-config", f"config file {path!r} not found")
    except json.JSONDecodeError as exc:
        raise ConfigError("bad-json", f"cannot parse {path!r}: {exc}")
    return ExperimentConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# deterministic writers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_series(path: Path, xs, ys) -> None:
    path.write_text("".join(f"{_fmt(float(x))} {_fmt(float(y))}\n"
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
    coord_cols = [f"center_{ax}" for ax in "xy"[:grid.dimension]]
    table = np.column_stack([grid.centers(), triple.right, triple.left,
                             triple.qem]).tolist()
    write_csv(path, ["cell_index", *coord_cols, "right", "left", "qem"],
              ([i, *row] for i, row in enumerate(table)))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _assemble_and_solve(config: ExperimentConfig, epsilon: float):
    builtin = config.builtin()
    grid = build_grid(builtin.system.domain, int(config.grid["resolution"]))
    region = config.region_spec(builtin)
    weight = config.weight_field(builtin)
    noise = NoiseModel(epsilon, builtin.system.dimension)
    matrix = assemble_operator(builtin.system, noise, weight, region, grid,
                               samples_per_cell=config.samples_per_cell,
                               seed=config.seed)
    triple = solve_triple(matrix, seed=config.seed, **config.solver_kwargs())
    return builtin, grid, matrix, triple


def cmd_spectrum(config: ExperimentConfig, out: Path, args) -> int:
    epsilon = config.single_epsilon("spectrum")
    _, grid, matrix, triple = _assemble_and_solve(config, epsilon)
    payload = dict(triple.scalars())
    payload["metadata"] = matrix.metadata
    write_json(out / "spectrum.json", payload)
    _vectors_csv(out / "qem.csv", grid, triple)
    if args.export_matrix:
        export_matrix(matrix, out / "operator.json")
    return EXIT_OK


def cmd_mc(config: ExperimentConfig, out: Path, args) -> int:
    builtin = config.builtin()
    region = config.region_spec(builtin)
    weight = config.weight_field(builtin)
    noise = NoiseModel(config.single_epsilon("mc"), builtin.system.dimension)
    mc = config.mc
    observables = {name: _expression_observable(name, builtin.system.dimension)
                   for name in mc.get("observables", ["x"])}
    start = mc.get("start")
    start = region if start is None else np.asarray(start, dtype=float)
    stats = run_conditioned(builtin.system, noise, weight, region, start,
                            n=int(mc.get("n", 1000)),
                            n_particles=int(mc.get("n_particles", 1000)),
                            observables=observables,
                            resample_threshold=float(mc.get("resample_threshold", 0.5)),
                            seed=config.seed)
    write_json(out / "mc.json", stats.scalars())
    write_json(out / "diagnostics.json", stats.diagnostics())
    write_csv(out / "mass_series.csv", ["step", "log_mean_mass"],
              [(t, float(v)) for t, v in enumerate(stats.log_mass_series)])
    return EXIT_OK


def _expression_observable(expr: str, dimension: int):
    """Compile a tiny arithmetic observable like 'x', 'x**2', 'cos(2*pi*x)'."""
    ns = {"pi": math.pi, "cos": np.cos, "sin": np.sin, "exp": np.exp,
          "abs": np.abs, "__builtins__": {}}
    code = compile(expr, "<observable>", "eval")
    if dimension == 1:
        return lambda c: eval(code, ns, {"x": c})
    return lambda c: eval(code, ns, {"x": c[:, 0], "y": c[:, 1]})


def cmd_sweep(config: ExperimentConfig, out: Path, args) -> int:
    epsilons = config.epsilons()
    if len(epsilons) < 2:
        raise ConfigError("epsilon-list", "sweep needs at least two epsilons")
    epsilons = sorted(epsilons, reverse=True)
    builtin = config.builtin()
    grid = build_grid(builtin.system.domain, int(config.grid["resolution"]))
    reference = _reference_vector(config, builtin, grid)
    dictionary = TestDictionary(dimension=builtin.system.dimension)
    centers = grid.centers()

    rows, runtimes, failures = [], [], []
    for eps in epsilons:
        t0 = time.perf_counter()
        try:
            _, _, _, triple = _assemble_and_solve(config, eps)
        except Exception as exc:  # flagged below; partial results still land
            failures.append((eps, exc))
            continue
        runtimes.append((eps, time.perf_counter() - t0))
        disc = (weak_star_discrepancy(triple.qem, reference, dictionary, centers)
                if reference is not None else math.nan)
        w1 = (w1_1d(triple.qem, reference, centers, grid.cell_volume)
              if reference is not None and grid.dimension == 1 else math.nan)
        rows.append((eps, triple.lam, triple.gap_ratio, disc, w1))
        _vectors_csv(out / f"qem_eps_{eps:g}.csv", grid, triple)
    write_csv(out / "sweep.csv",
              ["epsilon", "lambda", "gap_ratio", "discrepancy", "w1"], rows)
    write_csv(out / "runtimes.csv", ["epsilon", "seconds"], runtimes)
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
        exc = failures[0][1]
        if isinstance(exc, (NonConvergenceError, ConfigError,
                            EnsembleExtinctError)):
            raise exc
        raise NonConvergenceError(f"sweep failed at epsilon {failures[0][0]:g}: "
                                  f"{exc}", math.nan, 0)
    return EXIT_OK


def _reference_vector(config: ExperimentConfig, builtin: Builtin,
                      grid: GridPartition):
    ref = config.reference
    if ref is None:
        return None
    if ref.get("kind") != "equilibrium":
        raise ConfigError("unknown-reference",
                          f"unknown reference kind {ref.get('kind')!r}")
    try:
        model = equilibrium.model_for(builtin.label)
    except KeyError:
        raise ConfigError("no-oracle",
                          f"system {builtin.label!r} has no symbolic reference")
    measure = equilibrium.equilibrium_cylinder_measure(model,
                                                       int(ref.get("depth", 7)))
    return measure.grid_projection(grid)


def cmd_filtration(config: ExperimentConfig, out: Path, args) -> int:
    if config.filtration is None:
        raise ConfigError("missing-graph", "filtration command needs a graph")
    try:
        graph = ConnectionGraph.from_dict(config.filtration)
        order = filtration_order(graph)
    except (CycleError, PressureTieError, ValueError) as exc:
        code = "graph-cycle" if isinstance(exc, CycleError) else "pressure-tie" \
            if isinstance(exc, PressureTieError) else "bad-graph"
        raise ConfigError(code, str(exc))
    write_json(out / "order.json", order.to_dict())
    (out / "sequence.txt").write_text(
        ">".join(str(i) for i in order.sequence) + "\n")
    strata = config.filtration.get("strata")
    if strata:
        builtin = config.builtin()
        grid = build_grid(builtin.system.domain, int(config.grid["resolution"]))
        region = config.region_spec(builtin)
        weight = config.weight_field(builtin)
        noise = NoiseModel(config.single_epsilon("filtration"),
                           builtin.system.dimension)
        matrix = assemble_operator(builtin.system, noise, weight, region, grid,
                                   samples_per_cell=config.samples_per_cell,
                                   seed=config.seed)
        strata_cells = {int(k): _cells_in_boxes(grid, v)
                        for k, v in strata.items()}
        report = stratified_qem_workflow(matrix, order, strata_cells,
                                         seed=config.seed,
                                         **config.solver_kwargs())
        write_json(out / "strata_report.json", {
            "lambda_global": report.lambda_global,
            "lambda_max_restricted": report.lambda_max_restricted,
            "argmax_key": report.argmax_key,
            "deviation": report.deviation,
            "per_stratum": {
                str(r.key): (None if r.triple is None else r.triple.lam)
                for r in report.strata
            },
        })
    return EXIT_OK


def _cells_in_boxes(grid: GridPartition, boxes_payload) -> np.ndarray:
    region = RegionSpec(tuple(_parse_box(b) for b in boxes_payload))
    return np.flatnonzero(region.contains(grid.centers()))


def cmd_compare(args) -> int:
    """Print the weak-* discrepancy and, in 1d, the W1 of two ``qem.csv``.

    ``qem.csv`` has no cell width, so W1 takes it as the smallest spacing
    between the file's centers.  That spacing can be a few ulps off
    ``GridPartition.cell_volume``, so the printed W1 can differ in the last
    digits from ``w1_1d`` with the grid's cell width, which is how ``sweep``
    computes its ``w1`` column.
    """
    centers, mu = _read_qem_csv(args.inputs[0])
    nu_centers, nu = _read_qem_csv(args.inputs[1])
    if centers.shape != nu_centers.shape or not np.allclose(centers, nu_centers):
        raise ConfigError("grid-mismatch", "qem files live on different grids")
    dictionary = TestDictionary(k_max=args.dictionary, dimension=centers.shape[1])
    disc = weak_star_discrepancy(mu, nu, dictionary, centers)
    print(f"weak_star_discrepancy {disc!r}")
    if centers.shape[1] == 1:
        gaps = np.diff(np.sort(centers[:, 0]))
        h = float(np.min(gaps)) if gaps.size else 1.0  # cell width
        print(f"w1 {w1_1d(mu, nu, centers, h)!r}")
    return EXIT_OK


def _read_qem_csv(path: str):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    coord_cols = [i for i, name in enumerate(header) if name.startswith("center_")]
    qem_col = header.index("qem")
    centers, qem = [], []
    for line in lines[1:]:
        parts = line.split(",")
        centers.append([float(parts[i]) for i in coord_cols])
        qem.append(float(parts[qem_col]))
    return np.asarray(centers), np.asarray(qem)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qemlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("spectrum", "mc", "sweep", "filtration"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default="out")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--svg", action="store_true")
        p.add_argument("--export-matrix", action="store_true",
                       help="also write the assembled operator as operator.json")
    p = sub.add_parser("compare")
    p.add_argument("inputs", nargs=2)
    p.add_argument("--dictionary", type=int, default=8)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "compare":
            return cmd_compare(args)
        config = load_config(args.config)
        if args.seed is not None:
            config.seed = args.seed
            config.raw["seed"] = args.seed
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
    except EnsembleExtinctError as exc:
        print(f"error[ensemble-extinct]: {exc}", file=sys.stderr)
        return EXIT_EXTINCT


if __name__ == "__main__":
    sys.exit(main())
