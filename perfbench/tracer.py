"""Outside-in tracer: shims on qemlab's public calls, spans kept in memory.

Every shim replaces a module attribute or a class method at the place its
caller looks it up (``qemlab.cli.assemble_operator``,
``qemlab.conditioned_mc.step_points``, ``AnnealedMatrix.apply``,
``Domain.apply_boundary``, ...).  A call records one span
``[name, start, end, parent]``, where ``parent`` is the index of the
enclosing span (-1 at the root), plus exact counts taken from its arguments
or its result.  Nothing is written until :meth:`Tracer.dump`.

The library itself is untouched; :meth:`Tracer.uninstall` restores every
patched attribute.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import Counter

# Per-layer metrics in report order, with units.  Figures ending in
# ``_computed`` come from array sizes, not from hardware counters.
LAYER_METRICS = {
    "dynamics.step_points_s": "s",
    "dynamics.points_stepped": "count",
    "dynamics.apply_boundary_s": "s",
    "dynamics.region_contains_s": "s",
    "dynamics.region_contains_calls": "count",
    "dynamics.weight_values_s": "s",
    "ulam.assemble_s": "s",
    "ulam.strata_pushed": "count",
    "ulam.nnz": "count",
    "ulam.region_fractions_s": "s",
    "ulam.estimated_cells": "count",
    "ulam.restrict_s": "s",
    "ulam.matvecs": "count",
    "ulam.matvec_s": "s",
    "ulam.matvec_gflop_computed": "GFLOP",
    "ulam.matvec_mb_computed": "MB",
    "spectral.solve_s": "s",
    "spectral.solves": "count",
    "spectral.right_s": "s",
    "spectral.right_iters": "count",
    "spectral.left_s": "s",
    "spectral.left_iters": "count",
    "spectral.gap_s": "s",
    "spectral.gap_iters": "count",
    "spectral.gap_converged_frac": "ratio",
    "conditioned_mc.run_s": "s",
    "conditioned_mc.self_s": "s",
    "conditioned_mc.resamplings": "count",
    "conditioned_mc.resample_rate": "ratio",
    "equilibrium.reference_s": "s",
    "equilibrium.metrics_s": "s",
    "filtration.order_s": "s",
    "filtration.workflow_s": "s",
    "filtration.self_s": "s",
    "cli.config_s": "s",
    "cli.observable_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "count",
    "cli.self_s": "s",
}

# Counts that must repeat exactly between runs of one seed.
EXACT_COUNTS = tuple(k for k, unit in LAYER_METRICS.items() if unit == "count")

# Spans whose enclosed matvecs count as that solve stage's iterations.
_ITER_OWNERS = {"spectral.right": "right", "spectral.left": "left",
                "spectral.solve": "gap"}


class Tracer:
    """Installs shims, records spans and counts, aggregates layer metrics."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """Return ``fn`` recording a span per call; ``after`` sees the call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return shim

    def patch(self, owner, attr, name, after=None, factory=None):
        """Replace ``owner.attr`` by a shim; ``factory`` builds a custom one."""
        original = getattr(owner, attr)
        shim = (factory(original) if factory is not None
                else self.wrap(name, original, after))
        setattr(owner, attr, shim)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def install(self):
        """Put shims on every traced call of the qemlab CLI workflows."""
        from qemlab import cli, conditioned_mc, equilibrium, filtration, spectral, ulam
        from qemlab.dynamics import Domain, RegionSpec, WeightField
        from qemlab.equilibrium import ReferenceMeasure
        from qemlab.ulam import AnnealedMatrix

        c = self.counts

        def assembled(args, kwargs, matrix):
            c["ulam.nnz"] += matrix.nnz
            strata = 1
            for m in matrix.metadata["strata"]:
                strata *= int(m)
            c["ulam.strata_pushed"] += matrix.n_cells * strata

        def matvec(args, kwargs, out):
            c["matvec.nnz"] += args[0].nnz
            c["matvec.n"] += args[0].n_cells

        def solved(args, kwargs, triple):
            if not math.isnan(triple.gap_ratio):
                c["gap.solves"] += 1
                c["gap.converged"] += bool(triple.gap_converged)

        def stepped(args, kwargs, out):
            c["dynamics.points_stepped"] += len(args[2])

        def ran(args, kwargs, stats):
            c["conditioned_mc.resamplings"] += len(stats.resample_times)
            c["mc.steps"] += stats.n_steps

        def observable(original):
            def build(*args, **kwargs):
                return self.wrap("cli.observable", original(*args, **kwargs))
            return build

        self.patch(cli, "main", "cli.main")
        self.patch(cli, "load_config", "cli.config")
        for writer in ("write_json", "write_csv", "write_series",
                       "write_svg_line", "_vectors_csv"):
            self.patch(cli, writer, "cli.write")
        self.patch(cli, "_expression_observable", None, factory=observable)
        self.patch(cli, "assemble_operator", "ulam.assemble", assembled)
        self.patch(ulam, "region_fractions", "ulam.region_fractions")
        self.patch(ulam, "region_fraction", "ulam.region_fraction")
        self.patch(filtration, "restrict_operator", "ulam.restrict")
        self.patch(AnnealedMatrix, "apply", "ulam.matvec", matvec)
        self.patch(AnnealedMatrix, "apply_adjoint", "ulam.matvec", matvec)
        self.patch(cli, "solve_triple", "spectral.solve", solved)
        self.patch(filtration, "solve_triple", "spectral.solve", solved)
        self.patch(spectral, "leading_pair", "spectral.right")
        self.patch(spectral, "leading_left", "spectral.left")
        self.patch(spectral, "_deflated_ratio", "spectral.gap")
        self.patch(cli, "run_conditioned", "conditioned_mc.run", ran)
        self.patch(conditioned_mc, "step_points", "dynamics.step_points", stepped)
        self.patch(Domain, "apply_boundary", "dynamics.apply_boundary")
        self.patch(RegionSpec, "contains", "dynamics.region_contains")
        self.patch(WeightField, "values", "dynamics.weight_values")
        self.patch(equilibrium, "equilibrium_cylinder_measure",
                   "equilibrium.reference")
        self.patch(ReferenceMeasure, "grid_projection", "equilibrium.reference")
        self.patch(cli, "weak_star_discrepancy", "equilibrium.metrics")
        self.patch(cli, "w1_1d", "equilibrium.metrics")
        self.patch(cli, "filtration_order", "filtration.order")
        self.patch(cli, "stratified_qem_workflow", "filtration.workflow")

    # -- aggregation ------------------------------------------------------

    def metrics(self, bytes_written: int) -> dict[str, float]:
        """Every name of LAYER_METRICS from the recorded spans and counts."""
        spans = self.spans
        busy: Counter = Counter()
        calls: Counter = Counter()
        child: list[float] = [0.0] * len(spans)
        for name, start, end, parent in spans:
            busy[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start

        def self_time(name):
            return sum(s[2] - s[1] - child[i] for i, s in enumerate(spans)
                       if s[0] == name)

        iters: Counter = Counter()
        for name, _, _, parent in spans:
            if name != "ulam.matvec":
                continue
            while parent >= 0 and spans[parent][0] not in _ITER_OWNERS:
                parent = spans[parent][3]
            if parent >= 0:
                iters[_ITER_OWNERS[spans[parent][0]]] += 1

        c = self.counts
        write_s = sum(s[2] - s[1] for s in spans if s[0] == "cli.write"
                      and (s[3] < 0 or spans[s[3]][0] != "cli.write"))
        # A CSR matvec streams data, indices and row ids and gathers the
        # input once per stored entry, then writes one output per row.
        out = {
            "dynamics.step_points_s": busy["dynamics.step_points"],
            "dynamics.points_stepped": c["dynamics.points_stepped"],
            "dynamics.apply_boundary_s": busy["dynamics.apply_boundary"],
            "dynamics.region_contains_s": busy["dynamics.region_contains"],
            "dynamics.region_contains_calls": calls["dynamics.region_contains"],
            "dynamics.weight_values_s": busy["dynamics.weight_values"],
            "ulam.assemble_s": busy["ulam.assemble"],
            "ulam.strata_pushed": c["ulam.strata_pushed"],
            "ulam.nnz": c["ulam.nnz"],
            "ulam.region_fractions_s": busy["ulam.region_fractions"],
            "ulam.estimated_cells": calls["ulam.region_fraction"],
            "ulam.restrict_s": busy["ulam.restrict"],
            "ulam.matvecs": calls["ulam.matvec"],
            "ulam.matvec_s": busy["ulam.matvec"],
            "ulam.matvec_gflop_computed": 2.0 * c["matvec.nnz"] / 1e9,
            "ulam.matvec_mb_computed":
                8.0 * (4 * c["matvec.nnz"] + c["matvec.n"]) / 1e6,
            "spectral.solve_s": busy["spectral.solve"],
            "spectral.solves": calls["spectral.solve"],
            "spectral.right_s": busy["spectral.right"],
            "spectral.right_iters": iters["right"],
            "spectral.left_s": busy["spectral.left"],
            "spectral.left_iters": iters["left"],
            "spectral.gap_s": busy["spectral.gap"],
            "spectral.gap_iters": iters["gap"],
            "spectral.gap_converged_frac":
                c["gap.converged"] / c["gap.solves"] if c["gap.solves"] else 0.0,
            "conditioned_mc.run_s": busy["conditioned_mc.run"],
            "conditioned_mc.self_s": self_time("conditioned_mc.run"),
            "conditioned_mc.resamplings": c["conditioned_mc.resamplings"],
            "conditioned_mc.resample_rate":
                c["conditioned_mc.resamplings"] / c["mc.steps"]
                if c["mc.steps"] else 0.0,
            "equilibrium.reference_s": busy["equilibrium.reference"],
            "equilibrium.metrics_s": busy["equilibrium.metrics"],
            "filtration.order_s": busy["filtration.order"],
            "filtration.workflow_s": busy["filtration.workflow"],
            "filtration.self_s": self_time("filtration.workflow"),
            "cli.config_s": busy["cli.config"],
            "cli.observable_s": busy["cli.observable"],
            "cli.write_s": write_s,
            "cli.bytes_written": bytes_written,
            "cli.self_s": self_time("cli.main"),
        }
        return out

    def dump(self, path) -> None:
        """Write every span once, as ``[name, start_s, end_s, parent]``."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))
