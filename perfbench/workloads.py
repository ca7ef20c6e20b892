"""The benchmark workloads: CLI command, seeded config and output checks.

Each workload runs one real ``qemlab`` command.  Its check reads the
command's primary artifacts and mirrors the tolerances of the acceptance
criterion it stands for; it returns the list of violated conditions, so an
empty list means the output is correct.  Every workload also lists
mutations: deliberately wrong copies of real artifacts that its check must
reject, so no condition passes vacuously.

The checks use the standard library only, so the benchmark can verify
outputs without importing the program it measures.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

LAMBDA = 2.0 / 3.0  # escape eigenvalue of ternary_hole, open_baker, two_repeller

Artifacts = dict  # file name -> text

# Side artifacts that hold timings, so they legitimately differ between runs.
TIMING_FILES = ("runtimes.csv",)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # qemlab sub-command
    config: Callable[[int], dict]  # seed -> config JSON
    check: Callable[[Artifacts], list]  # artifacts -> violated conditions
    mutations: tuple  # (label, artifacts -> wrong artifacts)


# ---------------------------------------------------------------------------
# artifact parsing and rewriting
# ---------------------------------------------------------------------------

def _rows(text: str) -> list[dict]:
    return [{k: float(v) for k, v in row.items()}
            for row in csv.DictReader(io.StringIO(text))]


def _csv(rows: list[dict]) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows({k: repr(v) for k, v in row.items()} for row in rows)
    return out.getvalue()


def _edit_rows(art: Artifacts, name: str, edit) -> Artifacts:
    rows = _rows(art[name])
    for row in rows:
        edit(row)
    return {**art, name: _csv(rows)}


def _edit_json(art: Artifacts, name: str, edit) -> Artifacts:
    payload = json.loads(art[name])
    edit(payload)
    return {**art, name: json.dumps(payload)}


def _moments(weights, xs) -> tuple[float, float]:
    mean = sum(w * x for w, x in zip(weights, xs))
    return mean, sum(w * x * x for w, x in zip(weights, xs)) - mean ** 2


def _marginal(rows: list[dict], axis: str) -> tuple[float, float]:
    mass: dict[float, float] = {}
    for row in rows:
        mass[row[axis]] = mass.get(row[axis], 0.0) + row["qem"]
    return _moments(mass.values(), mass.keys())


def _within(failures: list, label: str, value: float, target: float,
            tol: float) -> None:
    if not abs(value - target) <= tol:
        failures.append(f"{label} = {value!r}, want {target!r} +- {tol!r}")


# ---------------------------------------------------------------------------
# sweep_1d: criterion 02, small-noise stability on ternary_hole
# ---------------------------------------------------------------------------

SWEEP_EPS = (1e-2, 3e-3, 1e-3)


def sweep_config(seed: int) -> dict:
    return {"schema": 1, "system": {"label": "ternary_hole"},
            "grid": {"resolution": 2187}, "noise": {"epsilon": list(SWEEP_EPS)},
            "samples_per_cell": 3,
            "reference": {"kind": "equilibrium", "depth": 7}, "seed": seed}


def sweep_check(art: Artifacts) -> list:
    failures: list = []
    rows = _rows(art["sweep.csv"])
    if [r["epsilon"] for r in rows] != list(SWEEP_EPS):
        return [f"sweep.csv epsilons {[r['epsilon'] for r in rows]}"]
    for r in rows:
        _within(failures, f"lambda at eps {r['epsilon']:g}", r["lambda"],
                LAMBDA, 0.02 * LAMBDA)
    w1 = [r["w1"] for r in rows]
    if not w1[0] > w1[1] > w1[2]:
        failures.append(f"w1 not strictly decreasing as eps falls: {w1}")
    qem = _rows(art["qem_eps_0.001.csv"])
    mean, var = _moments([r["qem"] for r in qem], [r["center_x"] for r in qem])
    _within(failures, "qem mean at eps 1e-3", mean, 0.5, 0.01)
    _within(failures, "qem variance at eps 1e-3", var, 0.125, 0.01)
    return failures


def _uniform_qem(row):
    row["qem"] = 1.0 / 2187


def _left_half_qem(row):
    row["qem"] = row["qem"] * 2.0 if row["center_x"] < 0.5 else 0.0


def _swap_w1(art):
    rows = _rows(art["sweep.csv"])
    rows[1]["w1"], rows[2]["w1"] = rows[2]["w1"], rows[1]["w1"]
    return {**art, "sweep.csv": _csv(rows)}


SWEEP_MUTATIONS = (
    ("lambda off by 3% at eps 1e-2",
     lambda a: _edit_rows(a, "sweep.csv", lambda r: r.update(
         {"lambda": r["lambda"] * (0.97 if r["epsilon"] == 1e-2 else 1.0)}))),
    ("w1 not decreasing", _swap_w1),
    ("qem on the left half only (mean)",
     lambda a: _edit_rows(a, "qem_eps_0.001.csv", _left_half_qem)),
    ("uniform qem (variance)",
     lambda a: _edit_rows(a, "qem_eps_0.001.csv", _uniform_qem)),
)


# ---------------------------------------------------------------------------
# spectrum_2d: criterion 03, the open baker on 81^2 cells
# ---------------------------------------------------------------------------

def spectrum_config(seed: int) -> dict:
    return {"schema": 1, "system": {"label": "open_baker"},
            "grid": {"resolution": 81}, "noise": {"epsilon": 1e-3},
            "samples_per_cell": [3, 1], "seed": seed}


def spectrum_check(art: Artifacts) -> list:
    failures: list = []
    lam = json.loads(art["spectrum.json"])["lambda"]
    _within(failures, "lambda", lam, LAMBDA, 0.02 * LAMBDA)
    qem = _rows(art["qem.csv"])
    for axis in ("center_x", "center_y"):
        mean, var = _marginal(qem, axis)
        _within(failures, f"{axis} marginal mean", mean, 0.5, 0.01)
        _within(failures, f"{axis} marginal variance", var, 0.125, 0.012)
    return failures


def _uniform_qem_2d(row):
    row["qem"] = 1.0 / 81 ** 2


def _low_y_qem(row):
    row["qem"] = row["qem"] * 2.0 if row["center_y"] < 0.5 else 0.0


SPECTRUM_MUTATIONS = (
    ("lambda off by 3%", lambda a: _edit_json(
        a, "spectrum.json", lambda p: p.update({"lambda": p["lambda"] * 1.03}))),
    ("qem on the lower half in y (mean)",
     lambda a: _edit_rows(a, "qem.csv", _low_y_qem)),
    ("uniform qem (variance)", lambda a: _edit_rows(a, "qem.csv",
                                                    _uniform_qem_2d)),
)


# ---------------------------------------------------------------------------
# mc_1d: criteria 04 and 05, the conditioned particle ensemble
# ---------------------------------------------------------------------------

MC_OBSERVABLES = ("x", "x**2", "cos(2*pi*x)")

# "Within 3 standard errors" means a two-sided 99.73% interval under normal
# theory.  The CLI's standard errors come from a jackknife over 10 blocks, so
# the same coverage needs the Student-t quantile with 9 degrees of freedom.
# At 3.0 the three observables miss together on about 3% of seeds by chance
# (seed 35 gives x**2 at -3.3); this keeps each at the intended 0.27%.
MC_TOL_SE = 4.094


def mc_config(seed: int) -> dict:
    return {"schema": 1, "system": {"label": "ternary_hole"},
            "noise": {"epsilon": 1e-3},
            "mc": {"n": 4000, "n_particles": 10_000, "start": [0.1],
                   "observables": list(MC_OBSERVABLES)},
            "seed": seed}


def cantor_moments(depth: int = 7) -> dict:
    """Moments of the depth-k equilibrium oracle of ternary_hole.

    The zero-potential equilibrium state gives each of the 2^k surviving
    depth-k ternary cylinders mass 2^-k, spread uniformly over the cylinder.
    """
    width = 3.0 ** -depth
    lows = [0.0]
    for k in range(1, depth + 1):
        lows = [lo + d * 3.0 ** -k for lo in lows for d in (0, 2)]
    m = 1.0 / len(lows)
    c = 2.0 * math.pi
    return {
        "x": sum(m * (lo + width / 2) for lo in lows),
        "x**2": sum(m * ((lo + width) ** 3 - lo ** 3) / (3 * width)
                    for lo in lows),
        "cos(2*pi*x)": sum(m * (math.sin(c * (lo + width)) - math.sin(c * lo))
                           / (c * width) for lo in lows),
    }


CANTOR = cantor_moments()


def mc_check(art: Artifacts) -> list:
    failures: list = []
    stats = json.loads(art["mc.json"])
    _within(failures, "exp(-escape rate)",
            math.exp(-stats["escape_rate_estimate"]), LAMBDA, 0.02)
    for name in MC_OBSERVABLES:
        se = stats["standard_errors"][name]
        if not se > 0:
            failures.append(f"standard error of {name} = {se!r}")
            continue
        _within(failures, f"conditioned average of {name}",
                stats["averages"][name], CANTOR[name], MC_TOL_SE * se)
    return failures


def _shift_average(name):
    def edit(p):
        away = 1.0 if p["averages"][name] >= CANTOR[name] else -1.0
        p["averages"][name] += away * 5.0 * p["standard_errors"][name]
    return lambda a: _edit_json(a, "mc.json", edit)


MC_MUTATIONS = (
    ("escape rate of lambda 0.6",
     lambda a: _edit_json(a, "mc.json", lambda p: p.update(
         escape_rate_estimate=-math.log(0.6)))),
    *((f"{name} off by 5 standard errors", _shift_average(name))
      for name in MC_OBSERVABLES),
    ("zero standard error", lambda a: _edit_json(a, "mc.json", lambda p: p[
        "standard_errors"].update({"x": 0.0}))),
)


# ---------------------------------------------------------------------------
# strata_2rep: criterion 10, two repellers ordered by pressure
# ---------------------------------------------------------------------------

def strata_config(seed: int) -> dict:
    return {"schema": 1, "system": {"label": "two_repeller"},
            "grid": {"resolution": 1215}, "noise": {"epsilon": 1e-3},
            "samples_per_cell": 15, "seed": seed,
            "filtration": {
                "nodes": [{"id": 1, "pressure": math.log(3.0 / 5.0)},
                          {"id": 2, "pressure": math.log(2.0 / 3.0)}],
                "edges": [],
                "strata": {"2": [[[0.0], [1.0]]], "1": [[[2.0], [3.0]]]}}}


def strata_check(art: Artifacts) -> list:
    failures: list = []
    rep = json.loads(art["strata_report.json"])
    _within(failures, "lambda_global", rep["lambda_global"], LAMBDA, 1e-3)
    if not rep["deviation"] <= 1e-3:
        failures.append(f"deviation = {rep['deviation']!r} > 1e-3")
    if rep["argmax_key"] != 2:
        failures.append(f"argmax_key = {rep['argmax_key']!r}, want 2")
    _within(failures, "stratum-1 lambda", rep["per_stratum"]["1"], 0.6, 1e-3)
    return failures


def _set_report(**values):
    return lambda a: _edit_json(a, "strata_report.json",
                                lambda p: p.update(values))


STRATA_MUTATIONS = (
    ("lambda_global 0.67", _set_report(lambda_global=0.67)),
    ("deviation 2e-3", _set_report(deviation=2e-3)),
    ("argmax_key 1", _set_report(argmax_key=1)),
    ("stratum-1 lambda 0.602", lambda a: _edit_json(
        a, "strata_report.json", lambda p: p["per_stratum"].update({"1": 0.602}))),
)


# BENCHMARK.json lists all but spectrum_2d: four workloads fit only 32-second
# runs in the time allowed for all runs, too short to average out a shared
# host's drift.  spectrum_2d still runs by name and in --report.
WORKLOADS = {w.name: w for w in (
    Workload("sweep_1d", "sweep", sweep_config, sweep_check, SWEEP_MUTATIONS),
    Workload("spectrum_2d", "spectrum", spectrum_config, spectrum_check,
             SPECTRUM_MUTATIONS),
    Workload("mc_1d", "mc", mc_config, mc_check, MC_MUTATIONS),
    Workload("strata_2rep", "filtration", strata_config, strata_check,
             STRATA_MUTATIONS),
)}


def self_test(workload: Workload, art: Artifacts) -> list:
    """Labels of the mutations the workload's check fails to reject."""
    return [label for label, mutate in workload.mutations
            if not workload.check(mutate(art))]
