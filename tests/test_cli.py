import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qemlab

from qemlab.cli import (EXIT_CONFIG, EXIT_EXTINCT, EXIT_NUMERIC, EXIT_OK,
                        ConfigError, load_config, main)
from qemlab.dynamics import make_system
from qemlab.equilibrium import w1_1d, weak_star_discrepancy
from qemlab.ulam import GridPartition


def write_config(path, **overrides):
    cfg = {
        "schema": 1,
        "system": {"label": "ternary_hole"},
        "weight": {"kind": "zero"},
        "region": {"kind": "survivor"},
        "grid": {"resolution": 81},
        "noise": {"epsilon": 1e-3},
        "solver": {"tol": 1e-10, "max_iters": 100000},
        "samples_per_cell": 3,
        "seed": 7,
    }
    cfg.update(overrides)
    p = path / "config.json"
    p.write_text(json.dumps(cfg))
    return str(p), cfg


class TestConfigValidation:
    def test_missing_schema(self, tmp_path):
        path, _ = write_config(tmp_path, schema=99)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.code == "schema"

    def test_negative_epsilon(self, tmp_path):
        path, _ = write_config(tmp_path, noise={"epsilon": -0.5})
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.code == "negative-epsilon"

    def test_zero_resolution(self, tmp_path):
        path, _ = write_config(tmp_path, grid={"resolution": 0})
        with pytest.raises(ConfigError) as err:
            load_config(path).problem()
        assert err.value.code == "bad-resolution"

    def test_empty_grid_section_takes_the_default_resolution(self, tmp_path):
        path, _ = write_config(tmp_path, grid={})
        out = tmp_path / "out"
        assert main(["spectrum", "--config", path, "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "spectrum.json").read_text())[
            "metadata"]["resolution"] == 81
        assert len((out / "qem.csv").read_text().splitlines()) == 1 + 81

    def test_unknown_system(self, tmp_path):
        path, _ = write_config(tmp_path, system={"label": "lorenz96"})
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.code == "unknown-system"

    def test_missing_file(self):
        with pytest.raises(ConfigError) as err:
            load_config("/nonexistent/cfg.json")
        assert err.value.code == "missing-config"


# config additions that let each command reach its epsilon check
SINGLE_EPSILON_EXTRAS = {
    "spectrum": {},
    "mc": {"mc": {"n": 11, "n_particles": 100, "start": [0.1]}},
    "filtration": {"system": {"label": "two_repeller"},
                   "grid": {"resolution": 27},
                   "filtration": {
                       "nodes": [{"id": 1, "pressure": -0.5},
                                 {"id": 2, "pressure": -0.4}],
                       "strata": {"2": [[[0.0], [1.0]]], "1": [[[2.0], [3.0]]]}}},
}


@pytest.mark.parametrize("command", sorted(SINGLE_EPSILON_EXTRAS))
def test_single_epsilon_commands_reject_a_list(tmp_path, capsys, command):
    path, _ = write_config(tmp_path, noise={"epsilon": [1e-2, 1e-3]},
                           **SINGLE_EPSILON_EXTRAS[command])
    assert main([command, "--config", path,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "error[epsilon-list]" in capsys.readouterr().err


# config additions that each make spectrum fail, with the exit status and the
# diagnostic code it must give; None stands for a config that is not an object
MALFORMED = {
    "constant weight without log_value": (
        {"weight": {"kind": "constant"}}, EXIT_CONFIG, "bad-weight"),
    "region without boxes": ({"region": {"kind": "boxes"}}, EXIT_CONFIG,
                             "bad-region"),
    "parameter the system does not take": (
        {"system": {"label": "ternary_hole", "a": 0.1}}, EXIT_CONFIG,
        "bad-system"),
    "system parameter out of range": (
        {"system": {"label": "smooth_perturbed", "a": 0.1}}, EXIT_CONFIG,
        "bad-system"),
    "epsilon not a number": ({"noise": {"epsilon": "x"}}, EXIT_CONFIG,
                             "bad-epsilon"),
    "no strata": ({"samples_per_cell": 0}, EXIT_CONFIG, "bad-strata"),
    "config not an object": (None, EXIT_CONFIG, "schema"),
    "region off the domain": (
        {"region": {"kind": "boxes", "boxes": [[[5.0], [6.0]]]}}, EXIT_CONFIG,
        "empty-region"),
    "region too thin to cover a grid cell": (
        {"region": {"kind": "boxes", "boxes": [[[0.5], [0.5 + 1e-13]]]}},
        EXIT_CONFIG, "empty-region"),
    # [0.4, 0.5) maps onto [0.2, 0.5): without noise no mass ever returns
    "nilpotent operator": (
        {"region": {"kind": "boxes", "boxes": [[[0.4], [0.5]]]},
         "noise": {"epsilon": 0.0}}, EXIT_NUMERIC, "zero-operator"),
    "2-d region box on a 1-d system": (
        {"region": {"kind": "boxes", "boxes": [[[0, 0], [0.5, 0.5]]]}},
        EXIT_CONFIG, "bad-region"),
    "unknown region kind": (
        {"region": {"kind": "bogus", "boxes": [[[0.0], [0.5]]]}}, EXIT_CONFIG,
        "bad-region"),
    "2-d cutoff box on a 1-d system": (
        {"weight": {"kind": "zero", "cutoff": {"boxes": [[[0, 0], [0.5, 0.5]]],
                                               "taper_width": 0.05}}},
        EXIT_CONFIG, "bad-weight"),
    "cutoff with no boxes": (
        {"weight": {"kind": "zero", "cutoff": {"boxes": []}}}, EXIT_CONFIG,
        "bad-weight"),
    "grid not an object": ({"grid": 5}, EXIT_CONFIG, "schema"),
    "system not an object": ({"system": "ternary_hole"}, EXIT_CONFIG, "schema"),
    "seed not an integer": ({"seed": "x"}, EXIT_CONFIG, "schema"),
    "seed a boolean": ({"seed": True}, EXIT_CONFIG, "schema"),
    "resolution not an integer": ({"grid": {"resolution": "x"}}, EXIT_CONFIG,
                                  "bad-resolution"),
    "resolution a boolean": ({"grid": {"resolution": True}}, EXIT_CONFIG,
                             "bad-resolution"),
    "strata count not integral": ({"samples_per_cell": 2.5}, EXIT_CONFIG,
                                  "bad-strata"),
    "strata count a boolean": ({"samples_per_cell": True}, EXIT_CONFIG,
                               "bad-strata"),
    "per-axis strata count not integral": ({"samples_per_cell": [2.5]},
                                           EXIT_CONFIG, "bad-strata"),
    "per-axis strata count a boolean": ({"samples_per_cell": [True]},
                                        EXIT_CONFIG, "bad-strata"),
    "zero solver tolerance": ({"solver": {"tol": 0}}, EXIT_CONFIG, "bad-solver"),
    "zero solver iterations": ({"solver": {"tol": 1e-10, "max_iters": 0}},
                               EXIT_CONFIG, "bad-solver"),
    "solver iterations a boolean": (
        {"solver": {"tol": 1e-10, "max_iters": True}}, EXIT_CONFIG, "bad-solver"),
    "epsilon a boolean": ({"noise": {"epsilon": True}}, EXIT_CONFIG,
                          "bad-epsilon"),
    "solver tolerance a boolean": (
        {"solver": {"tol": True, "max_iters": 100000}}, EXIT_CONFIG, "bad-solver"),
    "weight log_value a boolean": (
        {"weight": {"kind": "constant", "log_value": True}}, EXIT_CONFIG,
        "bad-weight"),
    "weight log_value a numeric string": (
        {"weight": {"kind": "constant", "log_value": "0.5"}}, EXIT_CONFIG,
        "bad-weight"),
    "taper width a numeric string": (
        {"weight": {"kind": "zero", "cutoff": {"boxes": [[[0.0], [1.0]]],
                                               "taper_width": "0.05"}}},
        EXIT_CONFIG, "bad-weight"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_config_exits_with_its_code(tmp_path, capsys, case):
    extras, status, code = MALFORMED[case]
    path, _ = write_config(tmp_path, **{"grid": {"resolution": 27},
                                        **(extras or {})})
    if extras is None:
        (tmp_path / "config.json").write_text("[1]")
    assert main(["spectrum", "--config", path,
                 "--out", str(tmp_path / "o")]) == status
    err = capsys.readouterr().err
    assert f"error[{code}]" in err and "Traceback" not in err


MC = {"n": 11, "n_particles": 100, "start": [0.1]}


def graph_extras(edges=(), **second_node):
    """The filtration config with ``second_node`` updating node 2 and with
    ``edges``."""
    extras = SINGLE_EPSILON_EXTRAS["filtration"]
    first, second = extras["filtration"]["nodes"]
    return {**extras, "filtration": {
        **extras["filtration"], "nodes": [first, {**second, **second_node}],
        "edges": list(edges)}}


# config additions that each make a command other than spectrum fail with a
# config error: (command, additions, diagnostic code)
MALFORMED_BY_COMMAND = {
    "mc with no steps": ("mc", {"mc": {**MC, "n": 0}}, "bad-mc"),
    "mc steps a boolean": ("mc", {"mc": {**MC, "n": True}}, "bad-mc"),
    "mc with one particle": ("mc", {"mc": {**MC, "n_particles": 1}}, "bad-mc"),
    "mc observable with an unknown name": (
        "mc", {"mc": {**MC, "observables": ["foo(x)"]}}, "bad-mc"),
    "mc observable that does not parse": (
        "mc", {"mc": {**MC, "observables": ["x**"]}}, "bad-mc"),
    "mc start with two coordinates on a 1-d system": (
        "mc", {"mc": {**MC, "start": [0.1, 0.2]}}, "bad-mc"),
    "mc resample threshold a boolean": (
        "mc", {"mc": {**MC, "resample_threshold": True}}, "bad-mc"),
    "mc region off the domain": (
        "mc", {"mc": MC, "region": {"kind": "boxes", "boxes": [[[5.0], [6.0]]]}},
        "empty-region"),
    "sweep epsilon list entry a boolean": (
        "sweep", {"noise": {"epsilon": [1e-2, True]}}, "bad-epsilon"),
    # files and diagnostics keys are named by f"{eps:g}", so a shared label
    # would let one solve overwrite another's
    "sweep epsilons sharing a label": (
        "sweep", {"noise": {"epsilon": [0.01, 0.001, 0.0010000001]}},
        "epsilon-list"),
    "sweep epsilon repeated": (
        "sweep", {"noise": {"epsilon": [0.01, 0.001, 0.001]}}, "epsilon-list"),
    "sweep reference of depth 0": (
        "sweep", {"noise": {"epsilon": [1e-2, 1e-3]},
                  "reference": {"kind": "equilibrium", "depth": 0}},
        "bad-reference"),
    "sweep reference on a 2-d grid": (
        "sweep", {"system": {"label": "open_baker"}, "grid": {"resolution": 9},
                  "noise": {"epsilon": [1e-2, 1e-3]},
                  "reference": {"kind": "equilibrium", "depth": 3}},
        "bad-reference"),
    "sweep reference depth a string": (
        "sweep", {"noise": {"epsilon": [1e-2, 1e-3]},
                  "reference": {"kind": "equilibrium", "depth": "7"}},
        "bad-reference"),
    "sweep reference depth a boolean": (
        "sweep", {"noise": {"epsilon": [1e-2, 1e-3]},
                  "reference": {"kind": "equilibrium", "depth": True}},
        "bad-reference"),
    "filtration stratum with a 2-d box on a 1-d system": (
        "filtration", {**SINGLE_EPSILON_EXTRAS["filtration"], "filtration": {
            **SINGLE_EPSILON_EXTRAS["filtration"]["filtration"],
            "strata": {"2": [[[0.0, 0.0], [1.0, 1.0]]]}}}, "bad-region"),
    "filtration pressure a numeric string": (
        "filtration", graph_extras(pressure="0.5"), "bad-graph"),
    "filtration pressure a boolean": (
        "filtration", graph_extras(pressure=True), "bad-graph"),
    "filtration id with a fraction": (
        "filtration", graph_extras(id=2.7), "bad-graph"),
    "filtration id a boolean": (
        "filtration", graph_extras(id=False), "bad-graph"),
    "filtration id repeated": (
        "filtration", graph_extras(id=1), "bad-graph"),
    "filtration edge to an unknown node": (
        "filtration", graph_extras(edges=[[1, 3]]), "bad-graph"),
    "filtration edge end a float": (
        "filtration", graph_extras(edges=[[1, 2.0]]), "bad-graph"),
    "filtration strata not an object": (
        "filtration", {**SINGLE_EPSILON_EXTRAS["filtration"], "filtration": {
            **SINGLE_EPSILON_EXTRAS["filtration"]["filtration"],
            "strata": [[[0.0], [1.0]]]}}, "bad-region"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_BY_COMMAND))
def test_malformed_command_config_exits_with_its_code(tmp_path, capsys, case):
    command, extras, code = MALFORMED_BY_COMMAND[case]
    path, _ = write_config(tmp_path, **{"grid": {"resolution": 27}, **extras})
    assert main([command, "--config", path,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"error[{code}]" in err and "Traceback" not in err


# Python's json reads these as floats that are not finite, and the last as an
# integer past the float range
NON_FINITE = ("NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400)
X = "non-finite"  # where the number goes
FILTRATION = SINGLE_EPSILON_EXTRAS["filtration"]

# every number a config reads, placed by command, and the code it must give
NON_FINITE_BY_KEY = {
    "epsilon": ("mc", {"mc": MC, "noise": {"epsilon": X}}, "bad-epsilon"),
    "epsilon list entry": (
        "sweep", {"noise": {"epsilon": [1e-2, X]}}, "bad-epsilon"),
    "system parameter": (
        "spectrum", {"system": {"label": "smooth_perturbed", "a": X}},
        "bad-system"),
    "constant log_value": (
        "mc", {"mc": MC, "weight": {"kind": "constant", "log_value": X}},
        "bad-weight"),
    "constant log_value of a spectrum": (
        "spectrum", {"weight": {"kind": "constant", "log_value": X}},
        "bad-weight"),
    "taper width": (
        "spectrum", {"weight": {"kind": "zero", "cutoff": {
            "boxes": [[[0.0], [1.0]]], "taper_width": X}}}, "bad-weight"),
    "cutoff box coordinate": (
        "spectrum", {"weight": {"kind": "zero", "cutoff": {
            "boxes": [[[0.0], [X]]]}}}, "bad-weight"),
    "solver tol": ("spectrum", {"solver": {"tol": X}}, "bad-solver"),
    "resample threshold": (
        "mc", {"mc": {**MC, "resample_threshold": X}}, "bad-mc"),
    "start coordinate": ("mc", {"mc": {**MC, "start": [X]}}, "bad-mc"),
    "region box coordinate": (
        "spectrum", {"region": {"kind": "boxes", "boxes": [[[X], [0.5]]]}},
        "bad-region"),
    "region box coordinate of an mc run": (
        "mc", {"mc": MC, "region": {"kind": "boxes", "boxes": [[[0.0], [X]]]}},
        "bad-region"),
    "stratum box coordinate": (
        "filtration", {**FILTRATION, "filtration": {
            **FILTRATION["filtration"], "strata": {"2": [[[0.0], [X]]]}}},
        "bad-region"),
    "pressure": (
        "filtration", {**FILTRATION, "filtration": {
            **FILTRATION["filtration"], "nodes": [
                {"id": 1, "pressure": -0.5}, {"id": 2, "pressure": X}]}},
        "bad-graph"),
}


@pytest.mark.parametrize("token", NON_FINITE, ids=lambda t: t[:8])
@pytest.mark.parametrize("case", sorted(NON_FINITE_BY_KEY))
def test_a_number_that_is_not_finite_exits_with_its_code(tmp_path, capsys,
                                                         case, token):
    command, extras, code = NON_FINITE_BY_KEY[case]
    path, _ = write_config(tmp_path, **{"grid": {"resolution": 27}, **extras})
    text = Path(path).read_text()
    assert text.count(json.dumps(X)) == 1
    Path(path).write_text(text.replace(json.dumps(X), token))
    assert main([command, "--config", path,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"error[{code}]" in err and "Traceback" not in err


# ternary_hole's domain is [0, 1): a wider epsilon overflowed the noise draw
# (1e308) or the count of circle copies in the assembly (1e17, 1e20)
@pytest.mark.parametrize("epsilon", [1e308, 1e20, 1e17, 1.0 + 2.0 ** -52])
@pytest.mark.parametrize("command", ["mc", "spectrum", "sweep"])
def test_an_epsilon_wider_than_the_domain_exits_with_bad_epsilon(
        tmp_path, capsys, command, epsilon):
    path, _ = write_config(tmp_path, grid={"resolution": 27}, mc=MC, noise={
        "epsilon": [1e-2, epsilon] if command == "sweep" else epsilon})
    assert main([command, "--config", path,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "error[bad-epsilon]" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["mc", "spectrum", "sweep"])
def test_an_epsilon_as_wide_as_the_domain_runs(tmp_path, command):
    path, _ = write_config(tmp_path, grid={"resolution": 27}, mc=MC, noise={
        "epsilon": [0.5, 1.0] if command == "sweep" else 1.0})
    assert main([command, "--config", path,
                 "--out", str(tmp_path / "o")]) == EXIT_OK


# open_baker at 81^2 cells and epsilon 1 estimates about 4.7e8 assembly
# pairs; sweep takes its widest epsilon first, so neither assembles anything
@pytest.mark.parametrize("command", ["spectrum", "sweep"])
def test_a_dense_operator_exits_with_its_code(tmp_path, capsys, command):
    path, _ = write_config(tmp_path, system={"label": "open_baker"}, noise={
        "epsilon": [1e-3, 1.0] if command == "sweep" else 1.0})
    assert main([command, "--config", path,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "error[dense-operator]" in err and "Traceback" not in err


@pytest.mark.parametrize("command,flag", [
    ("spectrum", "--svg"), ("mc", "--svg"), ("filtration", "--svg"),
    ("sweep", "--export-matrix"), ("mc", "--export-matrix"),
    ("filtration", "--export-matrix")])
def test_flag_of_another_command_is_a_usage_error(tmp_path, command, flag):
    path, _ = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", path, "--out", str(tmp_path / "o"), flag])
    assert exc.value.code == 2


USAGE = qemlab.cli.__doc__.split("\n\n")[1].replace("\n    ", "\n").strip()


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command",
                         [[], ["spectrum"], ["mc"], ["sweep"], ["filtration"],
                          ["compare"]])
def test_help_prints_the_usage_and_exits_0(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([*command, flag])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out == USAGE + "\n" and err == ""


@pytest.mark.parametrize("argv", [
    [],
    ["nosuch", "--config", "{path}"],
    ["spectrum", "--out", "{out}"],
    ["spectrum", "--config"],
    ["spectrum", "--conf", "{path}"],
    ["spectrum", "--config", "{path}", "--seed", "x"],
    ["spectrum", "--config", "{path}", "--export-matrix=yes"],
    ["spectrum", "--config", "{path}", "extra"],
    ["compare", "{path}"],
    ["compare", "{path}", "{path}", "--dictionary", "4.5"],  # compare has no flag
], ids=lambda argv: " ".join(argv) or "nothing")
def test_usage_error_exits_2(tmp_path, capsys, argv):
    path, _ = write_config(tmp_path)
    argv = [w.format(path=path, out=tmp_path / "o") for w in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(USAGE) and "qemlab: error: " in err
    assert not (tmp_path / "o").exists()


def test_flag_values_may_follow_an_equals_sign(tmp_path):
    path, _ = write_config(tmp_path, grid={"resolution": 27})
    written = []
    for name, argv in (("a", ["--config", path, "--out", str(tmp_path / "a"),
                              "--export-matrix", "--seed", "3"]),
                       ("b", ["--seed=3", "--export-matrix",
                              f"--out={tmp_path / 'b'}", f"--config={path}"])):
        assert main(["spectrum", *argv]) == EXIT_OK
        written.append({f.name: f.read_bytes()
                        for f in sorted((tmp_path / name).iterdir())})
    assert written[0] == written[1] and "operator.json" in written[0]


def test_main_reads_sys_argv_when_given_none(tmp_path, monkeypatch):
    path, _ = write_config(tmp_path, grid={"resolution": 27})
    out = tmp_path / "o"
    monkeypatch.setattr(sys, "argv", ["qemlab", "spectrum", "--config", path,
                                      "--out", str(out)])
    assert main() == EXIT_OK
    assert (out / "spectrum.json").exists()


def _no_c_library(name):
    raise OSError(f"cannot load {name!r}")


@pytest.mark.parametrize("cdll", [lambda name: object(), _no_c_library],
                         ids=["no-mallopt", "no-library"])
def test_runs_where_the_c_library_has_no_mallopt(tmp_path, monkeypatch, cdll):
    monkeypatch.setattr(qemlab.cli.ctypes, "CDLL", cdll)
    path, _ = write_config(tmp_path, grid={"resolution": 27})
    assert main(["spectrum", "--config", path,
                 "--out", str(tmp_path / "o")]) == EXIT_OK


class TestSpectrumCommand:
    def test_writes_artifacts_and_lambda(self, tmp_path):
        path, _ = write_config(tmp_path, grid={"resolution": 243})
        out = tmp_path / "out"
        assert main(["spectrum", "--config", path, "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "spectrum.json").read_text())
        assert 0.647 <= payload["lambda"] <= 0.687
        header = (out / "qem.csv").read_text().splitlines()[0]
        assert header == "cell_index,center_x,right,left,qem"

    def test_byte_identical_reruns(self, tmp_path):
        path, _ = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["spectrum", "--config", path, "--out", str(out1)])
        main(["spectrum", "--config", path, "--out", str(out2)])
        assert (out1 / "qem.csv").read_bytes() == (out2 / "qem.csv").read_bytes()
        assert (out1 / "spectrum.json").read_bytes() \
            == (out2 / "spectrum.json").read_bytes()

    def test_writes_assembly_diagnostics(self, tmp_path):
        # 10 cells do not respect the branch points 1/3 and 2/3, so some
        # strata straddle a discontinuity and become point masses
        path, _ = write_config(tmp_path, grid={"resolution": 10},
                               samples_per_cell=1,
                               region={"kind": "custom",
                                       "boxes": [[[0.0], [1.0]]]})
        out = tmp_path / "out"
        assert main(["spectrum", "--config", path, "--out", str(out)]) == EXIT_OK
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag == {"absorbed_strata": 0, "point_mass_strata": 2}
        assert "point_mass_strata" not in (out / "spectrum.json").read_text()

    def test_config_error_exit_code(self, tmp_path):
        path, _ = write_config(tmp_path, grid={"resolution": 0})
        assert main(["spectrum", "--config", path,
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_custom_region_boxes(self, tmp_path):
        # explicit boxes equal to the survivor region reproduce its spectrum
        custom = {"boxes": [[[0.0], [1 / 3]], [[2 / 3], [1.0]]]}
        p_default, _ = write_config(tmp_path, grid={"resolution": 27})
        cfg_dir = tmp_path / "custom"
        cfg_dir.mkdir()
        p_custom, _ = write_config(cfg_dir, grid={"resolution": 27},
                                   region=custom)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["spectrum", "--config", p_default, "--out", str(out1)])
        main(["spectrum", "--config", p_custom, "--out", str(out2)])
        lam1 = json.loads((out1 / "spectrum.json").read_text())["lambda"]
        lam2 = json.loads((out2 / "spectrum.json").read_text())["lambda"]
        assert abs(lam1 - lam2) < 1e-12

    def test_cutoff_covering_the_circle_leaves_the_spectrum(self, tmp_path):
        # a cutoff with no boundary tapers nothing: the weight stays e^phi
        cutoff = {"kind": "zero",
                  "cutoff": {"boxes": [[[0.0], [1.0]]], "taper_width": 0.05}}
        lams = []
        for name, weight in (("plain", {"kind": "zero"}), ("cut", cutoff)):
            (tmp_path / name).mkdir()
            path, _ = write_config(tmp_path / name, grid={"resolution": 27},
                                   weight=weight)
            out = tmp_path / name / "out"
            assert main(["spectrum", "--config", path, "--out", str(out)]) == EXIT_OK
            lams.append(json.loads((out / "spectrum.json").read_text())["lambda"])
        assert lams[0] == lams[1]

    def test_matrix_export_flag(self, tmp_path):
        path, _ = write_config(tmp_path, grid={"resolution": 27})
        out = tmp_path / "out"
        assert main(["spectrum", "--config", path, "--out", str(out),
                     "--export-matrix"]) == EXIT_OK
        from qemlab.ulam import load_matrix
        M = load_matrix(out / "operator.json")
        assert M.n_cells == 27


class TestMcCommand:
    def test_writes_stats(self, tmp_path):
        path, _ = write_config(
            tmp_path, mc={"n": 300, "n_particles": 1000,
                          "observables": ["x", "0*x+1"], "start": [0.1]})
        out = tmp_path / "out"
        assert main(["mc", "--config", path, "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "mc.json").read_text())
        assert payload["averages"]["0*x+1"] == 1.0
        assert abs(payload["averages"]["x"] - 0.5) < 0.1
        assert (out / "mass_series.csv").exists()

    def test_writes_population_diagnostics(self, tmp_path):
        path, _ = write_config(
            tmp_path, mc={"n": 200, "n_particles": 2000, "start": [0.1]})
        out = tmp_path / "out"
        assert main(["mc", "--config", path, "--out", str(out)]) == EXIT_OK
        diag = json.loads((out / "diagnostics.json").read_text())
        payload = json.loads((out / "mc.json").read_text())
        assert diag["resamplings"] == payload["n_resamplings"] > 0
        assert 0.0 < diag["min_ess_fraction"] < 0.5
        assert diag["records"] == 19
        assert (diag["lag"], diag["record_every"], diag["batches"]) == (10, 10, 20)
        assert sorted(payload) == [
            "averages", "escape_rate_estimate", "n_particles", "n_resamplings",
            "n_steps", "standard_errors", "survival_fraction"]

    def test_horizon_without_a_record_names_the_shortest(self, tmp_path,
                                                          capsys):
        path, _ = write_config(tmp_path, mc={**MC, "n": 10})
        assert main(["mc", "--config", path,
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "error[bad-mc]" in err and "n >= 11" in err

    def test_builds_no_grid(self, tmp_path, monkeypatch):
        # the particle route reads no grid, so it neither builds one nor
        # checks the strata of one
        from qemlab import cli

        def no_grid(*args, **kwargs):
            raise AssertionError("mc builds no grid")

        monkeypatch.setattr(cli, "GridPartition", no_grid)
        path, _ = write_config(tmp_path, samples_per_cell=0, mc=MC)
        out = tmp_path / "out"
        assert main(["mc", "--config", path, "--out", str(out)]) == EXIT_OK
        assert (out / "mc.json").exists()

    def test_reads_no_resolution(self, tmp_path):
        # grid.resolution is read by the grid alone, so mc does not check it
        path, _ = write_config(tmp_path, grid={"resolution": 0}, mc=MC)
        assert main(["mc", "--config", path,
                     "--out", str(tmp_path / "o")]) == EXIT_OK

    def test_extinct_exit_code(self, tmp_path):
        path, _ = write_config(
            tmp_path, noise={"epsilon": 0.0},
            mc={"n": 50, "n_particles": 50, "observables": ["x"],
                "start": [0.5]})
        assert main(["mc", "--config", path,
                     "--out", str(tmp_path / "o")]) == EXIT_EXTINCT


class TestSweepCommand:
    def test_requires_two_epsilons(self, tmp_path):
        path, _ = write_config(tmp_path, noise={"epsilon": [1e-3]})
        assert main(["sweep", "--config", path,
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_sweep_table(self, tmp_path):
        path, _ = write_config(
            tmp_path, grid={"resolution": 243},
            noise={"epsilon": [1e-2, 3e-3, 1e-3]},
            reference={"kind": "equilibrium", "depth": 7})
        out = tmp_path / "out"
        assert main(["sweep", "--config", path, "--out", str(out),
                     "--svg"]) == EXIT_OK
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "epsilon,lambda,gap_ratio,discrepancy,w1"
        rows = [line.split(",") for line in lines[1:]]
        eps = [float(r[0]) for r in rows]
        assert eps == sorted(eps, reverse=True)
        lams = [float(r[1]) for r in rows]
        assert all(0.0 < l <= 1.0 for l in lams)
        for eps_val in ("0.01", "0.003", "0.001"):
            assert (out / f"qem_eps_{eps_val}.csv").exists()
        assert (out / "series_lambda.txt").exists()
        assert (out / "sweep_lambda.svg").exists()
        assert (out / "runtimes.csv").exists()
        assert not (out / "sweep_status.json").exists()

    def test_sweep_diagnostics_per_epsilon(self, tmp_path):
        path, _ = write_config(tmp_path, grid={"resolution": 81},
                               noise={"epsilon": [3e-3, 1e-3]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", path, "--out", str(out)]) == EXIT_OK
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag == {eps: {"absorbed_strata": 0, "point_mass_strata": 0}
                        for eps in ("0.003", "0.001")}

    def test_sweep_reruns_byte_identical(self, tmp_path):
        path, _ = write_config(tmp_path, grid={"resolution": 81},
                               noise={"epsilon": [3e-3, 1e-3]})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["sweep", "--config", path, "--out", str(out1)])
        main(["sweep", "--config", path, "--out", str(out2)])
        for name in ("sweep.csv", "qem_eps_0.001.csv", "series_lambda.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_partial_failure_flagged(self, tmp_path, monkeypatch):
        import qemlab.cli as cli
        from qemlab.spectral import NonConvergenceError
        real = cli.solve_triple

        def flaky(matrix, **kw):
            if matrix.metadata["epsilon"] == 3e-3:
                raise NonConvergenceError("stub failure", 1.0, 3)
            return real(matrix, **kw)

        monkeypatch.setattr(cli, "solve_triple", flaky)
        path, _ = write_config(tmp_path, grid={"resolution": 81},
                               noise={"epsilon": [1e-2, 3e-3, 1e-3]})
        out = tmp_path / "out"
        code = main(["sweep", "--config", path, "--out", str(out)])
        assert code == 3
        status = json.loads((out / "sweep_status.json").read_text())
        assert status["partial"] is True
        assert "0.003" in status["failed_epsilons"]
        assert (out / "qem_eps_0.01.csv").exists()
        assert not (out / "qem_eps_0.003.csv").exists()

    def test_a_failure_that_is_not_numerical_is_not_recorded(self, tmp_path,
                                                             monkeypatch):
        import qemlab.cli as cli

        def broken(matrix, **kw):
            raise AttributeError("a programming error")

        monkeypatch.setattr(cli, "solve_triple", broken)
        path, _ = write_config(tmp_path, grid={"resolution": 27},
                               noise={"epsilon": [1e-2, 1e-3]})
        out = tmp_path / "out"
        with pytest.raises(AttributeError):
            main(["sweep", "--config", path, "--out", str(out)])
        assert not (out / "sweep_status.json").exists()


class TestFiltrationCommand:
    GRAPH = {
        "nodes": [{"id": i, "pressure": 0.1 * i} for i in range(1, 8)],
        "edges": [[1, 4], [4, 2], [2, 7], [5, 6]],
    }

    def test_sequence_file(self, tmp_path):
        path, _ = write_config(tmp_path, filtration=self.GRAPH)
        out = tmp_path / "out"
        assert main(["filtration", "--config", path, "--out", str(out)]) == EXIT_OK
        assert (out / "sequence.txt").read_text().strip() == "1>4>2>7>5>6>3"
        order = json.loads((out / "order.json").read_text())
        assert order["indices"] == [4, 2, 1]
        assert order["subgraphs"] == [[1, 4, 2, 7], [5, 6], [3]]

    def test_without_strata_reads_no_resolution(self, tmp_path):
        # only the strata build a grid, so the graph alone skips the check
        path, _ = write_config(tmp_path, grid={"resolution": 0},
                               filtration=self.GRAPH)
        out = tmp_path / "out"
        assert main(["filtration", "--config", path, "--out", str(out)]) == EXIT_OK
        assert (out / "sequence.txt").read_text().strip() == "1>4>2>7>5>6>3"

    def test_cycle_rejected(self, tmp_path, capsys):
        bad = {"nodes": [{"id": 1, "pressure": 0.1},
                         {"id": 2, "pressure": 0.2}],
               "edges": [[1, 2], [2, 1]]}
        path, _ = write_config(tmp_path, filtration=bad)
        assert main(["filtration", "--config", path,
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "graph-cycle" in err and "cycle" in err

    def test_pressure_tie_rejected(self, tmp_path):
        bad = {"nodes": [{"id": 1, "pressure": 0.3},
                         {"id": 2, "pressure": 0.3}], "edges": []}
        path, _ = write_config(tmp_path, filtration=bad)
        assert main(["filtration", "--config", path,
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    TWO_REPELLER = {
        "system": {"label": "two_repeller"},
        "grid": {"resolution": 135},
        "samples_per_cell": 15,
        "filtration": {
            "nodes": [{"id": 1, "pressure": math.log(3 / 5)},
                      {"id": 2, "pressure": math.log(2 / 3)}],
            "edges": [],
            "strata": {"2": [[[0.0], [1.0]]], "1": [[[2.0], [3.0]]]},
        },
    }

    def test_stratified_report(self, tmp_path):
        path, _ = write_config(tmp_path, **self.TWO_REPELLER)
        out = tmp_path / "out"
        assert main(["filtration", "--config", path, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "strata_report.json").read_text())
        assert report["deviation"] <= 1e-6
        assert abs(report["per_stratum"]["2"] - 2 / 3) < 1e-3
        assert abs(report["per_stratum"]["1"] - 3 / 5) < 1e-3

    @pytest.mark.parametrize("extra,code", [
        # about 1.7e7 pairs estimated: too dense to assemble
        ({"grid": {"resolution": 1215}, "noise": {"epsilon": 0.3}},
         "dense-operator"),
        ({"grid": {"resolution": 0}}, "bad-resolution"),
    ], ids=["dense", "no-resolution"])
    def test_failing_strata_write_nothing(self, tmp_path, capsys, extra, code):
        path, _ = write_config(tmp_path, **{**self.TWO_REPELLER, **extra})
        out = tmp_path / "out"
        assert main(["filtration", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert f"error[{code}]" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_report_solves_no_left_eigenvector(self, tmp_path, monkeypatch):
        # strata_report.json holds eigenvalues only
        from qemlab import spectral

        path, _ = write_config(tmp_path, **self.TWO_REPELLER)
        assert main(["filtration", "--config", path,
                     "--out", str(tmp_path / "a")]) == EXIT_OK

        def no_left(*args, **kwargs):
            raise AssertionError("filtration solves no left eigenvector")

        monkeypatch.setattr(spectral, "leading_left", no_left)
        assert main(["filtration", "--config", path,
                     "--out", str(tmp_path / "b")]) == EXIT_OK
        report = "strata_report.json"
        assert ((tmp_path / "a" / report).read_bytes()
                == (tmp_path / "b" / report).read_bytes())

    def test_stratified_diagnostics(self, tmp_path):
        path, _ = write_config(tmp_path, **SINGLE_EPSILON_EXTRAS["filtration"])
        out = tmp_path / "out"
        assert main(["filtration", "--config", path, "--out", str(out)]) == EXIT_OK
        diag = json.loads((out / "diagnostics.json").read_text())
        assert sorted(diag) == ["absorbed_strata", "point_mass_strata"]


class TestCompareCommand:
    def test_compare_two_qem_files(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, grid={"resolution": 81})
        out = tmp_path / "out"
        main(["spectrum", "--config", path, "--out", str(out)])
        code = main(["compare", str(out / "qem.csv"), str(out / "qem.csv")])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "weak_star_discrepancy 0.0" in text
        assert "w1 0.0" in text

    def test_compare_prints_library_metrics(self, tmp_path, capsys):
        # the W1 that sweep computes: the masses at the grid's centers, with
        # no cell width read off the file
        files = []
        for eps in (1e-2, 1e-3):
            cfg_dir = tmp_path / f"eps_{eps:g}"
            cfg_dir.mkdir()
            path, _ = write_config(cfg_dir, grid={"resolution": 243},
                                   noise={"epsilon": eps}, seed=1)
            main(["spectrum", "--config", path, "--out", str(cfg_dir)])
            files.append(str(cfg_dir / "qem.csv"))
        capsys.readouterr()
        assert main(["compare", *files]) == EXIT_OK
        printed = capsys.readouterr().out.splitlines()

        mu, nu = (np.loadtxt(f, delimiter=",", skiprows=1)[:, -1] for f in files)
        centers = GridPartition(make_system("ternary_hole").system.domain,
                                243).centers()
        disc = weak_star_discrepancy(mu, nu, centers)
        w1 = w1_1d(mu, nu, centers)
        assert w1 == pytest.approx(0.0013664581174186608, rel=1e-12)
        assert printed == [f"weak_star_discrepancy {disc!r}", f"w1 {w1!r}"]


# config additions and flags of the three commands that read no seed; at 405
# cells per box one filtration stratum falls back to a point mass at its
# midpoint image, so a seed-dependent midpoint would show there
SEED_FREE = {
    "spectrum": ({}, ["--export-matrix"]),
    "sweep": ({"noise": {"epsilon": [1e-2, 3e-3, 1e-3]},
               "reference": {"kind": "equilibrium", "depth": 7}}, ["--svg"]),
    "filtration": ({**TestFiltrationCommand.TWO_REPELLER,
                    "grid": {"resolution": 405}}, []),
}


@pytest.mark.parametrize("command", sorted(SEED_FREE))
def test_stratified_outputs_do_not_depend_on_the_seed(tmp_path, command):
    extras, flags = SEED_FREE[command]
    path, _ = write_config(tmp_path, **extras)
    written = []
    for seed in ("1", "2"):
        out = tmp_path / f"seed{seed}"
        assert main([command, "--config", path, "--out", str(out),
                     "--seed", seed, *flags]) == EXIT_OK
        written.append({f.name: f.read_bytes() for f in sorted(out.iterdir())
                        if f.name != "runtimes.csv"})
    assert written[0] == written[1]


class TestSeedOverride:
    def test_cli_seed_acts_as_the_config_seed(self, tmp_path):
        mc = {"n": 50, "n_particles": 1000, "start": [0.1]}
        written = []
        for seed, flags in ((7, ["--seed", "99"]), (99, []), (7, [])):
            cfg_dir = tmp_path / f"{seed}{''.join(flags)}"
            cfg_dir.mkdir()
            path, _ = write_config(cfg_dir, mc=mc, seed=seed)
            out = cfg_dir / "out"
            assert main(["mc", "--config", path, "--out", str(out),
                         *flags]) == EXIT_OK
            written.append([(out / name).read_bytes() for name in
                            ("mc.json", "mass_series.csv", "diagnostics.json")])
        assert written[0] == written[1] != written[2]

    def test_negative_cli_seed_is_a_config_error(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, grid={"resolution": 27})
        for seed in (["--seed", "-1"], ["--seed=-1"]):
            assert main(["spectrum", "--config", path, "--out",
                         str(tmp_path / "o"), *seed]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert "error[schema]" in err and "Traceback" not in err


def _loads(module: str, code: str, cwd) -> bool:
    """Whether a fresh interpreter running ``code`` has loaded ``module``."""
    env = {**os.environ,
           "PYTHONPATH": str(Path(qemlab.__file__).resolve().parents[1])}
    script = f"import sys\n{code}\nprint({module!r} in sys.modules)"
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.split()[-1] == "True"


def test_spectrum_does_not_import_numpy_random(tmp_path):
    if _loads("numpy.random", "import numpy", tmp_path):
        pytest.skip("this numpy loads numpy.random on import")
    path, _ = write_config(tmp_path, grid={"resolution": 27})
    assert not _loads(
        "numpy.random",
        "from qemlab.cli import main\n"
        f"assert main(['spectrum', '--config', {path!r}, '--out', 'o']) == 0",
        tmp_path)


def test_cli_does_not_import_argparse(tmp_path):
    if _loads("argparse", "import numpy", tmp_path):
        pytest.skip("this numpy loads argparse on import")
    assert not _loads("argparse", "import qemlab.cli", tmp_path)
