import json
import math

import numpy as np
import pytest

from qemlab.cli import (EXIT_CONFIG, EXIT_EXTINCT, EXIT_OK, ConfigError,
                        load_config, main)
from qemlab.equilibrium import TestDictionary, w1_1d, weak_star_discrepancy


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
    def test_round_trip(self, tmp_path):
        path, raw = write_config(tmp_path)
        cfg = load_config(path)
        assert cfg.to_dict() == raw
        assert json.dumps(cfg.to_dict(), sort_keys=True) \
            == json.dumps(raw, sort_keys=True)

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
            load_config(path)
        assert err.value.code == "bad-resolution"

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
    "mc": {"mc": {"n": 10, "n_particles": 100, "start": [0.1]}},
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

    def test_writes_block_diagnostics(self, tmp_path):
        path, _ = write_config(
            tmp_path, mc={"n": 200, "n_particles": 2000, "start": [0.1]})
        out = tmp_path / "out"
        assert main(["mc", "--config", path, "--out", str(out)]) == EXIT_OK
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["n_blocks"] == 10 and diag["extinct_blocks"] == 0
        assert len(diag["block_resamplings"]) == 10
        assert all(0.0 < f <= 1.0 for f in diag["block_min_ess_fraction"])
        payload = json.loads((out / "mc.json").read_text())
        assert max(diag["block_resamplings"]) <= payload["n_resamplings"]
        assert sorted(payload) == [
            "averages", "escape_rate_estimate", "n_particles", "n_resamplings",
            "n_steps", "standard_errors", "survival_fraction"]

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

    def test_stratified_report(self, tmp_path):
        cfg_extra = {
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
        path, _ = write_config(tmp_path, **cfg_extra)
        out = tmp_path / "out"
        assert main(["filtration", "--config", path, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "strata_report.json").read_text())
        assert report["deviation"] <= 1e-6
        assert abs(report["per_stratum"]["2"] - 2 / 3) < 1e-3
        assert abs(report["per_stratum"]["1"] - 3 / 5) < 1e-3


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

        mu, nu = (np.loadtxt(f, delimiter=",", skiprows=1) for f in files)
        centers = mu[:, 1:2]
        cell_width = float(np.min(np.diff(np.sort(centers[:, 0]))))
        disc = weak_star_discrepancy(mu[:, -1], nu[:, -1], TestDictionary(),
                                     centers)
        w1 = w1_1d(mu[:, -1], nu[:, -1], centers, cell_width)
        assert w1 > 0.0
        assert printed == [f"weak_star_discrepancy {disc!r}", f"w1 {w1!r}"]


class TestSeedOverride:
    def test_cli_seed_changes_metadata(self, tmp_path):
        path, _ = write_config(tmp_path)
        out = tmp_path / "out"
        main(["spectrum", "--config", path, "--out", str(out), "--seed", "99"])
        payload = json.loads((out / "spectrum.json").read_text())
        assert payload["metadata"]["seed"] == 99
