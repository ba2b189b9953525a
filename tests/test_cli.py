"""Command-line runner: artifacts, determinism, exit codes."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from mfpmp import checks, cli, forward
from mfpmp.adjoint import integrate_backward
from mfpmp.cli import RESOLUTION_TAIL_MAX, _tail_ratio, main
from mfpmp.config import parse_config_dict
from mfpmp.forward import density_min, integrate_forward
from mfpmp.spectral import reconstruct_rows

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def tiny_doc(out_dir, command="optimize", **updates):
    doc = {
        "command": command,
        "model": {"alpha": 0.0, "x0": np.pi,
                  "constraint": {"kind": "ball", "radius": np.sqrt(2.0)}},
        "grid": {"T": 0.4, "tau": 0.005, "n_modes": 32},
        "initial_density": "fig1",
        "initial_control": "fig1",
        "descent": {"k_max": 8},
        "output_dir": str(out_dir),
        "snapshot_times": [0.0, 0.4],
        "adjoint_snapshots": True,
    }
    doc.update(updates)
    return doc


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestSolveForward:
    def test_zero_control_snapshots_are_identical(self, tmp_path):
        out = tmp_path / "out"
        doc = tiny_doc(out, command="solve-forward",
                       initial_control={"constant": [0.0, 0.0]})
        code = main(["solve-forward", "--config", str(write_config(tmp_path, doc))])
        assert code == 0
        header, rows = read_csv(out / "density_snapshots.csv")
        assert header == ["t", "x", "value"]
        first = [r[2] for r in rows if r[0] == "0.0"]
        last = [r[2] for r in rows if r[0] != "0.0"]
        assert first and first == last  # byte-identical value columns
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mass_drift"] == 0.0
        assert abs(summary["terminal_cost"] - 1.0) < 1e-12

    def test_expanded_config_is_echoed(self, tmp_path):
        out = tmp_path / "out"
        doc = tiny_doc(out, command="solve-forward")
        main(["solve-forward", "--config", str(write_config(tmp_path, doc))])
        echoed = json.loads((out / "config_expanded.json").read_text())
        assert echoed["command"] == "solve-forward"
        assert "values" in echoed["initial_control"]
        assert echoed["descent"]["theta"] == 0.5


class TestSolveAdjoint:
    def test_writes_both_snapshot_families(self, tmp_path):
        out = tmp_path / "out"
        doc = tiny_doc(out, command="solve-adjoint")
        code = main(["solve-adjoint", "--config", str(write_config(tmp_path, doc))])
        assert code == 0
        assert (out / "density_snapshots.csv").exists()
        assert (out / "adjoint_snapshots.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["adjoint_max_coeff"] > 0.0

    def test_a_half_node_time_snaps_to_a_full_node_of_the_co_density(self, tmp_path):
        # At tau = 0.005, t = 0.0025 is a node of the forward lattice only.
        out = tmp_path / "out"
        doc = tiny_doc(out, command="solve-adjoint", snapshot_times=[0.0, 0.0025, 0.4])
        assert main(["solve-adjoint", "--config", str(write_config(tmp_path, doc))]) == 0
        density_times = [r[0] for r in read_csv(out / "density_snapshots.csv")[1]]
        adjoint_times = [r[0] for r in read_csv(out / "adjoint_snapshots.csv")[1]]
        assert sorted(set(density_times)) == ["0.0", "0.0025", "0.4"]
        assert sorted(set(adjoint_times)) == ["0.0", "0.4"]
        assert len(adjoint_times) == len(density_times)  # 0.0025 is dumped at t = 0


class TestOptimize:
    def test_artifacts_and_summary(self, tmp_path):
        out = tmp_path / "out"
        doc = tiny_doc(out)
        code = main(["optimize", "--config", str(write_config(tmp_path, doc))])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final_cost"] <= summary["initial_cost"]
        assert summary["iterations"] >= 1
        header, rows = read_csv(out / "convergence.csv")
        assert header == ["k", "cost", "non_extremality", "lambda",
                          "backtrack_count", "wall_time"]
        costs = [float(r[1]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
        header, rows = read_csv(out / "control_final.csv")
        assert header == ["t", "u1", "u2"]
        assert len(rows) == 81
        assert (out / "density_snapshots.csv").exists()
        assert (out / "adjoint_snapshots.csv").exists()

    def test_the_final_solve_reuses_the_last_accepted_checkpoints(self, tmp_path, monkeypatch):
        # On T = 1 the steps go j = 0, 1, 0, 1: the last one keeps its bits
        # through the projection, so its checkpoints serve the final solve.
        doc = tiny_doc(tmp_path / "out", descent={"k_max": 4}, snapshot_times=[0.0, 1.0])
        doc["grid"]["T"] = 1.0
        reused = []

        def spy(rho0, u, model, grid, starts=None):
            reused.append(forward._resumable(starts, rho0, u))
            return integrate_forward(rho0, u, model, grid, starts)

        monkeypatch.setattr(cli, "integrate_forward", spy)
        assert main(["optimize", "--config", str(write_config(tmp_path, doc))]) == 0
        assert reused == [True]

    def test_repeated_runs_are_byte_identical_except_timings(self, tmp_path):
        doc_a = tiny_doc(tmp_path / "a")
        doc_b = tiny_doc(tmp_path / "b")
        assert main(["optimize", "--config", str(write_config(tmp_path, doc_a, "a.json"))]) == 0
        assert main(["optimize", "--config", str(write_config(tmp_path, doc_b, "b.json"))]) == 0

        sa = json.loads((tmp_path / "a" / "summary.json").read_text())
        sb = json.loads((tmp_path / "b" / "summary.json").read_text())
        sa.pop("timings"), sb.pop("timings")
        assert sa == sb

        for name in ("control_final.csv", "density_snapshots.csv"):
            va = (tmp_path / "a" / name).read_bytes()
            vb = (tmp_path / "b" / name).read_bytes()
            assert va == vb

        ea = json.loads((tmp_path / "a" / "config_expanded.json").read_text())
        eb = json.loads((tmp_path / "b" / "config_expanded.json").read_text())
        ea.pop("output_dir"), eb.pop("output_dir")
        assert ea == eb

        ca = [r[:5] for r in read_csv(tmp_path / "a" / "convergence.csv")[1]]
        cb = [r[:5] for r in read_csv(tmp_path / "b" / "convergence.csv")[1]]
        assert ca == cb  # identical up to the wall_time column

    def test_output_flag_overrides_the_configured_directory(self, tmp_path):
        doc = tiny_doc(tmp_path / "ignored")
        target = tmp_path / "chosen"
        code = main(["optimize", "--config", str(write_config(tmp_path, doc)),
                     "--output", str(target)])
        assert code == 0
        assert (target / "summary.json").exists()
        assert not (tmp_path / "ignored").exists()


def stderr_records(capsys):
    """The JSON records among the stderr lines (optimize also prints progress lines)."""
    lines = capsys.readouterr().err.strip().splitlines()
    return [json.loads(line) for line in lines if line.startswith("{")]


class TestResolution:
    def test_resolved_adjoint_solve_reports_without_a_warning(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = tiny_doc(out, command="solve-adjoint")
        assert main(["solve-adjoint", "--config", str(write_config(tmp_path, doc))]) == 0
        res = json.loads((out / "summary.json").read_text())["resolution"]
        assert res["resolved"] is True
        assert 0.0 <= res["density_tail_ratio"] <= res["tail_threshold"] == RESOLUTION_TAIL_MAX
        assert 0.0 <= res["adjoint_tail_ratio"] <= RESOLUTION_TAIL_MAX
        # One minimum per snapshot, equal to the smallest dumped value there.
        _, rows = read_csv(out / "density_snapshots.csv")
        assert [m["t"] for m in res["snapshot_density_min"]] == [0.0, 0.4]
        for entry in res["snapshot_density_min"]:
            dumped = min(float(r[2]) for r in rows if float(r[0]) == entry["t"])
            assert entry["value"] == dumped
        assert stderr_records(capsys) == []

    def test_tail_above_the_threshold_warns_once(self, tmp_path, capsys):
        out = tmp_path / "out"
        mass = 1.0 / (2.0 * np.pi)
        doc = tiny_doc(out, command="solve-forward",
                       initial_density={"harmonics": {"0": [mass, 0.0], "16": [1e-3, 0.0]}})
        assert main(["solve-forward", "--config", str(write_config(tmp_path, doc))]) == 0
        res = json.loads((out / "summary.json").read_text())["resolution"]
        assert res["resolved"] is False
        assert res["density_tail_ratio"] >= 1e-3 / mass * (1.0 - 1e-12)
        assert "adjoint_tail_ratio" not in res  # no co-density was solved
        records = stderr_records(capsys)
        assert len(records) == 1
        assert records[0]["warning"]["category"] == "resolution"

    def test_blocked_sweeps_equal_one_sweep(self, tmp_path, monkeypatch):
        # The diagnostics sweep a trajectory DIAGNOSTIC_ROWS rows at a time;
        # minima and maxima are exact, so the block size changes no byte.
        summaries = []
        for rows in (3, 10**6):
            monkeypatch.setattr(forward, "DIAGNOSTIC_ROWS", rows)
            out = tmp_path / str(rows)
            doc = tiny_doc(out, command="solve-adjoint")
            assert main(["solve-adjoint", "--config", str(write_config(tmp_path, doc))]) == 0
            summary = json.loads((out / "summary.json").read_text())
            summary.pop("timings")
            summaries.append(summary)
        assert summaries[0] == summaries[1]

        cfg = parse_config_dict(tiny_doc(tmp_path / "direct", command="solve-adjoint"))
        traj = integrate_forward(cfg.rho0, cfg.u0, cfg.model, cfg.grid)
        cotraj = integrate_backward(traj, cfg.u0, cfg.model)
        assert traj.n_snapshots > 40 * 3
        one_sweep = float(reconstruct_rows(traj.coeffs).min())
        monkeypatch.setattr(forward, "DIAGNOSTIC_ROWS", 3)
        assert density_min(traj) == one_sweep == summaries[0]["density_min"]
        assert summaries[0]["adjoint_max_coeff"] == float(np.abs(cotraj.coeffs).max())
        assert summaries[0]["resolution"]["adjoint_tail_ratio"] == _tail_ratio(
            cotraj.coeffs, np.abs(cotraj.coeffs).max(axis=1))

    def test_optimize_reports_both_fields(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = tiny_doc(out, descent={"k_max": 2})
        assert main(["optimize", "--config", str(write_config(tmp_path, doc))]) == 0
        res = json.loads((out / "summary.json").read_text())["resolution"]
        ratios = [res["density_tail_ratio"], res["adjoint_tail_ratio"]]
        assert res["resolved"] is all(r <= RESOLUTION_TAIL_MAX for r in ratios)
        assert len(res["snapshot_density_min"]) == 2
        assert len(stderr_records(capsys)) == (0 if res["resolved"] else 1)


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["optimize", "--config", str(missing)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["category"] == "config"

    def test_unknown_key_is_2(self, tmp_path):
        doc = tiny_doc(tmp_path / "out", typo=True)
        assert main(["optimize", "--config", str(write_config(tmp_path, doc))]) == 2

    def test_divergence_is_3(self, tmp_path, capsys):
        doc = tiny_doc(tmp_path / "out", command="solve-forward",
                       initial_control={"constant": [1500.0, 0.0]})
        doc["model"]["constraint"] = {"kind": "ball", "radius": 2000.0}
        doc["grid"] = {"T": 10.0, "tau": 0.1, "n_modes": 64}
        doc["snapshot_times"] = []
        assert main(["solve-forward", "--config", str(write_config(tmp_path, doc))]) == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["category"] == "divergence"

    def test_line_search_failure_is_4(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = tiny_doc(out, descent={"k_max": 8, "j_max": 0, "c": 0.99})
        assert main(["optimize", "--config", str(write_config(tmp_path, doc))]) == 4
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "line-search-failed"
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["category"] == "line-search"

    @staticmethod
    def assert_config_error_before_any_artifact(tmp_path, capsys, monkeypatch, override):
        """Exit 2 with one JSON `config` record, and nothing written but the config."""
        monkeypatch.chdir(tmp_path)  # a relative output_dir would land here
        doc = tiny_doc(tmp_path / "out", command="solve-forward")
        code = main(["solve-forward", "--config", str(write_config(tmp_path, doc)),
                     "--override", override])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["category"] == "config"
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("override", [
        "model.alpha=NaN",
        "grid.T=Infinity",
        "descent.c=-Infinity",
        "snapshot_times=[NaN]",
        "initial_control.constant=[NaN, 0.0]",
        'initial_density.harmonics={"0": [NaN, 0.0]}',
    ])
    def test_non_finite_numbers_are_2(self, tmp_path, capsys, monkeypatch, override):
        self.assert_config_error_before_any_artifact(tmp_path, capsys, monkeypatch, override)

    @pytest.mark.parametrize("override", [
        'model.constraint={"kind": "box", "lower": [-1, -1, -1], "upper": [1, 1, 1]}',
        'model.constraint={"kind": "box", "lower": [-1], "upper": [1]}',
        "initial_density.harmonics=[]",
        'initial_density.harmonics="x"',
        "output_dir=5",
        "output_dir=null",
        'model.constraint={"kind": "ball", "radius": 1e308}',
        'initial_density.harmonics={"0": [0.15915494309189535, 0], "1": [0.5, 0]}',
        'initial_density.harmonics={"0": [0.15915494309189535, 0], "1": [1e308, 1e308]}',
        'initial_control={"constant": [0.1]}',
        'initial_density.harmonics={"0": [0.15915494309189535, 0], "1": [0.05, 0], "01": [0, 0]}',
        'initial_density.harmonics={"0": [0.15915494309189535, 0], "1": [0.05, 0], " 1": [0, 0]}',
        'initial_density.harmonics={"0": [0.15915494309189535, 0], "1": {"0": 0.01, "1": 0}}',
        'initial_density.harmonics={"0": [0.15915494309189535, 0], "1": "00"}',
        'initial_density.harmonics={"0": [0.15915494309189535, 0], "1": [0.01, 0, 7]}',
        'initial_density.harmonics={"0": [0.15915494309189535, 0], "1": [0.01, false]}',
        'initial_control={"constant": ["0.5", "0"]}',
        'initial_control={"constant": [true, false]}',
        pytest.param('initial_control=' + json.dumps({"values": [[0.1, 0.0]] * 80 + [["0.1", 0]]}),
                     id='initial_control={"values": [..., ["0.1", 0]]}'),
        'model.constraint={"kind": "box", "lower": ["-2", -2], "upper": [2, 2]}',
        'model.constraint={"kind": "box", "lower": [-2, -2], "upper": [2, true]}',
        "descent.j_max=1200",
        "grid.tau=1e-310",  # T/tau overflows to inf
        "grid.tau=1e-300",  # finite T/tau, past NumPy's largest array
        "grid.tau=1e-12",  # finite T/tau, tebibytes of node times
        pytest.param("grid.T=" + "[" * 5000 + "]" * 5000, id="grid.T=[[...]] 5000 deep"),
    ])
    def test_malformed_values_are_2(self, tmp_path, capsys, monkeypatch, override):
        self.assert_config_error_before_any_artifact(tmp_path, capsys, monkeypatch, override)

    @pytest.mark.parametrize("content", [b'{"command": "\xff"}', b"[" * 5000 + b"]" * 5000],
                             ids=["not-utf8", "nested-5000-deep"])
    def test_an_undecodable_config_file_is_2(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["solve-forward", "--config", str(path)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["category"] == "config"

    def test_non_object_config_is_2(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[]")
        assert main(["solve-forward", "--config", str(path)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["message"] == "config: expected an object, got list"

    def test_bad_validate_value_is_2_before_any_artifact(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = tiny_doc(out, command="validate", validate={"local_u1": {"kind": "square"}})
        assert main(["validate", "--config", str(write_config(tmp_path, doc))]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "validate.local_u1.kind" in err["error"]["message"]
        assert not out.exists()

    def test_unnormalized_density_is_2_before_any_artifact(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = tiny_doc(out, command="solve-forward")
        code = main(["solve-forward", "--config", str(write_config(tmp_path, doc)),
                     "--override", 'initial_density={"harmonics": {"0": [1.0, 0.0]}}'])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["category"] == "config"
        assert "normalized" in err["error"]["message"]
        assert not out.exists()

    def test_unexpected_exception_is_1_with_an_internal_record(self, tmp_path, capsys,
                                                               monkeypatch):
        def broken(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr("mfpmp.cli.integrate_forward", broken)
        doc = tiny_doc(tmp_path / "out", command="solve-forward")
        assert main(["solve-forward", "--config", str(write_config(tmp_path, doc))]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        err = json.loads(lines[-1])["error"]
        assert err["category"] == "internal"
        assert err["message"] == "RuntimeError: boom"
        assert "broken" in err["traceback"]
        assert all(line.startswith("{") for line in lines)  # no bare traceback

    def test_override_reaches_the_solver(self, tmp_path):
        doc = tiny_doc(tmp_path / "out", command="solve-forward")
        code = main(["solve-forward", "--config", str(write_config(tmp_path, doc)),
                     "--override", "grid.tau=0.3"])
        assert code == 2  # 0.4 / 0.3 is not an integer step count


class TestValidateCommand:
    def test_validate_runs_and_reports(self, tmp_path):
        out = tmp_path / "out"
        doc = tiny_doc(out, command="validate")
        doc["grid"] = {"T": 0.5, "tau": 0.005, "n_modes": 64}
        doc["snapshot_times"] = []
        doc["validate"] = {
            "n_particles": [500, 2000],
            "cost_tol": 0.02,
            "lambdas": [0.002, 0.004, 0.008],
            "extra_pairs": 1,
            "local_u1": {"kind": "constant", "value": 0.9},
        }
        code = main(["validate", "--config", str(write_config(tmp_path, doc))])
        report = json.loads((out / "validation_report.json").read_text())
        assert code == 0, report
        assert report["passed"] is True
        assert report["particles"]["passed"]
        assert report["increment_slope"]["passed"]
        assert report["local_adjoint"]["passed"]

    def test_each_oracle_solves_each_control_once(self, tmp_path, monkeypatch):
        # One stored solve of u0 serves both ensembles of the particle oracle
        # and the experiment pair, whose target and slope probe share one
        # adjoint solve: 4 forward and 4 adjoint solves with two synthetic pairs.
        calls = {"integrate_forward": 0, "integrate_backward": 0}
        for module in (checks, cli):
            for name in calls:
                def counted(*args, _solve=getattr(module, name), _name=name, **kwargs):
                    calls[_name] += 1
                    return _solve(*args, **kwargs)
                monkeypatch.setattr(module, name, counted)
        doc = tiny_doc(tmp_path / "out", command="validate", snapshot_times=[])
        doc["grid"] = {"T": 0.5, "tau": 0.005, "n_modes": 64}
        doc["validate"] = {"n_particles": [500, 2000], "lambdas": [0.002, 0.004, 0.008],
                           "extra_pairs": 2, "local_u1": {"kind": "constant", "value": 0.9}}
        assert main(["validate", "--config", str(write_config(tmp_path, doc))]) == 0
        assert calls == {"integrate_forward": 4, "integrate_backward": 4}

    def test_failing_tolerance_exits_5(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = tiny_doc(out, command="validate")
        doc["grid"] = {"T": 0.5, "tau": 0.005, "n_modes": 64}
        doc["snapshot_times"] = []
        doc["validate"] = {
            "n_particles": [200],
            "cost_tol": 0.02,
            "lambdas": [0.002, 0.004],
            "extra_pairs": 1,
            "local_tol": 1e-18,  # unattainably tight
            "local_u1": {"kind": "constant", "value": 0.9},
        }
        assert main(["validate", "--config", str(write_config(tmp_path, doc))]) == 5
        report = json.loads((out / "validation_report.json").read_text())
        assert report["local_adjoint"]["passed"] is False

    def test_a_drift_too_fast_for_tau_is_a_divergence(self, tmp_path, capsys):
        # The closed-form check admits any finite drift, even one whose square
        # overflows; the march then diverges like any other.  The state
        # overflows inside one RK4 step, before `_settle` sees it, and that
        # must surface as no NumPy warning (here: as no exception).
        doc = tiny_doc(tmp_path / "out", command="validate", snapshot_times=[])
        doc["validate"] = {"n_particles": [100], "extra_pairs": 0,
                           "local_u1": {"kind": "sinusoidal", "amplitude": 1e200}}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["validate", "--config", str(write_config(tmp_path, doc))]) == 3
        lines = capsys.readouterr().err.strip().splitlines()
        assert [json.loads(line)["error"]["category"] for line in lines] == ["divergence"]

    def test_undefined_slope_ratios_are_null_in_strict_json(self, tmp_path, capsys):
        # A uniform density under zero control predicts a zero decrease, so
        # the ratios actual/predicted are undefined: null, and a failed probe.
        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        out = tmp_path / "out"
        doc = tiny_doc(out, command="validate", snapshot_times=[],
                       initial_density={"harmonics": {"0": [1.0 / (2.0 * np.pi), 0.0]}},
                       initial_control={"constant": [0.0, 0.0]})
        doc["grid"] = {"T": 0.5, "tau": 5e-3, "n_modes": 32}
        doc["validate"] = {"extra_pairs": 0}
        assert main(["validate", "--config", str(write_config(tmp_path, doc))]) == 5
        text = (out / "validation_report.json").read_text()
        report = json.loads(text, parse_constant=reject)
        probe = report["increment_slope"]["pairs"][0]
        assert probe["predicted_slope"] == 0.0
        assert probe["ratios"] == [None] * 4
        assert probe["passed"] is False and report["passed"] is False
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["category"] == "validation"

    def test_numpy_values_are_written_as_python_values(self, tmp_path):
        numpy = {"f": np.float64(0.1), "g": np.float32(0.5), "b": np.bool_(True),
                 "i": np.int64(3), "a": np.arange(4.0).reshape(2, 2), "t": (np.float64(1.5), 2)}
        plain = {"f": 0.1, "g": 0.5, "b": True, "i": 3, "a": [[0.0, 1.0], [2.0, 3.0]],
                 "t": [1.5, 2]}
        cli._write_json(tmp_path / "numpy.json", numpy)
        cli._write_json(tmp_path / "plain.json", plain)
        assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
        with pytest.raises(ValueError):
            cli._write_json(tmp_path / "nan.json", {"x": np.float64("nan")})

    def test_non_finite_floats_are_never_written(self, tmp_path):
        with pytest.raises(ValueError):
            cli._write_json(tmp_path / "bad.json", {"x": float("nan")})
        assert not (tmp_path / "bad.json").exists()
