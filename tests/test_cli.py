"""Command-line runner: artifacts, determinism, exit codes."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from mfpmp import checks, cli, descent, forward
from mfpmp.adjoint import integrate_backward
from mfpmp.cli import RESOLUTION_TAIL_MAX, _tail_ratio, main
from mfpmp.config import parse_config_dict
from mfpmp.forward import density_min, integrate_forward
from mfpmp.spectral import reconstruct_rows

from conftest import dense

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


def extremal_doc(out_dir, snapshot_times):
    """An optimize run on T = 0.5 at alpha = 0.31 that stops extremal after a few steps."""
    doc = tiny_doc(out_dir, descent={"k_max": 20}, snapshot_times=snapshot_times)
    doc["grid"]["T"] = 0.5
    doc["model"]["alpha"] = 0.31
    return doc


def spy_adjoint_solves(monkeypatch):
    """(calling module, CoTrajectory) of every adjoint solve of the descent and the CLI."""
    sites = []

    def spying(module):
        def solve(*args, **kwargs):
            sites.append((module.__name__, integrate_backward(*args, **kwargs)))
            return sites[-1][1]
        return solve

    for module in (descent, cli):
        monkeypatch.setattr(module, "integrate_backward", spying(module))
    return sites


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

    def test_the_artifacts_come_from_the_last_resumed_solve_of_the_descent(self, tmp_path,
                                                                            monkeypatch):
        # On T = 1 the steps go j = 0, 1, 0, 1: every stored solve after the
        # cold one resumes from the accepted trial's checkpoints, and the
        # artifacts are written from the last of them, with no solve of their own.
        doc = tiny_doc(tmp_path / "out", descent={"k_max": 4}, snapshot_times=[0.0, 1.0])
        doc["grid"]["T"] = 1.0
        reused = []

        def spy(rho0, u, model, grid, starts=None):
            reused.append(forward._resumable(starts, rho0, u, model))
            return integrate_forward(rho0, u, model, grid, starts)

        monkeypatch.setattr(descent, "integrate_forward", spy)
        monkeypatch.setattr(cli, "integrate_forward", None)  # a call would exit 1
        assert main(["optimize", "--config", str(write_config(tmp_path, doc))]) == 0
        assert reused == [False, True, True, True, True]

    def test_an_extremal_run_solves_the_dumped_co_density_in_the_cli(self, tmp_path,
                                                                     monkeypatch):
        # Each iteration solves the co-density for its switching function
        # only; the adjoint snapshots come from one more solve, made by the
        # command line along the final control's stored solve.
        doc = extremal_doc(tmp_path / "out", [0.0, 0.5])
        sites = spy_adjoint_solves(monkeypatch)
        assert main(["optimize", "--config", str(write_config(tmp_path, doc))]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["status"] == descent.STATUS_EXTREMAL and summary["iterations"] > 1
        assert [site for site, _ in sites] == (["mfpmp.descent"] * summary["iterations"]
                                               + ["mfpmp.cli"])
        header, rows = read_csv(tmp_path / "out" / "adjoint_snapshots.csv")
        assert header == ["t", "x", "value"] and len(rows) == 2 * 32

    def test_an_extremal_run_dumps_the_co_density_of_its_final_control(self, tmp_path,
                                                                       monkeypatch):
        times = [0.0, 0.25, 0.5]
        doc = extremal_doc(tmp_path / "out", times)
        results = []

        def spy(*args, **kwargs):
            results.append(descent.run_descent(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "run_descent", spy)
        assert main(["optimize", "--config", str(write_config(tmp_path, doc))]) == 0
        (result,) = results
        assert result.status == descent.STATUS_EXTREMAL
        cfg = parse_config_dict(doc)
        direct = integrate_backward(result.trajectory, result.u_final, cfg.model, keep=times)
        nodes = [cfg.grid.nearest_node(t) for t in times]
        fields = reconstruct_rows(direct.coeffs[[direct.nodes.index(k) for k in nodes]])
        _, rows = read_csv(tmp_path / "out" / "adjoint_snapshots.csv")
        assert [float(r[0]) for r in rows] == [t for t in times for _ in range(32)]
        assert [float(r[2]) for r in rows] == fields.ravel().tolist()  # bit for bit

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


def same_artifacts(a: Path, b: Path) -> None:
    """Every artifact in a and b has the same bytes, but for timings, output_dir, wall_time."""
    assert sorted(p.name for p in a.iterdir()) == sorted(p.name for p in b.iterdir())
    for path in a.iterdir():
        if path.suffix == ".json":
            ja, jb = (json.loads((d / path.name).read_text()) for d in (a, b))
            for doc in (ja, jb):
                doc.pop("timings", None), doc.pop("output_dir", None)
            assert ja == jb, path.name
        elif path.name == "convergence.csv":
            ca, cb = ([r[:-1] for r in read_csv(d / path.name)[1]] for d in (a, b))
            assert ca == cb
        else:
            assert path.read_bytes() == (b / path.name).read_bytes(), path.name


class TestReproduceFromTheEcho:
    """A run of its own `config_expanded.json` reproduces the run bit for bit."""

    @pytest.mark.parametrize("command", ["optimize", "solve-adjoint", "validate"])
    def test_rerunning_the_echo_reproduces_every_artifact(self, tmp_path, command):
        doc = tiny_doc(tmp_path / "first", command=command)
        if command == "validate":
            doc["grid"] = {"T": 0.5, "tau": 0.005, "n_modes": 32}
            doc["snapshot_times"] = []
            # The echo names the amplitude this profile leaves to its default.
            doc["validate"] = {"n_particles": [100, 1000], "extra_pairs": 1,
                               "local_u1": {"kind": "sinusoidal", "frequency": 1.7}}
        assert main([command, "--config", str(write_config(tmp_path, doc))]) == 0
        echo = tmp_path / "first" / "config_expanded.json"
        if command == "validate":
            assert json.loads(echo.read_text())["validate"]["local_u1"] == {
                "kind": "sinusoidal", "amplitude": 1.0, "frequency": 1.7}
        second = tmp_path / "second"
        assert main([command, "--config", str(echo), "--output", str(second)]) == 0
        same_artifacts(tmp_path / "first", second)


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

    @pytest.mark.parametrize("command", ["solve-forward", "optimize"])
    def test_no_snapshot_times_write_no_snapshots(self, tmp_path, command):
        out = tmp_path / "out"
        doc = tiny_doc(out, command=command, snapshot_times=[], descent={"k_max": 2})
        assert main([command, "--config", str(write_config(tmp_path, doc))]) == 0
        assert not list(out.glob("*_snapshots.csv"))
        summary = json.loads((out / "summary.json").read_text())
        assert summary["resolution"]["snapshot_density_min"] == []
        assert summary["density_min"] > 0.0

    def test_each_snapshot_is_reconstructed_once(self, tmp_path, monkeypatch):
        # The density minima at the snapshots read the fields dumped there.
        calls = []

        def spy(half):
            calls.append(np.shape(half))
            return reconstruct_rows(half)

        monkeypatch.setattr(cli, "reconstruct_rows", spy)
        out = tmp_path / "out"
        doc = tiny_doc(out, command="solve-adjoint", snapshot_times=[0.0, 0.0025, 0.4])
        assert main(["solve-adjoint", "--config", str(write_config(tmp_path, doc))]) == 0
        assert calls == [(3, 17), (3, 17)]  # the density, then the co-density
        _, rows = read_csv(out / "density_snapshots.csv")
        res = json.loads((out / "summary.json").read_text())["resolution"]
        assert [m["t"] for m in res["snapshot_density_min"]] == [0.0, 0.0025, 0.4]
        for entry in res["snapshot_density_min"]:
            assert entry["value"] == min(float(r[2]) for r in rows if float(r[0]) == entry["t"])

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
        # The diagnostics sweep a trajectory `batch_rows` rows at a time;
        # minima and maxima are exact, so the block size changes no byte.
        summaries = []
        for rows in (3, 10**4):  # half rows of 17 coefficients
            monkeypatch.setattr(forward, "BATCH_COEFFS", rows * 17)
            out = tmp_path / str(rows)
            doc = tiny_doc(out, command="solve-adjoint")
            assert main(["solve-adjoint", "--config", str(write_config(tmp_path, doc))]) == 0
            summary = json.loads((out / "summary.json").read_text())
            summary.pop("timings")
            summaries.append(summary)
        assert summaries[0] == summaries[1]

        cfg = parse_config_dict(tiny_doc(tmp_path / "direct", command="solve-adjoint"))
        traj = integrate_forward(cfg.rho0, cfg.u0, cfg.model, cfg.grid)
        cotraj = integrate_backward(traj, cfg.u0, cfg.model, keep=cfg.grid.full_times())
        assert len(traj.index) > 40 * 3
        one_sweep = float(reconstruct_rows(dense(traj)).min())
        monkeypatch.setattr(forward, "BATCH_COEFFS", 3 * 17)
        assert density_min(traj) == one_sweep == summaries[0]["density_min"]
        assert summaries[0]["adjoint_max_coeff"] == float(np.abs(cotraj.coeffs).max())
        assert summaries[0]["resolution"]["adjoint_tail_ratio"] == _tail_ratio(
            np.abs(cotraj.coeffs[:, -1]), np.abs(cotraj.coeffs).max(axis=1))

    @pytest.mark.parametrize("command", ["solve-adjoint", "optimize"])
    def test_the_co_density_keeps_only_the_snapshot_rows(self, tmp_path, monkeypatch, command):
        # solve-adjoint's `adjoint_max_coeff` is the largest of the per-node
        # maxima that scale the co-density's tail ratio, which the march
        # records.  The command line's one solve keeps whole rows at node 0
        # and at the snapshot times; the descent's solves keep node 0 only.
        sites = spy_adjoint_solves(monkeypatch)
        out = tmp_path / "out"
        doc = tiny_doc(out, command=command, descent={"k_max": 2}, snapshot_times=[0.2, 0.4])
        assert main([command, "--config", str(write_config(tmp_path, doc))]) == 0
        *iterations, (site, dumped) = sites
        assert site == "mfpmp.cli"
        assert dumped.nodes == (0, 40, 80) and dumped.coeffs.shape == (3, 17)  # of 81 nodes
        assert len(iterations) == (0 if command == "solve-adjoint" else 2)
        for site, cotraj in iterations:
            assert site == "mfpmp.descent"
            assert cotraj.nodes == (0,) and cotraj.coeffs.shape == (1, 17)
        assert all(c.scale.shape == (81,) for _, c in sites)
        summary = json.loads((out / "summary.json").read_text())
        assert ("adjoint_max_coeff" in summary) is (command == "solve-adjoint")
        if command == "solve-adjoint":
            assert summary["adjoint_max_coeff"] == float(dumped.scale.max())

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
        # Keys that int() reads as another harmonic: 10, 2, 1 and 1.
        'initial_density.harmonics={"0": [0.15915494309189535, 0], "1_0": [0.01, 0]}',
        'initial_density.harmonics={"0": [0.15915494309189535, 0], " 2": [0.01, 0]}',
        'initial_density.harmonics={"0": [0.15915494309189535, 0], "+1": [0.01, 0]}',
        'initial_density.harmonics={"0": [0.15915494309189535, 0], "\u0661": [0.01, 0]}',
        # A repeated key inside an override value; JSON decoding would keep the last.
        'grid={"T": 0.4, "tau": 0.005, "tau": 0.01, "n_modes": 32}',
        'initial_density.harmonics={"0": [0.15915494309189535, 0], "1": [0.01, 0], "1": [0, 0]}',
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
        "grid.T=0",  # TimeGrid and AdmissibleSet check positivity; the config wraps it
        "grid.tau=-0.005",
        'model.constraint={"kind": "ball", "radius": 0}',
        "grid.tau=1e-310",  # T/tau overflows to inf
        "grid.tau=1e-300",  # finite T/tau, past NumPy's largest array
        "grid.tau=1e-12",  # finite T/tau, tebibytes of node times
        pytest.param("grid.T=" + "[" * 5000 + "]" * 5000, id="grid.T=[[...]] 5000 deep"),
    ])
    def test_malformed_values_are_2(self, tmp_path, capsys, monkeypatch, override):
        self.assert_config_error_before_any_artifact(tmp_path, capsys, monkeypatch, override)

    @pytest.mark.parametrize("command", ["solve-forward", "solve-adjoint", "optimize", "validate"])
    def test_a_horizon_shorter_than_one_step_is_2(self, tmp_path, capsys, monkeypatch, command):
        # T/tau = 2e-10 is within 1e-9 of the integer 0: zero steps.  The
        # snapshot time 0.4 goes too, or it is reported first.
        monkeypatch.chdir(tmp_path)
        doc = tiny_doc(tmp_path / "out", command=command)
        code = main([command, "--config", str(write_config(tmp_path, doc)),
                     "--override", "grid.T=1e-12", "--override", "snapshot_times=[]"])
        assert code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["category"] == "config"
        assert err["message"] == "grid: T = 1e-12 is shorter than one step, tau = 0.005"
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("content", [b'{"command": "\xff"}', b"[" * 5000 + b"]" * 5000],
                             ids=["not-utf8", "nested-5000-deep"])
    def test_an_undecodable_config_file_is_2(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["solve-forward", "--config", str(path)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["category"] == "config"

    def test_a_repeated_key_in_the_config_file_is_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        text = json.dumps(tiny_doc(out, command="solve-forward"))
        path = tmp_path / "run.json"
        path.write_text(text.replace('"tau": 0.005', '"tau": 0.005, "tau": 0.01'))
        assert main(["solve-forward", "--config", str(path)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["category"] == "config"
        assert err["message"].endswith("run.json: key 'tau' is given twice in one JSON object")
        assert not out.exists()

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

    def test_a_run_too_large_to_allocate_is_2_without_a_traceback(self, tmp_path, capsys,
                                                                  monkeypatch):
        # A stored solve of too many steps or harmonics fails on its first
        # allocation; a real one is never made here, since a host that
        # overcommits memory grants it and the march then fills the RAM.
        def oversized(*args):
            raise MemoryError("Unable to allocate 298. GiB for an array")

        monkeypatch.setattr("mfpmp.cli.integrate_forward", oversized)
        doc = tiny_doc(tmp_path / "out", command="solve-forward")
        assert main(["solve-forward", "--config", str(write_config(tmp_path, doc))]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["category"] == "config" and "traceback" not in err
        assert "298. GiB" in err["message"]

    @pytest.mark.parametrize("override, where", [
        ("model=5", "model"),
        ('model={"alpha": 0.0}', "model"),
        pytest.param("grid.T=1" + "0" * 400, "grid.T", id="grid.T=10**400"),
        ("model.constraint=5", "model.constraint"),
        ('model.constraint={"kind": "disk"}', "model.constraint.kind"),
        ('initial_density="fig2"', "initial_density"),
        ('initial_density={"harmonics": {"99": [0.0, 0.0]}}', "initial_density.harmonics['99']"),
        ("initial_density=5", "initial_density"),
        ('initial_control="fig2"', "initial_control"),
        ('initial_control={"values": 5}', "initial_control.values"),
        ('initial_control={"values": [[0.0, 0.0]]}', "initial_control"),
        ("initial_control=5", "initial_control"),
        ("descent.j_max=2.5", "descent.j_max"),
        ("descent.lambda_tol=-1", "descent"),
        ("descent.k_max=0", "descent"),
        ("descent.lambda_patience=0", "descent"),
        ("snapshot_times=5", "config.snapshot_times"),
        ("adjoint_snapshots=1", "config.adjoint_snapshots"),
    ])
    def test_every_rejected_value_names_its_key(self, tmp_path, capsys, override, where):
        # One override per branch of `config` that raises a `ConfigError`.
        out = tmp_path / "out"
        doc = tiny_doc(out, command="solve-forward", snapshot_times=[0.0, 0.1])
        doc["grid"] = {"T": 0.1, "tau": 0.005, "n_modes": 16}
        assert main(["solve-forward", "--config", str(write_config(tmp_path, doc)),
                     "--override", override]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["category"] == "config"
        assert err["message"].startswith(f"{where}:"), err["message"]
        assert not out.exists()

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

    def test_a_huge_target_phase_passes_every_oracle(self, tmp_path):
        # The particle and closed-form oracles compute cos(x - x0) and
        # sin(x + s - x0); unreduced, x0 = 1e308 loses the phase and both fail.
        out = tmp_path / "out"
        doc = tiny_doc(out, command="validate", snapshot_times=[])
        doc["model"]["x0"] = 1e308
        doc["grid"] = {"T": 0.1, "tau": 0.005, "n_modes": 16}
        doc["validate"] = {"n_particles": [100, 1000]}
        code = main(["validate", "--config", str(write_config(tmp_path, doc))])
        report = json.loads((out / "validation_report.json").read_text())
        assert code == 0 and report["passed"] is True, report

    @pytest.mark.parametrize("a1", [None, [1e-200, 0.0], [0.0, -1e-200], [1e-100, 0.0],
                                    [0.0, -1e-100]])
    def test_a_density_without_harmonic_1_is_2_for_validate_only(self, tmp_path, capsys, a1):
        # With a_1 = 0, a_1 and the coupling stay 0 and the cost is 1 for
        # every control: every predicted slope is 0, and the slope oracle
        # would fail a correct program (exit 5).  optimize stops at once.
        # Parts below forward._FLUSH are flushed to 0 before the first step,
        # so a harmonic 1 of 1e-200 or 1e-100 is a_1 = 0 too.
        harmonics = {"0": [1.0 / (2.0 * np.pi), 0.0], "3": [0.01, 0.0]}
        if a1 is not None:
            harmonics["1"] = a1
        out = tmp_path / "out"
        doc = tiny_doc(out, command="validate", snapshot_times=[],
                       initial_density={"harmonics": harmonics})
        doc["grid"] = {"T": 0.1, "tau": 0.005, "n_modes": 16}
        doc["validate"] = {"n_particles": [100, 1000]}
        assert main(["validate", "--config", str(write_config(tmp_path, doc))]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["category"] == "config"
        assert err["message"].startswith("initial_density: validate needs a nonzero harmonic 1")
        assert not out.exists()
        doc["command"] = "optimize"
        assert main(["optimize", "--config", str(write_config(tmp_path, doc))]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "non-extremality-converged"
        assert summary["iterations"] == 1 and summary["final_cost"] == 1.0

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
        # Under zero control nothing moves, and a density symmetric about
        # x0 = 0 gives b_0 = 0, so d_1 = 0 exactly; the box holds u_2 at 0.
        # So the predicted decrease is 0 and the ratios actual/predicted are
        # undefined: null, and a failed probe.
        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        out = tmp_path / "out"
        harmonics = {"0": [1.0 / (2.0 * np.pi), 0.0], "1": [0.05, 0.0]}
        doc = tiny_doc(out, command="validate", snapshot_times=[],
                       initial_density={"harmonics": harmonics},
                       initial_control={"constant": [0.0, 0.0]})
        doc["model"] = {"alpha": 0.0, "x0": 0.0,
                        "constraint": {"kind": "box", "lower": [-1.0, 0.0], "upper": [1.0, 0.0]}}
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
