"""Configuration parsing: strict validation, presets, overrides."""

from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfpmp import ConfigError
from mfpmp.config import apply_overrides, parse_config, parse_config_dict

from conftest import harmonic

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def minimal_doc(**updates):
    doc = {
        "command": "solve-forward",
        "model": {"alpha": 0.0, "x0": np.pi,
                  "constraint": {"kind": "ball", "radius": np.sqrt(2.0)}},
        "grid": {"T": 0.5, "tau": 0.005, "n_modes": 32},
        "initial_density": "fig1",
        "initial_control": {"constant": [0.0, 0.0]},
        "output_dir": "out",
    }
    doc.update(updates)
    return doc


class TestParsing:
    def test_shipped_desk_preset_expands_to_the_experiment(self):
        cfg = parse_config(CONFIG_DIR / "fig1_desk.json")
        assert cfg.command == "optimize"
        assert cfg.rho0.shape == (129,)  # the half row n = 0 .. 128
        assert cfg.grid.n_steps == 1200
        assert_allclose(cfg.model.x0, np.pi)
        assert_allclose(cfg.model.control_set.radius, np.sqrt(2.0))
        assert_allclose(harmonic(cfg.rho0, 0), 1.0 / (2.0 * np.pi))
        assert_allclose(harmonic(cfg.rho0, 1), -0.125j / np.pi)
        # control preset sampled at the full nodes
        t = cfg.grid.full_times()
        assert_allclose(cfg.u0.values[:, 0], np.sqrt(2.0) * np.sin(2 * np.pi * t))
        assert cfg.descent.c == 0.01 and cfg.descent.theta == 0.5
        # the echoed document carries explicit values
        assert cfg.expanded["initial_density"]["harmonics"]["1"][1] == -0.125 / np.pi
        assert len(cfg.expanded["initial_control"]["values"]) == 1201

    def test_shipped_full_resolution_preset_parses(self):
        cfg = parse_config(CONFIG_DIR / "fig1_full.json")
        assert cfg.rho0.shape == (1025,) and cfg.grid.tau == 0.001

    def test_shipped_validate_preset_parses(self):
        cfg = parse_config(CONFIG_DIR / "validate_desk.json")
        assert cfg.command == "validate"
        assert cfg.validate_params["n_particles"] == [1000, 10000]

    def test_unknown_keys_are_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys.*typo"):
            parse_config_dict(minimal_doc(typo=1))
        with pytest.raises(ConfigError, match="grid: unknown keys"):
            doc = minimal_doc()
            doc["grid"]["n_mods"] = 4
            parse_config_dict(doc)

    def test_non_integer_step_count_rejected(self):
        doc = minimal_doc()
        doc["grid"]["tau"] = 0.3
        with pytest.raises(ConfigError, match="not an integer"):
            parse_config_dict(doc)

    def test_an_overflowing_step_count_is_rejected(self):
        doc = minimal_doc()
        doc["grid"]["tau"] = 1e-310  # T/tau is inf
        with pytest.raises(ConfigError, match="T/tau = inf is not an integer"):
            parse_config_dict(doc)

    @pytest.mark.parametrize("grid", [
        {"tau": 1e-300},  # finite T/tau, past NumPy's largest array
        {"tau": 1e-12},  # finite T/tau, tebibytes of node times
        {"n_modes": 10 ** 14},  # pebibytes of harmonics
    ])
    @pytest.mark.parametrize("control", ["fig1", {"constant": [0.0, 0.0]}])
    def test_a_grid_too_large_to_allocate_is_rejected(self, grid, control):
        doc = minimal_doc(initial_control=control)
        doc["grid"].update(grid)
        with pytest.raises(ConfigError, match="cannot be allocated"):
            parse_config_dict(doc)

    def test_descent_parameter_ranges(self):
        doc = minimal_doc(descent={"theta": -0.5})
        with pytest.raises(ConfigError, match="descent"):
            parse_config_dict(doc)

    def test_odd_mode_count_rejected(self):
        doc = minimal_doc()
        doc["grid"]["n_modes"] = 31
        with pytest.raises(ConfigError, match="n_modes"):
            parse_config_dict(doc)

    def test_infeasible_initial_control_rejected(self):
        doc = minimal_doc(initial_control={"constant": [2.0, 2.0]})
        with pytest.raises(ConfigError, match="admissible"):
            parse_config_dict(doc)

    def test_harmonic_at_the_mass_accepted(self):
        # |c_n| <= c_0 = 1/(2*pi) holds for every probability density, with
        # equality allowed; the CLI exit-code tests cover |c_n| > c_0.
        c0 = 1.0 / (2.0 * np.pi)
        doc = minimal_doc(initial_density={"harmonics": {"0": [c0, 0.0], "3": [0.0, c0]}})
        assert harmonic(parse_config_dict(doc).rho0, 3) == 1j * c0

    def test_tabulated_density_and_control(self):
        doc = minimal_doc(
            initial_density={"harmonics": {"0": [1.0 / (2.0 * np.pi), 0.0],
                                           "2": [0.01, -0.02]}},
            initial_control={"values": [[0.1, 0.0]] * 101},
        )
        cfg = parse_config_dict(doc)
        assert_allclose(harmonic(cfg.rho0, 2), 0.01 - 0.02j)
        assert_allclose(harmonic(cfg.rho0, -2), 0.01 + 0.02j)
        assert cfg.u0.values.shape == (101, 2)

    def test_box_constraint(self):
        doc = minimal_doc()
        doc["model"]["constraint"] = {"kind": "box", "lower": [-1, -1], "upper": [1, 1]}
        cfg = parse_config_dict(doc)
        assert cfg.model.control_set.kind == "box"

    @pytest.mark.parametrize("where, value", [
        ("lower", [False, False]),
        ("upper", ["1", 1]),
        ("upper", [1, 1, 1]),
    ])
    def test_box_bounds_are_two_json_numbers(self, where, value):
        doc = minimal_doc()
        doc["model"]["constraint"] = {"kind": "box", "lower": [-1, -1], "upper": [1, 1],
                                      where: value}
        with pytest.raises(ConfigError, match=f"model.constraint.{where}"):
            parse_config_dict(doc)

    def test_snapshot_times_inside_horizon(self):
        doc = minimal_doc(snapshot_times=[0.0, 9.0])
        with pytest.raises(ConfigError, match="snapshot_times"):
            parse_config_dict(doc)

    def test_invalid_json_reports_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  \"command\": optimize\n}\n")
        with pytest.raises(ConfigError, match="bad.json:2"):
            parse_config(bad)

    @pytest.mark.parametrize("key, value", [
        ("n_particles", "abc"),
        ("n_particles", []),
        ("n_particles", [1000, 0]),
        ("n_particles", [1.5]),
        ("n_particles", [100, 100]),  # runs are reported by size
        ("n_particles", [1000, 100]),  # the discrepancy must fall as the size grows
        ("cost_tol", "x"),
        ("ratio_tol", float("nan")),
        ("order_min", float("inf")),
        ("local_tol", None),
        ("lambdas", [0, 2]),
        ("lambdas", [0.01]),
        ("lambdas", "0.01"),
        ("extra_pairs", 4),
        ("extra_pairs", -1),
        ("extra_pairs", True),
        ("local_u1", {"kind": "square"}),
        ("local_u1", "constant"),
        ("local_u1", {"kind": "constant", "value": "x"}),
        ("local_u1", {"kind": "constant", "amplitude": 1.0}),
        ("lambdas", [0.001, 0.001]),  # a fitted slope needs distinct steps
    ])
    def test_validate_values_are_checked(self, key, value):
        with pytest.raises(ConfigError, match=f"validate.{key}"):
            parse_config_dict(minimal_doc(validate={key: value}))

    def test_validate_defaults_pass_the_checks(self):
        cfg = parse_config_dict(minimal_doc(validate={"extra_pairs": 3}))
        assert cfg.validate_params["extra_pairs"] == 3
        assert cfg.validate_params["lambdas"] == [1e-3, 2e-3, 4e-3, 8e-3]


class TestOverrides:
    def test_dotted_paths_and_json_values(self):
        doc = minimal_doc()
        out = apply_overrides(doc, ["grid.tau=0.01", "output_dir=elsewhere",
                                    "model.constraint.radius=2.5"])
        assert out["grid"]["tau"] == 0.01
        assert out["output_dir"] == "elsewhere"
        assert out["model"]["constraint"]["radius"] == 2.5
        assert doc["grid"]["tau"] == 0.005  # original untouched

    def test_bad_override_shape(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides(minimal_doc(), ["grid.tau"])
