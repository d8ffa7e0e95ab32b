"""Config parsing and the command-line surface."""

import json
import textwrap

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from vibropol import ConfigError, SpectralGrid, parse_config, spectrum_scan
from vibropol.cli import main
from vibropol.config import config_to_dict, parse_grid_spec

BASE_CONFIG = textwrap.dedent(
    """
    materials:
      gold: {model: drude_lorentz}
      pvac:
        model: lorentz
        eps_b: 1.9881
        oscillators:
          - {f: 50000.0, k0: 1739.0, gamma: 13.0}
      germanium: {model: constant, eps: 16.0}
    stack:
      ambient_index: 1.0
      layers:
        - {material: gold, thickness: 10.0}
        - {material: pvac, thickness: 1930.0}
        - {material: gold, thickness: 10.0}
      substrate: germanium
      substrate_mode: incoherent_to_air
    grid: {min: 1500.0, max: 2000.0, step: 1.0}
    scan:
      window: [1500.0, 2000.0]
    """
)


def write_config(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_round_trip_through_dict(self):
        raw = yaml.safe_load(BASE_CONFIG)
        cfg = parse_config(raw)
        again = parse_config(config_to_dict(cfg))
        assert again.stack.layers == cfg.stack.layers
        assert again.stack.substrate == cfg.stack.substrate
        assert again.stack.substrate_mode == cfg.stack.substrate_mode
        assert set(again.stack.materials) == set(cfg.stack.materials)
        assert again.stack.materials["pvac"] == cfg.stack.materials["pvac"]
        assert again.stack.materials["gold"] == cfg.stack.materials["gold"]
        assert (again.grid.k_min, again.grid.k_max, again.grid.step) == (
            cfg.grid.k_min, cfg.grid.k_max, cfg.grid.step,
        )
        assert again.scan.window == cfg.scan.window

    def test_unknown_section_rejected(self):
        raw = yaml.safe_load(BASE_CONFIG)
        raw["extras"] = {}
        with pytest.raises(ConfigError, match="extras"):
            parse_config(raw)

    def test_materials_and_stack_must_pair(self):
        raw = yaml.safe_load(BASE_CONFIG)
        del raw["stack"]
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_stackless_config_is_fine_for_estimate(self):
        cfg = parse_config(
            {"estimate": {"vibration": {"omega_cm1": 1740.0}, "cavity": {"omega_cm1": 1740.0}}}
        )
        assert cfg.stack is None
        assert cfg.estimate.temperature_k == 300.0
        assert (cfg.grid.k_min, cfg.grid.k_max) == (400.0, 7400.0)
        with pytest.raises(ConfigError):
            cfg.require_stack()

    def test_angle_range_expansion(self):
        raw = yaml.safe_load(BASE_CONFIG)
        raw["scan"]["angles"] = {"min": -60.0, "max": 60.0, "step": 5.0}
        cfg = parse_config(raw)
        assert len(cfg.scan.angles) == 25
        assert cfg.scan.angles[0] == -60.0
        assert cfg.scan.angles[-1] == 60.0

    def test_scan_validation(self):
        raw = yaml.safe_load(BASE_CONFIG)
        raw["scan"] = {"polarization": "circular"}
        with pytest.raises(ConfigError):
            parse_config(raw)
        raw["scan"] = {"window": [2000.0, 1500.0]}
        with pytest.raises(ConfigError):
            parse_config(raw)
        raw["scan"] = {"divergence": -1.0}
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_field_map_validation(self):
        raw = yaml.safe_load(BASE_CONFIG)
        raw["field_map"] = {"z_step": 0.0}
        with pytest.raises(ConfigError):
            parse_config(raw)
        raw["field_map"] = {"margin_ambient_nm": -5.0}
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_fit_section_validation(self):
        raw = yaml.safe_load(BASE_CONFIG)
        raw["fit"] = {"free": []}
        with pytest.raises(ConfigError):
            parse_config(raw)
        raw["fit"] = {
            "free": [{"path": "layers[1].thickness", "lower": 1800.0, "upper": 2200.0}],
            "channel": "X",
        }
        with pytest.raises(ConfigError):
            parse_config(raw)
        raw["fit"] = {
            "free": [{"path": "layers[1].thickness", "lower": 1800.0, "upper": 2200.0}],
            "n_starts": 0,
        }
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_material_errors_carry_key_context(self):
        raw = yaml.safe_load(BASE_CONFIG)
        raw["materials"]["pvac"]["oscillators"][0]["gamma"] = -2.0
        with pytest.raises(ConfigError, match="pvac"):
            parse_config(raw)
        raw = yaml.safe_load(BASE_CONFIG)
        raw["materials"]["germanium"] = {"model": "mystery"}
        with pytest.raises(ConfigError, match="germanium"):
            parse_config(raw)

    def test_grid_spec_strings(self):
        grid = parse_grid_spec("1740:1740:1")
        assert grid.points.tolist() == [1740.0]
        grid = parse_grid_spec("400:7400:0.5")
        assert grid.k_min == 400.0 and grid.step == 0.5
        for bad in ("400:7400", "a:b:c", "7400:400:1"):
            with pytest.raises(ConfigError):
                parse_grid_spec(bad)


@pytest.fixture()
def runner():
    return CliRunner()


class TestSimulateCommand:
    def test_writes_spectrum_and_summary(self, runner, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", cfg, "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        text = (out / "spectrum.csv").read_text().splitlines()
        assert text[2] == "k_cm1,T,R,A"
        assert len(text) == 3 + 501
        summary = json.loads((out / "summary.json").read_text())
        split = summary["channels"]["T"]["splitting"]
        assert split["splitting_cm1"] == pytest.approx(164.1, abs=0.1)
        assert summary["channels"]["R"]["analyzed"] == "1-R"

    def test_single_point_grid_override(self, runner, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["simulate", "--config", cfg, "--out-dir", str(out), "--grid", "1740:1740:1"],
        )
        assert result.exit_code == 0, result.output
        rows = (out / "spectrum.csv").read_text().splitlines()
        assert len(rows) == 4  # two comments, header, one sample
        assert rows[3].startswith("1740.0,")

    def test_reruns_are_byte_identical(self, runner, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        args = ["simulate", "--config", cfg, "--out-dir", str(out)]
        assert runner.invoke(main, args).exit_code == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert runner.invoke(main, args).exit_code == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_divergence_override(self, runner, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["simulate", "--config", cfg, "--out-dir", str(out), "--divergence", "4.0"],
        )
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "summary.json").read_text())
        assert summary["divergence_deg"] == 4.0
        split = summary["channels"]["T"]["splitting"]
        assert abs(split["splitting_cm1"] - 164.1) < 10.0

    def test_malformed_config_exits_2(self, runner, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG + "\nwat: {}\n")
        result = runner.invoke(main, ["simulate", "--config", cfg, "--out-dir", str(tmp_path)])
        assert result.exit_code == 2

    def test_physics_error_exits_3(self, runner, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        result = runner.invoke(
            main,
            ["simulate", "--config", cfg, "--out-dir", str(tmp_path), "--angle", "95.0"],
        )
        assert result.exit_code == 3


class TestScanAngleCommand:
    def test_spectra_and_dispersion(self, runner, tmp_path):
        raw = BASE_CONFIG + textwrap.dedent(
            """
            """
        )
        raw = yaml.safe_load(BASE_CONFIG)
        raw["scan"]["angles"] = {"min": -20.0, "max": 20.0, "step": 10.0}
        cfg = write_config(tmp_path, yaml.safe_dump(raw))
        out = tmp_path / "out"
        result = runner.invoke(main, ["scan-angle", "--config", cfg, "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        spectra = sorted(out.glob("spectrum_*.csv"))
        assert len(spectra) == 5
        assert (out / "spectrum_-020.000.csv").exists()
        assert (out / "spectrum_+000.000.csv").exists()
        rows = (out / "dispersion.csv").read_text().splitlines()
        assert rows[1] == "angle_deg,omega_lower_cm1,omega_upper_cm1,status"
        assert len(rows) == 2 + 5
        assert all(r.endswith(",ok") for r in rows[2:])

    def test_uncoupled_rows_flagged(self, runner, tmp_path):
        raw = yaml.safe_load(BASE_CONFIG)
        raw["materials"]["pvac"]["oscillators"] = []
        raw["scan"]["angles"] = [0.0, 10.0]
        cfg = write_config(tmp_path, yaml.safe_dump(raw))
        out = tmp_path / "out"
        result = runner.invoke(main, ["scan-angle", "--config", cfg, "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        rows = (out / "dispersion.csv").read_text().splitlines()
        assert all(r.endswith(",peaks=1") for r in rows[2:])

    def test_missing_angles_exits_2(self, runner, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        result = runner.invoke(main, ["scan-angle", "--config", cfg, "--out-dir", str(tmp_path)])
        assert result.exit_code == 2


class TestFieldMapCommand:
    def test_map_matches_library(self, runner, tmp_path):
        raw = yaml.safe_load(BASE_CONFIG)
        raw["field_map"] = {"grid": {"min": 1700.0, "max": 1780.0, "step": 40.0}, "z_step": 500.0}
        cfg = write_config(tmp_path, yaml.safe_dump(raw))
        out = tmp_path / "out"
        result = runner.invoke(main, ["field-map", "--config", cfg, "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        rows = (out / "field_map.csv").read_text().splitlines()
        assert rows[3] == "k_cm1,z_nm,intensity"
        data = np.array([[float(x) for x in r.split(",")] for r in rows[4:]])
        assert set(data[:, 0]) == {1700.0, 1740.0, 1780.0}
        assert data[0, 1] == -200.0
        assert np.all(data[:, 2] >= 0.0)

    def test_empty_stack_is_uniform(self, runner, tmp_path):
        empty = textwrap.dedent(
            """
            materials:
              air: {model: constant, eps: 1.0}
            stack:
              layers: []
              substrate: air
            grid: {min: 1700.0, max: 1710.0, step: 5.0}
            """
        )
        cfg = write_config(tmp_path, empty)
        out = tmp_path / "out"
        result = runner.invoke(main, ["field-map", "--config", cfg, "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        rows = (out / "field_map.csv").read_text().splitlines()
        values = [float(r.split(",")[2]) for r in rows[4:]]
        assert values and all(v == pytest.approx(1.0, rel=1e-12) for v in values)


class TestAnalyzeCommand:
    def test_native_csv_stdout(self, runner, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert runner.invoke(main, ["simulate", "--config", cfg, "--out-dir", str(out)]).exit_code == 0
        result = runner.invoke(main, ["analyze", str(out / "spectrum.csv")])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["channels"]["T"]["splitting"]["splitting_cm1"] == pytest.approx(
            164.1, abs=0.1
        )

    def test_two_column_with_window(self, runner, tmp_path):
        k = np.arange(1500.0, 2001.0, 0.5)
        two_peaks = (
            1.0 / (1.0 + ((k - 1660.0) / 20.0) ** 2)
            + 1.0 / (1.0 + ((k - 1824.0) / 20.0) ** 2)
        )
        path = tmp_path / "measured.csv"
        path.write_text(
            "# export\n" + "\n".join(f"{ki},{vi}" for ki, vi in zip(k, two_peaks)) + "\n"
        )
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["analyze", str(path), "--window", "1500:2000", "--out-dir", str(out)],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "analysis.json").read_text())
        split = payload["channels"]["value"]["splitting"]
        assert split["splitting_cm1"] == pytest.approx(164.0, abs=1.0)

    def test_bad_window_exits_2(self, runner, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1600.0,0.1\n1700.0,0.2\n1800.0,0.1\n")
        result = runner.invoke(main, ["analyze", str(path), "--window", "nope"])
        assert result.exit_code == 2

    def test_missing_file_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["analyze", str(tmp_path / "absent.csv")])
        assert result.exit_code == 2


ESTIMATE_CONFIG = textwrap.dedent(
    """
    estimate:
      vibration:
        omega_cm1: 1740.0
        dipole_debye: 1.0
        damping_fwhm_mev: 3.2
        reduced_mass_amu: 6.857
      cavity:
        omega_cm1: 1740.0
        kappa_fwhm_mev: 17.0
      temperature_K: 300.0
      bond_density:
        mass_density_g_cm3: 1.18
        monomer_mass_g_mol: 86.09
      observed_splitting_mev: 20.7
      polariton_fwhm_mev: {upper: 2.86, lower: 1.5}
    """
)


class TestEstimateCommand:
    def test_stdout_report(self, runner, tmp_path):
        cfg = write_config(tmp_path, ESTIMATE_CONFIG)
        result = runner.invoke(main, ["estimate", "--config", cfg])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["vacuum_field_v_per_m"] == pytest.approx(5368.8, abs=0.5)
        assert payload["bond_density_cm3"] == pytest.approx(8.25e21, rel=0.005)
        assert payload["strong_coupling"] is True
        assert payload["polariton_lifetimes_ps"]["upper"] == pytest.approx(0.23, abs=0.01)

    def test_zero_dipole_zero_temperature(self, runner, tmp_path):
        text = textwrap.dedent(
            """
            estimate:
              vibration: {omega_cm1: 1740.0}
              cavity: {omega_cm1: 1740.0}
              temperature_K: 0.0
            """
        )
        cfg = write_config(tmp_path, text)
        result = runner.invoke(main, ["estimate", "--config", cfg])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["single_coupling_ev"] == 0.0
        assert payload["thermal_occupation"] == 0.0

    def test_missing_section_exits_2(self, runner, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        result = runner.invoke(main, ["estimate", "--config", cfg])
        assert result.exit_code == 2


def make_target_csv(tmp_path):
    """Transmission of the reference stack on a coarse grid as measured data."""
    raw = yaml.safe_load(BASE_CONFIG)
    cfg = parse_config(raw)
    grid = SpectralGrid(1600.0, 1900.0, 5.0)
    sp = spectrum_scan(cfg.stack, grid)
    path = tmp_path / "target.csv"
    path.write_text("\n".join(f"{ki},{ti}" for ki, ti in zip(sp.k, sp.T)) + "\n")
    return str(path)


class TestFitCommand:
    def test_recovers_thickness(self, runner, tmp_path):
        target = make_target_csv(tmp_path)
        raw = yaml.safe_load(BASE_CONFIG)
        raw["stack"]["layers"][1]["thickness"] = 2030.0  # template off truth
        raw["fit"] = {
            "free": [{"path": "layers[1].thickness", "lower": 1800.0, "upper": 2200.0}]
        }
        cfg = write_config(tmp_path, yaml.safe_dump(raw))
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["fit", "--config", cfg, "--out-dir", str(out), "--target", target]
        )
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "fit.json").read_text())
        assert payload["success"] is True
        assert payload["params"]["layers[1].thickness"] == pytest.approx(1930.0, abs=5.0)
        assert payload["loss"] < 1e-8
        assert payload["seed"] == 0
        curve = (out / "fit_curve.csv").read_text().splitlines()
        assert curve[0] == "k_cm1,target,model"
        assert len(curve) == 1 + 61

    def test_seed_override_recorded(self, runner, tmp_path):
        target = make_target_csv(tmp_path)
        raw = yaml.safe_load(BASE_CONFIG)
        raw["fit"] = {
            "free": [{"path": "layers[1].thickness", "lower": 1800.0, "upper": 2200.0}],
            "n_starts": 2,
        }
        cfg = write_config(tmp_path, yaml.safe_dump(raw))
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["fit", "--config", cfg, "--out-dir", str(out), "--target", target, "--seed", "7"],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "fit.json").read_text())
        assert payload["seed"] == 7
        assert payload["n_starts"] == 2
        assert len(payload["start_losses"]) == 2

    def test_bad_free_path_exits_2(self, runner, tmp_path):
        target = make_target_csv(tmp_path)
        raw = yaml.safe_load(BASE_CONFIG)
        raw["fit"] = {
            "free": [{"path": "materials.nosuch.eps_b", "lower": 1.0, "upper": 3.0}]
        }
        cfg = write_config(tmp_path, yaml.safe_dump(raw))
        result = runner.invoke(
            main,
            ["fit", "--config", cfg, "--out-dir", str(tmp_path), "--target", target],
        )
        assert result.exit_code == 2

    def test_duplicate_free_path_exits_2(self, runner, tmp_path):
        target = make_target_csv(tmp_path)
        raw = yaml.safe_load(BASE_CONFIG)
        entry = {"path": "layers[1].thickness", "lower": 1800.0, "upper": 2200.0}
        raw["fit"] = {"free": [entry, dict(entry)]}
        cfg = write_config(tmp_path, yaml.safe_dump(raw))
        result = runner.invoke(
            main,
            ["fit", "--config", cfg, "--out-dir", str(tmp_path), "--target", target],
        )
        assert result.exit_code == 2
        assert "layers[1].thickness" in result.output

    def test_nan_target_exits_3(self, runner, tmp_path):
        path = tmp_path / "target.csv"
        path.write_text("1600.0,0.1\n1700.0,nan\n1800.0,0.1\n1900.0,0.2\n")
        raw = yaml.safe_load(BASE_CONFIG)
        raw["fit"] = {
            "free": [{"path": "layers[1].thickness", "lower": 1800.0, "upper": 2200.0}]
        }
        cfg = write_config(tmp_path, yaml.safe_dump(raw))
        result = runner.invoke(
            main,
            ["fit", "--config", cfg, "--out-dir", str(tmp_path), "--target", str(path)],
        )
        assert result.exit_code == 3

    def test_missing_target_exits_2(self, runner, tmp_path):
        raw = yaml.safe_load(BASE_CONFIG)
        raw["fit"] = {
            "free": [{"path": "layers[1].thickness", "lower": 1800.0, "upper": 2200.0}]
        }
        cfg = write_config(tmp_path, yaml.safe_dump(raw))
        result = runner.invoke(
            main,
            ["fit", "--config", cfg, "--out-dir", str(tmp_path), "--target",
             str(tmp_path / "absent.csv")],
        )
        assert result.exit_code == 2
