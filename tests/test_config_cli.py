"""Config parsing and the command-line surface."""

import contextlib
import copy
import io
import json
import re
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from vibropol import (ConfigError, SpectralGrid, default_z_grid, field_map, load_config,
                      parse_config, spectrum_scan)
from vibropol.cli import main
from vibropol.config import config_to_dict, parse_grid_spec

from test_io import FILE_DEFECTS

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.yaml"))

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


def full_raw():
    """BASE_CONFIG with every section and nested list the reader knows."""
    raw = yaml.safe_load(BASE_CONFIG)
    raw["materials"]["gold"]["bound"] = [{"f": 0.02, "gamma": 0.24, "omega0": 0.41}]
    raw["field_map"] = {"z_step": 10.0}
    raw["estimate"] = yaml.safe_load(ESTIMATE_CONFIG)["estimate"]
    raw["fit"] = {"free": [{"path": "layers[1].thickness", "lower": 1800.0, "upper": 2200.0}]}
    return raw


def with_value(raw, keys, value):
    raw = copy.deepcopy(raw)
    node = raw
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return raw


# cavity_coupled.yaml on a 7001-point grid, with a field map that sets only
# its angle and so takes that grid: too large a map for `field-map`, but
# no concern of the commands that make none
FINE_GRID_MAP = with_value(
    with_value(yaml.safe_load((ROOT / "configs" / "cavity_coupled.yaml").read_text()),
               ("grid", "step"), 0.1),
    ("field_map",), {"angle": 30.0},
)

# one case per kind of input the reader rejects: (keys, value, key path
# the error must name)
READER_DEFECTS = [
    # a section that is not a mapping
    (("scan",), [1], "scan"),
    (("materials",), [1], "materials"),
    # a list field that is not a list
    (("stack", "layers"), 5, "stack.layers"),
    (("fit", "free"), 5, "fit.free"),
    (("estimate", "polariton_fwhm_mev"), [1], "estimate.polariton_fwhm_mev"),
    # an unknown key at each nesting level
    (("scan", "polarisation"), "p", "scan.polarisation"),
    (("materials", "pvac", "epsb"), 2.0, "materials.pvac.epsb"),
    (("materials", "pvac", "oscillators", 0, "width"), 1.0,
     "materials.pvac.oscillators[0].width"),
    (("materials", "gold", "bound", 0, "width"), 1.0, "materials.gold.bound[0].width"),
    (("stack", "layers", 0, "index"), 1.5, "stack.layers[0].index"),
    (("fit", "free", 0, "step"), 1.0, "fit.free[0].step"),
    (("estimate", "vibration", "mass"), 1.0, "estimate.vibration.mass"),
    (("estimate", "cavity", "q"), 1.0, "estimate.cavity.q"),
    (("estimate", "bond_density", "bonds"), 1.0, "estimate.bond_density.bonds"),
    # a number that is not finite, or not a number
    (("materials", "gold", "omega_p"), float("nan"), "materials.gold.omega_p"),
    (("stack", "layers", 0, "thickness"), float("nan"), "stack.layers[0].thickness"),
    (("field_map", "z_step"), float("nan"), "field_map.z_step"),
    (("field_map", "margin_substrate_nm"), float("inf"), "field_map.margin_substrate_nm"),
    (("estimate", "bond_density", "bonds_per_monomer"), "x",
     "estimate.bond_density.bonds_per_monomer"),
    # a YAML integer beyond the float range
    (("grid", "max"), 10**399, "grid.max"),
    # a bool where an int goes
    (("fit", "n_starts"), True, "fit.n_starts"),
]


class TestConfigParsing:
    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_round_trip_through_dict(self, path):
        cfg = load_config(path)
        dumped = config_to_dict(cfg)
        again = parse_config(dumped)
        assert again == cfg
        assert config_to_dict(again) == dumped

    @pytest.mark.parametrize(
        "keys, value, where", READER_DEFECTS, ids=[case[2] for case in READER_DEFECTS]
    )
    def test_reader_names_the_bad_key(self, keys, value, where):
        raw = full_raw()
        parse_config(raw)
        with pytest.raises(ConfigError, match=re.escape(where)):
            parse_config(with_value(raw, keys, value))

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

    def test_angle_range_beyond_the_point_limit(self):
        raw = yaml.safe_load(BASE_CONFIG)
        raw["scan"]["angles"] = {"min": -60.0, "max": 60.0, "step": 1e-12}
        with pytest.raises(ConfigError, match=r"scan\.angles: \(max - min\) / step must be"):
            parse_config(raw)

    def test_scan_validation(self):
        raw = yaml.safe_load(BASE_CONFIG)
        raw["scan"] = {"polarization": "circular"}
        with pytest.raises(ConfigError):
            parse_config(raw)
        raw["scan"] = {"window": [2000.0, 1500.0]}
        with pytest.raises(ConfigError):
            parse_config(raw)
        for divergence in (-1.0, 30.5):
            raw["scan"] = {"divergence": divergence}
            with pytest.raises(ConfigError, match="scan: divergence must be"):
                parse_config(raw)

    def test_field_map_validation(self):
        raw = yaml.safe_load(BASE_CONFIG)
        raw["field_map"] = {"z_step": 0.0}
        with pytest.raises(ConfigError):
            parse_config(raw)
        raw["field_map"] = {"margin_ambient_nm": -5.0}
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_field_map_size_is_left_to_field_map(self):
        # the reader checks each key of a set field map, not the map's size
        # on the stack: only `field-map` makes the map
        raw = yaml.safe_load(BASE_CONFIG)
        raw["field_map"] = {"z_step": 0.0001}
        assert parse_config(raw).field_map.z_step == 0.0001
        raw = yaml.safe_load(BASE_CONFIG)
        raw["grid"]["step"] = 0.1
        raw["field_map"] = {"angle": 30.0}
        assert parse_config(raw).field_map.grid.points.size == 5001

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

    def test_fit_problem_needs_a_fit_section(self):
        cfg = parse_config(yaml.safe_load(BASE_CONFIG))
        k = np.linspace(1600.0, 1900.0, 4)
        with pytest.raises(ConfigError, match="'fit' section"):
            cfg.fit_problem(k, np.full_like(k, 0.1))

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


class InProcessRunner:
    """Runs the CLI in this process with stdout and stderr captured into
    one buffer, as a console shows them."""

    @staticmethod
    def invoke(cli, args):
        buffer, code, exception = io.StringIO(), 0, None
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
            try:
                cli(args=[str(a) for a in args], prog_name="vibropol")
            except SystemExit as exc:
                code = exc.code or 0
                exception = exc if code else None
            except Exception as exc:  # noqa: BLE001  (reported like a crash, exit 1)
                code, exception = 1, exc
        return SimpleNamespace(exit_code=code, output=buffer.getvalue(), exception=exception)


@pytest.fixture()
def runner():
    return InProcessRunner()


class TestSimulateCommand:
    def test_writes_spectrum_and_summary(self, runner, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", cfg, "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        assert result.output == f"{out / 'spectrum.csv'}\n{out / 'summary.json'}\n"
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

    def test_overflowing_grid_exits_2(self, runner, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        result = runner.invoke(
            main,
            ["simulate", "--config", cfg, "--out-dir", str(tmp_path), "--grid", "1:1e300:1e-300"],
        )
        assert result.exit_code == 2, result.output
        assert "--grid" in result.output
        assert not (tmp_path / "summary.json").exists()

    def test_grid_beyond_the_point_limit_exits_2(self, runner, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        result = runner.invoke(
            main,
            ["simulate", "--config", cfg, "--out-dir", str(tmp_path), "--grid", "1700:1800:1e-12"],
        )
        assert result.exit_code == 2, result.output
        assert "--grid: grid (max - min) / step must be finite and < 1e+06" in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "summary.json").exists()

    # the wavenumber range of the dielectric models and the kernel is
    # checked as the grid is read, so it names the grid, not the physics
    @pytest.mark.parametrize(
        "bounds, override, message",
        [((1e-5, 1.0), None, "grid: grid min must be between 0.001 and 1e+07 cm^-1, got 1e-05"),
         ((1500.0, 2e7), None,
          "grid: grid max must be between 1500 and 1e+07 cm^-1, got 20000000.0"),
         ((1500.0, 2000.0), "1e-5:1:0.5",
          "--grid: grid min must be between 0.001 and 1e+07 cm^-1, got 1e-05")],
        ids=["grid.min", "grid.max", "--grid"],
    )
    def test_grid_outside_the_wavenumber_range_exits_2(self, runner, tmp_path, bounds,
                                                        override, message):
        raw = yaml.safe_load(BASE_CONFIG)
        raw["grid"]["min"], raw["grid"]["max"] = bounds
        cfg = write_config(tmp_path, yaml.safe_dump(raw))
        args = ["simulate", "--config", cfg, "--out-dir", str(tmp_path)]
        result = runner.invoke(main, args + (["--grid", override] if override else []))
        assert result.exit_code == 2, result.output
        assert f"config error: {message}" in result.output
        assert not (tmp_path / "summary.json").exists()

    def test_stack_without_layers_exits_2_naming_the_key(self, runner, tmp_path):
        raw = yaml.safe_load(BASE_CONFIG)
        del raw["stack"]["layers"]
        cfg = write_config(tmp_path, yaml.safe_dump(raw))
        result = runner.invoke(main, ["simulate", "--config", cfg, "--out-dir", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert "stack: missing required key 'layers'" in result.output

    def test_reruns_are_byte_identical(self, runner, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        args = ["simulate", "--config", cfg, "--out-dir", str(out)]
        assert runner.invoke(main, args).exit_code == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert runner.invoke(main, args).exit_code == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    @pytest.mark.parametrize(
        "keys, message",
        [
            (("materials", "gold", "omega_p"), "materials.gold: plasma energy omega_p"),
            (("materials", "pvac", "oscillators", 0, "k0"),
             "materials.pvac.oscillators[0]: oscillator center k0"),
        ],
        ids=["omega_p", "k0"],
    )
    def test_parameter_whose_square_overflows_exits_2_naming_the_key(self, runner, tmp_path,
                                                                     keys, message):
        cfg = write_config(tmp_path, yaml.safe_dump(with_value(yaml.safe_load(BASE_CONFIG),
                                                               keys, 1e300)))
        result = runner.invoke(main, ["simulate", "--config", cfg, "--out-dir", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert f"config error: {message} must be finite and > 0 and <= 1.34078e+154" \
            in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "summary.json").exists()

    def test_material_whose_eps_overflows_exits_3_before_writing(self, runner, tmp_path):
        # omega_p passes its square limit, but gold's eps overflows on the grid
        cfg = write_config(tmp_path, yaml.safe_dump(with_value(
            yaml.safe_load(BASE_CONFIG), ("materials", "gold", "omega_p"), 1.0e154)))
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", cfg, "--out-dir", str(out)])
        assert result.exit_code == 3, result.output
        assert result.output == ("physics error: material 'gold': eps is not finite at "
                                 "1500.0 cm^-1\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "keys, value, message",
        [
            # a list is no model name; looking it up once raised TypeError
            (("materials", "gold", "model"), ["drude_lorentz"],
             "materials.gold.model: expected one of constant, lorentz, drude_lorentz, "
             "got ['drude_lorentz']"),
            # the ambient's eps is its index squared
            (("stack", "ambient_index"), 1e308,
             "stack: ambient index must be between 1 and 1.34078e+154, got 1e+308"),
            # a layer this thick once filled spectrum.csv with nan
            (("stack", "layers", 2, "thickness"), 1e308,
             "stack.layers[2]: layer thickness must be finite and > 0 and <= 1.34078e+154 nm, "
             "got 1e+308"),
        ],
        ids=["model-list", "ambient_index", "thickness"],
    )
    def test_config_edge_exits_2_with_one_line(self, runner, tmp_path, keys, value, message):
        cfg = write_config(tmp_path, yaml.safe_dump(with_value(yaml.safe_load(BASE_CONFIG),
                                                               keys, value)))
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", cfg, "--out-dir", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output == f"config error: {message}\n"
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "case",
        [case for case in READER_DEFECTS
         if case[2] in ("scan", "materials.gold.omega_p", "grid.max")],
        ids=lambda case: case[2],
    )
    def test_reader_defect_exits_2(self, runner, tmp_path, case):
        keys, value, where = case
        cfg = write_config(tmp_path, yaml.safe_dump(with_value(full_raw(), keys, value)))
        result = runner.invoke(main, ["simulate", "--config", cfg, "--out-dir", str(tmp_path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert where in result.output

    def test_nan_divergence_exits_2(self, runner, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        result = runner.invoke(
            main,
            ["simulate", "--config", cfg, "--out-dir", str(tmp_path), "--divergence", "nan"],
        )
        assert result.exit_code == 2
        assert "scan.divergence" in result.output
        assert not (tmp_path / "summary.json").exists()
        # a finite sigma beyond 30 degrees fails the ScanSettings range check
        result = runner.invoke(
            main,
            ["simulate", "--config", cfg, "--out-dir", str(tmp_path), "--divergence", "1e308"],
        )
        assert result.exit_code == 2
        assert "scan: divergence must be between 0 and 30 degrees, got 1e+308" in result.output
        assert "Warning" not in result.output
        assert not (tmp_path / "summary.json").exists()

    def test_physics_error_exits_3(self, runner, tmp_path):
        path = tmp_path / "measured.csv"
        path.write_text("1600.0,0.1\n1700,abc\n1800.0,0.1\n")
        result = runner.invoke(main, ["analyze", str(path)])
        assert result.exit_code == 3
        assert "physics error: " in result.output

    @pytest.mark.parametrize(
        "command, keys, value, args, message",
        [
            ("simulate", ("scan", "angle"), 95.0, [], "scan: angle"),
            ("scan-angle", ("scan", "angles"), [0.0, 95.0], [], "scan: angles[1]"),
            ("scan-angle", ("scan", "angles"), {"min": 0.0, "max": 95.0, "step": 5.0}, [],
             "scan: angles[18]"),
            ("field-map", ("field_map", "angle"), 95.0, [], "field_map: angle"),
            ("simulate", None, None, ["--angle", "95"], "scan: angle"),
            ("field-map", None, None, ["--angle", "95"], "field_map: angle"),
            ("simulate", ("fit", "angle"), 95.0, [], "fit: angle"),
        ],
        ids=["scan.angle", "scan.angles", "scan.angles-range", "field_map.angle",
             "simulate--angle", "field-map--angle", "fit.angle"],
    )
    def test_out_of_range_angle_exits_2_naming_its_key(self, runner, tmp_path, command, keys,
                                                       value, args, message):
        raw = full_raw()
        raw["scan"]["angles"] = [0.0, 30.0]
        if keys is not None:
            raw = with_value(raw, keys, value)
        cfg = write_config(tmp_path, yaml.safe_dump(raw))
        out = tmp_path / "out"
        result = runner.invoke(main, [command, "--config", cfg, "--out-dir", str(out), *args])
        assert result.exit_code == 2, result.output
        assert f"config error: {message} must be finite and > -90 and < 90 degrees" \
            in result.output
        assert not out.exists()

    def test_non_utf8_config_exits_2(self, runner, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_bytes(BASE_CONFIG.encode() + b"# \xff\n")
        result = runner.invoke(main, ["simulate", "--config", cfg, "--out-dir", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert "config error: cannot read config" in result.output
        assert "Traceback" not in result.output


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
        assert result.output == f"{out / 'dispersion.csv'}\n"
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

    def test_sparse_window_rows_hold_no_peak(self, runner, tmp_path):
        # a window of fewer than 3 grid samples holds no peak, as in simulate
        raw = yaml.safe_load((ROOT / "configs" / "cavity_dispersion.yaml").read_text())
        raw["scan"]["window"] = [1500.0, 1500.4]
        cfg = write_config(tmp_path, yaml.safe_dump(raw))
        out = tmp_path / "out"
        result = runner.invoke(main, ["scan-angle", "--config", cfg, "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        assert len(list(out.iterdir())) == 26
        rows = (out / "dispersion.csv").read_text().splitlines()
        assert len(rows) == 2 + 25
        assert all(r.endswith(",,,peaks=0") for r in rows[2:])


class TestFieldMapCommand:
    def test_map_matches_library(self, runner, tmp_path):
        raw = yaml.safe_load(BASE_CONFIG)
        raw["field_map"] = {"grid": {"min": 1700.0, "max": 1780.0, "step": 40.0}, "z_step": 500.0}
        cfg = write_config(tmp_path, yaml.safe_dump(raw))
        out = tmp_path / "out"
        result = runner.invoke(main, ["field-map", "--config", cfg, "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        assert result.output == f"{out / 'field_map.csv'}\n"
        rows = (out / "field_map.csv").read_text().splitlines()
        assert rows[3] == "k_cm1,z_nm,intensity"
        data = np.array([[float(x) for x in r.split(",")] for r in rows[4:]])
        assert set(data[:, 0]) == {1700.0, 1740.0, 1780.0}
        assert data[0, 1] == -200.0
        assert np.all(data[:, 2] >= 0.0)

    def test_csv_reads_back_to_the_library_map(self, runner, tmp_path):
        # k and z are written exact, the intensity at 10 significant digits
        raw = yaml.safe_load(BASE_CONFIG)
        raw["field_map"] = {"grid": {"min": 1700.0, "max": 1780.0, "step": 20.0},
                            "z_step": 50.0, "angle": 20.0, "polarization": "p"}
        cfg = write_config(tmp_path, yaml.safe_dump(raw))
        out = tmp_path / "out"
        result = runner.invoke(main, ["field-map", "--config", cfg, "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        config = parse_config(raw)
        settings = config.field_map
        z = default_z_grid(config.stack, z_step=settings.z_step,
                           margin_ambient=settings.margin_ambient_nm,
                           margin_substrate=settings.margin_substrate_nm)
        fmap = field_map(config.stack, settings.grid, z=z, angle=20.0, polarization="p")
        rows = (out / "field_map.csv").read_text().splitlines()[4:]
        data = np.array([[float(x) for x in r.split(",")] for r in rows])
        assert data.shape == (fmap.k.size * fmap.z.size, 3)
        assert np.array_equal(data[:, 0], np.repeat(fmap.k, fmap.z.size))
        assert np.array_equal(data[:, 1], np.tile(fmap.z, fmap.k.size))
        np.testing.assert_allclose(data[:, 2], fmap.intensity.ravel(), rtol=5e-10, atol=0.0)

    @pytest.mark.parametrize(
        "raw, message",
        [
            (with_value(yaml.safe_load(BASE_CONFIG), ("field_map",), {"z_step": 0.0001}),
             "config error: field_map.z_step: z span / z_step must be finite and < 1e+06, "
             "got 23500000.0"),
            (with_value(yaml.safe_load(BASE_CONFIG), ("field_map",),
                        {"grid": {"min": 1000.0, "max": 2000.0, "step": 0.01}, "z_step": 0.05}),
             "config error: field_map.grid: field map of 100001 wavenumbers x 47001 depths "
             "must hold at most 1e+06 cells"),
            (FINE_GRID_MAP,
             "config error: field_map.grid: field map of 7001 wavenumbers x 236 depths "
             "must hold at most 1e+06 cells"),
        ],
        ids=["long-z-axis", "too-many-cells", "fine-grid-set-map"],
    )
    def test_oversized_map_exits_2(self, runner, tmp_path, raw, message):
        cfg = write_config(tmp_path, yaml.safe_dump(raw))
        out = tmp_path / "out"
        result = runner.invoke(main, ["field-map", "--config", cfg, "--out-dir", str(out)])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert "Traceback" not in result.output
        assert not (out / "field_map.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    def test_other_commands_ignore_the_map_size(self, runner, tmp_path, command):
        cfg = write_config(tmp_path, yaml.safe_dump(FINE_GRID_MAP))
        out = tmp_path / "out"
        result = runner.invoke(main, [command, "--config", cfg, "--out-dir", str(out)])
        assert result.exit_code == 0, result.output

    def test_default_map_beyond_the_cell_limit_exits_2(self, runner, tmp_path):
        # with no field_map section the map takes the top-level grid: the
        # spectrum commands may use it, the field map may not
        raw = yaml.safe_load(BASE_CONFIG)
        raw["grid"]["step"] = 0.1
        assert parse_config(raw).field_map.grid.points.size == 5001
        cfg = write_config(tmp_path, yaml.safe_dump(raw))
        out = tmp_path / "out"
        result = runner.invoke(main, ["field-map", "--config", cfg, "--out-dir", str(out)])
        assert result.exit_code == 2, result.output
        assert ("config error: field_map.grid: field map of 5001 wavenumbers x 236 depths"
                in result.output)
        assert not (out / "field_map.csv").exists()

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


def both_formats(runner, tmp_path):
    """The BASE_CONFIG spectrum as a native CSV and as a two-column file."""
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    assert runner.invoke(main, ["simulate", "--config", cfg, "--out-dir", str(out)]).exit_code == 0
    base = parse_config(yaml.safe_load(BASE_CONFIG))
    sp = spectrum_scan(base.stack, base.grid)
    two = tmp_path / "two.csv"
    two.write_text("".join(f"{k!r},{t!r}\n" for k, t in zip(sp.k.tolist(), sp.T.tolist())))
    return [str(out / "spectrum.csv"), str(two)]


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

    def test_short_window_gives_no_peaks_in_both_formats(self, runner, tmp_path):
        for path in both_formats(runner, tmp_path):
            result = runner.invoke(main, ["analyze", path, "--window", "1600:1600.1"])
            assert result.exit_code == 0, result.output
            for block in json.loads(result.output)["channels"].values():
                assert block["peaks"] == [] and block["splitting"] is None

    @pytest.mark.parametrize(
        "content",
        ["# export\n1600.0,0.1\n1700,abc\n1800.0,0.1\n",
         "k_cm1,T,R,A\n1500,0.1,0.2,0.7\n1600,0.1,x,0.2\n"],
        ids=["two-column", "native"],
    )
    def test_non_numeric_cell_exits_3_naming_the_line(self, runner, tmp_path, content):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        result = runner.invoke(main, ["analyze", str(path)])
        assert result.exit_code == 3, result.output
        assert "bad.csv, line 3: non-numeric cell" in result.output
        assert "Traceback" not in result.output

    def test_non_utf8_file_exits_3_naming_the_file(self, runner, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"# \xff\n1600.0,0.1\n1700.0,0.2\n1800.0,0.1\n")
        result = runner.invoke(main, ["analyze", str(path)])
        assert result.exit_code == 3, result.output
        assert "bad.csv: not UTF-8 text" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("content, message", FILE_DEFECTS.values(), ids=FILE_DEFECTS)
    def test_file_defect_exits_3_naming_the_line(self, runner, tmp_path, content, message):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        result = runner.invoke(main, ["analyze", str(path)])
        assert result.exit_code == 3, result.output
        assert f"bad.csv{message}" in result.output
        assert "Traceback" not in result.output

    def test_unsorted_native_gives_the_peaks_of_its_two_column_t(self, runner, tmp_path):
        native, two = both_formats(runner, tmp_path)
        lines = Path(native).read_text().splitlines(keepends=True)
        unsorted = tmp_path / "unsorted.csv"
        unsorted.write_text("".join(lines[:3] + lines[:2:-1]))
        peaks = [
            json.loads(runner.invoke(main, ["analyze", path]).output)["channels"][channel]["peaks"]
            for path, channel in ((str(unsorted), "T"), (native, "T"), (two, "value"))
        ]
        assert len(peaks[0]) == 2
        assert peaks[0] == peaks[1] == peaks[2]

    def test_negative_min_prominence_exits_2_in_both_formats(self, runner, tmp_path):
        for path in both_formats(runner, tmp_path):
            result = runner.invoke(main, ["analyze", path, "--min-prominence", "-1"])
            assert result.exit_code == 2, result.output
            assert "min_prominence" in result.output

    @pytest.mark.parametrize("window", ["2000:1500", "nan:2000"])
    def test_bad_window_values_exit_2_in_both_formats(self, runner, tmp_path, window):
        for path in both_formats(runner, tmp_path):
            result = runner.invoke(main, ["analyze", path, "--window", window])
            assert result.exit_code == 2, result.output
            assert "window" in result.output


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

    # each value is checked as the config loads, naming its key, not when
    # the report runs into it
    @pytest.mark.parametrize(
        "keys, value, message",
        [(("temperature_K",), -5.0,
          "estimate: temperature_K must be finite and >= 0 K, got -5.0"),
         (("observed_splitting_mev",), -3.0,
          "estimate: observed_splitting_mev must be finite and > 0 meV, got -3.0"),
         (("polariton_fwhm_mev", "lower"), 0.0,
          "estimate: polariton_fwhm_mev.lower must be finite and > 0 meV, got 0.0"),
         (("bond_density", "mass_density_g_cm3"), -1.0,
          "estimate.bond_density: mass_density_g_cm3 must be finite and > 0, got -1.0"),
         (("bond_density", "monomer_mass_g_mol"), 0.0,
          "estimate.bond_density: monomer_mass_g_mol must be finite and > 0, got 0.0"),
         (("bond_density", "bonds_per_monomer"), -2.0,
          "estimate.bond_density: bonds_per_monomer must be finite and > 0, got -2.0")],
        ids=["temperature_K", "observed_splitting_mev", "polariton_fwhm_mev", "mass_density",
             "monomer_mass", "bonds_per_monomer"],
    )
    def test_bad_value_exits_2_naming_the_key(self, runner, tmp_path, keys, value, message):
        raw = with_value(yaml.safe_load(ESTIMATE_CONFIG), ("estimate", *keys), value)
        cfg = write_config(tmp_path, yaml.safe_dump(raw))
        result = runner.invoke(main, ["estimate", "--config", cfg])
        assert result.exit_code == 2, result.output
        assert f"config error: {message}" in result.output


    def test_overflowing_default_volume_exits_2_with_one_line(self, runner, tmp_path):
        # (lambda / n)^3 past the largest float once raised OverflowError
        raw = with_value(yaml.safe_load(ESTIMATE_CONFIG), ("estimate", "cavity",
                                                           "background_index"), 1e-300)
        cfg = write_config(tmp_path, yaml.safe_dump(raw))
        out = tmp_path / "out"
        result = runner.invoke(main, ["estimate", "--config", cfg, "--out-dir", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output == ("config error: estimate.cavity: mode volume (1e-2 / (omega_cm1 "
                                 "background_index))^3 must be finite and > 0 m^3, got inf\n")
        assert not out.exists()


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
        assert result.output == f"{out / 'fit.json'}\n"
        payload = json.loads((out / "fit.json").read_text())
        assert payload["success"] is True
        assert payload["params"]["layers[1].thickness"] == pytest.approx(1930.0, abs=5.0)
        assert payload["loss"] < 1e-8
        assert payload["seed"] == 0
        curve = (out / "fit_curve.csv").read_text().splitlines()
        assert curve[0] == "k_cm1,target,model"
        assert len(curve) == 1 + 61
        # the package reads its own fit curve back, as analyze input and as a target
        result = runner.invoke(main, ["analyze", str(out / "fit_curve.csv")])
        assert result.exit_code == 0, result.output
        assert len(json.loads(result.output)["channels"]["value"]["peaks"]) == 2
        again = tmp_path / "again"
        result = runner.invoke(main, ["fit", "--config", cfg, "--out-dir", str(again),
                                      "--target", str(out / "fit_curve.csv")])
        assert result.exit_code == 0, result.output
        assert (again / "fit_curve.csv").read_bytes() == (out / "fit_curve.csv").read_bytes()

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

    def test_negative_seed_override_exits_2(self, runner, tmp_path):
        target = make_target_csv(tmp_path)
        raw = yaml.safe_load(BASE_CONFIG)
        raw["fit"] = {
            "free": [{"path": "layers[1].thickness", "lower": 1800.0, "upper": 2200.0}]
        }
        cfg = write_config(tmp_path, yaml.safe_dump(raw))
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["fit", "--config", cfg, "--out-dir", str(out), "--target", target, "--seed", "-1"],
        )
        assert result.exit_code == 2, result.output
        assert "fit: seed" in result.output
        assert not out.exists()

    def test_non_numeric_target_cell_exits_3(self, runner, tmp_path):
        target = tmp_path / "target.csv"
        target.write_text("1600.0,0.5\n1700,abc\n1800.0,0.5\n")
        raw = yaml.safe_load(BASE_CONFIG)
        raw["fit"] = {
            "free": [{"path": "layers[1].thickness", "lower": 1800.0, "upper": 2200.0}]
        }
        cfg = write_config(tmp_path, yaml.safe_dump(raw))
        result = runner.invoke(
            main, ["fit", "--config", cfg, "--out-dir", str(tmp_path), "--target", str(target)]
        )
        assert result.exit_code == 3, result.output
        assert "target.csv, line 2: non-numeric cell" in result.output
        assert "Traceback" not in result.output

    def test_non_utf8_target_exits_3(self, runner, tmp_path):
        target = tmp_path / "target.csv"
        target.write_bytes(b"1600.0,0.5\n1700.0,0.5\xff\n1800.0,0.5\n")
        raw = yaml.safe_load(BASE_CONFIG)
        raw["fit"] = {
            "free": [{"path": "layers[1].thickness", "lower": 1800.0, "upper": 2200.0}]
        }
        cfg = write_config(tmp_path, yaml.safe_dump(raw))
        result = runner.invoke(
            main, ["fit", "--config", cfg, "--out-dir", str(tmp_path), "--target", str(target)]
        )
        assert result.exit_code == 3, result.output
        assert "target.csv: not UTF-8 text" in result.output
        assert "Traceback" not in result.output

    def test_template_whose_eps_overflows_exits_3_before_writing(self, runner, tmp_path):
        # the fit refuses the template that simulate refuses, fixed material or free
        target = make_target_csv(tmp_path)
        raw = with_value(yaml.safe_load(BASE_CONFIG), ("materials", "gold", "omega_p"), 1.0e154)
        raw["fit"] = {
            "free": [{"path": "layers[1].thickness", "lower": 1800.0, "upper": 2200.0}]
        }
        cfg = write_config(tmp_path, yaml.safe_dump(raw))
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["fit", "--config", cfg, "--out-dir", str(out), "--target", target]
        )
        assert result.exit_code == 3, result.output
        assert result.output == ("physics error: material 'gold': eps is not finite at "
                                 "1600.0 cm^-1\n")
        assert not (out / "fit.json").exists()
        assert not (out / "fit_curve.csv").exists()

    def test_config_without_fit_section_exits_2(self, runner, tmp_path):
        target = make_target_csv(tmp_path)
        cfg = write_config(tmp_path, BASE_CONFIG)
        result = runner.invoke(
            main,
            ["fit", "--config", cfg, "--out-dir", str(tmp_path), "--target", target],
        )
        assert result.exit_code == 2, result.output
        assert "config has no 'fit' section" in result.output
        assert not (tmp_path / "fit.json").exists()

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

    def test_bound_outside_domain_exits_2(self, runner, tmp_path):
        target = make_target_csv(tmp_path)
        raw = yaml.safe_load(BASE_CONFIG)
        path = "materials.pvac.oscillators[0].gamma"
        raw["fit"] = {"free": [{"path": path, "lower": -10.0, "upper": 40.0}]}
        cfg = write_config(tmp_path, yaml.safe_dump(raw))
        result = runner.invoke(
            main,
            ["fit", "--config", cfg, "--out-dir", str(tmp_path), "--target", target],
        )
        assert result.exit_code == 2
        assert f"lower bound -10.0 of '{path}'" in result.output

    def test_nan_target_exits_3(self, runner, tmp_path):
        raw = yaml.safe_load(BASE_CONFIG)
        raw["fit"] = {
            "free": [{"path": "layers[1].thickness", "lower": 1800.0, "upper": 2200.0}]
        }
        cfg = write_config(tmp_path, yaml.safe_dump(raw))
        path = tmp_path / "target.csv"
        for content, message in [
            ("1600.0,0.1\n1700.0,nan\n1800.0,0.1\n1900.0,0.2\n", ", line 2: non-finite cell"),
            # a repeated wavenumber is a defect of the file, not of the config
            ("1600.0,0.1\n1700.0,0.2\n1700,0.3\n1800.0,0.1\n",
             ", line 3: wavenumber repeats line 2"),
            ("k_cm1,T,R,A\n1600,0.1,0.2,0.7\n1700,0.3,0.1,0.6\n", ": a native"),
        ]:
            path.write_text(content)
            result = runner.invoke(
                main,
                ["fit", "--config", cfg, "--out-dir", str(tmp_path), "--target", str(path)],
            )
            assert result.exit_code == 3
            assert f"target.csv{message}" in result.output
            assert "Traceback" not in result.output

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


# argparse's own checks: a usage message and exit 2, before any file is read
@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: COMMAND"),
        (["simulate"], "the following arguments are required: --config"),
        (["simulate", "--config", "absent.yaml"], "'absent.yaml' is not an existing file"),
        (["analyze", "."], "'.' is not an existing file"),
        (["simulate", "--config", "CFG", "--polarization", "x"], "invalid choice: 'x'"),
        (["analyze", "CFG", "--channel", "T"], "unrecognized arguments: --channel T"),
        (["simulate", "--config", "CFG", "--out-dir", "CFG"], "is a file, not a directory"),
        (["estimate", "--config", "CFG", "--out-dir", "CFG"], "is a file, not a directory"),
        (["simulate", "--config", "CFG", "--angle", "ten"], "invalid float value: 'ten'"),
        (["fit", "--config", "CFG", "--target", "CFG", "--seed", "1.5"], "invalid int value"),
        # no prefix matching, as with click
        (["simulate", "--config", "CFG", "--out", "x"], "unrecognized arguments: --out x"),
        # a value that starts with '-' and is no number is written --window=-5:3
        (["analyze", "CFG", "--window", "-5:3"], "argument --window: expected one argument"),
    ],
)
def test_usage_error_exits_2(runner, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, BASE_CONFIG)
    result = runner.invoke(main, [cfg if arg == "CFG" else arg for arg in argv])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "usage: vibropol" in result.output
    assert message in result.output
    assert "Traceback" not in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.yaml"]


@pytest.mark.parametrize("command", ["simulate", "estimate"])
def test_out_dir_the_os_refuses_exits_2(runner, tmp_path, command):
    # argparse takes any path but an existing file; one below a file is
    # refused when the command first writes there
    cfg = write_config(tmp_path, ESTIMATE_CONFIG if command == "estimate" else BASE_CONFIG)
    out = tmp_path / "run.yaml" / "out"
    result = runner.invoke(main, [command, "--config", cfg, "--out-dir", out])
    assert result.exit_code == 2, result.output
    assert result.output == f"file error: [Errno 20] Not a directory: '{out}'\n"


def test_help_lists_every_command(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0, result.output
    for command in ("simulate", "scan-angle", "field-map", "analyze", "estimate", "fit"):
        assert command in result.output
        assert runner.invoke(main, [command, "--help"]).exit_code == 0


def reference_keys():
    """Keys named in the tables of docs/config_reference.md, by heading
    (each table under a heading is one entry of the list), and the
    estimate example parsed as YAML."""
    text = (ROOT / "docs" / "config_reference.md").read_text()
    tables, heading, in_table = {}, None, False
    for line in text.splitlines():
        m = re.match(r"##+ `([^`]+)`", line)
        if m:
            heading = m.group(1)
        if line.startswith("|") and not in_table:
            tables.setdefault(heading, []).append(set())
        m = re.match(r"\| `(\w+)`", line)
        if m:
            tables[heading][-1].add(m.group(1))
        in_table = line.startswith("|")
    example = re.search(r"## `estimate`.*?```\n(.*?)```", text, re.S).group(1)
    return tables, yaml.safe_load(example)["estimate"]


def test_reference_lists_the_keys_the_reader_reads():
    tables, estimate = reference_keys()
    # the canonical dump holds every key the reader accepts, defaults filled in
    dump = config_to_dict(parse_config(full_raw()))
    mats, dumped_estimate = dump["materials"], dump["estimate"]
    pairs = {
        "model: constant": (tables["model: constant"][0] | {"model"}, mats["germanium"]),
        "model: lorentz": (tables["model: lorentz"][0] | {"model"}, mats["pvac"]),
        "oscillator": (tables["model: lorentz"][1], mats["pvac"]["oscillators"][0]),
        "model: drude_lorentz": (tables["model: drude_lorentz"][0] | {"model"}, mats["gold"]),
        "estimate": (set(estimate), dumped_estimate),
        **{
            f"estimate.{block}": (set(estimate[block]), dumped_estimate[block])
            for block in ("vibration", "cavity", "bond_density")
        },
        **{
            section: (tables[section][0], dump[section])
            for section in ("stack", "grid", "scan", "field_map", "fit")
        },
    }
    for name, (documented, read) in pairs.items():
        assert documented == set(read), name
