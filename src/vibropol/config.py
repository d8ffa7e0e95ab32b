"""YAML run configuration: materials, stack, grids and the per-command
sections consumed by the CLI.

A config file looks like

    materials:
      gold: {model: drude_lorentz}
      pvac:
        model: lorentz
        eps_b: 1.9881
        oscillators:
          - {f: 5.0e4, k0: 1739.0, gamma: 13.0}
      germanium: {model: constant, eps: 16.0}
    stack:
      ambient_index: 1.0
      layers:
        - {material: gold, thickness: 10.0}
        - {material: pvac, thickness: 1930.0}
        - {material: gold, thickness: 10.0}
      substrate: germanium
      substrate_mode: incoherent_to_air
    grid: {min: 400.0, max: 7400.0, step: 1.0}

plus optional `scan`, `field_map`, `estimate` and `fit` sections.  Any
structural or value problem raises ConfigError naming the offending key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import yaml

from .errors import ConfigError, DomainError
from .fit import FitProblem, FreeParameter
from .materials import (
    BoundTransition,
    ConstantMedium,
    DrudeLorentzMetal,
    LorentzMedium,
    LorentzOscillator,
)
from .polariton import CavityMode, VibrationalMode
from .tmm import Layer, LayerStack, SpectralGrid

__all__ = ["Config", "load_config", "parse_config", "config_to_dict", "parse_grid_spec"]

DEFAULT_GRID = SpectralGrid(400.0, 7400.0, 1.0)


def _require(mapping, key, where):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where}: expected a mapping")
    if key not in mapping:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return mapping[key]


def _number(value, where, allow_none=False):
    if value is None and allow_none:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _build_material(name, spec):
    where = f"materials.{name}"
    model = _require(spec, "model", where)
    try:
        if model == "constant":
            return ConstantMedium(
                complex(
                    _number(_require(spec, "eps", where), where + ".eps"),
                    _number(spec.get("eps_imag", 0.0), where + ".eps_imag"),
                )
            )
        if model == "lorentz":
            oscillators = []
            for i, osc in enumerate(spec.get("oscillators", [])):
                w = f"{where}.oscillators[{i}]"
                oscillators.append(
                    LorentzOscillator(
                        f=_number(_require(osc, "f", w), w + ".f"),
                        k0=_number(_require(osc, "k0", w), w + ".k0"),
                        gamma=_number(_require(osc, "gamma", w), w + ".gamma"),
                    )
                )
            return LorentzMedium(
                eps_b=_number(_require(spec, "eps_b", where), where + ".eps_b"),
                oscillators=tuple(oscillators),
            )
        if model == "drude_lorentz":
            kwargs = {}
            for key in ("omega_p", "f0", "gamma0", "damping_multiplier"):
                if key in spec:
                    kwargs[key] = _number(spec[key], f"{where}.{key}")
            if "bound" in spec:
                bound = []
                for i, tr in enumerate(spec["bound"]):
                    w = f"{where}.bound[{i}]"
                    bound.append(
                        BoundTransition(
                            f=_number(_require(tr, "f", w), w + ".f"),
                            gamma=_number(_require(tr, "gamma", w), w + ".gamma"),
                            omega0=_number(_require(tr, "omega0", w), w + ".omega0"),
                        )
                    )
                kwargs["bound"] = tuple(bound)
            return DrudeLorentzMetal(**kwargs)
    except DomainError as err:
        raise ConfigError(f"{where}: {err}") from err
    raise ConfigError(f"{where}: unknown model {model!r}")


def _build_stack(raw, materials):
    where = "stack"
    layers = []
    for i, ly in enumerate(_require(raw, "layers", where)):
        w = f"{where}.layers[{i}]"
        layers.append(
            Layer(
                material=str(_require(ly, "material", w)),
                thickness=_number(_require(ly, "thickness", w), w + ".thickness"),
            )
        )
    try:
        return LayerStack(
            materials=materials,
            layers=tuple(layers),
            substrate=str(_require(raw, "substrate", where)),
            n_ambient=_number(raw.get("ambient_index", 1.0), where + ".ambient_index"),
            substrate_mode=str(raw.get("substrate_mode", "coherent")),
        )
    except DomainError as err:
        raise ConfigError(f"{where}: {err}") from err


def _build_grid(raw, where="grid"):
    try:
        return SpectralGrid(
            k_min=_number(_require(raw, "min", where), where + ".min"),
            k_max=_number(_require(raw, "max", where), where + ".max"),
            step=_number(raw.get("step", 1.0), where + ".step"),
        )
    except DomainError as err:
        raise ConfigError(f"{where}: {err}") from err


def parse_grid_spec(text):
    """min:max:step string (CLI --grid) to a SpectralGrid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid spec {text!r} must look like min:max:step")
    try:
        k_min, k_max, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"grid spec {text!r} has non-numeric parts") from None
    try:
        return SpectralGrid(k_min, k_max, step)
    except DomainError as err:
        raise ConfigError(f"grid spec {text!r}: {err}") from err


def _angles_list(raw, where):
    if isinstance(raw, list):
        return [_number(a, where) for a in raw]
    if isinstance(raw, dict):
        lo = _number(_require(raw, "min", where), where + ".min")
        hi = _number(_require(raw, "max", where), where + ".max")
        step = _number(raw.get("step", 5.0), where + ".step")
        if step <= 0 or hi < lo:
            raise ConfigError(f"{where}: need min <= max and step > 0")
        n = int(np.floor((hi - lo) / step + 1e-9)) + 1
        return [lo + i * step for i in range(n)]
    raise ConfigError(f"{where}: expected a list or a min/max/step mapping")


@dataclass
class ScanSettings:
    angle: float = 0.0
    polarization: str = "s"
    angles: list = field(default_factory=list)
    divergence: float = 0.0
    channel: str = "T"
    window: tuple | None = None
    min_prominence: float | None = None


@dataclass
class FieldMapSettings:
    grid: SpectralGrid
    angle: float = 0.0
    polarization: str = "s"
    z_step: float = 10.0
    margin_ambient_nm: float = 200.0
    margin_substrate_nm: float = 200.0


@dataclass
class EstimateSettings:
    vibration: VibrationalMode
    cavity: CavityMode
    temperature_k: float = 300.0
    density: dict | None = None
    observed_splitting_mev: float | None = None
    polariton_fwhm_mev: dict | None = None


@dataclass
class FitSettings:
    free: tuple[FreeParameter, ...]
    channel: str = "T"
    angle: float = 0.0
    polarization: str = "s"
    n_starts: int = 1
    seed: int = 0


@dataclass
class Config:
    """Everything a CLI run needs, already validated."""

    stack: LayerStack | None
    grid: SpectralGrid
    scan: ScanSettings
    field_map: FieldMapSettings
    estimate: EstimateSettings | None
    fit: FitSettings | None
    raw: dict

    def require_stack(self):
        if self.stack is None:
            raise ConfigError("this command needs 'materials' and 'stack' sections")
        return self.stack

    def fit_problem(self, k, target):
        """Assemble a FitProblem against measured (k, target) data."""
        if self.fit is None:
            raise ConfigError("this command needs a 'fit' section")
        try:
            return FitProblem(
                stack=self.require_stack(),
                free=self.fit.free,
                k=k,
                target=target,
                channel=self.fit.channel,
                angle=self.fit.angle,
                polarization=self.fit.polarization,
            )
        except DomainError as err:
            raise ConfigError(f"fit: {err}") from err


def _parse_scan(raw):
    settings = ScanSettings()
    if raw is None:
        return settings
    settings.angle = _number(raw.get("angle", 0.0), "scan.angle")
    settings.polarization = str(raw.get("polarization", "s"))
    if settings.polarization not in ("s", "p", "unpolarized"):
        raise ConfigError("scan.polarization must be s, p or unpolarized")
    if "angles" in raw:
        settings.angles = _angles_list(raw["angles"], "scan.angles")
    settings.divergence = _number(raw.get("divergence", 0.0), "scan.divergence")
    if settings.divergence < 0:
        raise ConfigError("scan.divergence must be >= 0 degrees")
    settings.channel = str(raw.get("channel", "T"))
    if settings.channel not in ("T", "R", "A"):
        raise ConfigError("scan.channel must be T, R or A")
    if raw.get("window") is not None:
        win = raw["window"]
        if not (isinstance(win, list) and len(win) == 2):
            raise ConfigError("scan.window must be [lo, hi]")
        settings.window = (_number(win[0], "scan.window"), _number(win[1], "scan.window"))
        if not settings.window[0] < settings.window[1]:
            raise ConfigError("scan.window must satisfy lo < hi")
    settings.min_prominence = _number(
        raw.get("min_prominence"), "scan.min_prominence", allow_none=True
    )
    return settings


def _parse_field_map(raw, default_grid):
    settings = FieldMapSettings(grid=default_grid)
    if raw is None:
        return settings
    if "grid" in raw:
        settings.grid = _build_grid(raw["grid"], "field_map.grid")
    settings.angle = _number(raw.get("angle", 0.0), "field_map.angle")
    settings.polarization = str(raw.get("polarization", "s"))
    if settings.polarization not in ("s", "p", "unpolarized"):
        raise ConfigError("field_map.polarization must be s, p or unpolarized")
    settings.z_step = _number(raw.get("z_step", 10.0), "field_map.z_step")
    if settings.z_step <= 0:
        raise ConfigError("field_map.z_step must be positive")
    settings.margin_ambient_nm = _number(
        raw.get("margin_ambient_nm", 200.0), "field_map.margin_ambient_nm"
    )
    settings.margin_substrate_nm = _number(
        raw.get("margin_substrate_nm", 200.0), "field_map.margin_substrate_nm"
    )
    if settings.margin_ambient_nm < 0 or settings.margin_substrate_nm < 0:
        raise ConfigError("field_map margins must be non-negative")
    return settings


def _parse_estimate(raw):
    if raw is None:
        return None
    where = "estimate"
    vib_raw = _require(raw, "vibration", where)
    cav_raw = _require(raw, "cavity", where)
    try:
        vibration = VibrationalMode(
            omega_cm1=_number(_require(vib_raw, "omega_cm1", "estimate.vibration"),
                              "estimate.vibration.omega_cm1"),
            dipole_debye=_number(vib_raw.get("dipole_debye", 0.0), "estimate.vibration.dipole_debye"),
            damping_fwhm_mev=_number(vib_raw.get("damping_fwhm_mev", 0.0),
                                     "estimate.vibration.damping_fwhm_mev"),
            reduced_mass_amu=_number(vib_raw.get("reduced_mass_amu"),
                                     "estimate.vibration.reduced_mass_amu", allow_none=True),
        )
        cavity = CavityMode(
            omega_cm1=_number(_require(cav_raw, "omega_cm1", "estimate.cavity"),
                              "estimate.cavity.omega_cm1"),
            kappa_fwhm_mev=_number(cav_raw.get("kappa_fwhm_mev", 0.0),
                                   "estimate.cavity.kappa_fwhm_mev"),
            background_index=_number(cav_raw.get("background_index", 1.41),
                                     "estimate.cavity.background_index"),
            mode_volume_m3=_number(cav_raw.get("mode_volume_m3"),
                                   "estimate.cavity.mode_volume_m3", allow_none=True),
        )
    except DomainError as err:
        raise ConfigError(f"{where}: {err}") from err
    density = raw.get("bond_density")
    if density is not None:
        for key in ("mass_density_g_cm3", "monomer_mass_g_mol"):
            _number(_require(density, key, "estimate.bond_density"), f"estimate.bond_density.{key}")
    fwhm = raw.get("polariton_fwhm_mev")
    if fwhm is not None:
        fwhm = {str(kk): _number(vv, "estimate.polariton_fwhm_mev") for kk, vv in fwhm.items()}
    return EstimateSettings(
        vibration=vibration,
        cavity=cavity,
        temperature_k=_number(raw.get("temperature_K", 300.0), "estimate.temperature_K"),
        density=density,
        observed_splitting_mev=_number(raw.get("observed_splitting_mev"),
                                       "estimate.observed_splitting_mev", allow_none=True),
        polariton_fwhm_mev=fwhm,
    )


def _parse_fit(raw):
    if raw is None:
        return None
    free = []
    for i, par in enumerate(raw.get("free", [])):
        w = f"fit.free[{i}]"
        try:
            free.append(
                FreeParameter(
                    path=str(_require(par, "path", w)),
                    lower=_number(_require(par, "lower", w), w + ".lower"),
                    upper=_number(_require(par, "upper", w), w + ".upper"),
                )
            )
        except DomainError as err:
            raise ConfigError(f"{w}: {err}") from err
    if not free:
        raise ConfigError("fit.free must list at least one parameter")
    channel = str(raw.get("channel", "T"))
    if channel not in ("T", "R", "A"):
        raise ConfigError("fit.channel must be T, R or A")
    polarization = str(raw.get("polarization", "s"))
    if polarization not in ("s", "p", "unpolarized"):
        raise ConfigError("fit.polarization must be s, p or unpolarized")
    n_starts = raw.get("n_starts", 1)
    seed = raw.get("seed", 0)
    if not isinstance(n_starts, int) or n_starts < 1:
        raise ConfigError("fit.n_starts must be a positive integer")
    if not isinstance(seed, int):
        raise ConfigError("fit.seed must be an integer")
    return FitSettings(
        free=tuple(free),
        channel=channel,
        angle=_number(raw.get("angle", 0.0), "fit.angle"),
        polarization=polarization,
        n_starts=n_starts,
        seed=seed,
    )


def parse_config(raw):
    """Validated Config from an already-parsed mapping."""
    if not isinstance(raw, dict):
        raise ConfigError("top level of the config must be a mapping")
    known = {"materials", "stack", "grid", "scan", "field_map", "estimate", "fit"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown top-level section(s): {sorted(unknown)}")

    stack = None
    if "stack" in raw or "materials" in raw:
        if "stack" not in raw or "materials" not in raw:
            raise ConfigError("'materials' and 'stack' sections must appear together")
        materials = {
            str(name): _build_material(name, spec) for name, spec in raw["materials"].items()
        }
        stack = _build_stack(raw["stack"], materials)

    grid = _build_grid(raw["grid"]) if "grid" in raw else DEFAULT_GRID
    return Config(
        stack=stack,
        grid=grid,
        scan=_parse_scan(raw.get("scan")),
        field_map=_parse_field_map(raw.get("field_map"), grid),
        estimate=_parse_estimate(raw.get("estimate")),
        fit=_parse_fit(raw.get("fit")),
        raw=raw,
    )


def load_config(path):
    """Parse and validate a YAML config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except yaml.YAMLError as err:
        raise ConfigError(f"invalid YAML in {path}: {err}") from err
    return parse_config(raw)


def _material_to_dict(mat):
    if isinstance(mat, ConstantMedium):
        out = {"model": "constant", "eps": mat.eps.real}
        if mat.eps.imag:
            out["eps_imag"] = mat.eps.imag
        return out
    if isinstance(mat, LorentzMedium):
        return {
            "model": "lorentz",
            "eps_b": mat.eps_b,
            "oscillators": [
                {"f": o.f, "k0": o.k0, "gamma": o.gamma} for o in mat.oscillators
            ],
        }
    return {
        "model": "drude_lorentz",
        "omega_p": mat.omega_p,
        "f0": mat.f0,
        "gamma0": mat.gamma0,
        "damping_multiplier": mat.damping_multiplier,
        "bound": [{"f": t.f, "gamma": t.gamma, "omega0": t.omega0} for t in mat.bound],
    }


def config_to_dict(config):
    """Mapping that parses back to an equivalent Config (round trip)."""
    out = {}
    if config.stack is not None:
        out["materials"] = {
            name: _material_to_dict(mat) for name, mat in sorted(config.stack.materials.items())
        }
        out["stack"] = {
            "ambient_index": config.stack.n_ambient,
            "layers": [
                {"material": ly.material, "thickness": ly.thickness}
                for ly in config.stack.layers
            ],
            "substrate": config.stack.substrate,
            "substrate_mode": config.stack.substrate_mode,
        }
    out["grid"] = {"min": config.grid.k_min, "max": config.grid.k_max, "step": config.grid.step}
    for section in ("scan", "field_map", "estimate", "fit"):
        if section in config.raw:
            out[section] = config.raw[section]
    return out
