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

plus optional `scan`, `field_map`, `estimate` and `fit` sections; a
section set to null counts as absent.

Every mapping below the top level is read by one reader, `_read`,
straight from the fields of the dataclass it builds: each field is a
key (`_KEYS` renames the few that differ), a field without a default is
required, a field whose default is None may be null, a float must be a
finite number, an int or a string must have that type (a bool is not an
int), lists and nested mappings are read item by item, and any other
key is an error.  The dataclasses check their own values; a DomainError
they raise becomes a ConfigError prefixed with the key path, as does
every structural problem.  `config_to_dict` is the reader's inverse: it
returns the canonical mapping of a Config, every default filled in.
The size of a field map on the stack is checked by the `field-map`
command alone, so a fine spectrum grid never stops the other commands.
"""

from __future__ import annotations

import functools
import math
import types
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from importlib import import_module

from .errors import _MAX_POINTS, ConfigError, DomainError, _check_choice, _check_range
from .materials import ConstantMedium, DrudeLorentzMetal, LorentzMedium
from .tmm import CHANNELS, LayerStack, SpectralGrid, _check_angle, _check_polarization, _check_sigma

if typing.TYPE_CHECKING:
    # at run time these resolve through _TYPES_FROM
    from .fit import FreeParameter
    from .polariton import CavityMode, VibrationalMode

DEFAULT_GRID = SpectralGrid(400.0, 7400.0, 1.0)
_SECTIONS = ("materials", "stack", "grid", "scan", "field_map", "estimate", "fit")

# dataclass field -> config key, where the two differ
_KEYS = {
    "k_min": "min",
    "k_max": "max",
    "n_ambient": "ambient_index",
    "temperature_k": "temperature_K",
    "density": "bond_density",
}


@dataclass(frozen=True)
class _Constant:
    """Keys of `model: constant`; the medium holds them as one complex eps."""

    eps: float
    eps_imag: float = 0.0


# material model key -> the dataclass its other keys are read into
_MODELS = {"constant": _Constant, "lorentz": LorentzMedium, "drude_lorentz": DrudeLorentzMetal}


@dataclass(frozen=True)
class _AngleRange:
    """`scan.angles` written as {min, max, step}, expanded inclusively."""

    min: float
    max: float
    step: float = 5.0

    def __post_init__(self):
        _check_range(self.step, "step", gt=0.0, unit="degrees")
        _check_range(self.max, "max", ge=self.min, unit="degrees")
        _check_range((self.max - self.min) / self.step, "(max - min) / step", lt=_MAX_POINTS)

    def angles(self):
        n = math.floor((self.max - self.min) / self.step + 1e-9) + 1
        return [self.min + i * self.step for i in range(n)]


def _read_angles(value, where):
    if isinstance(value, dict):
        return _read(_AngleRange, value, where).angles()
    return _value(list[float], value, where)


@dataclass(frozen=True)
class _BondDensity:
    """`estimate.bond_density`, handed on as the mapping estimate_report takes."""

    mass_density_g_cm3: float
    monomer_mass_g_mol: float
    bonds_per_monomer: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            _check_range(getattr(self, f.name), f.name, gt=0.0)


def _read_bond_density(value, where):
    return asdict(_read(_BondDensity, value, where))


@dataclass
class ScanSettings:
    angle: float = 0.0
    polarization: str = "s"
    angles: list[float] = field(default_factory=list, metadata={"read": _read_angles})
    divergence: float = 0.0
    channel: str = "T"
    window: tuple[float, ...] | None = None
    min_prominence: float | None = None

    def __post_init__(self):
        _check_angle(self.angle, "angle")
        for i, angle in enumerate(self.angles):
            _check_angle(angle, f"angles[{i}]")
        _check_polarization(self.polarization)
        _check_choice(self.channel, "channel", CHANNELS)
        _check_sigma(self.divergence)
        if self.window is not None and not (
            len(self.window) == 2 and self.window[0] < self.window[1]
        ):
            raise DomainError("window must be [lo, hi] with lo < hi")
        if self.min_prominence is not None:
            _check_range(self.min_prominence, "min_prominence", ge=0.0)


@dataclass
class FieldMapSettings:
    grid: SpectralGrid
    angle: float = 0.0
    polarization: str = "s"
    z_step: float = 10.0
    margin_ambient_nm: float = 200.0
    margin_substrate_nm: float = 200.0

    def __post_init__(self):
        _check_angle(self.angle, "angle")
        _check_polarization(self.polarization)
        _check_range(self.z_step, "z_step", gt=0.0, unit="nm")
        _check_range(self.margin_ambient_nm, "margin_ambient_nm", ge=0.0, unit="nm")
        _check_range(self.margin_substrate_nm, "margin_substrate_nm", ge=0.0, unit="nm")


@dataclass
class EstimateSettings:
    vibration: VibrationalMode
    cavity: CavityMode
    temperature_k: float = 300.0
    density: dict | None = field(default=None, metadata={"read": _read_bond_density})
    observed_splitting_mev: float | None = None
    polariton_fwhm_mev: dict[str, float] | None = None

    def __post_init__(self):
        _check_range(self.temperature_k, "temperature_K", ge=0.0, unit="K")
        if self.observed_splitting_mev is not None:
            _check_range(self.observed_splitting_mev, "observed_splitting_mev", gt=0.0, unit="meV")
        for branch, width in (self.polariton_fwhm_mev or {}).items():
            _check_range(width, f"polariton_fwhm_mev.{branch}", gt=0.0, unit="meV")


@dataclass
class FitSettings:
    free: tuple[FreeParameter, ...]
    channel: str = "T"
    angle: float = 0.0
    polarization: str = "s"
    n_starts: int = 1
    seed: int = 0

    def __post_init__(self):
        if not self.free:
            raise DomainError("free must list at least one parameter")
        _check_choice(self.channel, "channel", CHANNELS)
        _check_angle(self.angle, "angle")
        _check_polarization(self.polarization)
        _check_range(self.n_starts, "n_starts", ge=1, integer=True)
        _check_range(self.seed, "seed", ge=0, integer=True)


@dataclass
class Config:
    """Everything a CLI run needs, already validated."""

    stack: LayerStack | None
    grid: SpectralGrid
    scan: ScanSettings
    field_map: FieldMapSettings
    estimate: EstimateSettings | None
    fit: FitSettings | None

    def require_stack(self):
        if self.stack is None:
            raise ConfigError("this command needs 'materials' and 'stack' sections")
        return self.stack

    def fit_problem(self, k, target):
        """Assemble a FitProblem against measured (k, target) data."""
        if self.fit is None:
            raise ConfigError("this command needs a 'fit' section")
        from .fit import FitProblem

        return _build(
            "fit",
            FitProblem,
            stack=self.require_stack(),
            free=self.fit.free,
            k=k,
            target=target,
            channel=self.fit.channel,
            angle=self.fit.angle,
            polarization=self.fit.polarization,
        )


def _build(where, cls, *args, **kwargs):
    try:
        return cls(*args, **kwargs)
    except DomainError as err:
        raise ConfigError(f"{where}: {err}") from err


def _mapping(raw, where):
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected a mapping, got {raw!r}")
    return raw


def _reject_unknown(raw, where, allowed):
    for key in raw:
        if key not in allowed:
            path = f"{where}.{key}" if where else str(key)
            raise ConfigError(f"{path}: unknown key, expected one of {', '.join(allowed)}")


def _non_null(tp):
    # X | None reads as X: a null is taken only where the default is None
    return typing.get_args(tp)[0] if typing.get_origin(tp) is types.UnionType else tp


# section -> the module that defines its field types, imported when the
# section is first read, so a config without it never loads the module
_TYPES_FROM = {EstimateSettings: "polariton", FitSettings: "fit"}


@functools.cache
def _schema(cls):
    """(field, config key, resolved type) for each field of a dataclass."""
    module = _TYPES_FROM.get(cls)
    localns = vars(import_module(f".{module}", __package__)) if module else None
    hints = typing.get_type_hints(cls, localns=localns)
    return tuple((f, _KEYS.get(f.name, f.name), _non_null(hints[f.name])) for f in fields(cls))


def _read(cls, raw, where, **given):
    """Instance of the dataclass `cls` read from the mapping `raw` found
    at key path `where`.  The fields in `given` are supplied by the
    caller and are not keys; every other field is read as described in
    the module docstring, through its `read` metadata when it has one."""
    _mapping(raw, where)
    schema = [s for s in _schema(cls) if s[0].name not in given] if given else _schema(cls)
    _reject_unknown(raw, where, [key for _, key, _ in schema])
    kwargs = dict(given)
    for f, key, tp in schema:
        if key not in raw:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{where}: missing required key {key!r}")
        elif raw[key] is None and f.default is None:
            kwargs[f.name] = None
        else:
            read = f.metadata.get("read")
            path = f"{where}.{key}"
            kwargs[f.name] = read(raw[key], path) if read else _value(tp, raw[key], path)
    return _build(where, cls, **kwargs)


def _value(tp, value, where):
    """`value` checked against, and converted to, the field type `tp`."""
    if tp is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}: expected a finite number, got {value!r}")
        _build(where, _check_range, value, "value")
        return float(value)
    if tp is int or tp is str:
        if isinstance(value, bool) or not isinstance(value, tp):
            raise ConfigError(f"{where}: expected {tp.__name__}, got {value!r}")
        return value
    if is_dataclass(tp):
        return _read(tp, value, where)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is dict:
        return {
            _value(args[0], k, where): _value(args[1], v, f"{where}.{k}")
            for k, v in _mapping(value, where).items()
        }
    # list[X] or tuple[X, ...]
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list, got {value!r}")
    return origin(_value(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))


def _read_material(name, spec):
    where = f"materials.{name}"
    model = _mapping(spec, where).get("model")
    if not isinstance(model, str) or model not in _MODELS:
        raise ConfigError(f"{where}.model: expected one of {', '.join(_MODELS)}, got {model!r}")
    mat = _read(_MODELS[model], {k: v for k, v in spec.items() if k != "model"}, where)
    if isinstance(mat, _Constant):
        return _build(where, ConstantMedium, complex(mat.eps, mat.eps_imag))
    return mat


def parse_colon_spec(text, form, where):
    """The numbers of a CLI spec `text` written like `form`, such as lo:hi;
    errors name the option `where`."""
    try:
        values = [float(part) for part in text.split(":")]
    except ValueError:
        values = []
    if len(values) != form.count(":") + 1:
        raise ConfigError(f"{where} must be numbers {form}, got {text!r}")
    return values


def parse_grid_spec(text):
    """min:max:step string (CLI --grid) to a SpectralGrid, checked like
    the `grid` section."""
    values = parse_colon_spec(text, "min:max:step", "--grid")
    return _read(SpectralGrid, dict(zip(("min", "max", "step"), values)), "--grid")


def override(settings, where, **values):
    """Copy of a settings dataclass with each of `values` that is not None
    in place of the config key of that name, read through the same checks
    as the config file; errors name the key path `where`.<key>."""
    raw = _dump(settings)
    raw.update((key, v) for key, v in values.items() if v is not None)
    return _read(type(settings), raw, where)


def parse_config(raw):
    """Validated Config from an already-parsed mapping."""
    _mapping(raw, "top level of the config")
    _reject_unknown(raw, "", _SECTIONS)
    raw = {key: v for key, v in raw.items() if v is not None}

    stack = None
    if "stack" in raw or "materials" in raw:
        if "stack" not in raw or "materials" not in raw:
            raise ConfigError("'materials' and 'stack' sections must appear together")
        materials = {
            str(name): _read_material(name, spec)
            for name, spec in _mapping(raw["materials"], "materials").items()
        }
        stack = _read(LayerStack, raw["stack"], "stack", materials=materials)

    grid = _read(SpectralGrid, raw["grid"], "grid") if "grid" in raw else DEFAULT_GRID
    # the field map falls back to the top-level grid
    field_map = {"grid": _dump(grid), **_mapping(raw.get("field_map", {}), "field_map")}
    return Config(
        stack=stack,
        grid=grid,
        scan=_read(ScanSettings, raw.get("scan", {}), "scan"),
        field_map=_read(FieldMapSettings, field_map, "field_map"),
        estimate=(
            _read(EstimateSettings, raw["estimate"], "estimate") if "estimate" in raw else None
        ),
        fit=_read(FitSettings, raw["fit"], "fit") if "fit" in raw else None,
    )


def load_config(path):
    """Parse and validate a YAML config file, with PyYAML's libyaml
    parser when it is built with one."""
    import yaml

    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=loader)
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except yaml.YAMLError as err:
        raise ConfigError(f"invalid YAML in {path}: {err}") from err
    return parse_config(raw)


def _dump(obj, *omit):
    """Plain YAML data for a dataclass, keyed as `_read` reads it, or for
    a value inside one."""
    if is_dataclass(obj):
        return {
            key: _dump(getattr(obj, f.name))
            for f, key, _ in _schema(type(obj))
            if f.name not in omit
        }
    if isinstance(obj, (list, tuple)):
        return [_dump(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _dump(v) for k, v in obj.items()}
    return obj


def _dump_material(mat):
    if isinstance(mat, ConstantMedium):
        mat = _Constant(mat.eps.real, mat.eps.imag)
    model = next(name for name, cls in _MODELS.items() if isinstance(mat, cls))
    return {"model": model, **_dump(mat)}


def config_to_dict(config):
    """Canonical mapping of a Config, every default filled in: parse_config
    reads it back to an equal Config, and dumping that gives the same
    mapping again."""
    out = {}
    if config.stack is not None:
        out["materials"] = {
            name: _dump_material(mat) for name, mat in sorted(config.stack.materials.items())
        }
        out["stack"] = _dump(config.stack, "materials")
    out.update((key, v) for key, v in _dump(config, "stack").items() if v is not None)
    return out
