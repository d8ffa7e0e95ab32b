"""Which modules the package loads: never SciPy, not even in a fit, the
file formats (and json) only with the CLI, no thread pool at all, and
from a CLI call only the modules its subcommand runs."""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest
import yaml

import vibropol
from vibropol import ConfigError, load_config

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))

PROBE = """
import json, sys


class RefuseScipy:
    # a finder ahead of every other: any import of scipy fails
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is refused")


sys.meta_path.insert(0, RefuseScipy())
import vibropol, vibropol.cli
import numpy as np
from vibropol import (
    ConstantMedium, DispersionRow, DispersionTable, FitProblem, FreeParameter, Layer,
    LayerStack, anticrossing_dispersion, fit_coupled_model, fit_lorentzian_band, model_values,
    solve,
)

concurrent = sorted(m for m in sys.modules if m.split(".")[0] == "concurrent")
config, target, out_dir = sys.argv[1:]
try:
    vibropol.cli.main(args=["fit", "--config", config, "--target", target,
                            "--out-dir", out_dir], prog_name="vibropol")
except SystemExit as exc:
    if exc.code:
        raise
stack = LayerStack(
    materials={"film": ConstantMedium(eps=2.25), "sub": ConstantMedium(eps=1.0)},
    layers=(Layer("film", 1000.0),),
    substrate="sub",
    n_ambient=1.0,
    substrate_mode="coherent",
)
k = np.arange(1500.0, 2000.0, 10.0)
target = model_values(FitProblem(stack=stack, free=(), k=k, target=np.zeros_like(k)), [])
problem = FitProblem(
    stack=stack, free=(FreeParameter("layers[0].thickness", 800.0, 1200.0),),
    k=k, target=target,
)
assert solve(problem).success
k = np.arange(1600.0, 1900.0, 1.0)
band = 0.02 + 5.0e4 * k * 13.0 / ((k**2 - 1739.0**2) ** 2 + (k * 13.0) ** 2)
fit_lorentzian_band(k, band)
curve = anticrossing_dispersion(1740.0, 167.0, 1.41, 2038.0, np.arange(0.0, 61.0, 5.0))
table = DispersionTable(
    [DispersionRow(a, lo, up, "ok") for a, lo, up in zip(curve.angles, curve.lower, curve.upper)],
    "T",
)
assert fit_coupled_model(table).success
print(json.dumps({"scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "concurrent": concurrent}))
"""


def run_process(code, *args, check=True):
    """The finished process of `code` run with arguments `args` in a fresh
    interpreter on this package."""
    src = str(Path(vibropol.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, args)], env=env, capture_output=True,
        text=True, check=check,
    )


def run_fresh(code, *args):
    """Last stdout line of `code` run with arguments `args` in a fresh
    interpreter on this package."""
    return run_process(code, *args).stdout.strip().splitlines()[-1]


def test_no_fit_loads_scipy(tmp_path):
    # the CLI fit and the three fit functions run with every import of
    # scipy refused, and leave no scipy module loaded
    config = next(path for path in CONFIGS if path.stem == "film_absorption")
    cfg = load_config(config)
    k = cfg.grid.points
    absorption = vibropol.stack_response(cfg.require_stack(), k)[2]
    target = tmp_path / "target.csv"
    target.write_text("".join(f"{x},{y}\n" for x, y in zip(k, absorption)))
    loaded = json.loads(run_fresh(PROBE, config, target, tmp_path / "fit"))
    assert loaded == {"scipy": [], "concurrent": []}
    assert json.loads((tmp_path / "fit" / "fit.json").read_text())["success"]


def test_package_import_loads_neither_io_nor_json():
    # load_measured imports io lazily; the in-process benchmarks pay for
    # the package import alone
    loaded = run_fresh(
        "import sys, vibropol; print(sorted({'vibropol.io', 'json'} & set(sys.modules)))"
    )
    assert loaded == "[]"


def test_package_and_cli_import_load_neither_numpy_nor_yaml():
    loaded = run_fresh(
        "import sys, vibropol, vibropol.cli; "
        "print(sorted({'numpy', 'yaml', 'vibropol.tmm', 'click'} & set(sys.modules)))"
    )
    assert loaded == "[]"


# the modules a subcommand must not load; every command runs in a fresh
# interpreter through the CLI's own entry point
COMMAND_PROBE = """
import json, sys
from vibropol.cli import main
try:
    main(args=sys.argv[1:], prog_name="vibropol")
except SystemExit as exc:
    if exc.code:
        raise
print(json.dumps(sorted(m for m in sys.modules if m in {forbidden!r})))
"""


def test_each_command_loads_only_what_it_runs(tmp_path):
    configs = {path.stem: path for path in CONFIGS}
    coupled = configs["cavity_coupled"]
    cases = [
        (["simulate", "--config", coupled, "--out-dir", tmp_path],
         ["vibropol.fit", "vibropol._lsq", "vibropol.fields"]),
        (["estimate", "--config", coupled],
         ["numpy", "vibropol.tmm", "vibropol.fit", "vibropol.spectra", "vibropol.fields"]),
        (["field-map", "--config", configs["cavity_uncoupled"], "--out-dir", tmp_path],
         ["vibropol.fit", "vibropol.spectra", "vibropol.polariton"]),
        (["analyze", tmp_path / "spectrum.csv", "--window", "1500:2000"],
         ["yaml", "vibropol.tmm", "vibropol.fit", "vibropol._lsq", "vibropol.fields",
          "vibropol.polariton"]),
    ]
    for argv, forbidden in cases:
        loaded = run_fresh(COMMAND_PROBE.format(forbidden=set(forbidden)), *argv)
        assert json.loads(loaded) == [], argv[0]


def test_stack_classes_and_every_config_load_no_numpy():
    # the description of a run lives outside the kernel, and a grid
    # makes its array only when asked for its points
    loaded = run_fresh(
        "import sys, vibropol; "
        "vibropol.LayerStack, vibropol.SpectralGrid, vibropol.Spectrum; "
        "[vibropol.load_config(path) for path in sys.argv[1:]]; "
        "print(sorted({'numpy', 'vibropol.tmm'} & set(sys.modules)))",
        *CONFIGS,
    )
    assert loaded == "[]"


# a CLI call in an interpreter where every import of numpy fails; it
# prints whether numpy was loaded and exits with the call's code
REFUSE_NUMPY = """
import json, sys


class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "numpy":
            raise ImportError(f"{name} is refused")


sys.meta_path.insert(0, RefuseNumpy())
from vibropol.cli import main
try:
    main(args=sys.argv[1:], prog_name="vibropol")
    code = 0
except SystemExit as exc:
    code = exc.code
print(json.dumps("numpy" in sys.modules))
sys.exit(code)
"""


def test_estimate_that_overflows_exits_3_with_numpy_refused(tmp_path):
    # the estimators check their results with math alone
    coupled = next(path for path in CONFIGS if path.stem == "cavity_coupled")
    text = coupled.read_text(encoding="utf-8")
    assert text.count("    dipole_debye: 1.0\n") == 1
    config = tmp_path / "huge_dipole.yaml"
    config.write_text(text.replace("    dipole_debye: 1.0\n", "    dipole_debye: 1.0e+308\n"),
                      encoding="utf-8")
    out = run_process(REFUSE_NUMPY, "estimate", "--config", config, check=False)
    assert out.returncode == 3, out.stderr
    assert out.stderr.startswith("physics error: ") and out.stderr.count("\n") == 1
    assert out.stdout.splitlines()[-1] == "false"


@pytest.mark.parametrize("call", [
    "fp_mode_estimate(1e-300, 1e-300)", "coupled_frequencies(1.7e308, 1.7e308, 160.0)",
    "anticrossing_dispersion(1739.0, 160.0, 1e-300, 1e-300, [0.0])",
])
def test_array_estimator_called_first_raises_its_domain_error(call):
    # it loads numpy itself, before its overflow, which stays quiet
    name = call.partition("(")[0]
    out = run_process(
        "import warnings; warnings.simplefilter('error', RuntimeWarning); "
        f"from vibropol import DomainError, {name}\n"
        f"try:\n    {call}\nexcept DomainError as err:\n    print(err)"
    )
    assert out.stdout.startswith(f"the result of {name} must be finite"), out.stderr


def test_every_public_name_is_its_defining_modules_object():
    for name in vibropol.__all__:
        obj = getattr(vibropol, name)
        assert obj.__module__.startswith("vibropol."), name
        assert getattr(import_module(obj.__module__), name) is obj, name
    assert set(vibropol.__all__) <= set(dir(vibropol))
    assert vibropol.tmm is import_module("vibropol.tmm")
    with pytest.raises(AttributeError, match="no_such_name"):
        vibropol.no_such_name


def test_the_package_table_is_the_one_list_of_public_names():
    # a submodule's own __all__ would be a second copy that nothing compares
    for module in vibropol._EXPORTS:
        assert not hasattr(import_module(f"vibropol.{module}"), "__all__"), module


def test_star_import_binds_every_public_name():
    names = run_fresh(
        "ns = {}; exec('from vibropol import *', ns); "
        "print(sorted(n for n in ns if n != '__builtins__'))"
    )
    assert names == str(sorted(vibropol.__all__))


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_libyaml_and_pure_python_loaders_agree(path):
    text = path.read_text(encoding="utf-8")
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_load_config_without_libyaml(path, monkeypatch):
    expected = load_config(path)
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert load_config(path) == expected


@pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure-python"])
def test_invalid_yaml_is_a_config_error_naming_the_line(tmp_path, monkeypatch, libyaml):
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    path = tmp_path / "bad.yaml"
    path.write_text("grid: {min: 1\nstack: [\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"invalid YAML in .*bad\.yaml(.|\n)*line 2"):
        load_config(path)
