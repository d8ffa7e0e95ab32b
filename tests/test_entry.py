"""The process entry `vibropol.cli.run`: ``python -m vibropol.cli`` gives
the exit code, the stdout and stderr bytes and the files of `main` run in
process, runs the ``atexit`` handlers once with the collector off, and
keeps the interpreter's own exit path for any other ending; the console
script enters there.  The collector may stay off because a command's work
makes no reference cycles, which the last tests pin."""

import contextlib
import gc
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import vibropol
from vibropol import (angle_scan, build_dispersion, field_map, load_config, model_values, solve,
                      spectrum_scan)
from vibropol.cli import main
from vibropol.io import read_spectrum_csv, write_spectrum_csv

from test_config_cli import BASE_CONFIG, make_target_csv, with_value

ROOT = Path(__file__).resolve().parents[1]
COUPLED = ROOT / "configs" / "cavity_coupled.yaml"

# runs the module as __main__, as -m does (argv[0] is the module's file,
# so argparse names the program cli.py), with an atexit handler that
# reports on stderr, after the command's own lines, whether the collector
# is on
ATEXIT_PROBE = """
import atexit, gc, runpy, sys

def probe():
    print(f"atexit probe: collector on: {gc.isenabled()}", file=sys.stderr)

atexit.register(probe)
runpy.run_module("vibropol.cli", run_name="__main__", alter_sys=True)
"""
PROBE_LINE = b"atexit probe: collector on: False\n"

# `run` under a `main` that ends as the package's never does
PATCHED_MAIN = """
import vibropol.cli

def main():
    raise {}

vibropol.cli.main = main
vibropol.cli.run()
"""


def run_process(*argv, stdout=subprocess.PIPE, **env):
    """Exit code, stdout and stderr bytes of a fresh interpreter, its
    environment updated from `env`; stdout is block-buffered unless `env`
    sets PYTHONUNBUFFERED."""
    src = str(Path(vibropol.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONUNBUFFERED": "", **env}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *map(str, argv)], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def run_in_process(args):
    """Exit code, stdout and stderr bytes of `main` in this process, under
    the program name that ``python -m vibropol.cli`` gets."""
    out, err, code = io.StringIO(), io.StringIO(), 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(args=[str(a) for a in args], prog_name="cli.py")
        except SystemExit as exc:
            code = exc.code or 0
    return code, out.getvalue().encode(), err.getvalue().encode()


def overflowing_fit(tmp_path):
    """A fit whose template's gold eps overflows on the target grid."""
    raw = with_value(yaml.safe_load(BASE_CONFIG), ("materials", "gold", "omega_p"), 1.0e154)
    raw["fit"] = {"free": [{"path": "layers[1].thickness", "lower": 1800.0, "upper": 2200.0}]}
    config = tmp_path / "overflow.yaml"
    config.write_text(yaml.safe_dump(raw))
    return ["fit", "--config", config, "--target", make_target_csv(tmp_path),
            "--out-dir", tmp_path / "fit"]


CASES = {
    "help": (lambda tmp_path: ["--help"], 0),
    "simulate": (lambda tmp_path: ["simulate", "--config", COUPLED,
                                   "--out-dir", tmp_path / "out"], 0),
    "missing-config": (lambda tmp_path: ["simulate", "--config", tmp_path / "absent.yaml"], 2),
    "usage-error": (lambda tmp_path: ["simulate", "--config", COUPLED,
                                      "--polarization", "x"], 2),
    "config-error": (lambda tmp_path: ["estimate", "--config",
                                       ROOT / "configs" / "film_absorption.yaml"], 2),
    "overflowing-fit": (overflowing_fit, 3),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_module_entry_matches_main_and_freezes_the_heap(tmp_path, case):
    make_args, code = CASES[case]
    args = make_args(tmp_path)
    expected = run_in_process(args)
    assert expected[0] == code, expected
    files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    written = {p: p.read_bytes() for p in files}

    assert run_process("-m", "vibropol.cli", *args) == expected
    # the handler runs once, after the command, with the collector off
    code, out, err = expected
    assert run_process("-c", ATEXIT_PROBE, *args) == (code, out, err + PROBE_LINE)
    # the reruns overwrite the files of the in-process call byte for byte
    assert {p: p.read_bytes() for p in files} == written
    assert sorted(p for p in tmp_path.rglob("*") if p.is_file()) == files


# a closed reader gets the interpreter's results: unbuffered, the command's
# own write fails (argparse drops a failed --help); buffered, the flush
# at exit fails, and the interpreter reports it and exits 120
BROKEN_PIPE = re.escape(b"file error: [Errno 32] Broken pipe\n")
FLUSH_FAILED = (rb"Exception ignored in: <_io\.TextIOWrapper name='<stdout>'[^\n]*>\n"
                rb"BrokenPipeError: \[Errno 32\] Broken pipe\n")
HELP_RAISED = (rb"Traceback \(most recent call last\):\n.*\n"
               rb"BrokenPipeError: \[Errno 32\] Broken pipe\n")
CLOSED_STDOUT = {
    ("simulate", "1"): (2, BROKEN_PIPE),
    ("estimate", "1"): (2, BROKEN_PIPE),
    # before Python 3.11, argparse lets the failed write of --help raise
    ("help", "1"): (0, b"") if sys.version_info >= (3, 11) else (1, HELP_RAISED),
    ("simulate", ""): (120, FLUSH_FAILED),
    ("estimate", ""): (120, FLUSH_FAILED),
    ("help", ""): (120, FLUSH_FAILED),
}


@pytest.mark.parametrize("case, unbuffered", sorted(CLOSED_STDOUT))
def test_closed_stdout_keeps_the_interpreters_results(tmp_path, case, unbuffered):
    args = {"simulate": ["simulate", "--config", COUPLED, "--out-dir", tmp_path / "out"],
            "estimate": ["estimate", "--config", COUPLED], "help": ["--help"]}[case]
    read, write = os.pipe()
    os.close(read)
    try:
        code, _, err = run_process("-m", "vibropol.cli", *args, stdout=write,
                                   PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write)
    expected_code, expected_err = CLOSED_STDOUT[case, unbuffered]
    assert code == expected_code
    assert re.fullmatch(expected_err, err, re.S), err


@pytest.mark.parametrize("raised, stderr", [
    ("SystemExit('text')", rb"text\n"),
    ("RuntimeError('unexpected')",
     rb"Traceback \(most recent call last\):\n.*\nRuntimeError: unexpected\n"),
])
def test_other_endings_keep_the_interpreters_exit(raised, stderr):
    code, out, err = run_process("-c", PATCHED_MAIN.format(raised))
    assert (code, out) == (1, b"")
    assert re.fullmatch(stderr, err, re.S), err


def test_main_leaves_the_collector_on(tmp_path):
    assert gc.isenabled()
    for make_args, code in CASES.values():
        assert run_in_process(make_args(tmp_path))[0] == code
        assert gc.isenabled()


def test_console_script_enters_through_run():
    # Python 3.10 has no tomllib: the [project.scripts] table, line by line
    text = (ROOT / "pyproject.toml").read_text()
    table = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert re.findall(r'^\s*([\w-]+)\s*=\s*"([^"]*)"', table, re.M) == [
        ("vibropol", "vibropol.cli:run")]


def cycles_made(call):
    """Objects in reference cycles that a second `call` leaves behind,
    counted with the collector off; the first call warms caches and
    imports."""
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def scan_and_dispersion(cfg):
    spectra = angle_scan(cfg.require_stack(), cfg.grid, cfg.scan.angles, cfg.scan.polarization,
                         divergence=cfg.scan.divergence)
    return build_dispersion(spectra, cfg.scan.channel, window=cfg.scan.window,
                            min_prominence=cfg.scan.min_prominence)


def test_a_commands_work_makes_no_reference_cycles(tmp_path):
    film = load_config(ROOT / "configs" / "film_absorption.yaml")
    grid = film.grid.points
    problem = film.fit_problem(grid, model_values(film.fit_problem(grid, 0.0 * grid), [
        0.9 * p.lower + 0.1 * p.upper for p in film.fit.free]))
    dispersion = load_config(ROOT / "configs" / "cavity_dispersion.yaml")
    uncoupled = load_config(ROOT / "configs" / "cavity_uncoupled.yaml")
    csv = tmp_path / "spectrum.csv"
    write_spectrum_csv(csv, spectrum_scan(uncoupled.require_stack(), uncoupled.grid))
    calls = {
        "fit.solve": lambda: solve(problem, n_starts=3, seed=0),
        "angle_scan + build_dispersion": lambda: scan_and_dispersion(dispersion),
        "field_map": lambda: field_map(uncoupled.require_stack(), uncoupled.field_map.grid),
        "load_config": lambda: load_config(COUPLED),
        "read_spectrum_csv": lambda: read_spectrum_csv(csv),
    }
    assert {name: cycles_made(call) for name, call in calls.items()} == dict.fromkeys(calls, 0)
