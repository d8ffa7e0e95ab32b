"""The process entry `vibropol.cli.run`: ``python -m vibropol.cli`` gives
the exit code and the stdout and stderr bytes of `main` run in process,
and leaves the heap frozen when the interpreter shuts down, whether the
command returns or raises SystemExit; the console script enters there."""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import vibropol
from vibropol.cli import main

from test_config_cli import BASE_CONFIG, make_target_csv, with_value

ROOT = Path(__file__).resolve().parents[1]
COUPLED = ROOT / "configs" / "cavity_coupled.yaml"

# runs the module as __main__, as -m does (argv[0] is the module's file,
# so argparse names the program cli.py), and records the size of the
# frozen generation from an atexit handler, which runs after the
# command's SystemExit or return and before the shutdown collections
FREEZE_PROBE = """
import atexit, gc, runpy, sys
record = sys.argv.pop(1)

def probe():
    with open(record, "w") as fh:
        fh.write(str(gc.get_freeze_count()))

atexit.register(probe)
runpy.run_module("vibropol.cli", run_name="__main__", alter_sys=True)
"""


def run_process(*argv):
    """Exit code, stdout and stderr bytes of a fresh interpreter."""
    src = str(Path(vibropol.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *map(str, argv)], env=env, capture_output=True,
                          timeout=120)
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
    record = tmp_path / "frozen.txt"
    assert run_process("-c", FREEZE_PROBE, record, *args) == expected
    assert int(record.read_text()) > 0
    # the reruns overwrite the files of the in-process call byte for byte
    assert {p: p.read_bytes() for p in files} == written
    assert {p for p in tmp_path.rglob("*") if p.is_file()} == {*files, record}


def test_console_script_enters_through_run():
    # Python 3.10 has no tomllib: the [project.scripts] table, line by line
    text = (ROOT / "pyproject.toml").read_text()
    table = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert re.findall(r'^\s*([\w-]+)\s*=\s*"([^"]*)"', table, re.M) == [
        ("vibropol", "vibropol.cli:run")]
