"""Every bundled config, one or two of its leaves replaced by an edge
value, runs `simulate`, `estimate`, `field-map` and `scan-angle` to exit
0, 2 or 3, with a RuntimeWarning raised as an error: a failed run says
why in one stderr line, and a run that succeeds writes only finite
cells.  A failed run may leave the files it wrote before the failure."""

import copy
import json
import math
import tempfile
import warnings
from pathlib import Path

import yaml
from hypothesis import given, settings, strategies as st

from test_entry import run_in_process

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
RAW = {path.stem: yaml.safe_load(path.read_text()) for path in sorted(CONFIGS.glob("*.yaml"))}

# each command on every bundled config whose sections it needs
RUNS = [(name, "simulate") for name in RAW] + [
    ("cavity_coupled", "estimate"), ("cavity_coupled", "field-map"),
    ("cavity_dispersion", "field-map"), ("cavity_uncoupled", "field-map"),
    ("film_absorption", "field-map"), ("cavity_dispersion", "scan-angle")]

VALUES = [0, 0.0, -1, -1.0, 5e-324, 1e308, math.inf, -math.inf, math.nan, "", "gold",
          [], [1.0, 2.0], {}, {"min": 1.0}, True, False, 2**70]


def leaves(node, path=()):
    """Key paths of every scalar below a parsed YAML node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)) and value:
            yield from leaves(value, path + (key,))
        else:
            yield path + (key,)


LEAVES = {name: list(leaves(raw)) for name, raw in RAW.items()}


@st.composite
def mutated_runs(draw):
    """(config name, command, [(leaf path, value), ...]) of one or two leaves."""
    name, command = draw(st.sampled_from(RUNS))
    paths = draw(st.lists(st.sampled_from(LEAVES[name]), min_size=1, max_size=2, unique=True))
    return name, command, [(path, draw(st.sampled_from(VALUES))) for path in paths]


def non_finite_cells(path):
    """The cells of a written CSV or JSON file that are no finite number."""
    text = path.read_text()
    if path.suffix == ".json":
        bad = []
        json.loads(text, parse_constant=bad.append)
        return bad
    cells = (cell for line in text.splitlines() if not line.startswith("#")
             for cell in line.split(","))
    return [cell for cell in cells
            if cell.strip().lower().lstrip("+-") in ("nan", "inf", "infinity")]


def check_mutated_run(name, command, changes, workdir):
    raw = copy.deepcopy(RAW[name])
    for path, value in changes:
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    config, out = workdir / "config.yaml", workdir / "out"
    config.write_text(yaml.safe_dump(raw))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, err = run_in_process([command, "--config", config, "--out-dir", out])
    assert code in (0, 2, 3), (code, err)
    if code:
        assert err.endswith(b"\n") and err.count(b"\n") == 1, err
    else:
        assert {p.name: non_finite_cells(p) for p in out.iterdir()} == {
            p.name: [] for p in out.iterdir()}


@settings(max_examples=600, deadline=None)
@given(run=mutated_runs())
def test_mutated_configs_exit_0_2_or_3(run):
    with tempfile.TemporaryDirectory() as workdir:
        check_mutated_run(*run, Path(workdir))
