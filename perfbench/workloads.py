"""The benchmark workloads and the checks on their outputs.

A workload is set up once (the package is imported inside ``setup`` so
that set-up time includes the import) and then repeats a *cycle*: a fixed
list of ``(label, op, check)`` triples.  ``op()`` is the timed operation;
``check(output)`` runs untimed and returns a list of problems, empty when
the output is correct.  Reference values sit in frozen dataclasses so a
test can hand a workload a wrong reference and see the check fail.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "launcher.py")


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class _Workload:
    """Shared state: repo root, a private scratch directory, the seed and
    the digests of the first cycle's outputs."""

    name = ""
    # True when the timed operations run in child processes
    work_in_children = False
    # the fixed work that gauges the host's speed around each operation
    reference = reference.KERNEL

    def __init__(self, root, workdir, seed, ref=None):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.ref = ref if ref is not None else type(self).REF
        self.first_digest = {}
        self.tracer = None

    def config(self, name):
        return os.path.join(self.root, "configs", name)

    def same_as_first(self, key, path):
        """Problems if `path` differs byte-wise from its first-cycle copy."""
        digest = _sha256(path)
        first = self.first_digest.setdefault(key, digest)
        return [] if digest == first else [f"{key}: bytes differ from the first cycle"]

    def start_trace(self, tracer):
        import tracer as tracing

        tracing.install(tracer)


@dataclass(frozen=True)
class CliRef:
    t_splitting_cm1: float = 163.4
    tol_cm1: float = 0.5


class CliCold(_Workload):
    """simulate, analyze, estimate and field-map, each in a fresh
    interpreter."""

    name = "cli-cold"
    REF = CliRef()
    work_in_children = True
    reference = reference.COLD_START

    def setup(self):
        import vibropol.cli  # noqa: F401  (set-up is the cold import)

        self.out = os.path.join(self.workdir, "cli")
        os.makedirs(self.out, exist_ok=True)
        self.env = dict(os.environ)
        src = os.path.join(self.root, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.trace_file = os.path.join(self.workdir, "cli_trace.json")
        coupled = self.config("cavity_coupled.yaml")
        self.commands = {
            "simulate": ["simulate", "--config", coupled, "--out-dir", self.out],
            "analyze": ["analyze", os.path.join(self.out, "spectrum.csv"),
                        "--window", "1500:2000", "--out-dir", self.out],
            "estimate": ["estimate", "--config", coupled, "--out-dir", self.out],
            "field-map": ["field-map", "--config", self.config("cavity_uncoupled.yaml"),
                          "--out-dir", self.out],
        }

    def start_trace(self, tracer):
        self.tracer = tracer

    def _invoke(self, label):
        if self.tracer is None:
            argv = [sys.executable, "-m", "vibropol.cli", *self.commands[label]]
        else:
            argv = [sys.executable, LAUNCHER, self.trace_file, *self.commands[label]]
        proc = subprocess.run(argv, env=self.env, cwd=self.root, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        if self.tracer is not None and proc.returncode == 0:
            with open(self.trace_file, encoding="utf-8") as fh:
                self.tracer.extend(json.load(fh))
        return proc

    def _exit_problems(self, label, proc):
        if proc.returncode == 0:
            return []
        return [f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]

    def _t_splitting(self, filename):
        with open(os.path.join(self.out, filename), encoding="utf-8") as fh:
            return json.load(fh)["channels"]["T"]["splitting"]["splitting_cm1"]

    def check_simulate(self, proc):
        problems = self._exit_problems("simulate", proc)
        if problems:
            return problems
        split = self._t_splitting("summary.json")
        if abs(split - self.ref.t_splitting_cm1) > self.ref.tol_cm1:
            problems.append(f"simulate: T splitting {split} cm^-1, expected "
                            f"{self.ref.t_splitting_cm1} +- {self.ref.tol_cm1}")
        problems += self.same_as_first("spectrum.csv", os.path.join(self.out, "spectrum.csv"))
        problems += self.same_as_first("summary.json", os.path.join(self.out, "summary.json"))
        return problems

    def check_analyze(self, proc):
        problems = self._exit_problems("analyze", proc)
        if problems:
            return problems
        split, expected = self._t_splitting("analysis.json"), self._t_splitting("summary.json")
        if split != expected:
            problems.append(f"analyze: T splitting {split} != simulate's {expected}")
        problems += self.same_as_first("analysis.json", os.path.join(self.out, "analysis.json"))
        return problems

    def check_estimate(self, proc):
        problems = self._exit_problems("estimate", proc)
        if problems:
            return problems
        return self.same_as_first("estimate.json", os.path.join(self.out, "estimate.json"))

    def check_field_map(self, proc):
        problems = self._exit_problems("field-map", proc)
        if problems:
            return problems
        path = os.path.join(self.out, "field_map.csv")
        if "field_map.csv" not in self.first_digest:
            # later cycles must match these bytes, so parsing once suffices;
            # data rows are the lines that start with a digit
            with open(path, encoding="utf-8") as fh:
                values = [float(line.rsplit(",", 1)[1]) for line in fh if line[:1].isdigit()]
            if not values or not all(math.isfinite(v) and v >= 0.0 for v in values):
                problems.append("field-map: intensity not finite and >= 0")
        return problems + self.same_as_first("field_map.csv", path)

    def cycle(self):
        return [
            ("simulate", lambda: self._invoke("simulate"), self.check_simulate),
            ("analyze", lambda: self._invoke("analyze"), self.check_analyze),
            ("estimate", lambda: self._invoke("estimate"), self.check_estimate),
            ("field-map", lambda: self._invoke("field-map"), self.check_field_map),
        ]


@dataclass(frozen=True)
class AngleRef:
    rows_ok: int = 25
    splitting0_cm1: float = 164.1
    tol_cm1: float = 0.5
    balance_tol: float = 1e-9


class AngleSweep(_Workload):
    """Divergence-averaged angle scan plus its dispersion table."""

    name = "angle-sweep"
    REF = AngleRef()

    def setup(self):
        import numpy as np
        from vibropol import config, spectra, tmm

        self.np, self.spectra, self.tmm = np, spectra, tmm
        self.cfg = config.load_config(self.config("cavity_dispersion.yaml"))

    def sweep(self):
        cfg = self.cfg
        scans = self.tmm.angle_scan(cfg.require_stack(), cfg.grid, cfg.scan.angles, "s",
                                    divergence=1.0)
        table = self.spectra.build_dispersion(scans, "T", window=cfg.scan.window,
                                              min_prominence=cfg.scan.min_prominence)
        return scans, table

    def check(self, output):
        np, ref = self.np, self.ref
        scans, table = output
        problems = []
        ok = [row for row in table.rows if row.status == "ok"]
        if len(ok) != ref.rows_ok or len(table.rows) != ref.rows_ok:
            problems.append(f"{len(ok)}/{len(table.rows)} dispersion rows ok, "
                            f"expected {ref.rows_ok}/{ref.rows_ok}")
        normal = [row for row in ok if row.angle == 0.0]
        split = normal[0].omega_upper - normal[0].omega_lower if normal else None
        if split is None or abs(split - ref.splitting0_cm1) > ref.tol_cm1:
            problems.append(f"0 deg splitting {split} cm^-1, expected "
                            f"{ref.splitting0_cm1} +- {ref.tol_cm1}")
        for sp in scans:
            if np.max(np.abs(sp.T + sp.R + sp.A - 1.0)) >= ref.balance_tol:
                problems.append(f"{sp.angle} deg: |T+R+A-1| >= {ref.balance_tol}")
            if not (np.all((sp.T >= 0) & (sp.T <= 1)) and np.all((sp.R >= 0) & (sp.R <= 1))):
                problems.append(f"{sp.angle} deg: T or R outside [0, 1]")
        return problems

    def cycle(self):
        return [("sweep", self.sweep, self.check)]


@dataclass(frozen=True)
class FitRef:
    hidden: dict = field(default_factory=lambda: {
        "materials.pvac.oscillators[0].f": 5.6e4,
        "materials.pvac.oscillators[0].k0": 1744.0,
        "materials.pvac.oscillators[0].gamma": 15.0,
        "layers[0].thickness": 1880.0,
    })
    # absolute tolerance per path
    tolerance: dict = field(default_factory=lambda: {
        "materials.pvac.oscillators[0].f": 0.02 * 5.6e4,
        "materials.pvac.oscillators[0].k0": 1.0,
        "materials.pvac.oscillators[0].gamma": 1.0,
        "layers[0].thickness": 10.0,
    })
    noise_sigma: float = 2e-3
    # noisy targets per cycle: one fit's solver path depends on its noise
    # draw (38 to 42 evaluations), so a cycle mixes enough draws to keep
    # the per-run median and tail from following the seed
    targets: int = 16


class FitFilm(_Workload):
    """Recover four hidden film parameters from noisy absorption spectra."""

    name = "fit-film"
    REF = FitRef()

    def setup(self):
        import numpy as np
        from vibropol import config, fit, tmm

        ref = self.ref
        self.cfg = config.load_config(self.config("film_absorption.yaml"))
        k = self.cfg.grid.points
        hidden_stack = fit.apply_params(self.cfg.require_stack(), ref.hidden)
        _, _, absorption = tmm.stack_response(hidden_stack, k, self.cfg.fit.angle,
                                              self.cfg.fit.polarization)
        self.fit = fit
        rng = np.random.default_rng(self.seed)
        self.problems = [
            self.cfg.fit_problem(k, absorption + rng.normal(0.0, ref.noise_sigma, k.size))
            for _ in range(ref.targets)
        ]

    def solve(self, problem):
        return self.fit.solve(problem, n_starts=self.cfg.fit.n_starts, seed=self.cfg.fit.seed)

    def check(self, result):
        problems = []
        for path, hidden in self.ref.hidden.items():
            tol = self.ref.tolerance[path]
            got = result.params[path]
            if abs(got - hidden) > tol:
                problems.append(f"{path} = {got}, hidden {hidden}, tolerance {tol}")
        return problems

    def cycle(self):
        return [("fit", lambda p=p: self.solve(p), self.check) for p in self.problems]


WORKLOADS = {w.name: w for w in (CliCold, AngleSweep, FitFilm)}
