"""File formats.

Spectra go to CSV with the header ``k_cm1,T,R,A`` (angle and polarization
kept in leading ``#`` comment lines), field maps to long-format
``k_cm1,z_nm,intensity`` and reports to JSON with sorted keys.  All
writers are deterministic: re-running a command overwrites its outputs
byte for byte.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import DomainError
from .tmm import Spectrum

__all__ = [
    "write_spectrum_csv",
    "read_spectrum_csv",
    "write_field_map_csv",
    "write_dispersion_csv",
    "write_json",
]

def _fmt(value):
    # shortest representation that round-trips the double exactly
    return repr(float(value))


def write_spectrum_csv(path, spectrum):
    lines = [
        f"# angle_deg = {_fmt(spectrum.angle)}",
        f"# polarization = {spectrum.polarization}",
        "k_cm1,T,R,A",
    ]
    for k, t, r, a in zip(spectrum.k, spectrum.T, spectrum.R, spectrum.A):
        lines.append(",".join(_fmt(v) for v in (k, t, r, a)))
    _write_text(path, "\n".join(lines) + "\n")


def read_spectrum_csv(path):
    """Spectrum back from the native CSV format."""
    angle, polarization = 0.0, "s"
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("angle_deg"):
                    angle = float(body.split("=", 1)[1])
                elif body.startswith("polarization"):
                    polarization = body.split("=", 1)[1].strip()
                continue
            if line.lower().startswith("k_cm1"):
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise DomainError(f"{path}: expected 4 columns, got {len(parts)}")
            rows.append([float(p) for p in parts])
    if not rows:
        raise DomainError(f"{path}: no data rows")
    data = np.asarray(rows)
    return Spectrum(
        k=data[:, 0], T=data[:, 1], R=data[:, 2], A=data[:, 3],
        angle=angle, polarization=polarization,
    )


def write_field_map_csv(path, fmap):
    """Long format, one row per (k, z) cell; each k and z value is
    formatted once and the file is written one k block at a time."""
    header = [
        f"# angle_deg = {_fmt(fmap.angle)}",
        f"# polarization = {fmap.polarization}",
        f"# layer_boundaries_nm = {' '.join(_fmt(b) for b in fmap.boundaries)}",
        "k_cm1,z_nm,intensity",
    ]
    z_cols = [f",{_fmt(z)}," for z in fmap.z]
    with _open_text(path) as fh:
        fh.write("\n".join(header) + "\n")
        for k, row in zip(fmap.k, fmap.intensity):
            k_col = _fmt(k)
            fh.write("".join(
                f"{k_col}{z_col}{value!r}\n"
                for z_col, value in zip(z_cols, np.asarray(row, dtype=float).tolist())
            ))


def write_dispersion_csv(path, table):
    lines = [f"# channel = {table.channel}", "angle_deg,omega_lower_cm1,omega_upper_cm1,status"]
    for row in table.rows:
        lo = _fmt(row.omega_lower) if row.omega_lower is not None else ""
        hi = _fmt(row.omega_upper) if row.omega_upper is not None else ""
        lines.append(f"{_fmt(row.angle)},{lo},{hi},{row.status}")
    _write_text(path, "\n".join(lines) + "\n")


def write_json(path, payload):
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _open_text(path):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def _write_text(path, text):
    with _open_text(path) as fh:
        fh.write(text)
