"""File formats.

CSV files are ``# key = value`` metadata lines, a header row and one row
per sample, numbers in their shortest round-trip form, but for the
field map's intensities, which are written at 10 significant digits: no
command reads that file back, and ``%.10g`` writes it in well under half
the time of ``repr``.  `write_csv` writes every table but the field map,
from its columns; reports are JSON with sorted keys.  Reruns overwrite
their outputs byte for byte.

`read_spectrum_csv` reads native (``k_cm1,T,R,A``) and two-column files
under one set of rules: ``#`` starts a comment anywhere; a line holding
only ``# key = value`` is metadata; a first row starting with ``k_cm1``
is a header, native if it reads ``k_cm1,T,R,A`` in any case; every row
has the column count of the first, at least two; every cell is a finite
number; wavenumbers are positive and distinct, and come back sorted;
``angle_deg`` and ``polarization`` pass the stack model's checks.  Each
defect is a DomainError naming the file and line; a file that is not
UTF-8 text is a DomainError naming the file, and a leading byte-order
mark is skipped.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import DomainError
from .tmm import Spectrum, _check_angle, _check_polarization

NATIVE_HEADER = "k_cm1,T,R,A"


def _fmt(value):
    """A CSV cell or metadata value: a string as is, None empty, a number
    in the shortest form that round-trips the double exactly."""
    if value is None:
        return ""
    return value if isinstance(value, str) else repr(float(value))


def _head(header, meta):
    """The metadata comment lines and the header row, as text."""
    return "".join(f"# {key} = {_fmt(value)}\n" for key, value in meta.items()) + header + "\n"


def write_csv(path, header, columns, **meta):
    """A ``# key = value`` line per keyword, the header, and a line per
    sample of the equal-length columns.  A float ndarray column is written
    with one ``tolist()`` and the repr of each float; any other column (a
    list, strings, None cells) through `_fmt` cell by cell.  Both give the
    shortest round-trip form of a number."""
    cells = [map(repr, c.tolist()) if isinstance(c, np.ndarray) and c.dtype == np.float64
             else map(_fmt, c) for c in columns]
    with _open_text(path) as fh:
        fh.write(_head(header, meta))
        fh.writelines(f"{row}\n" for row in map(",".join, zip(*cells)))


def write_spectrum_csv(path, spectrum):
    """The native ``k_cm1,T,R,A`` file."""
    write_csv(path, NATIVE_HEADER, (spectrum.k, spectrum.T, spectrum.R, spectrum.A),
              angle_deg=spectrum.angle, polarization=spectrum.polarization)


def read_spectrum_csv(path):
    """A Spectrum from a native ``k_cm1,T,R,A`` file, else (k, values) from
    the first two columns, under the rules of the module docstring."""
    def defect(lineno, what):
        return DomainError(f"{path}, line {lineno}: {what}")

    angle, polarization = 0.0, "s"
    header, width, rows, lines = None, None, [], []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(_utf8_lines(fh, path), 1):
            text, _, comment = line.partition("#")
            text = text.strip()
            if not text:
                key, _, value = (part.strip() for part in comment.partition("="))
                try:
                    if key == "angle_deg":
                        _check_angle(angle := float(value))
                    elif key == "polarization":
                        _check_polarization(polarization := value)
                except (ValueError, DomainError) as err:
                    raise defect(lineno, f"{key} = {value}: {err}") from None
                continue
            cells = text.split(",")
            if width is None:
                width = max(len(cells), 2)
                if text.lower().startswith("k_cm1"):
                    header = ",".join(cell.strip() for cell in cells).lower()
                    continue
            if len(cells) != width:
                raise defect(lineno, f"expected {width} comma-separated columns")
            try:
                rows.append([float(cell) for cell in cells])
            except ValueError:
                raise defect(lineno, f"non-numeric cell in {text!r}") from None
            lines.append(lineno)
    if not rows:
        raise DomainError(f"{path}: no data rows")
    cols, lines = np.array(rows).T, np.array(lines)
    for bad, what in ((~np.isfinite(cols).all(axis=0), "non-finite cell"),
                      (cols[0] <= 0.0, "wavenumber must be positive")):
        if bad.any():
            raise defect(lines[bad.argmax()], what)
    order = np.argsort(cols[0], kind="stable")
    cols, lines = cols[:, order], lines[order]
    same = np.flatnonzero(cols[0, 1:] == cols[0, :-1])
    if same.size:
        raise defect(lines[same[0] + 1], f"wavenumber repeats line {lines[same[0]]}")
    if header == NATIVE_HEADER.lower():
        return Spectrum(*cols, angle=angle, polarization=polarization)
    return cols[0], cols[1]


def _utf8_lines(fh, path):
    """The lines of the text file fh, opened as UTF-8; DomainError naming
    the file at the first bytes that are not UTF-8."""
    try:
        yield from fh
    except UnicodeDecodeError as err:
        raise DomainError(f"{path}: not UTF-8 text ({err.reason})") from None


def write_field_map_csv(path, fmap):
    """Long format, one row per (k, z) cell: k and z in their shortest
    round-trip form, the intensity at 10 significant digits (``%.10g``).
    One template per k block, built once from the depth axis, takes each
    row of intensities in one ``%`` pass; rows convert one at a time."""
    head = _head("k_cm1,z_nm,intensity", {
        "angle_deg": fmap.angle,
        "polarization": fmap.polarization,
        "layer_boundaries_nm": " ".join(_fmt(b) for b in fmap.boundaries),
    })
    template = "".join(f"\0,{_fmt(z)},%.10g\n" for z in fmap.z)
    with _open_text(path) as fh:
        fh.write(head)
        for k, row in zip(fmap.k, fmap.intensity):
            fh.write(template.replace("\0", _fmt(k)) % tuple(row.tolist()))


def write_dispersion_csv(path, table):
    write_csv(path, "angle_deg,omega_lower_cm1,omega_upper_cm1,status",
              zip(*((r.angle, r.omega_lower, r.omega_upper, r.status) for r in table.rows)),
              channel=table.channel)


def json_text(payload):
    """The JSON text of every report: sorted keys, two-space indent."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(path, payload):
    with _open_text(path) as fh:
        fh.write(json_text(payload))


def _open_text(path):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")
