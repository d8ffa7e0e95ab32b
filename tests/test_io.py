"""Writers and the one spectrum reader: the column-wise table writer and
the block-wise field-map CSV keep the per-cell bytes, the field-map writer
holds one row at a time, spectra round-trip bit for bit, and every defect
of an input file names the file and the line."""

import tracemalloc

import numpy as np
import pytest

from vibropol import (DispersionRow, DispersionTable, DomainError, FieldMap, SpectralGrid,
                      Spectrum, field_map, load_measured)
from vibropol.io import (NATIVE_HEADER, _fmt, read_spectrum_csv, write_csv,
                         write_dispersion_csv, write_field_map_csv, write_spectrum_csv)

NATIVE = "# angle_deg = 0.0\n# polarization = s\nk_cm1,T,R,A\n"

# (content, what the error says after the file name), one case per rule
# of the reader; the CLI tests run the same cases through analyze
FILE_DEFECTS = {
    "native-non-positive-k": (NATIVE + "1600,0.1,0.2,0.7\n-1600,0.1,0.2,0.7\n",
                              ", line 5: wavenumber must be positive"),
    "inf-wavenumber": ("1600,0.1\ninf,0.2\n1800,0.3\n", ", line 2: non-finite cell"),
    "nan-cell": (NATIVE + "1600,0.1,nan,0.7\n", ", line 4: non-finite cell"),
    "repeated-wavenumber": ("1600,0.1\n1700,0.2\n1600.0,0.3\n",
                            ", line 3: wavenumber repeats line 1"),
    "nan-angle": ("# angle_deg = nan\nk_cm1,T,R,A\n1600,0.1,0.2,0.7\n",
                  ", line 1: angle_deg = nan"),
    "unknown-polarization": ("# polarization = banana\nk_cm1,T,R,A\n1600,0.1,0.2,0.7\n",
                             ", line 1: polarization = banana"),
    "wrong-column-count": (NATIVE + "1600,0.1,0.2,0.7\n1700,0.1,0.2\n",
                           ", line 5: expected 4 comma-separated columns"),
    "one-column": ("1600\n1700\n", ", line 1: expected 2 comma-separated columns"),
    "no-data-rows": (NATIVE, ": no data rows"),
}


def per_cell_field_map_csv(fmap):
    """The field-map CSV written cell by cell: the repr of each k, z and
    metadata number, each intensity at 10 significant digits."""
    fmt = lambda value: repr(float(value))  # noqa: E731
    lines = [
        f"# angle_deg = {fmt(fmap.angle)}",
        f"# polarization = {fmap.polarization}",
        f"# layer_boundaries_nm = {' '.join(fmt(b) for b in fmap.boundaries)}",
        "k_cm1,z_nm,intensity",
    ]
    for i, k in enumerate(fmap.k):
        for j, z in enumerate(fmap.z):
            lines.append(f"{fmt(k)},{fmt(z)},{'%.10g' % fmap.intensity[i, j]}")
    return "\n".join(lines) + "\n"


def test_field_map_csv_matches_per_cell_formula(tmp_path, coupled_stack):
    fmap = field_map(coupled_stack, SpectralGrid(1700.0, 1780.0, 20.0),
                     z=np.linspace(-50.0, 2000.0, 7), angle=12.5, polarization="unpolarized")
    path = tmp_path / "map.csv"
    write_field_map_csv(path, fmap)
    assert path.read_bytes() == per_cell_field_map_csv(fmap).encode("utf-8")


def test_field_map_csv_value_edge_cases(tmp_path):
    # integers, subnormals, long mantissas and a 1 x 1 map
    fmap = FieldMap(
        k=np.array([1500, 1e-3 + 1700.0]), z=np.array([-0.0, 1.0 / 3.0, 2e5]),
        intensity=np.array([[0.0, 5e-324, 1.0], [0.1 + 0.2, 1e300, 7.0]]),
        angle=-0.0, polarization="p", boundaries=(0.0, 10.0),
    )
    tiny = FieldMap(k=np.array([1740.0]), z=np.array([0.0]), intensity=np.array([[2.5]]),
                    angle=0.0, polarization="s", boundaries=(0.0,))
    for i, fm in enumerate((fmap, tiny)):
        path = tmp_path / f"map{i}.csv"
        write_field_map_csv(path, fm)
        assert path.read_bytes() == per_cell_field_map_csv(fm).encode("utf-8")


def test_field_map_writer_streams_one_row_at_a_time(tmp_path):
    # the largest map allowed: a writer that converts the whole map at once
    # would hold ~10^6 Python floats, 24 MB or more
    side = 1000
    fmap = FieldMap(k=np.linspace(1000.0, 2000.0, side), z=np.linspace(-200.0, 2200.0, side),
                    intensity=np.random.default_rng(0).random((side, side)),
                    angle=0.0, polarization="s", boundaries=(0.0,))
    tracemalloc.start()
    try:
        write_field_map_csv(tmp_path / "map.csv", fmap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("content, message", FILE_DEFECTS.values(), ids=FILE_DEFECTS)
def test_reader_defect_names_the_file_and_line(tmp_path, content, message):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(DomainError) as err:
        read_spectrum_csv(path)
    assert f"bad.csv{message}" in str(err.value)


@pytest.mark.parametrize("rows_before", [0, 5000], ids=["first-line", "past-the-first-read"])
def test_non_utf8_file_names_the_file(tmp_path, rows_before):
    path = tmp_path / "latin1.csv"
    rows = "".join(f"{1000 + i},0.1\n" for i in range(rows_before)).encode()
    path.write_bytes(rows + b"# exported by \xe9tude\n9000,0.1\n9001,0.2\n")
    with pytest.raises(DomainError, match=r"latin1\.csv: not UTF-8 text"):
        read_spectrum_csv(path)


def test_spectrum_round_trip_is_bit_exact(tmp_path):
    spectrum = Spectrum(
        k=np.array([1500.0, 1700.0 + 1e-3, 1e4 / 3.0]),
        T=np.array([0.1 + 0.2, 5e-324, 1.0 - 1e-16]),
        R=np.array([1e-300, 0.5, 2.0 / 3.0]),
        A=np.array([-0.0, 1.0, 7e-17]),
        angle=-12.345678901234567, polarization="unpolarized",
    )
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(path, spectrum)
    back = read_spectrum_csv(path)
    for name in ("k", "T", "R", "A"):
        assert getattr(back, name).tobytes() == getattr(spectrum, name).tobytes(), name
    assert (back.angle, back.polarization) == (spectrum.angle, spectrum.polarization)


def test_spectrum_writer_keeps_the_per_cell_bytes(tmp_path):
    # a float-array column is written by one tolist(), a list of the same
    # numbers one cell at a time; the bytes agree
    values = np.array([-0.0, 0.1, 1e-5, 1e16, 5e-324])
    spectrum = Spectrum(k=np.array([1500.0, 1600.0, 1700.0, 1800.0, 1900.0]), T=values,
                        R=values[::-1], A=np.roll(values, 2), angle=30.0, polarization="p")
    by_columns, per_cell = tmp_path / "columns.csv", tmp_path / "cells.csv"
    write_spectrum_csv(by_columns, spectrum)
    write_csv(per_cell, NATIVE_HEADER,
              [list(column) for column in (spectrum.k, spectrum.T, spectrum.R, spectrum.A)],
              angle_deg=spectrum.angle, polarization=spectrum.polarization)
    assert by_columns.read_bytes() == per_cell.read_bytes()
    assert "1500.0,-0.0,5e-324,1e+16\n" in by_columns.read_text()


SPECIAL = np.array([-0.0, 5e-324, 1e308, np.nan, np.inf, -np.inf])
TABLES = {
    "float64-specials": [SPECIAL, SPECIAL[::-1], np.array([0.1, 1e-5, 1e16, 2.0 / 3.0, 1.0, -1.5])],
    "float32": [np.arange(6.0), np.array([0.1, -0.0, 3.4e38, 1e-45, np.inf, 7.0],
                                         dtype=np.float32)],
    "lists-none-strings": [[1.5, None, 2.5, None, -0.0, 5e-324],
                           ["ok", "peaks=1", "", "ok", "a b", "%s%r"], np.arange(6)],
    "one-column": [SPECIAL],
    "zero-rows": [np.empty(0), [], np.empty(0, dtype=np.float32)],
}


def oracle_csv(header, columns, **meta):
    """The CSV text cell by cell: every cell through `_fmt`, joined by commas."""
    lines = [f"# {key} = {_fmt(value)}" for key, value in meta.items()] + [header]
    lines += [",".join(_fmt(cell) for cell in row) for row in zip(*map(list, columns))]
    return "".join(f"{line}\n" for line in lines)


@pytest.mark.parametrize("name", sorted(TABLES))
@pytest.mark.parametrize("kind", ["list", "generator", "zip"])
def test_table_writer_matches_the_per_cell_oracle(tmp_path, name, kind):
    columns = TABLES[name]
    header = ",".join(f"c{i}" for i in range(len(columns)))
    expected = oracle_csv(header, columns, angle_deg=-0.0, channel="T")
    passed = {"list": lambda: columns, "generator": lambda: (c for c in columns),
              # the dispersion writer's form: rows zipped into columns, one pass
              "zip": lambda: zip(*zip(*map(list, columns)))}[kind]()
    path = tmp_path / "table.csv"
    write_csv(path, header, passed, angle_deg=-0.0, channel="T")
    assert path.read_bytes() == expected.encode()


def test_dispersion_csv_rows_and_empty_table(tmp_path):
    head = "# channel = T\nangle_deg,omega_lower_cm1,omega_upper_cm1,status\n"
    path = tmp_path / "dispersion.csv"
    write_dispersion_csv(path, DispersionTable(
        [DispersionRow(-10.0, 1650.25, 1820.5, "ok"), DispersionRow(0.0, None, None, "peaks=1")],
        "T"))
    assert path.read_text() == head + "-10.0,1650.25,1820.5,ok\n0.0,,,peaks=1\n"
    write_dispersion_csv(path, DispersionTable([], "T"))
    assert path.read_text() == head


def test_inline_comment_reads_the_same_in_both_formats(tmp_path):
    native = tmp_path / "native.csv"
    native.write_text(NATIVE + "1600,0.1,0.2,0.7 # first\n1700,0.3,0.1,0.6\n")
    two = tmp_path / "two.csv"
    two.write_text("1600,0.1 # first\n1700,0.3\n")
    spectrum = read_spectrum_csv(native)
    k, values = read_spectrum_csv(two)
    np.testing.assert_array_equal(spectrum.k, k)
    np.testing.assert_array_equal(spectrum.T, values)


def test_native_file_is_not_a_two_column_target(tmp_path):
    path = tmp_path / "native.csv"
    path.write_text(NATIVE + "1600,0.1,0.2,0.7\n1700,0.3,0.1,0.6\n")
    with pytest.raises(DomainError, match="native.csv: a native"):
        load_measured(path)


@pytest.mark.parametrize("content", ["1600,0.1\n1700,0.3\n",
                                     "k_cm1,T,R,A\n1600,0.1,0.2,0.7\n1700,0.3,0.1,0.6\n"],
                         ids=["two-column", "native"])
def test_byte_order_mark_is_skipped(tmp_path, content):
    # spreadsheet tools may export UTF-8 with a leading byte-order mark
    path = tmp_path / "marked.csv"
    path.write_bytes(b"\xef\xbb\xbf" + content.encode())
    data = read_spectrum_csv(path)
    assert isinstance(data, Spectrum) == content.startswith("k_cm1")
    k, values = (data.k, data.T) if isinstance(data, Spectrum) else data
    np.testing.assert_array_equal(k, [1600.0, 1700.0])
    np.testing.assert_array_equal(values, [0.1, 0.3])


def test_native_header_matches_in_any_case(tmp_path):
    path = tmp_path / "upper.csv"
    path.write_text("K_CM1,T,R,A\n1600,0.1,0.2,0.7\n1700,0.3,0.1,0.6\n")
    spectrum = read_spectrum_csv(path)
    assert isinstance(spectrum, Spectrum)
    np.testing.assert_array_equal(spectrum.A, [0.7, 0.6])
