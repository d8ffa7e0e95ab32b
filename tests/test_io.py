"""Writers: the block-wise field-map CSV keeps the per-cell bytes."""

import numpy as np

from vibropol import FieldMap, SpectralGrid, field_map
from vibropol.io import write_field_map_csv


def per_cell_field_map_csv(fmap):
    """The field-map CSV written cell by cell, one repr per value."""
    fmt = lambda value: repr(float(value))  # noqa: E731
    lines = [
        f"# angle_deg = {fmt(fmap.angle)}",
        f"# polarization = {fmap.polarization}",
        f"# layer_boundaries_nm = {' '.join(fmt(b) for b in fmap.boundaries)}",
        "k_cm1,z_nm,intensity",
    ]
    for i, k in enumerate(fmap.k):
        for j, z in enumerate(fmap.z):
            lines.append(f"{fmt(k)},{fmt(z)},{fmt(fmap.intensity[i, j])}")
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
