"""Intra-cavity field reconstruction: continuity, flux and mode shapes."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vibropol import (
    ConstantMedium,
    DomainError,
    Layer,
    LayerStack,
    SpectralGrid,
    default_z_grid,
    field_map,
    field_profile,
    find_peaks,
    gold,
    load_config,
    spectrum_scan,
    stack_response,
)
from vibropol import fields, tmm

from conftest import THICK_GOLD_NM, constant_stack, hard_stacks, local_maxima

# first two cavity resonances of the uncoupled stack, frozen from the
# transmission maxima on a 0.25 cm^-1 grid
MODE1 = 1741.6
MODE2 = 3497.5

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_free_space_is_unit_intensity():
    stack = LayerStack(
        materials={"air": ConstantMedium(eps=1.0)},
        layers=(),
        substrate="air",
        substrate_mode="coherent",
    )
    z = np.linspace(-500.0, 500.0, 101)
    for pol, angle in (("s", 0.0), ("p", 0.0), ("s", 40.0), ("p", 40.0)):
        prof = field_profile(stack, 1700.0, z=z, angle=angle, polarization=pol)
        np.testing.assert_allclose(prof.intensity, 1.0, rtol=1e-12)


def test_empty_stack_field_map_is_uniform():
    stack = LayerStack(
        materials={"air": ConstantMedium(eps=1.0)},
        layers=(),
        substrate="air",
        substrate_mode="coherent",
    )
    fmap = field_map(stack, SpectralGrid(1600.0, 1610.0, 5.0))
    np.testing.assert_allclose(fmap.intensity, 1.0, rtol=1e-12)


def test_first_mode_single_central_maximum(uncoupled_stack):
    z = np.arange(-200.0, 2150.0, 1.0)
    prof = field_profile(uncoupled_stack, MODE1, z=z)
    z_max, heights = local_maxima(z, prof.intensity, 10.0, 1940.0)
    assert len(z_max) == 1
    assert z_max[0] == pytest.approx(970.0, abs=15.0)  # cavity center
    assert heights[0] == pytest.approx(1.444, abs=0.02)


def test_second_mode_two_maxima(uncoupled_stack):
    z = np.arange(-200.0, 2150.0, 1.0)
    prof = field_profile(uncoupled_stack, MODE2, z=z)
    z_max, _ = local_maxima(z, prof.intensity, 10.0, 1940.0)
    assert len(z_max) == 2
    assert z_max[0] == pytest.approx(460.0, abs=15.0)
    assert z_max[1] == pytest.approx(1474.0, abs=15.0)


def test_coupled_map_has_node_at_band_center(coupled_stack):
    # between the two polariton ridges the on-band field is depressed
    z_center = np.array([980.0])
    grid = SpectralGrid(1550.0, 1950.0, 2.0)
    fmap = field_map(coupled_stack, grid, z=z_center)
    column = fmap.intensity[:, 0]
    k = fmap.k
    i_band = np.argmin(np.abs(k - 1740.0))
    ridges = find_peaks(k, column)
    assert len(ridges) == 2
    assert ridges[0].center < 1740.0 < ridges[1].center
    assert column[i_band] < 0.5 * min(r.height for r in ridges)


def test_s_polarization_continuity_at_interfaces(coupled_stack):
    eps_step = 1e-7  # narrow enough that the smooth gradient stays below tol
    boundaries = [0.0, 10.0, 1940.0, 1950.0]
    for k in (1680.0, 1741.6, 1820.0):
        for z0 in boundaries:
            z = np.array([z0 - eps_step, z0 + eps_step])
            prof = field_profile(coupled_stack, k, z=z, angle=25.0, polarization="s")
            left, right = prof.intensity
            assert abs(left - right) / max(left, right) < 1e-8


def test_exit_consistency_with_transmission(uncoupled_stack):
    stack = LayerStack(
        materials=uncoupled_stack.materials,
        layers=uncoupled_stack.layers,
        substrate=uncoupled_stack.substrate,
        substrate_mode="coherent",
    )
    angle = 30.0
    theta = math.radians(angle)
    q_amb = math.cos(theta)
    sin_sub = math.sin(theta) / 4.0
    q_sub = 4.0 * math.sqrt(1.0 - sin_sub**2)
    z_far = np.array([2500.0, 6000.0])
    for pol in ("s", "p"):
        for k in (1500.0, 1741.6, 2000.0):
            T, _, _ = stack_response(stack, np.array([k]), angle, pol)
            prof = field_profile(stack, k, z=z_far, angle=angle, polarization=pol)
            expected = T[0] * q_amb / q_sub
            np.testing.assert_allclose(prof.intensity, expected, rtol=1e-6)
            np.testing.assert_allclose(prof.poynting, T[0], rtol=1e-6)


def test_poynting_flux_non_increasing(coupled_stack):
    z = np.arange(-200.0, 2150.0, 2.0)
    for k in (1650.0, 1741.6, 1830.0):
        prof = field_profile(coupled_stack, k, z=z)
        drops = np.diff(prof.poynting)
        assert np.all(drops <= 1e-12)


def test_symmetric_lossless_cavity_profile(lossless_cavity):
    # at unit transmission the standing pattern mirrors about the center
    k = np.linspace(2300.0, 2450.0, 3001)
    T, _, _ = stack_response(lossless_cavity, k, 0.0, "s")
    k_res = k[np.argmax(T)]
    assert T.max() > 1.0 - 1e-6
    total = sum(layer.thickness for layer in lossless_cavity.layers)
    z = np.linspace(-200.0, total + 200.0, 1201)
    prof = field_profile(lossless_cavity, k_res, z=z)
    mirrored = np.interp(total - z, z, prof.intensity)
    assert np.max(np.abs(prof.intensity - mirrored)) / prof.intensity.max() < 1e-3


def test_unpolarized_profile_is_mean(coupled_stack):
    z = np.linspace(-100.0, 2050.0, 200)
    s = field_profile(coupled_stack, 1741.6, z=z, angle=20.0, polarization="s")
    p = field_profile(coupled_stack, 1741.6, z=z, angle=20.0, polarization="p")
    u = field_profile(coupled_stack, 1741.6, z=z, angle=20.0, polarization="unpolarized")
    np.testing.assert_allclose(u.intensity, 0.5 * (s.intensity + p.intensity), rtol=1e-12)


def test_unpolarized_map_is_mean_bit_for_bit(coupled_stack):
    # each cell adds its s value, then its p value, to 0 and halves the sum
    grid = SpectralGrid(1600.0, 1900.0, 10.0)
    s, p, u = (field_map(coupled_stack, grid, angle=35.0, polarization=pol).intensity
               for pol in ("s", "p", "unpolarized"))
    assert np.array_equal(u, (s + p) / 2)


def test_field_profile_takes_a_scalar_wavenumber(coupled_stack):
    with pytest.raises(DomainError, match="scalar wavenumber"):
        field_profile(coupled_stack, np.array([1700.0]), z=np.linspace(0.0, 100.0, 5))


def test_default_z_grid_span(coupled_stack):
    z = default_z_grid(coupled_stack)
    assert z[0] == -200.0
    assert z[1] - z[0] == 10.0
    total = sum(layer.thickness for layer in coupled_stack.layers)
    assert z[-1] >= total + 200.0 - 10.0
    assert z[-1] <= total + 200.0 + 1e-9

    fine = default_z_grid(coupled_stack, z_step=2.0, margin_ambient=50.0, margin_substrate=0.0)
    assert fine[0] == -50.0
    assert fine[1] - fine[0] == 2.0

    # the span over the step stays below the point limit
    with pytest.raises(DomainError, match=r"^z span / z_step must be finite and < 1e\+06, "
                                          r"got 2350000\.0"):
        default_z_grid(coupled_stack, z_step=1e-3)


def test_field_map_rows_match_profiles(coupled_stack):
    grid = SpectralGrid(1700.0, 1760.0, 20.0)
    z = np.linspace(0.0, 1950.0, 60)
    fmap = field_map(coupled_stack, grid, z=z)
    for i, k in enumerate(fmap.k):
        prof = field_profile(coupled_stack, float(k), z=z)
        np.testing.assert_array_equal(fmap.intensity[i], prof.intensity)

    # the polymer layer holds enough z samples that the map fills it in
    # several row blocks and a remainder; a profile is always one block
    z = np.linspace(-100.0, 2050.0, 600)
    rows = fields._BLOCK_CELLS // np.count_nonzero((z >= 10.0) & (z < 1940.0))
    grid = SpectralGrid(1600.0, 1900.0, 2.5)
    assert grid.points.size > 2 * rows and grid.points.size % rows
    for pol in ("s", "p", "unpolarized"):
        fmap = field_map(coupled_stack, grid, z=z, angle=35.0, polarization=pol)
        for i, k in enumerate(fmap.k):
            prof = field_profile(coupled_stack, float(k), z=z, angle=35.0, polarization=pol)
            np.testing.assert_array_equal(fmap.intensity[i], prof.intensity)


@pytest.mark.parametrize("layered", [False, True], ids=["no-layers", "constant-layers"])
@pytest.mark.parametrize("pol", ["s", "p", "unpolarized"])
def test_constant_stack_rows_match_profiles(layered, pol):
    # the amplitudes of constant media start as scalars in the march
    stack = constant_stack(layered)
    z = np.linspace(-300.0, 1200.0, 40)
    fmap = field_map(stack, SpectralGrid(1500.0, 2500.0, 250.0), z=z, angle=40.0,
                     polarization=pol)
    assert fmap.intensity.shape == (5, z.size)
    for i, k in enumerate(fmap.k):
        prof = field_profile(stack, float(k), z=z, angle=40.0, polarization=pol)
        np.testing.assert_array_equal(fmap.intensity[i], prof.intensity)


def test_bare_interface_transmits_fresnel_amplitude():
    # air / Ge at normal incidence: |E|^2 = |2 / (1 + 4)|^2 in the substrate
    fmap = field_map(constant_stack(False), SpectralGrid(1500.0, 2500.0, 500.0),
                     z=np.array([0.0, 50.0, 900.0]))
    np.testing.assert_allclose(fmap.intensity, 0.16, rtol=1e-14)


@pytest.mark.parametrize("pol", ["s", "p", "unpolarized"])
def test_field_map_working_memory_is_bounded(pol):
    # 385 x 784 cells; rebuilding each medium over all rows at once took
    # about ten times the output
    cfg = load_config(CONFIGS / "cavity_coupled.yaml")
    stack = cfg.require_stack()
    grid, z = SpectralGrid(1500.0, 2000.0, 1.3), default_z_grid(stack, z_step=3.0)
    field_map(stack, grid, z=z, polarization=pol)
    tracemalloc.start()
    try:
        fmap = field_map(stack, grid, z=z, polarization=pol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fmap.intensity.shape == (385, 784)
    assert peak < 3 * fmap.intensity.nbytes


@pytest.mark.parametrize("pol", ["s", "p", "unpolarized"])
def test_march_steps_are_the_work_s_until_the_next_pass(coupled_stack, pol):
    # every layer's g and f has its own work array, the two gold mirrors
    # (one material and thickness) share one phase array, and the next
    # pass through the work rewrites every array a pass returned: the
    # march reads its steps before that pass.  Unpolarized light marches
    # s, then p, through one work
    k = np.linspace(1600.0, 1900.0, 31)
    eps, k0, work = tmm._media(coupled_stack, k), tmm._K_TO_RAD_NM * k, tmm._Work()
    first, second = ("s", "p") if pol == "unpolarized" else (pol, pol)
    r, t, qz, q, _, steps = tmm._rouard(*tmm._sequence(coupled_stack), eps, k0, 0.1, first, work)
    factors = [r, t] + [v for g, f, _ in steps for v in (g, f)]
    assert len(factors) == 8
    assert not any(np.shares_memory(a, b) for i, a in enumerate(factors) for b in factors[i + 1:])
    phases = [p for *_, p in steps]
    assert phases[0] is phases[2]
    assert not np.shares_memory(phases[0], phases[1])
    returned = [v for v in factors + qz + q + phases if isinstance(v, np.ndarray)]
    kept = [np.copy(v) for v in returned]
    tmm._rouard(*tmm._sequence(coupled_stack), eps, k0, 0.6, second, work)
    for v, c in zip(returned, kept):
        assert not np.array_equal(v, c)


def test_field_map_cell_limit(coupled_stack):
    # each axis is within the point limit, their product is not; nothing
    # of the map's size is allocated before the check
    z = np.zeros(47001)
    with pytest.raises(DomainError, match="field map of 100001 wavenumbers x 47001 depths"):
        field_map(coupled_stack, SpectralGrid(1000.0, 2000.0, 0.01), z=z)
    with pytest.raises(DomainError, match="field map of 1 wavenumbers x 1000001 depths"):
        field_profile(coupled_stack, 1740.0, z=np.zeros(10**6 + 1))
    k, z = np.linspace(1500.0, 2000.0, 1000), np.linspace(-100.0, 2050.0, 1000)
    assert field_map(coupled_stack, k, z=z).intensity.shape == (1000, 1000)


def test_non_finite_z_rejected(coupled_stack):
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError, match="z samples must be finite"):
            field_profile(coupled_stack, 1740.0, z=np.array([0.0, bad]))
        with pytest.raises(DomainError, match="z samples must be finite"):
            field_map(coupled_stack, SpectralGrid(1700.0, 1710.0, 5.0), z=np.array([bad]))


def test_intensity_non_negative_everywhere(coupled_stack):
    fmap = field_map(coupled_stack, SpectralGrid(1500.0, 2000.0, 25.0))
    assert np.all(fmap.intensity >= 0.0)
    assert np.all(np.isfinite(fmap.intensity))


def test_spectrum_peaks_locate_modes(uncoupled_stack):
    # regression anchor for the frozen MODE1/MODE2 constants above
    spectrum = spectrum_scan(uncoupled_stack, SpectralGrid(1500.0, 3700.0, 0.25))
    peaks = find_peaks(spectrum.k, spectrum.T)
    centers = [p.center for p in peaks]
    assert min(abs(c - MODE1) for c in centers) < 0.5
    assert min(abs(c - MODE2) for c in centers) < 0.5


@pytest.mark.parametrize("pol", ["s", "p", "unpolarized"])
def test_thick_gold_fields_are_finite(pol):
    # the scalar matrix march used to overflow to NaN inside 20 um of gold
    stack = LayerStack(
        materials={"gold": gold(), "germanium": ConstantMedium(eps=16.0)},
        layers=(Layer("gold", THICK_GOLD_NM),), substrate="germanium",
        substrate_mode="coherent",
    )
    z = np.concatenate([np.linspace(-300.0, THICK_GOLD_NM + 300.0, 401), [0.0, 5.0, 50.0]])
    angle = 45.0
    for k in (500.0, 1740.0, 7000.0):
        T, R, _ = stack_response(stack, np.array([k]), angle, pol)
        prof = field_profile(stack, k, z=z, angle=angle, polarization=pol)
        assert np.all(np.isfinite(prof.intensity)) and np.all(np.isfinite(prof.poynting))
        assert np.all(prof.intensity >= 0.0)
        # all flux that is not reflected enters the gold and dies there
        np.testing.assert_allclose(prof.poynting[z < 0.0], 1.0 - R[0], rtol=1e-6)
        assert np.all(np.abs(prof.poynting[z > 10000.0]) <= 1e-12)
        assert abs(T[0]) <= 1e-12
    fmap = field_map(stack, SpectralGrid(500.0, 7000.0, 500.0), z=z, angle=angle,
                     polarization=pol)
    assert np.all(np.isfinite(fmap.intensity)) and np.all(fmap.intensity >= 0.0)
    for i, k in enumerate(fmap.k):
        prof = field_profile(stack, float(k), z=z, angle=angle, polarization=pol)
        np.testing.assert_array_equal(fmap.intensity[i], prof.intensity)


@settings(max_examples=150, deadline=None)
@given(case=hard_stacks(coherent=True), pol=st.sampled_from(["s", "p"]),
       k=st.floats(400.0, 7400.0))
def test_hard_regime_flux_matches_spectrum(case, pol, k):
    # thick lossy layers, TIR, near-grazing and ENZ stacks: the fields stay
    # finite, and the flux is 1 - R in the ambient and T in the substrate
    stack, angle = case
    faces = np.cumsum([0.0] + [ly.thickness for ly in stack.layers])
    mids = 0.5 * (faces[:-1] + faces[1:])
    z = np.concatenate([[-150.0, -1.0], mids, faces[-1:] + [0.0, 100.0]])
    T, R, _ = stack_response(stack, np.array([k]), angle, pol)
    prof = field_profile(stack, k, z=z, angle=angle, polarization=pol)
    assert np.all(np.isfinite(prof.intensity)) and np.all(prof.intensity >= 0.0)
    np.testing.assert_allclose(prof.poynting[:2], 1.0 - R[0], rtol=1e-6, atol=1e-12)
    np.testing.assert_allclose(prof.poynting[-2:], T[0], rtol=1e-6, atol=1e-12)

