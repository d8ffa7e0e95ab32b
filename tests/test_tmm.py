"""Transfer-matrix solver against closed-form optics oracles."""

import math
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.polynomial.hermite import hermgauss

from vibropol import (
    ConstantMedium,
    DomainError,
    DrudeLorentzMetal,
    FitProblem,
    FreeParameter,
    Layer,
    LayerStack,
    SpectralGrid,
    angle_scan,
    divergence_nodes,
    field_map,
    find_peaks,
    gold,
    load_config,
    solve,
    spectrum_scan,
    stack_response,
)
from vibropol import tmm
from vibropol.io import read_spectrum_csv, write_spectrum_csv
from vibropol.materials import _SQUARE_MAX, _decaying_sqrt

from conftest import THICK_GOLD_NM, constant_stack, hard_stacks, random_passive_stack
from matrix_oracle import layer_matrix, matrix_response, reversed_stack

AIR = ConstantMedium(eps=1.0)
GERMANIUM = ConstantMedium(eps=16.0)
SLAB = ConstantMedium(eps=1.41**2)
DISPERSION_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "cavity_dispersion.yaml"
COUPLED_CONFIG = DISPERSION_CONFIG.with_name("cavity_coupled.yaml")


def bare_interface(substrate_eps=16.0):
    # LayerStack with no finite layers: pure ambient/substrate interface
    return LayerStack(
        materials={"sub": ConstantMedium(eps=substrate_eps)},
        layers=(),
        substrate="sub",
        n_ambient=1.0,
        substrate_mode="coherent",
    )


def airy_slab_TR(n, d_nm, k_cm1):
    """Normal-incidence Airy formulas for air / slab / air, coherent."""
    k0 = 2.0e-7 * np.pi * np.asarray(k_cm1)
    r01 = (1.0 - n) / (1.0 + n)
    t01 = 2.0 / (1.0 + n)
    t10 = 2.0 * n / (1.0 + n)
    phase = np.exp(1j * n * k0 * d_nm)
    denom = 1.0 + r01 * (-r01) * phase**2
    r = (r01 - r01 * phase**2) / denom
    t = t01 * t10 * phase / denom
    return np.abs(t) ** 2, np.abs(r) ** 2


def _upper_root(x):
    """sqrt on the branch Im >= 0 (Re >= 0 on the real axis)."""
    root = np.sqrt(np.asarray(x, dtype=complex))
    return np.where(root.imag < 0.0, -root, root)


def fresnel_R(n1, n2, angle, pol):
    """Power reflectance of a single interface between real indices n1
    and n2 from Snell's law; 1 beyond the critical angle."""
    cos_i = math.cos(math.radians(angle))
    cos_t = _upper_root(1.0 - (n1 * math.sin(math.radians(angle)) / n2) ** 2)
    if pol == "s":
        r = (n1 * cos_i - n2 * cos_t) / (n1 * cos_i + n2 * cos_t)
    else:
        r = (n2 * cos_i - n1 * cos_t) / (n2 * cos_i + n1 * cos_t)
    return float(np.abs(r) ** 2)


def airy_oblique_TR(eps, d_nm, k_cm1, angle, pol):
    """Airy sums for air / slab (complex eps) / air at any angle."""
    k0 = 2.0e-7 * np.pi * np.asarray(k_cm1)
    cos_0 = math.cos(math.radians(angle))
    kz = _upper_root(eps - math.sin(math.radians(angle)) ** 2)  # n cos(theta_1)
    r01 = (cos_0 - kz) / (cos_0 + kz) if pol == "s" else (eps * cos_0 - kz) / (eps * cos_0 + kz)
    phase = np.exp(1j * kz * k0 * d_nm)
    denom = 1.0 - r01**2 * phase**2
    r = r01 * (1.0 - phase**2) / denom
    t = (1.0 - r01**2) * phase / denom
    return np.abs(t) ** 2, np.abs(r) ** 2


class TestOracles:
    def test_fresnel_single_interface(self):
        T, R, A = stack_response(bare_interface(), np.array([1500.0]), 0.0, "s")
        assert R[0] == pytest.approx(0.36, abs=1e-8)
        assert T[0] == pytest.approx(0.64, abs=1e-8)
        assert A[0] == pytest.approx(0.0, abs=1e-10)

    def test_airy_slab_over_full_range(self):
        stack = LayerStack(
            materials={"slab": SLAB, "air": AIR},
            layers=(Layer("slab", 2000.0),),
            substrate="air",
            substrate_mode="coherent",
        )
        k = SpectralGrid(400.0, 7400.0, 1.0).points
        T, R, _ = stack_response(stack, k, 0.0, "s")
        T_ref, R_ref = airy_slab_TR(1.41, 2000.0, k)
        assert np.max(np.abs(T - T_ref)) <= 1e-8
        assert np.max(np.abs(R - R_ref)) <= 1e-8

    def test_reciprocity_of_transmission(self, coupled_stack):
        # substrate-side incidence leaves T untouched for reciprocal media
        stack = LayerStack(
            materials=coupled_stack.materials,
            layers=coupled_stack.layers,
            substrate=coupled_stack.substrate,
            n_ambient=coupled_stack.n_ambient,
            substrate_mode="coherent",
        )
        k = np.linspace(1500.0, 2000.0, 101)
        T_fwd, _, _ = stack_response(stack, k, 0.0, "s")
        T_rev, _, _ = stack_response(reversed_stack(stack), k, 0.0, "s")
        np.testing.assert_allclose(T_rev, T_fwd, rtol=1e-10)

    def test_incoherent_rear_face_is_single_pass_factor(self, uncoupled_stack):
        coherent = LayerStack(
            materials=uncoupled_stack.materials,
            layers=uncoupled_stack.layers,
            substrate=uncoupled_stack.substrate,
            substrate_mode="coherent",
        )
        k = np.linspace(1500.0, 2000.0, 51)
        T_coh, R_coh, _ = stack_response(coherent, k, 0.0, "s")
        T_inc, R_inc, _ = stack_response(uncoupled_stack, k, 0.0, "s")
        # Ge -> air power transmittance at normal incidence: 1 - (3/5)^2
        np.testing.assert_allclose(T_inc, 0.64 * T_coh, rtol=1e-12)
        np.testing.assert_allclose(R_inc, R_coh, rtol=1e-12)


class TestConstantStacks:
    """The sweep's edge shapes: no layers, and a stack of constant media
    whose r and t stay Python scalars inside the sweep."""

    @pytest.mark.parametrize("layered", [False, True], ids=["no-layers", "constant-layers"])
    @pytest.mark.parametrize("mode", ["coherent", "incoherent_to_air"])
    @pytest.mark.parametrize("pol", ["s", "p", "unpolarized"])
    @pytest.mark.parametrize("k", [1700.0, [1700.0], np.linspace(400.0, 7400.0, 7)],
                             ids=["scalar", "one", "seven"])
    def test_response_lives_on_k(self, layered, mode, pol, k):
        T, R, A = stack_response(constant_stack(layered, mode), k, 20.0, pol)
        for channel in (T, R, A):
            assert channel.shape == np.atleast_1d(k).shape
            assert np.all(np.isfinite(channel))
        assert np.all((T >= 0.0) & (R >= 0.0) & (A >= -1e-14))
        if not layered:
            # air / Ge: the Fresnel reflectance at every k
            R_ref = np.mean([fresnel_R(1.0, 4.0, 20.0, p) for p in ("s", "p")
                             if pol in (p, "unpolarized")])
            np.testing.assert_allclose(R, R_ref, rtol=1e-13)


class TestHardRegimeOracles:
    """Fresnel, Airy and reciprocity oracles past the benign regime:
    total internal reflection, near-grazing angles, thick lossy layers
    and epsilon-near-zero slabs in p polarization."""

    @settings(max_examples=200, deadline=None)
    @given(
        n1=st.floats(1.0, 4.0),
        n2=st.floats(1.0, 4.0),
        angle=st.one_of(st.floats(0.0, 89.9), st.floats(85.0, 89.9)),
        pol=st.sampled_from(["s", "p"]),
    )
    def test_fresnel_interface_including_tir(self, n1, n2, angle, pol):
        stack = LayerStack(
            materials={"sub": ConstantMedium(eps=n2**2)}, layers=(), substrate="sub",
            n_ambient=n1, substrate_mode="coherent",
        )
        T, R, A = stack_response(stack, np.array([1700.0]), angle, pol)
        R_ref = fresnel_R(n1, n2, angle, pol)
        assert R[0] == pytest.approx(R_ref, abs=1e-8)
        assert T[0] == pytest.approx(1.0 - R_ref, abs=1e-8)
        assert A[0] == pytest.approx(0.0, abs=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(
        eps=st.one_of(
            st.builds(complex, st.floats(1.0, 16.0), st.floats(0.0, 0.0)),
            st.builds(complex, st.floats(-50.0, 20.0), st.floats(0.5, 60.0)),  # lossy
            st.builds(complex, st.floats(-0.02, 0.02), st.floats(1e-6, 0.02)),  # ENZ
        ),
        d_nm=st.one_of(st.floats(5.0, 3000.0), st.floats(3000.0, 100000.0)),
        angle=st.one_of(st.floats(0.0, 89.9), st.floats(85.0, 89.9)),
        pol=st.sampled_from(["s", "p"]),
    )
    def test_airy_slab_oblique(self, eps, d_nm, angle, pol):
        stack = LayerStack(
            materials={"slab": ConstantMedium(eps=eps), "air": AIR},
            layers=(Layer("slab", d_nm),), substrate="air", substrate_mode="coherent",
        )
        k = np.linspace(400.0, 7400.0, 15)
        T, R, _ = stack_response(stack, k, angle, pol)
        T_ref, R_ref = airy_oblique_TR(eps, d_nm, k, angle, pol)
        assert np.max(np.abs(T - T_ref)) <= 1e-8
        assert np.max(np.abs(R - R_ref)) <= 1e-8

    @settings(max_examples=150, deadline=None)
    @given(case=hard_stacks(coherent=True), pol=st.sampled_from(["s", "p"]))
    # p-polarized ENZ film: t = 1 + r at its interfaces loses 1e-10 of T
    @example(
        case=(LayerStack(materials={"sub": AIR, "enz": ConstantMedium(eps=1e-6j)},
                         layers=(Layer("enz", 5.0),), substrate="sub", n_ambient=2.0), 12.0),
        pol="p",
    )
    def test_reciprocity_of_transmission(self, case, pol):
        stack, angle = case
        n_sub = math.sqrt(stack.materials["sub"].eps.real)
        sin_rev = stack.n_ambient * math.sin(math.radians(angle)) / n_sub
        # each side's grazing medium turns a rounding of kx into a relative
        # error of ~1e-16 / cos^2: 3e-11 at 89.9 degrees, so the 1e-10
        # tolerance holds only up to 89.5 degrees on both sides
        grazing = math.sin(math.radians(89.5))
        assume(abs(math.sin(math.radians(angle))) <= grazing and abs(sin_rev) <= grazing)
        angle_rev = math.degrees(math.asin(sin_rev))
        k = np.linspace(400.0, 7400.0, 15)
        T_fwd, _, _ = stack_response(stack, k, angle, pol)
        T_rev, _, _ = stack_response(reversed_stack(stack), k, angle_rev, pol)
        np.testing.assert_allclose(T_rev, T_fwd, rtol=1e-10, atol=1e-290)


class TestLayerMatrix:
    """The characteristic-matrix oracle of tests/matrix_oracle.py, and
    the Rouard kernel against it."""

    @pytest.mark.parametrize("seed", range(40))
    def test_rouard_matches_matrix_product_on_benign_stacks(self, seed):
        # gold clipped to 20 nm: cos and sin of a thick metal's phase
        # would cost the matrix product its digits
        rng = np.random.default_rng(seed)
        stack = random_passive_stack(rng)
        layers = tuple(
            replace(ly, thickness=min(ly.thickness, 20.0))
            if isinstance(stack.materials[ly.material], DrudeLorentzMetal)
            else ly
            for ly in stack.layers
        )
        stack = replace(stack, layers=layers, substrate_mode="coherent")
        k = np.linspace(800.0, 4000.0, 41)
        angle = float(rng.uniform(-60.0, 60.0))
        for pol in ("s", "p"):
            T, R, _ = stack_response(stack, k, angle, pol)
            T_m, R_m = matrix_response(stack, k, angle, pol)
            np.testing.assert_allclose(T, T_m, rtol=1e-8, atol=1e-12)
            np.testing.assert_allclose(R, R_m, rtol=1e-8, atol=1e-12)

    def test_zero_thickness_is_identity(self):
        m = layer_matrix(SLAB, 0.0, np.array([1700.0]), polarization="s")
        np.testing.assert_allclose(m[0], np.eye(2), atol=1e-15)

    def test_unit_determinant_lossy_gold_oblique(self, coupled_stack):
        au = coupled_stack.materials["gold"]
        k = np.linspace(400.0, 7400.0, 201)
        kx = k * np.sin(np.radians(45.0))
        for pol in ("s", "p"):
            m = layer_matrix(au, 10.0, k, kx, pol)
            det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
            assert np.max(np.abs(det - 1.0)) <= 1e-10

    def test_half_wave_layer_is_minus_identity(self):
        # n d = lambda/2: delta = pi, so M = -I
        n, d = 1.5, 1000.0
        k = 1.0 / (2.0e-7 * n * d)
        m = layer_matrix(ConstantMedium(eps=n**2), d, np.array([k]), polarization="s")
        np.testing.assert_allclose(m[0], -np.eye(2), atol=1e-10)

    def test_ambient_light_line_rejected(self):
        with pytest.raises(DomainError):
            layer_matrix(SLAB, 100.0, np.array([1700.0]), kx=1700.0)
        with pytest.raises(DomainError):
            layer_matrix(SLAB, 100.0, np.array([1700.0]), kx=2500.0, n_ambient=1.2)

    def test_evanescent_inside_layer_allowed(self):
        # prism-style: ambient n = 2, layer n = 1.41, kx beyond the layer light line
        m = layer_matrix(SLAB, 300.0, np.array([1700.0]), kx=1700.0 * 1.8, n_ambient=2.0)
        det = m[0, 0, 0] * m[0, 1, 1] - m[0, 0, 1] * m[0, 1, 0]
        assert abs(det - 1.0) <= 1e-10


class TestEnergyBalance:
    def test_lossless_stack_absorbs_nothing(self, lossless_cavity):
        k = SpectralGrid(400.0, 7400.0, 2.0).points
        for pol in ("s", "p"):
            T, R, A = stack_response(lossless_cavity, k, 37.0, pol)
            assert np.max(np.abs(A)) <= 1e-10
            assert np.all(T >= -1e-10) and np.all(T <= 1.0 + 1e-10)
            assert np.all(R >= -1e-10) and np.all(R <= 1.0 + 1e-10)

    def test_random_passive_stacks_bounded(self):
        rng = np.random.default_rng(1234)
        k = np.linspace(400.0, 7400.0, 25)
        for _ in range(50):
            stack = random_passive_stack(rng)
            angle = float(rng.uniform(-80.0, 80.0))
            pol = ("s", "p", "unpolarized")[rng.integers(0, 3)]
            T, R, A = stack_response(stack, k, angle, pol)
            assert np.all(T >= -1e-10) and np.all(T <= 1.0 + 1e-10)
            assert np.all(R >= -1e-10) and np.all(R <= 1.0 + 1e-10)
            np.testing.assert_allclose(T + R + A, 1.0, rtol=0, atol=1e-12)
            assert np.all(A <= 1.0 + 1e-10)


    @settings(max_examples=300, deadline=None)
    @given(case=hard_stacks(), pol=st.sampled_from(["s", "p", "unpolarized"]))
    def test_hard_regime_stacks_bounded(self, case, pol):
        stack, angle = case
        k = np.linspace(400.0, 7400.0, 25)
        T, R, A = stack_response(stack, k, angle, pol)
        assert np.all(np.isfinite(T)) and np.all(np.isfinite(R))
        assert np.all(T >= -1e-10) and np.all(T <= 1.0 + 1e-10)
        assert np.all(R >= -1e-10) and np.all(R <= 1.0 + 1e-10)
        assert np.all(A >= -1e-10)
        np.testing.assert_allclose(T + R + A, 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("pol", ["s", "p", "unpolarized"])
    def test_thick_gold_layer_is_opaque(self, pol):
        # a 20 um gold film used to overflow the characteristic matrices
        # to NaN; it must read as a mirror with nothing transmitted
        materials = {"gold": gold(), "germanium": ConstantMedium(eps=16.0)}
        thick = LayerStack(materials=materials, layers=(Layer("gold", THICK_GOLD_NM),),
                           substrate="germanium", substrate_mode="coherent")
        bulk = LayerStack(materials=materials, layers=(), substrate="gold")
        k = SpectralGrid(400.0, 7400.0, 10.0).points
        for angle in (0.0, 45.0, 89.9):
            T, R, A = stack_response(thick, k, angle, pol)
            assert np.all(np.isfinite(T)) and np.all(np.isfinite(R)) and np.all(np.isfinite(A))
            assert np.max(T) <= 1e-12
            np.testing.assert_allclose(T + R + A, 1.0, rtol=0, atol=1e-12)
            # nothing returns from the rear face: R is the bulk-gold value
            _, R_bulk, _ = stack_response(bulk, k, angle, pol)
            np.testing.assert_allclose(R, R_bulk, rtol=0, atol=1e-12)


class TestSpectrumScan:
    def test_normal_incidence_polarization_degeneracy(self, coupled_stack):
        k = np.linspace(1400.0, 2100.0, 351)
        Ts, Rs, _ = stack_response(coupled_stack, k, 0.0, "s")
        Tp, Rp, _ = stack_response(coupled_stack, k, 0.0, "p")
        np.testing.assert_allclose(Ts, Tp, rtol=1e-12)
        np.testing.assert_allclose(Rs, Rp, rtol=1e-12)

    def test_angle_sign_symmetry(self, coupled_stack):
        grid = SpectralGrid(1600.0, 1900.0, 1.0)
        for pol in ("s", "p"):
            plus = spectrum_scan(coupled_stack, grid, 35.0, pol)
            minus = spectrum_scan(coupled_stack, grid, -35.0, pol)
            np.testing.assert_array_equal(plus.T, minus.T)
            np.testing.assert_array_equal(plus.R, minus.R)

    def test_coupled_stack_two_transmission_peaks(self, coupled_stack):
        spectrum = spectrum_scan(coupled_stack, SpectralGrid(1500.0, 2000.0, 0.25))
        peaks = find_peaks(spectrum.k, spectrum.T)
        assert len(peaks) == 2
        split = peaks[1].center - peaks[0].center
        assert split == pytest.approx(164.1, abs=1.0)
        assert abs(split - 167.0) <= 5.0

    def test_uncoupled_single_peak_near_cavity_mode(self, uncoupled_stack):
        spectrum = spectrum_scan(uncoupled_stack, SpectralGrid(1500.0, 2000.0, 0.5))
        peaks = find_peaks(spectrum.k, spectrum.T)
        assert len(peaks) == 1
        assert abs(peaks[0].center - 1740.0) <= 40.0

    def test_transmission_continuity_on_fine_grid(self, coupled_stack):
        spectrum = spectrum_scan(coupled_stack, SpectralGrid(1400.0, 2100.0, 0.25))
        assert np.max(np.abs(np.diff(spectrum.T))) < 1e-3

    def test_angle_out_of_range(self, coupled_stack):
        for bad in (90.0, -95.0, float("nan")):
            with pytest.raises(DomainError):
                stack_response(coupled_stack, np.array([1700.0]), bad, "s")

    def test_unknown_polarization_and_channel(self, coupled_stack):
        with pytest.raises(DomainError):
            stack_response(coupled_stack, np.array([1700.0]), 0.0, "circular")
        spectrum = spectrum_scan(coupled_stack, SpectralGrid(1700.0, 1701.0, 1.0))
        with pytest.raises(DomainError):
            spectrum.channel("X")

    def test_unpolarized_is_intensity_mean(self, coupled_stack):
        k = np.linspace(1600.0, 1900.0, 31)
        Ts, Rs, _ = stack_response(coupled_stack, k, 25.0, "s")
        Tp, Rp, _ = stack_response(coupled_stack, k, 25.0, "p")
        Tu, Ru, _ = stack_response(coupled_stack, k, 25.0, "unpolarized")
        np.testing.assert_allclose(Tu, 0.5 * (Ts + Tp), rtol=1e-14)
        np.testing.assert_allclose(Ru, 0.5 * (Rs + Rp), rtol=1e-14)

    def test_scalar_grid_is_a_one_point_spectrum(self, coupled_stack, tmp_path):
        spectrum = spectrum_scan(coupled_stack, 1700.0)
        assert spectrum.k.shape == spectrum.T.shape == (1,)
        assert spectrum.k.tolist() == [1700.0]
        path = tmp_path / "spectrum.csv"
        write_spectrum_csv(path, spectrum)
        assert read_spectrum_csv(path).k.tolist() == [1700.0]

    @pytest.mark.parametrize("k", [1e300, 1e-300, 1e7 * (1 + 1e-15), 1e-3 * (1 - 1e-15)],
                             ids=["1e300", "1e-300", "just_above", "just_below"])
    def test_wavenumbers_outside_the_range_raise_naming_it(self, coupled_stack, k):
        with pytest.raises(DomainError, match="between 0.001 and 1e\\+07 cm\\^-1"):
            stack_response(coupled_stack, np.array([1700.0, k]))

    def test_range_ends_are_finite(self, coupled_stack):
        for angle in (0.0, 89.9):
            for pol in ("s", "p"):
                for channel in stack_response(coupled_stack, [1e-3, 1e7], angle, pol):
                    assert np.all(np.isfinite(channel))

    def test_unknown_substrate_name_raises(self, coupled_stack):
        with pytest.raises(DomainError, match="unknown material name.*'sapphire'"):
            LayerStack(coupled_stack.materials, coupled_stack.layers, "sapphire")


class TestSpectralGrid:
    def test_points_include_both_endpoints(self):
        grid = SpectralGrid(400.0, 7400.0, 1.0)
        points = grid.points
        assert points[0] == 400.0
        assert points[-1] == 7400.0
        assert len(points) == 7001

    def test_single_point_grid(self):
        grid = SpectralGrid(1740.0, 1740.0, 1.0)
        np.testing.assert_array_equal(grid.points, [1740.0])

    def test_invalid_grids_rejected(self):
        for args in ((0.0, 100.0, 1.0), (-5.0, 100.0, 1.0), (200.0, 100.0, 1.0),
                     (100.0, 200.0, 0.0), (100.0, 200.0, -1.0),
                     # (max - min) / step overflows, or exceeds the point limit
                     (1.0, 1e300, 1e-300), (1700.0, 1800.0, 1e-12), (1.0, 1e6 + 1.0, 1.0)):
            with pytest.raises(DomainError):
                SpectralGrid(*args)


def node_by_node_scan(stack, k, angles, polarization, divergence=0.0):
    """Oracle for `angle_scan`: one kernel pass per angle or divergence
    node, summed in node order, whatever angles repeat.  Each pass is a
    `stack_response`, itself the one-angle `angle_scan`, so this compares
    passes made node by node with the multi-angle pass, which solves each
    distinct s^2 once and keeps it in its cache until its last use."""
    scans = []
    for angle in angles:
        if divergence > 0.0:
            thetas, weights = divergence_nodes(angle, divergence)
            T = np.zeros_like(k)
            R = np.zeros_like(k)
            for theta, w in zip(thetas, weights):
                Ti, Ri, _ = stack_response(stack, k, theta, polarization)
                T += w * Ti
                R += w * Ri
        else:
            T, R, _ = stack_response(stack, k, angle, polarization)
        scans.append((T, R, 1.0 - T - R))
    return scans


class TestAngleScan:
    @pytest.mark.parametrize("variant", ["incoherent", "coherent", "n_ambient_1.5"])
    @pytest.mark.parametrize("pol", ["s", "p", "unpolarized"])
    @pytest.mark.parametrize("divergence", [0.0, 1.0, 4.0])
    def test_bitwise_equal_to_node_by_node_scan(self, coupled_stack, variant, pol,
                                                 divergence):
        stack = {
            "incoherent": coupled_stack,
            "coherent": replace(coupled_stack, substrate_mode="coherent"),
            "n_ambient_1.5": replace(coupled_stack, n_ambient=1.5),
        }[variant]
        k = SpectralGrid(1600.0, 1900.0, 5.0).points
        angle_lists = (
            [-20.0, -10.0, 0.0, 10.0, 20.0],      # symmetric
            [-35.0, 5.0, 12.5, 40.0, 88.0],       # asymmetric, truncated at grazing
            [10.0, -10.0, 10.0, 0.0, 0.0, 7.3],   # repeated
        )
        for angles in angle_lists:
            scan = angle_scan(stack, k, angles, pol, divergence=divergence)
            expected = node_by_node_scan(stack, k, angles, pol, divergence)
            assert [sp.angle for sp in scan] == angles
            for sp, (T, R, A) in zip(scan, expected):
                assert sp.polarization == pol
                assert np.array_equal(sp.T, T)
                assert np.array_equal(sp.R, R)
                assert np.array_equal(sp.A, A)

    @pytest.mark.parametrize("angle", ["10", None, 10**400], ids=["string", "none", "huge-int"])
    def test_angle_that_is_no_number_raises(self, coupled_stack, angle):
        k = np.array([1700.0, 1750.0])
        with pytest.raises(DomainError, match="^incidence angle must be finite"):
            angle_scan(coupled_stack, k, [0.0, angle])
        with pytest.raises(DomainError, match="^incidence angle must be finite"):
            spectrum_scan(coupled_stack, k, angle)

    # at 1 deg the rule has 7 nodes; those of a and -a share their s^2,
    # and at 0 deg they mirror exactly, so they take 4 passes
    @pytest.mark.parametrize(
        "angles, divergence, passes",
        [("config", 1.0, 88), ("config", 0.0, 13), ([0.0], 1.0, 4)],
        ids=["dispersion_sigma_1", "dispersion_sigma_0", "normal_sigma_1"],
    )
    def test_one_kernel_pass_per_distinct_sin2(self, monkeypatch, angles, divergence,
                                               passes):
        cfg = load_config(DISPERSION_CONFIG)
        angles = cfg.scan.angles if angles == "config" else angles
        counted = []
        kernel = tmm._rouard

        def counting(*args, **kwargs):
            counted.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(tmm, "_rouard", counting)
        scan = angle_scan(cfg.require_stack(), cfg.grid, angles, "s", divergence=divergence)
        assert len(scan) == len(angles)
        assert len(counted) == passes

    @pytest.mark.parametrize(
        "divergence",
        [-1.0, math.nan, math.inf,
         # a cone wider than the half-space: once the average of one node,
         # once an overflow inside the node spacing
         1e300, 1e308],
        ids=["negative", "nan", "inf", "huge", "overflowing"],
    )
    def test_bad_divergence_raises_naming_the_argument(self, coupled_stack, divergence):
        k = np.array([1700.0])
        for angles in ([0.0, 20.0], []):
            with pytest.raises(DomainError, match="divergence"):
                angle_scan(coupled_stack, k, angles, "s", divergence=divergence)
        with pytest.raises(DomainError, match="divergence"):
            divergence_nodes(0.0, divergence)

    def test_zero_divergence_matches_pointwise_scan(self, coupled_stack):
        grid = SpectralGrid(1600.0, 1900.0, 2.0)
        scan = angle_scan(coupled_stack, grid, [0.0, 20.0, 40.0], "s")
        for spectrum in scan:
            direct = spectrum_scan(coupled_stack, grid, spectrum.angle, "s")
            np.testing.assert_array_equal(spectrum.T, direct.T)

    def test_divergence_nodes_weights(self):
        angles, weights = divergence_nodes(10.0, 3.0)
        # n = 2 ceil(1.75 * 3) + 3, all inside the half-space
        assert len(angles) == 15
        assert weights.sum() == pytest.approx(1.0, rel=1e-12)
        assert np.all(np.diff(angles) > 0)
        x, w = hermgauss(15)
        np.testing.assert_allclose(angles, 10.0 + math.sqrt(2.0) * 3.0 * x, rtol=1e-13)
        np.testing.assert_allclose(weights, w / w.sum(), rtol=1e-11)
        # symmetric Gaussian about the slope center
        assert np.array_equal(weights, weights[::-1])

    def test_gauss_hermite_rule_of_every_size_in_use(self):
        # sigma in (0, 30] takes the odd sizes 5 to 109
        for n in range(1, 110):
            x, w = tmm._gauss_hermite(n)
            x_ref, w_ref = hermgauss(n)
            np.testing.assert_allclose(x, x_ref, rtol=0.0, atol=1e-13)
            np.testing.assert_allclose(w, w_ref / math.sqrt(math.pi), rtol=1e-11)
            assert not x.flags.writeable and not w.flags.writeable

    @pytest.mark.parametrize(
        "sigma", [0.01, 0.25, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0, 4.0, 8.0, 16.0, 29.9, 30.0])
    def test_divergence_nodes_count_follows_the_docstring(self, sigma):
        # n = 2 ceil(1.75 sigma) + 3 nodes of the Gauss-Hermite rule, less
        # those at or beyond 90 degrees, whatever the angle
        n = 2 * math.ceil(1.75 * sigma) + 3
        x, w = hermgauss(n)
        for angle in (0.0, 10.0, -85.0):
            angles, weights = divergence_nodes(angle, sigma)
            full = angle + math.sqrt(2.0) * sigma * x
            keep = np.abs(full) < 90.0
            assert keep.sum() == angles.size
            if angle == 0.0 and sigma <= 8.0:
                assert angles.size == n
            np.testing.assert_allclose(angles, full[keep], rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(weights, w[keep] / w[keep].sum(), rtol=1e-11)

    @pytest.mark.parametrize("sigma", [0.01, 0.5, 1.0, 2.0, 4.0, 8.0])
    def test_divergence_nodes_gaussian_moments(self, sigma):
        # at 0 deg the nodes are the offsets themselves, unrounded, and
        # none is dropped: the rule of n nodes gives the normal moments
        # E[theta^(2m)] = (2m - 1)!! sigma^(2m) up to degree 2n - 1
        angles, weights = divergence_nodes(0.0, sigma)
        n = angles.size
        assert n == 2 * math.ceil(1.75 * sigma) + 3
        double_factorial = 1.0
        for degree in range(1, 2 * n):
            moment = float(np.sum(weights * angles**degree))
            if degree % 2:
                # the mirrored terms cancel to round-off
                assert abs(moment) <= 1e-12 * float(np.sum(weights * np.abs(angles) ** degree))
            else:
                double_factorial *= degree - 1
                assert moment == pytest.approx(double_factorial * sigma**degree, rel=1e-12)

    @pytest.mark.parametrize("sigma", [0.01, 0.7, 1.0, 3.0, 8.0, 16.0, 30.0])
    def test_divergence_nodes_mirror_exactly(self, sigma):
        angles, weights = divergence_nodes(0.0, sigma)
        assert angles.size % 2 == 1
        assert np.array_equal(angles, -angles[::-1])
        assert np.array_equal(weights, weights[::-1])
        assert angles[angles.size // 2] == 0.0
        # the middle node is the angle itself, kept however many are dropped
        for angle in (10.0, -85.0, 89.9):
            assert np.count_nonzero(divergence_nodes(angle, sigma)[0] == angle) == 1

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0, 4.0])
    def test_divergence_average_beats_the_uniform_rule(self, coupled_stack, sigma):
        # the error of the average against a dense uniform rule over
        # +-8 sigma (converged: it agrees with a 150-node Gauss-Hermite
        # rule to 1e-14) is at most half that of the rule it replaced, 11
        # uniform, Gaussian-weighted nodes over +-3 sigma (the largest
        # ratio here is 0.18, at 4 deg, 60 deg, s)
        k = SpectralGrid(1450.0, 2250.0, 4.0).points

        def average(angle, offsets, weights, pol):
            thetas = angle + offsets
            keep = np.abs(thetas) < 90.0
            T = np.zeros_like(k)
            R = np.zeros_like(k)
            for theta, w in zip(thetas[keep], weights[keep] / weights[keep].sum()):
                Ti, Ri, _ = stack_response(coupled_stack, k, theta, pol)
                T += w * Ti
                R += w * Ri
            return T, R

        uniform = 3.0 * sigma * ((np.arange(11) - 5) / 5)
        dense = 8.0 * sigma * np.linspace(-1.0, 1.0, 121)
        for pol in ("s", "p"):
            for angle in (0.0, 30.0, 60.0):
                T, R = average(angle, dense, np.exp(-0.5 * (dense / sigma) ** 2), pol)
                T_old, R_old = average(angle, uniform, np.exp(-0.5 * (uniform / sigma) ** 2),
                                       pol)
                scan = angle_scan(coupled_stack, k, [angle], pol, divergence=sigma)[0]
                assert np.max(np.abs(scan.T - T)) <= 0.5 * np.max(np.abs(T_old - T))
                assert np.max(np.abs(scan.R - R)) <= 0.5 * np.max(np.abs(R_old - R))

    def test_single_divergence_node_is_the_angle(self):
        # no divergence: the one node is the angle itself
        angles, weights = divergence_nodes(10.0, 0.0)
        assert angles.tolist() == [10.0] and weights.tolist() == [1.0]

    def test_divergence_nodes_truncated_at_grazing(self):
        angles, weights = divergence_nodes(88.0, 4.0)
        assert np.all(np.abs(angles) < 90.0)
        assert weights.sum() == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    @pytest.mark.parametrize("angle", [100.0, math.nan, math.inf, -math.inf])
    def test_divergence_nodes_reject_out_of_range_angles(self, angle, sigma):
        with pytest.raises(DomainError, match="incidence angle"):
            divergence_nodes(angle, sigma)

    def test_divergence_smooths_but_preserves_splitting(self, coupled_stack):
        grid = SpectralGrid(1550.0, 1950.0, 0.5)
        sharp = angle_scan(coupled_stack, grid, [0.0], "s")[0]
        smeared = angle_scan(coupled_stack, grid, [0.0], "s", divergence=4.0)[0]
        p_sharp = find_peaks(sharp.k, sharp.T)
        p_smear = find_peaks(smeared.k, smeared.T)
        assert len(p_smear) == 2
        d_sharp = p_sharp[1].center - p_sharp[0].center
        d_smear = p_smear[1].center - p_smear[0].center
        assert d_smear == pytest.approx(d_sharp, abs=10.0)


def test_reduced_kz_takes_the_decaying_root():
    # the kernel's qz = _decaying_sqrt(eps - sin2)
    eps = np.array([1.0 - 1.0j, -4.0 + 0.0j, complex(-4.0, -0.0), 2.0 + 1.0j, 0.25 - 3.0j])
    for sin2 in (0.0, 0.5):
        root = np.sqrt(eps - sin2)
        expected = np.where(root.imag < 0.0, -root, root)
        assert np.array_equal(_decaying_sqrt(eps - sin2), expected)
        assert np.all(_decaying_sqrt(eps - sin2).imag >= 0.0)
        for e, z in zip(eps, expected):
            assert _decaying_sqrt(e - sin2) == z


def test_shared_material_gives_the_bits_of_separate_equal_materials(coupled_stack):
    # both mirrors of coupled_stack are one material, so the kernel shares
    # their qz, q and phase factor; two names give two eps arrays
    materials = dict(coupled_stack.materials, gold_b=gold())
    layers = coupled_stack.layers[:-1] + (Layer("gold_b", coupled_stack.layers[-1].thickness),)
    separate = replace(coupled_stack, materials=materials, layers=layers)
    k = SpectralGrid(1500.0, 2000.0, 2.5).points
    for pol in ("s", "p"):
        for angle in (0.0, 35.0):
            for a, b in zip(stack_response(coupled_stack, k, angle, pol),
                            stack_response(separate, k, angle, pol)):
                assert np.array_equal(a, b)
    shared_map = field_map(coupled_stack, k[::20], angle=35.0, polarization="p")
    separate_map = field_map(separate, k[::20], angle=35.0, polarization="p")
    assert np.array_equal(shared_map.intensity, separate_map.intensity)


def test_stack_validation():
    with pytest.raises(DomainError):
        Layer("", 10.0)
    with pytest.raises(DomainError):
        Layer("gold", 0.0)
    with pytest.raises(DomainError):
        LayerStack(materials={"a": AIR}, layers=(Layer("missing", 5.0),), substrate="a")
    with pytest.raises(DomainError):
        LayerStack(materials={"a": AIR}, layers=(), substrate="a", n_ambient=0.5)
    with pytest.raises(DomainError):
        LayerStack(materials={"a": AIR}, layers=(), substrate="a", substrate_mode="magic")


def flat_film_stack():
    """A film whose eps is (n_ambient sin(40 deg))^2 on eps 9, so its qz
    is 0 at 40 degrees."""
    s = 2.0 * math.sin(math.radians(40.0))
    return LayerStack(
        materials={"film": ConstantMedium(eps=s**2), "sub": ConstantMedium(eps=9.0)},
        layers=(Layer("film", 500.0),), substrate="sub", n_ambient=2.0,
    )


@pytest.mark.parametrize("pol, T_limit, R_limit", [("s", 0.7609, 0.2391),
                                                   ("p", 0.9690, 0.0310)])
def test_layer_with_zero_qz_raises_naming_its_material(pol, T_limit, R_limit):
    # the layer's two waves coincide at 40 deg, where the recursion would
    # divide 0 by 0; 1e-6 deg to either side it gives the finite limit
    stack = flat_film_stack()
    k = np.array([1500.0])
    with pytest.raises(DomainError, match=r"layer 0 \(film\).*qz = 0"):
        stack_response(stack, k, 40.0, pol)
    with pytest.raises(DomainError, match=r"layer 0 \(film\)"):
        field_map(stack, k, angle=40.0, polarization=pol)
    for angle in (40.0 - 1e-6, 40.0 + 1e-6):
        T, R, _ = stack_response(stack, k, angle, pol)
        assert T[0] == pytest.approx(T_limit, abs=1e-4)
        assert R[0] == pytest.approx(R_limit, abs=1e-4)


class FlatAt1500:
    """eps = (2 sin(40 deg))^2 at 1500 cm^-1 and 9 elsewhere: a dispersive
    material whose qz is 0 at one wavenumber at 40 degrees on n_ambient 2."""

    def epsilon(self, k):
        return np.where(k == 1500.0, (2.0 * math.sin(math.radians(40.0))) ** 2, 9.0) + 0j


@pytest.mark.parametrize("film", [flat_film_stack().materials["film"], FlatAt1500()],
                         ids=["constant", "dispersive"])
@pytest.mark.parametrize("pol", ["s", "p"])
@pytest.mark.parametrize("run", ["stack_response", "field_map", "solve"])
def test_zero_qz_in_two_layers_names_the_one_nearest_the_substrate(film, pol, run):
    # film / spacer / film: qz = 0 in both films, and the recursion, which
    # starts at the substrate, reports layer 2
    stack = LayerStack(
        materials={"film": film, "spacer": ConstantMedium(eps=4.0), "sub": ConstantMedium(eps=9.0)},
        layers=(Layer("film", 500.0), Layer("spacer", 300.0), Layer("film", 200.0)),
        substrate="sub", n_ambient=2.0,
    )
    k = np.array([1400.0, 1500.0, 1600.0])
    problem = FitProblem(stack=stack, free=(FreeParameter("layers[1].thickness", 200.0, 400.0),),
                         k=k, target=np.zeros_like(k), angle=40.0, polarization=pol)
    calls = {
        "stack_response": lambda: stack_response(stack, k, 40.0, pol),
        "field_map": lambda: field_map(stack, k, angle=40.0, polarization=pol),
        "solve": lambda: solve(problem),
    }
    with pytest.raises(DomainError, match=r"^layer 2 \(film\) has eps .*qz = 0"):
        calls[run]()


@pytest.mark.parametrize("run", ["stack_response", "angle_scan", "field_map"])
def test_material_whose_eps_overflows_raises_naming_it(coupled_stack, run):
    # omega_p^2 is finite, but f0 omega_p^2 / (w (w + i gamma)) is not
    materials = dict(coupled_stack.materials, gold=DrudeLorentzMetal(omega_p=1.0e154))
    stack = replace(coupled_stack, materials=materials)
    k = np.array([1500.0, 1600.0])
    calls = {
        "stack_response": lambda: stack_response(stack, k, 10.0, "p"),
        "angle_scan": lambda: angle_scan(stack, k, [0.0, 20.0], "s"),
        "field_map": lambda: field_map(stack, k, angle=10.0),
    }
    with pytest.raises(DomainError, match=r"material 'gold': eps is not finite at 1500.0 cm\^-1"):
        calls[run]()


class TestWorkArrays:
    """A scan runs every kernel pass through one set of work arrays; the
    T and R it caches, and the spectra it returns, are new arrays that no
    later pass writes."""

    @pytest.mark.parametrize("pol", ["s", "p", "unpolarized"])
    def test_scan_results_outlive_later_passes(self, coupled_stack, pol):
        # with 1 deg divergence the nodes of a and -a share each s^2, so
        # one cached pass serves both angles, across the passes between
        k = SpectralGrid(1600.0, 1900.0, 5.0).points
        angles = [20.0, -20.0, 0.0, 35.0, -35.0]
        scan = angle_scan(coupled_stack, k, angles, pol, divergence=1.0)
        for angle, sp in zip(angles, scan):
            alone = angle_scan(coupled_stack, k, [angle], pol, divergence=1.0)[0]
            for channel in ("T", "R", "A"):
                assert np.array_equal(sp.channel(channel), alone.channel(channel))
        arrays = [sp.channel(channel) for sp in scan for channel in ("T", "R", "A")]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays)
                       for b in arrays[i + 1:])

    @pytest.mark.parametrize("pol", ["s", "p", "unpolarized"])
    def test_one_point_gives_the_bits_of_a_longer_grid(self, coupled_stack, pol):
        # numpy rounds a complex product written over its one-element
        # operand in another loop than a new one, so no work array takes a
        # one-element product in place
        k = np.linspace(1500.0, 2000.0, 41)
        spectra = stack_response(coupled_stack, k, 35.0, pol)
        for i in range(k.size):
            for one, full in zip(stack_response(coupled_stack, k[i:i + 1], 35.0, pol), spectra):
                assert np.array_equal(one, full[i:i + 1])

    @pytest.mark.parametrize("pol", ["s", "p", "unpolarized"])
    def test_kernel_pass_working_memory_is_bounded(self, pol):
        # 1801 points through a gold / polymer / gold cavity: allocating
        # each grid-sized value took 425 (s), 482 (p) and 511 kB
        # (unpolarized) per pass, and pushed the heap past glibc's 128 kB
        # trim threshold and back
        cfg = load_config(DISPERSION_CONFIG)
        stack, k = cfg.require_stack(), cfg.grid.points
        eps, k0, work = tmm._media(stack, k), tmm._K_TO_RAD_NM * k, tmm._Work()
        sin2 = tmm._sin2(stack, 20.0)
        T, R = tmm._response(stack, eps, k0, sin2, pol, work)
        tracemalloc.start()
        try:
            tmm._response(stack, eps, k0, sin2, pol, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # unpolarized light holds the s pass's T and R through the p pass
        held = T.nbytes + R.nbytes if pol == "unpolarized" else 0
        assert peak < 128 * 1024 + held

    @pytest.mark.parametrize("tangents", [False, True])
    @pytest.mark.parametrize("pol", ["s", "p", "unpolarized"])
    def test_reused_work_gives_the_bits_of_a_fresh_one(self, coupled_stack, pol, tangents):
        # a work that earlier passes at another s^2, and through the other
        # kernel entry, wrote keeps nothing of them: each pass gives the
        # bits of a fresh work's, one-element grids and scalar media included
        lossy = replace(coupled_stack, materials={**coupled_stack.materials,
                                                  "germanium": ConstantMedium(eps=16 + 0.5j)})
        stacks = [s for stack in (coupled_stack, lossy) for s in (stack, replace(stack, layers=()))]
        directions = None
        if tangents:
            keys = ("gold", "pvac", 1, "germanium")
            unit = np.eye(len(keys))
            directions = {key: unit[:, [i]].astype(complex if isinstance(key, str) else float)
                          for i, key in enumerate(keys)}
        def rouard(stack, *args):
            return tmm._rouard(*tmm._sequence(stack), *args)

        kernels = [tmm._response] + ([] if pol == "unpolarized" else [rouard])

        def leaves(x):
            if isinstance(x, (list, tuple)):
                for v in x:
                    yield from leaves(v)
            else:
                yield x

        for stack in stacks:
            for k in (np.array([1739.0]), np.linspace(1600.0, 1900.0, 7),
                      np.linspace(1500.0, 2000.0, 801)):
                eps, k0, work = tmm._media(stack, k), tmm._K_TO_RAD_NM * k, tmm._Work()
                for sin2 in (0.6, 0.1):
                    for kernel in kernels:
                        reused = list(leaves(kernel(stack, eps, k0, sin2, pol, work, directions)))
                        fresh = list(leaves(kernel(stack, eps, k0, sin2, pol, tmm._Work(),
                                                   directions)))
                        assert len(reused) == len(fresh)
                        for a, b in zip(reused, fresh):
                            assert type(a) is type(b)
                            if a is not None:
                                a, b = np.asarray(a), np.asarray(b)
                                assert a.dtype == b.dtype and a.shape == b.shape
                                assert a.tobytes() == b.tobytes()


class TestReversedSequence:
    """The kernel takes the ordered media, so the stack seen from its
    substrate is the same call on both lists reversed, at the same s^2,
    with a direction's layer index i then n - 1 - i."""

    @staticmethod
    def passes(stack, k, angle, pol, directions=None, reversed_directions=None):
        """(T, |r|^2, r, t, d) of the forward and of the reversed pass, each
        through a work of its own, with T = Re(q_exit) / Re(q_entry) |t|^2."""
        names, thicknesses = tmm._sequence(stack)
        eps, k0, sin2 = tmm._media(stack, k), tmm._K_TO_RAD_NM * k, tmm._sin2(stack, angle)
        out = []
        for seq, dirs in (((names, thicknesses), directions),
                          ((names[::-1], thicknesses[::-1]), reversed_directions)):
            r, t, _, q, d, _ = tmm._rouard(*seq, eps, k0, sin2, pol, tmm._Work(), dirs)
            out.append((np.real(q[-1]) / np.real(q[0]) * np.abs(t) ** 2, np.abs(r) ** 2, r, t, d))
        return out

    @pytest.mark.parametrize("pol", ["s", "p"])
    def test_transmission_is_reciprocal_through_lossy_layers(self, pol):
        # gold and PVAc absorb, so R differs by side, but T does not
        stack = replace(load_config(COUPLED_CONFIG).require_stack(), substrate_mode="coherent")
        k = np.linspace(1400.0, 2100.0, 701)
        (T, R, *_), (T_rev, R_rev, *_) = self.passes(stack, k, 30.0, pol)
        assert T.max() > 0.04 and np.abs(R - R_rev).max() > 0.01
        np.testing.assert_allclose(T_rev, T, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("pol", ["s", "p"])
    @pytest.mark.parametrize("angle", [0.0, 30.0, 60.0])
    def test_lossless_layers_reflect_alike_from_either_side(self, pol, angle):
        stack = LayerStack(
            materials={"mirror": ConstantMedium(eps=9.0), "core": SLAB, "ge": GERMANIUM},
            layers=(Layer("mirror", 150.0), Layer("core", 1930.0), Layer("mirror", 60.0)),
            substrate="ge",
        )
        k = np.linspace(1400.0, 2100.0, 701)
        (T, R, *_), (T_rev, R_rev, *_) = self.passes(stack, k, angle, pol)
        np.testing.assert_allclose(R_rev, R, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(T + R, 1.0, rtol=0.0, atol=1e-14)

    def test_bare_germanium_incoherent_sum(self):
        # R'f of the reversed call closes the incoherent sum over a thick
        # lossless substrate: T = Tf Tb / (1 - R'f Rb) = 8/17 and
        # R = Rf + Tf^2 Rb / (1 - R'f Rb) = 9/17, T'f = Tf by reciprocity
        stack = replace(bare_interface(), substrate_mode="incoherent_to_air")
        (Tf, Rf, *_), (_, Rf_rev, *_) = self.passes(stack, np.array([1500.0]), 0.0, "s")
        Rb = fresnel_R(4.0, 1.0, 0.0, "s")
        np.testing.assert_allclose([Tf[0], Rf[0], Rf_rev[0], Rb], [0.64, 0.36, 0.36, 0.36],
                                   rtol=1e-15)
        D = 1.0 - Rf_rev * Rb
        T, R = Tf * (1.0 - Rb) / D, Rf + Tf * Tf * Rb / D
        np.testing.assert_allclose([T[0], R[0]], [8.0 / 17.0, 9.0 / 17.0], rtol=1e-15)

    @pytest.mark.parametrize("pol", ["s", "p"])
    def test_reversed_tangents_match_central_differences(self, coupled_stack, pol):
        # directions of the forward stack's layers 0 and 1 are layers 2 and
        # 1 of the reversed sequence; the materials keep their names
        stack = replace(coupled_stack, substrate_mode="coherent",
                        layers=(Layer("gold", 12.0),) + coupled_stack.layers[1:])
        k, angle = np.linspace(1600.0, 1900.0, 31), 30.0
        # each step balances truncation against round-off: gold's eps is
        # about -1e4, PVAc's about 2
        steps = {"gold": 1e-2, "pvac": 1e-6, "germanium": 1e-4, 0: 1e-4, 1: 1e-4}
        keys = tuple(steps)
        unit = np.eye(len(keys))
        rows = [unit[:, [i]].astype(complex if isinstance(key, str) else float)
                for i, key in enumerate(keys)]
        n = len(stack.layers)
        rdirs = {key if isinstance(key, str) else n - 1 - key: row for key, row in zip(keys, rows)}
        _, (*_, (dr, dt, dq_sub)) = self.passes(stack, k, angle, pol, None, rdirs)
        assert dq_sub is None
        names, thicknesses = tmm._sequence(stack)
        eps, k0, sin2 = tmm._media(stack, k), tmm._K_TO_RAD_NM * k, tmm._sin2(stack, angle)

        def reversed_pass(key, h):
            moved_eps, moved = dict(eps), list(thicknesses)
            if isinstance(key, str):
                moved_eps[key] = eps[key] + h
            else:
                moved[key] += h
            r, t, *_ = tmm._rouard(names[::-1], moved[::-1], moved_eps, k0, sin2, pol,
                                   tmm._Work())
            return np.array(r), np.array(t)

        for i, key in enumerate(keys):
            h = steps[key]
            (r_up, t_up), (r_down, t_down) = reversed_pass(key, h), reversed_pass(key, -h)
            for got, up, down in ((dr[i], r_up, r_down), (dt[i], t_up, t_down)):
                want = (up - down) / (2 * h)
                assert np.abs(want).max() > 0.0
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-7 * np.abs(want).max())


def stack_at(edge, value):
    """cavity_coupled.yaml with its ambient index, or cavity_channels.yaml
    with its rear gold mirror's thickness, set to value."""
    if edge == "ambient_index":
        return replace(load_config(COUPLED_CONFIG).require_stack(), n_ambient=value)
    stack = load_config(COUPLED_CONFIG.with_name("cavity_channels.yaml")).require_stack()
    return replace(stack, layers=stack.layers[:2] + (Layer("gold", value),))


@pytest.mark.parametrize("edge", ["ambient_index", "thickness"])
def test_stack_at_its_range_bound_gives_finite_spectra(edge):
    # the largest ambient index, whose square is the ambient's eps, and
    # the thickest layer that a stack takes
    with pytest.raises(DomainError, match="1.34078e[+]154( nm)?, got 1.3409"):
        stack_at(edge, _SQUARE_MAX * 1.0001)
    stack, k = stack_at(edge, _SQUARE_MAX), np.array([1e-3, 1500.0, 1e7])
    for pol in ("s", "p", "unpolarized"):
        for angle in (0.0, 60.0, 89.9):
            T, R, A = stack_response(stack, k, angle, pol)
            assert np.all((T >= 0.0) & (T <= 1.0)) and np.all((R >= 0.0) & (R <= 1.0))
            assert np.all(np.abs(A) <= 1.0)


@pytest.mark.parametrize("pol", ["s", "p", "unpolarized"])
def test_thickest_layer_behind_the_largest_ambient_index_is_a_silent_mirror(pol):
    # oblique, the rear gold's evanescent phase k0 qz d overflows to a
    # factor of 0, which once warned on the way
    stack = replace(stack_at("thickness", _SQUARE_MAX), n_ambient=_SQUARE_MAX)
    k = np.array([1e-3, 1500.0, 1e7])
    for angle in (0.0, 30.0, 89.9):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            T, R, _ = stack_response(stack, k, angle, pol)
        assert np.array_equal(T, np.zeros(3))
        np.testing.assert_allclose(R, 1.0, rtol=0.0, atol=1e-15)


def overflowing_film(eps):
    """A film of eps as thick as a layer may be, on Ge: at 1e7 cm^-1 its
    k0 qz d passes the largest double."""
    materials = {"film": ConstantMedium(eps=eps), "germanium": ConstantMedium(eps=16.0)}
    return LayerStack(materials=materials, layers=(Layer("film", _SQUARE_MAX),),
                      substrate="germanium")


def test_wave_that_decays_as_its_phase_overflows_is_gone():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        T, R, _ = stack_response(overflowing_film(complex(1e308, 5e299)), [1e-3, 1500.0, 1e7])
    assert np.array_equal(T, np.zeros(3))
    np.testing.assert_allclose(R, 1.0, rtol=0.0, atol=1e-15)


def test_phase_that_overflows_in_a_lossless_layer_raises_naming_it():
    with pytest.raises(DomainError, match="layer of 'film' 1.34078e[+]154 nm thick: "
                       "its phase k0 qz d overflows"):
        stack_response(overflowing_film(1e308), [1e-3, 1500.0, 1e7])


class TestWavenumberValidation:
    """Constant media keep a Python complex eps and never evaluate it on
    k, so the kernel checks the grid itself."""

    @pytest.mark.parametrize(
        "k", [[0.0], [1700.0, -5.0], [np.nan], [1700.0, np.inf], []],
        ids=["zero", "negative", "nan", "inf", "empty"],
    )
    @pytest.mark.parametrize("run", ["stack_response", "angle_scan", "field_map"])
    def test_bad_grid_raises_on_a_constant_stack(self, lossless_cavity, k, run):
        k = np.array(k, dtype=float)
        calls = {
            "stack_response": lambda: stack_response(lossless_cavity, k, 10.0, "p"),
            "angle_scan": lambda: angle_scan(lossless_cavity, k, [0.0, 20.0], "s"),
            "field_map": lambda: field_map(lossless_cavity, k, angle=10.0),
        }
        with pytest.raises(DomainError, match="wavenumber"):
            calls[run]()
