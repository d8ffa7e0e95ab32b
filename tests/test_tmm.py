"""Transfer-matrix solver against closed-form optics oracles."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from vibropol import (
    ConstantMedium,
    DomainError,
    Layer,
    LayerStack,
    SpectralGrid,
    angle_scan,
    divergence_nodes,
    find_peaks,
    gold,
    layer_matrix,
    spectrum_scan,
    stack_response,
)

from conftest import THICK_GOLD_NM, hard_stacks, random_passive_stack

AIR = ConstantMedium(eps=1.0)
GERMANIUM = ConstantMedium(eps=16.0)
SLAB = ConstantMedium(eps=1.41**2)


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
        T_rev, _, _ = stack_response(stack.reversed(), k, 0.0, "s")
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
        T_rev, _, _ = stack_response(stack.reversed(), k, angle_rev, pol)
        np.testing.assert_allclose(T_rev, T_fwd, rtol=1e-10, atol=1e-290)


class TestLayerMatrix:
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
                     (100.0, 200.0, 0.0), (100.0, 200.0, -1.0)):
            with pytest.raises(DomainError):
                SpectralGrid(*args)


class TestAngleScan:
    def test_zero_divergence_matches_pointwise_scan(self, coupled_stack):
        grid = SpectralGrid(1600.0, 1900.0, 2.0)
        scan = angle_scan(coupled_stack, grid, [0.0, 20.0, 40.0], "s")
        for spectrum in scan:
            direct = spectrum_scan(coupled_stack, grid, spectrum.angle, "s")
            np.testing.assert_array_equal(spectrum.T, direct.T)

    def test_divergence_nodes_weights(self):
        angles, weights = divergence_nodes(10.0, 3.0)
        assert len(angles) == 11
        assert weights.sum() == pytest.approx(1.0, rel=1e-12)
        assert np.all(np.diff(angles) > 0)
        assert angles[0] == pytest.approx(10.0 - 9.0)
        assert angles[-1] == pytest.approx(10.0 + 9.0)
        # symmetric Gaussian about the slope center
        np.testing.assert_allclose(weights, weights[::-1], rtol=1e-12)

    def test_divergence_nodes_truncated_at_grazing(self):
        angles, weights = divergence_nodes(88.0, 4.0)
        assert np.all(np.abs(angles) < 90.0)
        assert weights.sum() == pytest.approx(1.0, rel=1e-12)

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
