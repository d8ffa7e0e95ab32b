"""Coupled-mode models and scalar estimators."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vibropol import (
    CavityMode,
    DomainError,
    UltrastrongError,
    VibrationalMode,
    anticrossing_dispersion,
    bond_density,
    collective_splitting,
    coupled_frequencies,
    dephasing_time,
    effective_concentration,
    estimate_report,
    fp_mode_estimate,
    is_strong_coupling,
    quality_factor,
    single_coupling,
    thermal_occupation,
    vacuum_field,
    zero_point_amplitude,
)
from vibropol import constants as const
from vibropol.constants import mev_to_cm1
from vibropol.polariton import CoupledModeResult


class TestEstimators:
    def test_vacuum_field_default_volume(self):
        cav = CavityMode(omega_cm1=1740.0)
        # (lambda/n)^3 with lambda = 1e-2/k m
        lam = 1e-2 / 1740.0 / 1.41
        assert cav.volume_m3 == pytest.approx(lam**3, rel=1e-12)
        e_vac = vacuum_field(1740.0, cav.volume_m3)
        assert e_vac == pytest.approx(5368.787, rel=1e-5)
        assert abs(e_vac - 6.3e3) / 6.3e3 < 0.30

    def test_vacuum_field_scaling(self):
        base = vacuum_field(1740.0, 1e-17)
        assert vacuum_field(1740.0, 4e-17) == pytest.approx(base / 2.0, rel=1e-12)
        assert vacuum_field(4.0 * 1740.0, 1e-17) == pytest.approx(base * 2.0, rel=1e-12)

    def test_zero_point_amplitude(self):
        q = zero_point_amplitude(6.857, 1740.0)
        assert q == pytest.approx(3.7589e-12, rel=1e-4)
        assert zero_point_amplitude(4.0 * 6.857, 1740.0) == pytest.approx(q / 2.0, rel=1e-12)
        assert zero_point_amplitude(6.857, 4.0 * 1740.0) == pytest.approx(q / 2.0, rel=1e-12)

    def test_single_coupling_one_debye(self):
        cav = CavityMode(omega_cm1=1740.0)
        g = single_coupling(1.0, 1740.0, cav.volume_m3)
        assert g == pytest.approx(1.1178e-7, rel=1e-4)
        assert 0.05e-6 < g < 0.2e-6
        assert single_coupling(2.0, 1740.0, cav.volume_m3) == pytest.approx(2.0 * g, rel=1e-12)
        assert single_coupling(0.0, 1740.0, cav.volume_m3) == 0.0

    def test_single_coupling_rejects_negative_dipole(self):
        with pytest.raises(DomainError):
            single_coupling(-0.1, 1740.0, 1e-17)

    def test_collective_splitting(self):
        assert collective_splitting(0.131e-6, 2.5e10) * 1e3 == pytest.approx(20.71, abs=0.02)
        assert collective_splitting(0.131e-6, 1) == 0.131e-6
        assert collective_splitting(0.131e-6, 0) == 0.0
        with pytest.raises(DomainError):
            collective_splitting(0.131e-6, -1)

    def test_effective_concentration(self):
        cav = CavityMode(omega_cm1=1740.0)
        rho_c = effective_concentration(20.7e-3, 0.131e-6, cav.volume_m3)
        assert 0.5 < rho_c / 4.4e20 < 2.0
        assert effective_concentration(1.0, 1.0, 1e-6) == pytest.approx(1.0, rel=1e-12)
        quad = effective_concentration(4.0, 1.0, 1e-6)
        assert quad == pytest.approx(16.0, rel=1e-12)

    def test_bond_density(self):
        rho = bond_density(1.18, 86.09)
        assert rho == pytest.approx(8.25e21, rel=0.005)
        assert bond_density(2.36, 86.09) == pytest.approx(2.0 * rho, rel=1e-12)
        assert bond_density(1.18, 86.09, bonds_per_monomer=2.0) == pytest.approx(
            2.0 * rho, rel=1e-12
        )

    def test_thermal_occupation(self):
        n_v = thermal_occupation(mev_to_cm1(215.0), 300.0)
        assert n_v == pytest.approx(2.4e-4, rel=0.05)
        assert thermal_occupation(1740.0, 0.0) == 0.0
        k = 1740.0
        t_match = const.cm1_to_joule(k) / const.KB_J_K
        assert thermal_occupation(k, t_match) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_quality_factor_and_lifetimes(self):
        q_v = quality_factor(215.0, 3.2)
        assert 65.0 < q_v < 70.0
        assert quality_factor(215.0, 17.0) == pytest.approx(12.6, abs=0.1)
        assert dephasing_time(2.86) == pytest.approx(0.23, abs=0.01)
        assert dephasing_time(1.50) == pytest.approx(0.44, abs=0.02)
        assert dephasing_time(17.0) == pytest.approx(0.039, abs=0.001)

    def test_strong_coupling_predicate(self):
        assert is_strong_coupling(20.7, 3.2, 17.0)
        assert not is_strong_coupling(10.0, 3.2, 17.0)
        with pytest.raises(DomainError):
            is_strong_coupling(-1.0, 3.2, 17.0)


class TestFabryPerotEstimate:
    def test_normal_incidence(self):
        assert fp_mode_estimate(1.41, 1930.0) == pytest.approx(1837.36, abs=0.01)
        assert fp_mode_estimate(1.41, 1930.0, order=2) == pytest.approx(2.0 * 1837.36, abs=0.02)

    def test_internal_angle_follows_snell(self):
        k = fp_mode_estimate(1.41, 1930.0, angle=30.0)
        sin_int = math.sin(math.radians(30.0)) / 1.41
        expected = 1e7 / (2.0 * 1.41 * 1930.0 * math.sqrt(1.0 - sin_int**2))
        assert k == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_angle(self):
        ks = [fp_mode_estimate(1.41, 1930.0, angle=a) for a in np.arange(0.0, 80.0, 5.0)]
        assert all(b > a for a, b in zip(ks, ks[1:]))
        assert fp_mode_estimate(1.41, 1930.0, angle=-30.0) == fp_mode_estimate(
            1.41, 1930.0, angle=30.0
        )

    def test_rejected_inputs(self):
        with pytest.raises(DomainError):
            fp_mode_estimate(1.41, 1930.0, order=0)
        with pytest.raises(DomainError):
            fp_mode_estimate(1.41, 1930.0, order=1.5)
        with pytest.raises(DomainError):
            fp_mode_estimate(1.41, 1930.0, angle=90.0)
        with pytest.raises(DomainError):
            # ambient denser than the cavity: internal angle past TIR
            fp_mode_estimate(1.0, 1930.0, angle=40.0, n_ambient=2.0)


class TestCoupledFrequencies:
    def test_resonant_rwa_branches(self):
        res = coupled_frequencies(1740.0, 1740.0, 167.0)
        assert res.omega_upper == pytest.approx(1823.5, abs=1e-9)
        assert res.omega_lower == pytest.approx(1656.5, abs=1e-9)
        assert res.splitting_cm1 == pytest.approx(167.0, abs=1e-9)
        assert res.splitting_mev == pytest.approx(20.71, abs=0.01)
        for branch in ("upper", "lower"):
            assert res.weights[branch]["photon"] == pytest.approx(0.5, abs=1e-12)
            assert res.weights[branch]["vibration"] == pytest.approx(0.5, abs=1e-12)

    def test_zero_splitting_gives_bare_modes(self):
        res = coupled_frequencies(1900.0, 1740.0, 0.0)
        assert res.omega_upper == 1900.0
        assert res.omega_lower == 1740.0
        assert res.weights["upper"]["photon"] == pytest.approx(1.0, abs=1e-12)
        assert res.weights["lower"]["vibration"] == pytest.approx(1.0, abs=1e-12)

    def test_detuned_asymptote(self):
        delta = 2000.0 - 1740.0
        res = coupled_frequencies(2000.0, 1740.0, 100.0)
        bound = 100.0**2 / (4.0 * delta)
        assert abs(res.omega_upper - 2000.0) <= bound
        assert abs(res.omega_lower - 1740.0) <= bound
        assert res.omega_upper > 2000.0
        assert res.omega_lower < 1740.0

    @given(
        wc=st.floats(600.0, 4000.0),
        wv=st.floats(600.0, 4000.0),
        om=st.floats(0.0, 150.0),
    )
    def test_trace_invariance_and_weight_sums(self, wc, wv, om):
        res = coupled_frequencies(wc, wv, om)
        assert res.omega_upper + res.omega_lower == pytest.approx(wc + wv, rel=1e-12)
        for branch in ("upper", "lower"):
            total = res.weights[branch]["photon"] + res.weights[branch]["vibration"]
            assert abs(total - 1.0) < 1e-12

    def test_weights_swap_under_detuning_sign(self):
        plus = coupled_frequencies(1840.0, 1740.0, 80.0)
        minus = coupled_frequencies(1740.0, 1840.0, 80.0)
        assert plus.weights["upper"]["photon"] == pytest.approx(
            minus.weights["upper"]["vibration"], abs=1e-12
        )
        assert plus.weights["lower"]["photon"] == pytest.approx(
            minus.weights["lower"]["vibration"], abs=1e-12
        )

    def test_rwa_full_agreement_at_small_coupling(self):
        for wc in (1500.0, 1740.0, 2100.0):
            for ratio in (0.01, 0.03, 0.049):
                om = ratio * 1740.0
                rwa = coupled_frequencies(wc, 1740.0, om, model="rwa")
                full = coupled_frequencies(wc, 1740.0, om, model="full")
                assert abs(rwa.omega_upper - full.omega_upper) / 1740.0 < 1e-3
                assert abs(rwa.omega_lower - full.omega_lower) / 1740.0 < 1e-3

    def test_full_model_matches_quadrature_diagonalization(self):
        # independent oracle: eigenfrequencies of the classical phase-space
        # matrix for two linearly coupled oscillators, lambda = Omega sqrt(wc wv)
        rng = np.random.default_rng(7)
        for _ in range(100):
            wc = rng.uniform(800.0, 4000.0)
            wv = rng.uniform(800.0, 4000.0)
            om = rng.uniform(0.0, 0.3) * min(wc, wv)
            lam = om * math.sqrt(wc * wv)
            a = np.array(
                [
                    [0.0, 1.0, 0.0, 0.0],
                    [-(wc**2), 0.0, -lam, 0.0],
                    [0.0, 0.0, 0.0, 1.0],
                    [-lam, 0.0, -(wv**2), 0.0],
                ]
            )
            freqs = np.sort(np.abs(np.linalg.eigvals(a).imag))[::2]
            res = coupled_frequencies(wc, wv, om, model="full")
            assert abs(res.omega_lower - freqs[0]) / freqs[0] < 1e-9
            assert abs(res.omega_upper - freqs[1]) / freqs[1] < 1e-9

    def test_ultrastrong_rejected(self):
        with pytest.raises(UltrastrongError):
            coupled_frequencies(100.0, 100.0, 100.0, model="full")
        # rwa branch has no such limit
        res = coupled_frequencies(100.0, 100.0, 100.0, model="rwa")
        assert isinstance(res, CoupledModeResult)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            coupled_frequencies(-1.0, 1740.0, 10.0)
        with pytest.raises(DomainError):
            coupled_frequencies(1740.0, 1740.0, -1.0)
        with pytest.raises(DomainError):
            coupled_frequencies(1740.0, 1740.0, 10.0, model="other")


class TestAnticrossing:
    def test_minimum_separation_is_splitting(self):
        omega_v = 1740.0
        d = 1e7 / (2.0 * 1.41 * omega_v)  # zero detuning at normal incidence
        curve = anticrossing_dispersion(
            omega_v, 167.0, 1.41, d, angles=np.arange(0.0, 61.0, 1.0)
        )
        sep = curve.upper - curve.lower
        assert sep.min() == pytest.approx(167.0, rel=1e-12)
        assert np.argmin(sep) == 0
        assert np.all(np.diff(curve.omega_cavity) > 0.0)

    def test_branches_bracket_bare_modes(self):
        curve = anticrossing_dispersion(
            1740.0, 167.0, 1.41, 2000.0, angles=np.arange(0.0, 61.0, 5.0)
        )
        assert np.all(curve.upper > np.maximum(curve.omega_cavity, 1740.0))
        assert np.all(curve.lower < np.minimum(curve.omega_cavity, 1740.0))

    @pytest.mark.parametrize("model", ["rwa", "full"])
    @pytest.mark.parametrize(
        "omega_v, splitting, n_eff, thickness, order, n_ambient",
        [(1740.0, 167.0, 1.41, 1e7 / (2.0 * 1.41 * 1740.0), 1, 1.0),
         (1700.0, 80.0, 1.6, 1900.0, 2, 1.3), (1739.0, 0.0, 1.41, 2000.0, 1, 1.0)],
    )
    def test_matches_the_scalar_formulas_at_every_angle(self, model, omega_v, splitting,
                                                        n_eff, thickness, order, n_ambient):
        # the per-angle formulas in math are the reference; numpy's and
        # math's sin and hypot may differ in the last bit
        angles = np.concatenate([np.arange(0.0, 61.0, 5.0), [-35.0, -7.5]])
        curve = anticrossing_dispersion(omega_v, splitting, n_eff, thickness, angles, order,
                                        n_ambient, model)
        for i, angle in enumerate(angles):
            sin_int = n_ambient * math.sin(math.radians(angle)) / n_eff
            wc = order * 1e7 / (2.0 * n_eff * thickness * math.sqrt(1.0 - sin_int**2))
            if model == "rwa":
                half = 0.5 * math.hypot(wc - omega_v, splitting)
                upper, lower = 0.5 * (wc + omega_v) + half, 0.5 * (wc + omega_v) - half
            else:
                s = wc**2 + omega_v**2
                disc = math.sqrt((wc**2 - omega_v**2) ** 2 + 4.0 * splitting**2 * wc * omega_v)
                upper, lower = math.sqrt(0.5 * (s + disc)), math.sqrt(0.5 * (s - disc))
            scalar = coupled_frequencies(wc, omega_v, splitting, model)
            for got, want in [(curve.omega_cavity[i], wc), (curve.upper[i], upper),
                              (curve.lower[i], lower), (scalar.omega_upper, upper),
                              (scalar.omega_lower, lower),
                              (fp_mode_estimate(n_eff, thickness, order, angle, n_ambient), wc)]:
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_total_internal_reflection_raises(self):
        with pytest.raises(DomainError, match="total internal reflection"):
            anticrossing_dispersion(1740.0, 167.0, 1.2, 2000.0, [0.0, 20.0, 60.0],
                                    n_ambient=1.5)

    def test_ultrastrong_full_model_raises(self):
        # omega_c rises with the angle, so splitting^2 >= omega_c omega_v
        # holds at normal incidence only
        angles = [60.0, 30.0, 0.0]
        curve = anticrossing_dispersion(1740.0, 1850.0, 1.41, 2000.0, angles[:1], model="full")
        assert np.all(np.isfinite(curve.lower))
        with pytest.raises(UltrastrongError):
            anticrossing_dispersion(1740.0, 1850.0, 1.41, 2000.0, angles, model="full")

    @pytest.mark.parametrize("angle", [90.0, -95.0, math.nan])
    def test_an_angle_outside_the_half_space_raises(self, angle):
        with pytest.raises(DomainError, match="incidence angle"):
            anticrossing_dispersion(1740.0, 167.0, 1.41, 2000.0, [0.0, angle, 10.0])


class TestFloatRange:
    @pytest.mark.parametrize(
        "estimator, args",
        [(bond_density, (1e300, 86.09)), (bond_density, (1.19, 1e-300)),
         (collective_splitting, (1e300, 1e20)), (effective_concentration, (1e300, 1e-7, 1e-15)),
         (effective_concentration, (0.02, 1e-300, 1e-15)),
         (coupled_frequencies, (1e300, 1739.0, 160.0, "full")),
         (coupled_frequencies, (1.7e308, 1.7e308, 160.0)),
         (zero_point_amplitude, (1e-300, 1739.0)), (fp_mode_estimate, (1e-300, 1e-300)),
         (anticrossing_dispersion, (1739.0, 160.0, 1e-300, 1e-300, [0.0, 0.0]))],
        ids=lambda v: getattr(v, "__name__", None),
    )
    def test_a_result_beyond_the_float_range_names_the_estimator(self, estimator, args):
        message = f"^the result of {estimator.__name__} must be finite"
        with pytest.raises(DomainError, match=message):
            estimator(*args)


class TestEstimateReport:
    def test_full_report(self):
        vib = VibrationalMode(
            omega_cm1=1740.0, dipole_debye=1.0, damping_fwhm_mev=3.2, reduced_mass_amu=6.857
        )
        cav = CavityMode(omega_cm1=1740.0, kappa_fwhm_mev=17.0)
        report = estimate_report(
            vib,
            cav,
            temperature_k=300.0,
            density={"mass_density_g_cm3": 1.18, "monomer_mass_g_mol": 86.09},
            observed_splitting_mev=20.7,
            polariton_fwhm_mev={"upper": 2.86, "lower": 1.50},
        )
        assert report["vacuum_field_v_per_m"] == pytest.approx(5368.8, abs=0.5)
        assert report["thermal_occupation"] == pytest.approx(2.376e-4, rel=1e-3)
        assert report["single_coupling_uev"] == pytest.approx(0.1118, abs=0.001)
        assert report["zero_point_amplitude_m"] == pytest.approx(3.7589e-12, rel=1e-4)
        assert report["vibration_quality_factor"] == pytest.approx(67.4, abs=0.5)
        assert report["cavity_quality_factor"] == pytest.approx(12.7, abs=0.1)
        assert report["bond_density_cm3"] == pytest.approx(8.25e21, rel=0.005)
        assert 0.5 < report["effective_concentration_cm3"] / 4.4e20 < 2.0
        assert report["coupled_fraction"] < 1.0
        assert report["strong_coupling"] is True
        assert report["polariton_lifetimes_ps"]["upper"] == pytest.approx(0.23, abs=0.01)
        assert report["polariton_lifetimes_ps"]["lower"] == pytest.approx(0.44, abs=0.02)

    @pytest.mark.parametrize("volume, density, name", [
        (1e-19, None, "single-molecule coupling"),
        (None, {"mass_density_g_cm3": 1.18, "monomer_mass_g_mol": 86.09},
         "collective splitting upper bound"),
    ])
    def test_a_value_that_overflows_in_its_unit_raises_naming_it(self, volume, density, name):
        # both are finite in eV and overflow in ueV or meV
        vib = VibrationalMode(omega_cm1=1740.0, dipole_debye=1e308)
        cav = CavityMode(omega_cm1=1740.0, mode_volume_m3=volume)
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            estimate_report(vib, cav, density=density)

    def test_zero_dipole_and_zero_temperature(self):
        vib = VibrationalMode(omega_cm1=1740.0)
        cav = CavityMode(omega_cm1=1740.0)
        report = estimate_report(vib, cav, temperature_k=0.0)
        assert report["single_coupling_ev"] == 0.0
        assert report["thermal_occupation"] == 0.0
        assert "vibration_quality_factor" not in report
        assert "bond_density_cm3" not in report

    def test_mode_validation(self):
        with pytest.raises(DomainError):
            VibrationalMode(omega_cm1=-5.0)
        with pytest.raises(DomainError):
            VibrationalMode(omega_cm1=1740.0, dipole_debye=-1.0)
        with pytest.raises(DomainError):
            CavityMode(omega_cm1=1740.0, kappa_fwhm_mev=-2.0)
        with pytest.raises(DomainError):
            CavityMode(omega_cm1=1740.0, mode_volume_m3=0.0)
