"""Peak finding, splittings, dispersion tables and model fits."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from vibropol import (
    DomainError,
    FitError,
    PeakCountError,
    SpectralGrid,
    Spectrum,
    build_dispersion,
    extract_splitting,
    find_peaks,
    fit_coupled_model,
    fit_lorentzian_band,
    fp_mode_estimate,
    load_config,
    load_measured,
    coupled_frequencies,
    spectrum_scan,
)
from vibropol.spectra import DispersionRow, DispersionTable, _prominent_peaks

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def lorentz_band(k, f, k0, gamma, baseline=0.0):
    return baseline + f * k * gamma / ((k**2 - k0**2) ** 2 + (k * gamma) ** 2)


class TestFindPeaks:
    def test_synthetic_band_center_and_width(self):
        k = np.arange(1500.0, 2000.0, 0.25)
        y = lorentz_band(k, 5.0e4, 1739.0, 13.0)
        peaks = find_peaks(k, y)
        assert len(peaks) == 1
        assert peaks[0].center == pytest.approx(1739.0, abs=0.25)
        assert peaks[0].fwhm == pytest.approx(13.0, rel=0.02)

    def test_constant_signal_has_no_peaks(self):
        k = np.arange(1500.0, 2000.0, 1.0)
        assert find_peaks(k, np.full_like(k, 0.3)) == []

    def test_vertical_scaling_invariance(self):
        k = np.arange(1500.0, 2000.0, 0.25)
        y = lorentz_band(k, 5.0e4, 1739.0, 13.0, baseline=0.0)
        base = find_peaks(k, y)
        scaled = find_peaks(k, 5.0 * y)
        assert len(base) == len(scaled) == 1
        assert scaled[0].center == pytest.approx(base[0].center, rel=1e-9)
        assert scaled[0].fwhm == pytest.approx(base[0].fwhm, rel=1e-9)
        assert scaled[0].height == pytest.approx(5.0 * base[0].height, rel=1e-9)

    def test_window_and_prominence_filters(self):
        k = np.arange(1000.0, 3000.0, 0.5)
        y = lorentz_band(k, 5.0e4, 1400.0, 15.0) + lorentz_band(k, 2.0e3, 2400.0, 15.0)
        assert len(find_peaks(k, y)) == 1  # small band below 5% default
        both = find_peaks(k, y, min_prominence=1e-3)
        assert len(both) == 2
        only_right = find_peaks(k, y, min_prominence=1e-3, window=(2000.0, 2800.0))
        assert len(only_right) == 1
        assert only_right[0].center == pytest.approx(2400.0, abs=0.5)

    def test_boundary_maxima_are_not_peaks(self):
        k = np.arange(1500.0, 1600.0, 1.0)
        rising = np.linspace(0.0, 1.0, k.size)
        assert find_peaks(k, rising) == []

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            find_peaks(np.arange(3.0), np.arange(4.0))
        with pytest.raises(DomainError):
            find_peaks(np.arange(10.0), np.arange(10.0), window=(5.0, 2.0))

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("min_prominence", [None, 0.1])
    def test_fewer_than_three_samples_raise(self, n, min_prominence):
        # the default-prominence path used to reach values.max() on an
        # empty array, while an explicit prominence returned []
        k = 1500.0 + np.arange(float(n))
        with pytest.raises(DomainError, match="fewer than 3 samples"):
            find_peaks(k, np.ones(n), min_prominence=min_prominence)
        with pytest.raises(DomainError, match="fewer than 3 samples"):
            find_peaks(k, np.ones(n), min_prominence=min_prominence, window=(1000.0, 2000.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_raises(self, bad):
        k = np.arange(1500.0, 2000.0, 0.25)
        y = lorentz_band(k, 5.0e4, 1739.0, 13.0)
        y[100] = bad
        with pytest.raises(DomainError, match="^1 non-finite sample"):
            find_peaks(k, y)
        y[200:203] = np.nan
        with pytest.raises(DomainError, match="^4 non-finite sample"):
            find_peaks(k, y)

    def test_non_finite_sample_outside_window_is_ignored(self):
        k = np.arange(1500.0, 2000.0, 0.25)
        y = lorentz_band(k, 5.0e4, 1739.0, 13.0)
        y[0] = np.nan
        peaks = find_peaks(k, y, window=(1600.0, 1900.0))
        assert len(peaks) == 1
        assert peaks[0].center == pytest.approx(1739.0, abs=0.25)


def assert_same_as_scipy(values, prominence):
    import scipy.signal

    idx, prom = _prominent_peaks(values, prominence)
    ref_idx, ref = scipy.signal.find_peaks(values, prominence=prominence)
    np.testing.assert_array_equal(idx, ref_idx)
    np.testing.assert_array_equal(prom, ref["prominences"])


class TestPeakFinderOracle:
    """The in-house finder returns scipy.signal.find_peaks' indices and
    prominences bit for bit on finite data."""

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.one_of(
            arrays(np.float64, st.integers(0, 80), elements=st.floats(-1e6, 1e6)),
            # small integers: plateaus, ties and equal bounding minima
            arrays(np.float64, st.integers(0, 80), elements=st.integers(-3, 3).map(float)),
        ),
        prominence=st.one_of(st.integers(0, 6).map(float), st.floats(0.0, 2e6)),
    )
    def test_matches_scipy_on_drawn_arrays(self, values, prominence):
        assert_same_as_scipy(values, prominence)

    @pytest.mark.parametrize("channel", ["T", "1-R", "A"])
    def test_matches_scipy_on_acceptance_spectra(self, channel):
        cfg = load_config(CONFIGS / "cavity_coupled.yaml")
        sp = spectrum_scan(cfg.require_stack(), cfg.grid, cfg.scan.angle, cfg.scan.polarization)
        values = 1.0 - sp.channel("R") if channel == "1-R" else sp.channel(channel)
        lo, hi = cfg.scan.window
        values = values[(sp.k >= lo) & (sp.k <= hi)]
        default = 0.05 * float(values.max() - values.min())
        for prominence in (0.0, default):
            assert_same_as_scipy(values, prominence)
        assert len(_prominent_peaks(values, default)[0]) == 2


class TestExtractSplitting:
    def test_transmission_channel(self, coupled_spectrum):
        rep = extract_splitting(coupled_spectrum, "T", window=(1500.0, 2000.0))
        assert rep.omega_lower == pytest.approx(1659.65, abs=0.05)
        assert rep.omega_upper == pytest.approx(1823.78, abs=0.05)
        assert rep.splitting_cm1 == pytest.approx(164.13, abs=0.05)
        assert abs(rep.splitting_cm1 - 167.0) <= 5.0
        assert rep.splitting_mev == pytest.approx(rep.splitting_cm1 / 8.06554, rel=1e-12)

    def test_absorption_and_reflection_channels(self, coupled_spectrum):
        rep_a = extract_splitting(coupled_spectrum, "A", window=(1500.0, 2000.0))
        rep_r = extract_splitting(coupled_spectrum, "R", window=(1500.0, 2000.0))
        assert rep_a.splitting_cm1 == pytest.approx(170.63, abs=0.05)
        assert rep_r.splitting_cm1 == pytest.approx(169.15, abs=0.05)
        # reflection dips double as peaks of 1 - R
        assert rep_r.peaks[0].height == pytest.approx(
            1.0 - coupled_spectrum.R.min(), abs=0.05
        )

    def test_uncoupled_raises_peak_count(self, uncoupled_stack):
        sp = spectrum_scan(uncoupled_stack, SpectralGrid(1500.0, 2000.0, 0.5))
        with pytest.raises(PeakCountError) as err:
            extract_splitting(sp, "T", window=(1500.0, 2000.0))
        assert len(err.value.peaks) == 1


class TestLorentzianBandFit:
    def test_noise_free_round_trip(self):
        k = np.arange(1600.0, 1900.0, 0.25)
        y = lorentz_band(k, 5.0e4, 1739.0, 13.0, baseline=0.02)
        fit = fit_lorentzian_band(k, y)
        assert fit.f == pytest.approx(5.0e4, rel=1e-6)
        assert fit.k0 == pytest.approx(1739.0, rel=1e-8)
        assert fit.gamma == pytest.approx(13.0, rel=1e-6)
        assert fit.baseline == pytest.approx(0.02, abs=1e-8)
        assert fit.residual_rms < 1e-10
        np.testing.assert_allclose(fit.evaluate(k), y, atol=1e-9)

    def test_noisy_recovery_within_two_percent(self):
        rng = np.random.default_rng(11)
        k = np.arange(1600.0, 1900.0, 0.25)
        clean = lorentz_band(k, 5.0e4, 1739.0, 13.0, baseline=0.02)
        noisy = clean + rng.normal(0.0, 0.005 * clean.max(), k.size)
        fit = fit_lorentzian_band(k, noisy)
        assert fit.k0 == pytest.approx(1739.0, rel=0.02)
        assert fit.gamma == pytest.approx(13.0, rel=0.02)
        assert fit.f == pytest.approx(5.0e4, rel=0.02)

    def test_idempotent_restart(self):
        k = np.arange(1600.0, 1900.0, 0.25)
        y = lorentz_band(k, 5.0e4, 1739.0, 13.0, baseline=0.02)
        first = fit_lorentzian_band(k, y)
        second = fit_lorentzian_band(k, y, p0=first.params())
        np.testing.assert_allclose(second.params(), first.params(), rtol=1e-7)

    def test_two_band_segment_flags_poor_fit(self):
        k = np.arange(1600.0, 1900.0, 0.25)
        single = lorentz_band(k, 5.0e4, 1739.0, 13.0, baseline=0.01)
        double = (
            lorentz_band(k, 5.0e4, 1720.0, 13.0)
            + lorentz_band(k, 5.0e4, 1765.0, 13.0)
            + 0.01
        )
        rms_single = fit_lorentzian_band(k, single).residual_rms
        rms_double = fit_lorentzian_band(k, double).residual_rms
        assert rms_double > 100.0 * max(rms_single, 1e-12)
        assert rms_double > 0.01 * double.max()

    def test_flat_segment_raises(self):
        k = np.arange(1600.0, 1900.0, 1.0)
        with pytest.raises(FitError):
            fit_lorentzian_band(k, np.full_like(k, 0.4))


def synthetic_table(omega_v, n_eff, d_nm, split, angles, jitter=None, rng=None):
    rows = []
    for a in angles:
        wc = fp_mode_estimate(n_eff, d_nm, 1, a)
        res = coupled_frequencies(wc, omega_v, split)
        lo, hi = res.omega_lower, res.omega_upper
        if jitter:
            lo += rng.uniform(-jitter, jitter)
            hi += rng.uniform(-jitter, jitter)
        rows.append(DispersionRow(a, lo, hi, "ok"))
    return DispersionTable(rows=rows, channel="T")


class TestDispersion:
    def test_build_symmetry_under_angle_negation(self, coupled_stack):
        grid = SpectralGrid(1500.0, 2000.0, 0.5)
        spectra = [
            spectrum_scan(coupled_stack, grid, angle=a) for a in (-20.0, -10.0, 0.0, 10.0, 20.0)
        ]
        table = build_dispersion(spectra, window=(1500.0, 2000.0))
        assert all(r.status == "ok" for r in table.rows)
        by_angle = {r.angle: r for r in table.rows}
        for a in (10.0, 20.0):
            assert by_angle[-a].omega_lower == pytest.approx(by_angle[a].omega_lower, abs=1e-9)
            assert by_angle[-a].omega_upper == pytest.approx(by_angle[a].omega_upper, abs=1e-9)

    def test_uncoupled_rows_are_flagged(self, uncoupled_stack, coupled_stack):
        grid = SpectralGrid(1500.0, 2000.0, 0.5)
        spectra = [
            spectrum_scan(uncoupled_stack, grid, angle=0.0),
            spectrum_scan(coupled_stack, grid, angle=0.0),
        ]
        table = build_dispersion(spectra, window=(1500.0, 2000.0))
        assert table.rows[0].status == "peaks=1"
        assert table.rows[0].omega_lower is None
        assert table.rows[1].status == "ok"
        assert len(table.good_rows()) == 1

    def test_coupled_fit_round_trip(self):
        d_true = 1e7 / (2.0 * 1.41 * 1740.0)
        table = synthetic_table(1740.0, 1.41, d_true, 167.0, np.arange(0.0, 61.0, 5.0))
        fit = fit_coupled_model(table)
        assert fit.success
        assert fit.omega_v == pytest.approx(1740.0, rel=1e-6)
        assert fit.n_eff == pytest.approx(1.41, rel=1e-6)
        assert fit.thickness_nm == pytest.approx(d_true, rel=1e-6)
        assert fit.splitting_cm1 == pytest.approx(167.0, rel=1e-6)
        assert fit.residual_rms < 1e-6

    def test_coupled_fit_with_jitter(self):
        rng = np.random.default_rng(3)
        d_true = 1e7 / (2.0 * 1.41 * 1740.0)
        table = synthetic_table(
            1740.0, 1.41, d_true, 167.0, np.arange(0.0, 61.0, 5.0), jitter=1.0, rng=rng
        )
        fit = fit_coupled_model(table)
        assert fit.omega_v == pytest.approx(1740.0, rel=0.03)
        assert fit.n_eff == pytest.approx(1.41, rel=0.03)
        assert fit.thickness_nm == pytest.approx(d_true, rel=0.03)
        assert fit.splitting_cm1 == pytest.approx(167.0, rel=0.03)
        assert fit.row_residuals.shape == (13,)
        assert fit.row_residuals.max() < 2.0

    def test_zero_splitting_table(self):
        d_true = 1e7 / (2.0 * 1.41 * 1740.0)
        table = synthetic_table(1740.0, 1.41, d_true, 0.0, np.arange(5.0, 61.0, 5.0))
        fit = fit_coupled_model(table)
        assert fit.splitting_cm1 < 1.0

    def test_fit_against_simulated_stack(self, coupled_stack):
        grid = SpectralGrid(1400.0, 2300.0, 0.5)
        spectra = [
            spectrum_scan(coupled_stack, grid, angle=a) for a in np.arange(0.0, 61.0, 5.0)
        ]
        table = build_dispersion(spectra, window=(1450.0, 2250.0))
        fit = fit_coupled_model(table)
        assert fit.success
        assert abs(fit.omega_v - 1739.0) < 10.0
        direct = extract_splitting(spectra[0], "T", window=(1500.0, 2000.0))
        assert abs(fit.splitting_cm1 - direct.splitting_cm1) < 5.0

    def test_too_few_rows(self):
        table = DispersionTable(
            rows=[DispersionRow(0.0, 1650.0, 1820.0, "ok")] * 3, channel="T"
        )
        with pytest.raises(FitError):
            fit_coupled_model(table)


class TestLoadMeasured:
    def test_round_trip_with_comments(self, tmp_path):
        path = tmp_path / "measured.csv"
        path.write_text("# instrument export\n1800.0,0.2\n1600.0,0.1\n1700.0,0.3\n")
        k, v = load_measured(path)
        np.testing.assert_array_equal(k, [1600.0, 1700.0, 1800.0])
        np.testing.assert_array_equal(v, [0.1, 0.3, 0.2])

    def test_rejects_bad_files(self, tmp_path):
        one_col = tmp_path / "one.csv"
        one_col.write_text("1600.0\n1700.0\n")
        with pytest.raises(DomainError):
            load_measured(one_col)
        neg = tmp_path / "neg.csv"
        neg.write_text("-1600.0,0.1\n1700.0,0.2\n")
        with pytest.raises(DomainError):
            load_measured(neg)
