"""Peak finding, splittings, dispersion tables and model fits."""

import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from vibropol import (
    DomainError,
    FitError,
    LorentzianBandFit,
    PeakCountError,
    SpectralGrid,
    Spectrum,
    build_dispersion,
    extract_splitting,
    find_peaks,
    fit_coupled_model,
    fit_lorentzian_band,
    anticrossing_dispersion,
    angle_scan,
    fp_mode_estimate,
    load_config,
    load_measured,
    coupled_frequencies,
    spectrum_scan,
)
from vibropol.spectra import (
    DispersionRow,
    DispersionTable,
    _band_model,
    _coupled_model,
    _half_crossing,
    _prominent_peaks,
)

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

    def test_negative_peak_has_no_width(self):
        # half of a negative vertex lies above every sample: no crossing
        k = np.arange(1500.0, 2000.0, 0.5)
        y = lorentz_band(k, 5.0e4, 1739.0, 13.0) - 10.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            peaks = find_peaks(k, y)
        assert len(peaks) == 1
        assert peaks[0].height < 0.0 and peaks[0].fwhm is None
        assert peaks[0].center == pytest.approx(1739.0, abs=0.5)

    def test_three_sample_plateau_keeps_its_lattice_point(self):
        # the parabola through a flat top has no vertex: the peak is the
        # plateau's middle sample
        k = np.arange(1700.0, 1705.0)
        peaks = find_peaks(k, np.array([0.0, 1.0, 1.0, 1.0, 0.0]))
        assert [(p.center, p.height) for p in peaks] == [(1702.0, 1.0)]

    def test_boundary_maxima_are_not_peaks(self):
        k = np.arange(1500.0, 1600.0, 1.0)
        rising = np.linspace(0.0, 1.0, k.size)
        assert find_peaks(k, rising) == []

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            find_peaks(np.arange(3.0), np.arange(4.0))
        with pytest.raises(DomainError):
            find_peaks(np.arange(10.0), np.arange(10.0), window=(5.0, 2.0))
        # the argument checks come before a sparse window is found empty
        with pytest.raises(DomainError, match="min_prominence"):
            find_peaks(np.arange(10.0), np.arange(10.0), min_prominence=-1.0, window=(0.0, 1.0))
        with pytest.raises(DomainError, match="^1 non-finite sample"):
            find_peaks(np.arange(10.0), np.r_[np.nan, np.ones(9)], window=(0.0, 1.0))

    @pytest.mark.parametrize("window", [(1.0, 2.0, 3.0), (1.0,), 5.0, [[1.0, 2.0]]])
    def test_window_that_is_no_pair_raises(self, window):
        with pytest.raises(DomainError, match="^window must be a \\(lo, hi\\) pair"):
            find_peaks(np.arange(10.0), np.arange(10.0), window=window)

    @pytest.mark.parametrize("window, message", [(((1.0, 2.0), 3.0), "window lo"),
                                                 (("a", "b"), "window lo"),
                                                 ((1600.0, "x"), "window hi")],
                             ids=["nested", "strings", "string-hi"])
    def test_window_of_non_numbers_raises(self, window, message):
        with pytest.raises(DomainError, match=f"^{message} must be finite"):
            find_peaks(np.arange(10.0), np.arange(10.0), window=window)

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("min_prominence", [None, 0.1])
    def test_fewer_than_three_samples_raise(self, n, min_prominence):
        # fewer than 3 samples hold no peak on both prominence paths (the
        # default one must not reach values.max() on an empty array); only
        # the band fit, which needs a curve to fit, raises
        k = 1500.0 + np.arange(float(n))
        assert find_peaks(k, np.ones(n), min_prominence=min_prominence) == []
        assert find_peaks(k, np.ones(n), min_prominence=min_prominence,
                          window=(1000.0, 2000.0)) == []
        with pytest.raises(DomainError, match="^spectrum contains fewer than 3 samples"):
            fit_lorentzian_band(k, np.ones(n))
        with pytest.raises(DomainError, match="^window contains fewer than 3 samples"):
            fit_lorentzian_band(k, np.ones(n), window=(1000.0, 2000.0))

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

    @pytest.mark.parametrize("window", [None, (1600.0, 1900.0)])
    def test_non_finite_wavenumber_raises(self, window):
        k = np.arange(1500.0, 2000.0, 0.25)
        y = lorentz_band(k, 5.0e4, 1739.0, 13.0)
        k[960] = np.nan
        with pytest.raises(DomainError, match="wavenumbers must be finite"):
            find_peaks(k, y, window=window)

    @pytest.mark.parametrize("min_prominence", [np.nan, np.inf, -0.1])
    def test_bad_min_prominence_raises(self, min_prominence):
        k = np.arange(1500.0, 2000.0, 0.25)
        with pytest.raises(DomainError, match="min_prominence"):
            find_peaks(k, lorentz_band(k, 5.0e4, 1739.0, 13.0), min_prominence=min_prominence)

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


def half_crossing_walk(k, y, i_peak, half, direction):
    """The sample-by-sample walk that `_half_crossing` replaces, with its
    first line: no crossing from a peak sample at or below half."""
    if y[i_peak] <= half:
        return None
    i = i_peak
    while 0 <= i + direction < len(y):
        j = i + direction
        if y[j] <= half:
            if y[i] == y[j]:
                return k[j]
            frac = (y[i] - half) / (y[i] - y[j])
            return k[i] + frac * (k[j] - k[i])
        i = j
    return None


@settings(max_examples=200, deadline=None)
@given(
    values=st.one_of(
        arrays(np.float64, st.integers(1, 40), elements=st.floats(-1e6, 1e6)),
        # small integers: samples equal to the half level and to each other
        arrays(np.float64, st.integers(1, 40), elements=st.integers(-3, 3).map(float)),
    ),
    half=st.one_of(st.integers(-3, 3).map(float), st.floats(-1e6, 1e6)),
)
# a peak sample at or below half once divided by a subnormal difference
@example(values=np.array([8.62e-308, 0.0]), half=16.0)
def test_half_crossing_matches_the_walk(values, half):
    k = 1500.0 + 0.7 * np.arange(values.size)
    for i_peak in range(values.size):
        for direction in (-1, 1):
            assert _half_crossing(k, values, i_peak, half, direction) == \
                half_crossing_walk(k, values, i_peak, half, direction)


def half_crossing_full_scan(k, y, i_peak, half, direction):
    """`_half_crossing` as one comparison over the whole side of the
    peak, the reference for its scan in growing windows."""
    if y[i_peak] <= half:
        return None
    below = np.flatnonzero((y[:i_peak] if direction < 0 else y[i_peak + 1:]) <= half)
    if below.size == 0:
        return None
    j = below[-1] if direction < 0 else i_peak + 1 + below[0]
    i = j - direction
    frac = (y[i] - half) / (y[i] - y[j])
    return k[i] + frac * (k[j] - k[i])


def long_sides():
    """Samples whose crossings lie inside the first window, across the
    window edges (256, 768, 1792, ... samples out) or nowhere."""
    rng = np.random.default_rng(11)
    yield "walk", rng.normal(size=3000).cumsum()
    yield "noise", rng.normal(size=3000)
    # a plateau of 1 with a 0 at one end: the only crossing from each
    # peak is at index 0, or at n - 1, up to n - 1 samples away
    for n in (256, 257, 769, 2000):
        plateau = np.ones(n)
        plateau[0] = 0.0
        yield f"crossing_at_0_of_{n}", plateau
        yield f"crossing_at_end_of_{n}", plateau[::-1].copy()
    yield "no_crossing", np.linspace(1.0, 2.0, 500)


@pytest.mark.parametrize("name, y", list(long_sides()), ids=[n for n, _ in long_sides()])
def test_half_crossing_matches_the_full_scan(name, y):
    k = 1500.0 + 0.3 * np.arange(y.size)
    rng = np.random.default_rng(5)
    peaks = np.unique(np.r_[0, 1, 255, 256, 257, 768, 769, y.size - 1,
                            rng.integers(0, y.size, 60)])
    peaks = peaks[peaks < y.size]
    for i_peak in peaks:
        # halves below, at and above the peak sample, and below every sample
        for half in (y[i_peak] - 0.3, y[i_peak] - 5.0, y[i_peak], y[i_peak] + 1.0,
                     0.5, y.min() - 1.0):
            for direction in (-1, 1):
                assert _half_crossing(k, y, i_peak, half, direction) == \
                    half_crossing_full_scan(k, y, i_peak, half, direction)


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

    # long fixed-seed inputs, at prominence 0, find_peaks' default and others
    @pytest.mark.parametrize("n", [1000, 3000, 10000])
    def test_matches_scipy_on_random_walks(self, n):
        values = np.cumsum(np.random.default_rng(n).standard_normal(n))
        for prominence in (0.0, 0.05 * float(np.ptp(values))):
            assert_same_as_scipy(values, prominence)

    def test_matches_scipy_on_a_noisy_band(self):
        k = np.linspace(1500.0, 2000.0, 20000)
        noise = np.random.default_rng(7).normal(0.0, 0.04, k.size)
        values = lorentz_band(k, 5.0e4, 1739.0, 13.0) + noise
        for prominence in (0.0, 0.05 * float(np.ptp(values))):
            assert_same_as_scipy(values, prominence)

    @pytest.mark.parametrize("descending", [True, False])
    def test_matches_scipy_on_a_staircase(self, descending):
        # maxima n/2, n/2 - 1, ..., 1 between dips of -3 to 0: each maximum
        # is below every one before it, so the pass from the high end
        # stacks all n/2 of them
        n = 6000
        values = np.random.default_rng(3).integers(-3, 1, n).astype(float)
        values[1::2] = np.arange(n // 2, 0, -1)
        values = values if descending else values[::-1].copy()
        for prominence in (0.0, 2.0, 0.05 * float(np.ptp(values))):
            assert_same_as_scipy(values, prominence)

    def test_matches_scipy_on_plateaus_and_ties(self):
        # runs of 1 to 40 equal small integers: plateau peaks, equal
        # heights and equal bounding minima
        rng = np.random.default_rng(5)
        values = np.repeat(rng.integers(-3, 4, 2000), rng.integers(1, 41, 2000)).astype(float)
        for prominence in (0.0, 1.0, 2.0, 0.05 * float(np.ptp(values))):
            assert_same_as_scipy(values, prominence)


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

    def test_p0_of_three_values_raises(self):
        k = np.arange(1600.0, 1900.0, 1.0)
        y = lorentz_band(k, 5.0e4, 1739.0, 13.0)
        with pytest.raises(DomainError, match="p0 must be"):
            fit_lorentzian_band(k, y, p0=[5.0e4, 1739.0, 13.0])

    def test_unconverged_fit_carries_its_best_parameters(self):
        k = np.arange(1600.0, 1900.0, 1.0)
        y = lorentz_band(k, 5.0e4, 1739.0, 13.0, baseline=0.02)
        with pytest.raises(FitError, match="max_nfev") as info:
            fit_lorentzian_band(k, y, max_nfev=1)
        best = info.value.best
        assert isinstance(best, LorentzianBandFit)
        assert best.n_evaluations == 1
        assert np.all(np.isfinite(best.params()))


def assert_jacobian_matches_central_differences(model, p, jac):
    """Each column of jac against a central difference of model with a
    step of 1e-6 of that parameter, to 1e-6 of the column's largest entry."""
    for i, value in enumerate(p):
        h = 1e-6 * abs(value)
        up, down = np.array(p, dtype=float), np.array(p, dtype=float)
        up[i] += h
        down[i] -= h
        central = (model(up) - model(down)) / (2.0 * h)
        np.testing.assert_allclose(jac[:, i], central, rtol=0.0,
                                   atol=1e-6 * np.abs(central).max(), err_msg=f"column {i}")


class TestModelJacobians:
    """The closed-form Jacobians the two fits give the solver."""

    @pytest.mark.parametrize("p", [(5.0e4, 1739.0, 13.0, 0.02), (2.0e4, 1700.0, 40.0, -0.1)])
    def test_band_model(self, p):
        k = np.arange(1600.0, 1900.0, 0.5)
        model, jac = _band_model(p, k)
        np.testing.assert_array_equal(model, lorentz_band(k, *p))
        assert_jacobian_matches_central_differences(lambda q: _band_model(q, k)[0], p, jac)

    @pytest.mark.parametrize(
        "p, order, n_ambient",
        [((1740.0, 1.41, 2038.0, 167.0), 1, 1.0), ((1700.0, 1.6, 3900.0, 60.0), 2, 1.3),
         ((1773.0, 1.41, 2000.0, 0.5), 1, 1.0)],
    )
    def test_coupled_model(self, p, order, n_ambient):
        angles = np.concatenate([np.arange(0.0, 61.0, 5.0), [-20.0]])
        branches, jac = _coupled_model(p, angles, order, n_ambient)
        curve = anticrossing_dispersion(p[0], p[3], p[1], p[2], angles, order, n_ambient)
        np.testing.assert_array_equal(branches, np.concatenate([curve.upper, curve.lower]))
        assert_jacobian_matches_central_differences(
            lambda q: _coupled_model(q, angles, order, n_ambient)[0], p, jac)


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


@pytest.fixture(scope="module")
def dispersion_spectra():
    cfg = load_config(CONFIGS / "cavity_dispersion.yaml")
    return angle_scan(cfg.stack, cfg.grid, cfg.scan.angles, cfg.scan.polarization)


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

    @pytest.mark.parametrize("channel", ["T", "R", "A"])
    @pytest.mark.parametrize("window", [(1450.0, 2250.0), (1650.0, 1850.0), (1500.0, 1500.4)])
    def test_rows_match_extract_splitting(self, dispersion_spectra, channel, window):
        # the rows built from extract_splitting, with a PeakCountError
        # giving a flagged row
        expected = []
        for sp in dispersion_spectra:
            try:
                rep = extract_splitting(sp, channel, window=window)
                expected.append(DispersionRow(sp.angle, rep.omega_lower, rep.omega_upper, "ok"))
            except PeakCountError as err:
                expected.append(DispersionRow(sp.angle, None, None, f"peaks={len(err.peaks)}"))
        table = build_dispersion(dispersion_spectra, channel, window=window)
        assert table.rows == expected and table.channel == channel
        if window == (1650.0, 1850.0) and channel == "T":
            # the narrow window leaves most angles with one peak in view
            assert [r.status for r in table.rows].count("ok") == 4
        if window == (1500.0, 1500.4):
            # two grid samples hold no peak: extract_splitting finds none
            assert all(r.status == "peaks=0" for r in table.rows)

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

    @pytest.mark.parametrize("x0", [[1739.0, 1.41, 1e5, 160.0], [1700.0, 1.5, 1500.0, 100.0]],
                             ids=["far-thickness", "near-start"])
    def test_fit_ending_on_an_edge_of_its_box_is_no_success(self, x0):
        # both starts end with the splitting on its lower bound, 0
        table = synthetic_table(1739.0, 1.41, 1930.0, 160.0, np.arange(-20.0, 21.0, 10.0))
        fit = fit_coupled_model(table, x0=x0)
        assert fit.splitting_cm1 == 0.0
        assert fit.residual_rms > 1.0
        assert not fit.success

    @pytest.mark.parametrize("x0", [[1739.0, 1.41], [1739.0, 1.41, 1930.0, 160.0, 1.0], 1739.0])
    def test_x0_of_the_wrong_shape_raises(self, x0):
        table = synthetic_table(1739.0, 1.41, 1930.0, 160.0, np.arange(-20.0, 21.0, 10.0))
        with pytest.raises(DomainError, match="^x0 must be"):
            fit_coupled_model(table, x0=x0)

    @pytest.mark.parametrize("x0, name", [(["a", 1.41, 1930.0, 160.0], "omega_v"),
                                          ([1739.0, None, 1930.0, 160.0], "n_eff")],
                             ids=["string", "none"])
    def test_x0_of_non_numbers_raises(self, x0, name):
        table = synthetic_table(1739.0, 1.41, 1930.0, 160.0, np.arange(-20.0, 21.0, 10.0))
        with pytest.raises(DomainError, match=f"^x0 {name} must be"):
            fit_coupled_model(table, x0=x0)

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
