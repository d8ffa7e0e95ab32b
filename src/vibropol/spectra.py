"""Spectral analysis: peak extraction, polariton splittings, dispersion
tables and model fits against them.

Peak centers are refined off the sample lattice with a three-point
parabola through the discrete maximum; widths come from the half-maximum
crossings with linear interpolation between samples, measured from a zero
baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import cm1_to_mev
from .errors import DomainError, FitError, PeakCountError
from .polariton import AnticrossingCurve, coupled_frequencies, fp_mode_estimate

__all__ = [
    "Peak",
    "SplittingReport",
    "DispersionRow",
    "DispersionTable",
    "LorentzianBandFit",
    "CoupledFitResult",
    "find_peaks",
    "extract_splitting",
    "fit_lorentzian_band",
    "build_dispersion",
    "fit_coupled_model",
    "load_measured",
]


@dataclass(frozen=True)
class Peak:
    """One spectral peak; fwhm is None when a half-maximum crossing is
    not resolvable inside the search window."""

    center: float
    height: float
    prominence: float
    fwhm: float | None = None


def _windowed(k, values, window):
    k = np.asarray(k, dtype=float)
    values = np.asarray(values, dtype=float)
    if k.shape != values.shape or k.ndim != 1:
        raise DomainError("k and values must be 1-D arrays of equal length")
    if window is not None:
        lo, hi = window
        if not lo < hi:
            raise DomainError("window must satisfy lo < hi")
        mask = (k >= lo) & (k <= hi)
        k, values = k[mask], values[mask]
    if k.size < 3:
        where = "window" if window is not None else "spectrum"
        raise DomainError(f"{where} contains fewer than 3 samples")
    return k, values


def _parabolic_vertex(k, y, i):
    """Vertex of the parabola through samples i-1, i, i+1."""
    x0, x1, x2 = k[i - 1], k[i], k[i + 1]
    y0, y1, y2 = y[i - 1], y[i], y[i + 1]
    denom = (x0 - x1) * (x0 - x2) * (x1 - x2)
    a = (x2 * (y1 - y0) + x1 * (y0 - y2) + x0 * (y2 - y1)) / denom
    b = (x2**2 * (y0 - y1) + x1**2 * (y2 - y0) + x0**2 * (y1 - y2)) / denom
    if a >= 0.0:  # numerically flat top, keep the lattice point
        return x1, y1
    xv = -b / (2.0 * a)
    if not (min(x0, x2) <= xv <= max(x0, x2)):
        return x1, y1
    c = y1 - a * x1**2 - b * x1
    return xv, a * xv**2 + b * xv + c


def _half_crossing(k, y, i_peak, half, direction):
    i = i_peak
    while 0 <= i + direction < len(y):
        j = i + direction
        if y[j] <= half:
            # linear interpolation between samples j and i
            if y[i] == y[j]:
                return k[j]
            frac = (y[i] - half) / (y[i] - y[j])
            return k[i] + frac * (k[j] - k[i])
        i = j
    return None


def _prominences(x, peaks):
    """Height of each peak above the higher of its two bounding minima.

    A bounding minimum is the lowest sample between the peak and the
    first strictly higher sample on that side (or the end of x).  All
    peaks walk outwards together by binary lifting over power-of-two
    blocks: row j of the tables holds the max / min of x[i : i + 2**j],
    with inf wherever the block runs past the end of x.
    """
    n = x.size
    levels = n.bit_length()
    hi_t = np.full((levels, n + 1), np.inf)
    lo_t = np.full((levels, n + 1), np.inf)
    hi_t[0, :n] = lo_t[0, :n] = x
    for j in range(1, levels):
        w = 1 << (j - 1)
        hi_t[j, : n + 1 - w] = np.maximum(hi_t[j - 1, : n + 1 - w], hi_t[j - 1, w:])
        lo_t[j, : n + 1 - w] = np.minimum(lo_t[j - 1, : n + 1 - w], lo_t[j - 1, w:])
    h = x[peaks]
    first, last = peaks.copy(), peaks.copy()  # x[first : last + 1] <= h
    left_min, right_min = h.copy(), h.copy()
    for j in range(levels - 1, -1, -1):
        w = 1 << j
        i = np.maximum(first - w, 0)
        ok = (first >= w) & (hi_t[j, i] <= h)
        left_min = np.where(ok, np.minimum(left_min, lo_t[j, i]), left_min)
        first = np.where(ok, i, first)
        ok = hi_t[j, last + 1] <= h
        right_min = np.where(ok, np.minimum(right_min, lo_t[j, last + 1]), right_min)
        last = np.where(ok, last + w, last)
    return h - np.maximum(left_min, right_min)


def _prominent_peaks(x, min_prominence):
    """Indices and prominences of the interior local maxima of x whose
    prominence is >= min_prominence, in index order.

    A run of equal samples is a maximum when the runs on both sides are
    lower; it is reported at its midpoint (left + right) // 2, and a run
    touching either end of x never is one.  Prominences are taken over the
    turning points only (local maxima, local minima and the two end runs):
    the runs in between lie on monotone stretches, and dropping them
    leaves every bounding minimum unchanged.
    """
    if x.size < 3:
        return np.empty(0, dtype=np.intp), np.empty(0)
    start = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    end = np.r_[start[1:], x.size] - 1
    v = x[start]
    rise = v[1:] > v[:-1]  # rise[r]: run r + 1 is above run r
    is_max = np.zeros(v.size, dtype=bool)
    is_max[1:-1] = rise[:-1] & ~rise[1:]
    turn = np.ones(v.size, dtype=bool)
    turn[1:-1] = rise[:-1] != rise[1:]
    peaks = (start[is_max] + end[is_max]) // 2
    prom = _prominences(v[turn], np.flatnonzero(is_max[turn]))
    keep = prom >= min_prominence
    return peaks[keep], prom[keep]


def find_peaks(k, values, min_prominence=None, window=None):
    """Peaks of `values` over `k`, sorted by center.

    A peak is an interior local maximum: a sample, or a plateau of equal
    samples, whose neighbours on both sides are strictly lower.  A plateau
    counts once, at its midpoint sample (left + right) // 2; samples at
    either end of the window are never peaks.  The prominence of a peak is
    its height minus the higher of its two bounding minima, where each
    bounding minimum is the lowest sample between the peak and the first
    strictly higher sample on that side, or the end of the window.  These
    are the definitions of ``scipy.signal.find_peaks`` and
    ``scipy.signal.peak_prominences`` (Virtanen et al., Nat. Methods 17,
    261 (2020)), and the indices and prominences agree with them exactly.

    Peaks with prominence >= min_prominence are kept.  min_prominence is
    absolute; when None it defaults to 5% of the dynamic range inside the
    window.  window is an optional (lo, hi) wavenumber pair restricting
    the search.  Raises DomainError when the window (the whole spectrum
    when window is None) holds fewer than 3 samples, or a NaN or
    infinite sample.
    """
    k, values = _windowed(k, values, window)
    n_bad = int(np.count_nonzero(~np.isfinite(values)))
    if n_bad:
        raise DomainError(f"{n_bad} non-finite sample(s) in the peak search window")
    if min_prominence is None:
        span = float(values.max() - values.min())
        min_prominence = 0.05 * span if span > 0.0 else np.inf
    idx, prominences = _prominent_peaks(values, min_prominence)
    peaks = []
    for i, prominence in zip(idx, prominences):
        center, height = _parabolic_vertex(k, values, i)
        half = height / 2.0
        left = _half_crossing(k, values, i, half, -1)
        right = _half_crossing(k, values, i, half, +1)
        fwhm = (right - left) if (left is not None and right is not None) else None
        peaks.append(
            Peak(center=float(center), height=float(height),
                 prominence=float(prominence), fwhm=fwhm)
        )
    return peaks


@dataclass(frozen=True)
class SplittingReport:
    """Two-peak splitting of one spectral channel."""

    channel: str
    omega_lower: float
    omega_upper: float
    splitting_cm1: float
    splitting_mev: float
    peaks: tuple[Peak, Peak]


def extract_splitting(spectrum, channel="T", window=None, min_prominence=None):
    """Polariton splitting from a Spectrum: peak pair of T or A, or of
    1 - R (reflection dips).  Exactly two peaks are required."""
    values = spectrum.channel(channel)
    if channel == "R":
        values = 1.0 - values
    peaks = find_peaks(spectrum.k, values, min_prominence=min_prominence, window=window)
    if len(peaks) != 2:
        raise PeakCountError(
            f"expected 2 peaks in channel {channel}, found {len(peaks)} "
            f"at {[round(p.center, 2) for p in peaks]}",
            peaks,
        )
    lo, hi = peaks[0].center, peaks[1].center
    split = hi - lo
    return SplittingReport(
        channel=channel,
        omega_lower=lo,
        omega_upper=hi,
        splitting_cm1=split,
        splitting_mev=cm1_to_mev(split),
        peaks=(peaks[0], peaks[1]),
    )


@dataclass
class LorentzianBandFit:
    """Single-oscillator absorbance profile on a constant baseline:

        y(k) = baseline + f k gamma / ((k^2 - k0^2)^2 + (k gamma)^2),

    the imaginary part of the one-oscillator Lorentz permittivity."""

    f: float
    k0: float
    gamma: float
    baseline: float
    residual_rms: float
    n_evaluations: int

    def evaluate(self, k):
        k = np.asarray(k, dtype=float)
        return self.baseline + self.f * k * self.gamma / (
            (k**2 - self.k0**2) ** 2 + (k * self.gamma) ** 2
        )

    def params(self):
        return np.array([self.f, self.k0, self.gamma, self.baseline])


def _band_model(p, k):
    f, k0, gamma, base = p
    return base + f * k * gamma / ((k**2 - k0**2) ** 2 + (k * gamma) ** 2)


def fit_lorentzian_band(k, values, window=None, p0=None, max_nfev=2000):
    """Least-squares (f, k0, gamma, baseline) of a single absorption band.

    The segment should contain one dominant band; a large residual_rms
    signals that the single-oscillator model does not describe it.  The
    starting point comes from find_peaks when p0 is not given.  Raises
    FitError carrying the best-so-far fit on non-convergence.
    """
    k, values = _windowed(k, values, window)
    if p0 is None:
        guesses = find_peaks(k, values)
        if not guesses:
            raise FitError("no candidate peak found to seed the band fit")
        g = max(guesses, key=lambda p: p.prominence)
        base0 = float(values.min())
        gamma0 = g.fwhm if g.fwhm else 0.05 * (k[-1] - k[0])
        # at k = k0 the band contributes f/(k0 gamma)
        f0 = max(g.height - base0, 1e-12) * g.center * gamma0
        p0 = [f0, g.center, gamma0, base0]
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (4,):
        raise DomainError("p0 must be (f, k0, gamma, baseline)")

    import scipy.optimize

    lower = [0.0, k[0], 1e-12, -np.inf]
    upper = [np.inf, k[-1], np.inf, np.inf]
    res = scipy.optimize.least_squares(
        lambda p: _band_model(p, k) - values,
        p0, bounds=(lower, upper), method="trf", ftol=1e-12, xtol=1e-12,
        max_nfev=max_nfev,
    )
    fit = LorentzianBandFit(
        f=float(res.x[0]),
        k0=float(res.x[1]),
        gamma=float(res.x[2]),
        baseline=float(res.x[3]),
        residual_rms=float(np.sqrt(np.mean(res.fun**2))),
        n_evaluations=int(res.nfev),
    )
    if res.status <= 0:
        raise FitError("band fit did not converge within max_nfev", best=fit)
    return fit


@dataclass(frozen=True)
class DispersionRow:
    angle: float
    omega_lower: float | None
    omega_upper: float | None
    status: str  # "ok" or "peaks=N"


@dataclass
class DispersionTable:
    """Measured polariton branches versus angle, with optional model
    reference curves attached."""

    rows: list[DispersionRow]
    channel: str
    reference: AnticrossingCurve | None = None

    def good_rows(self):
        return [r for r in self.rows if r.status == "ok"]


def build_dispersion(spectra, channel="T", window=None, min_prominence=None):
    """Peak-pair dispersion from a list of Spectrum at different angles.

    Angles where the peak finder does not return exactly two peaks are
    kept with a flag instead of failing the whole table."""
    rows = []
    for sp in spectra:
        try:
            rep = extract_splitting(sp, channel, window=window, min_prominence=min_prominence)
            rows.append(DispersionRow(sp.angle, rep.omega_lower, rep.omega_upper, "ok"))
        except PeakCountError as err:
            rows.append(DispersionRow(sp.angle, None, None, f"peaks={len(err.peaks)}"))
    return DispersionTable(rows=rows, channel=channel)


@dataclass
class CoupledFitResult:
    omega_v: float
    n_eff: float
    thickness_nm: float
    splitting_cm1: float
    residual_rms: float
    # covariance proxy: per-row rms over the two branches
    row_residuals: np.ndarray
    success: bool


def _coupled_branches(angles, omega_v, n_eff, thickness_nm, splitting, order, n_ambient):
    up = np.empty(len(angles))
    lp = np.empty(len(angles))
    for i, a in enumerate(angles):
        wc = fp_mode_estimate(n_eff, thickness_nm, order, a, n_ambient)
        res = coupled_frequencies(wc, omega_v, splitting, model="rwa")
        up[i], lp[i] = res.omega_upper, res.omega_lower
    return up, lp


def fit_coupled_model(table, order=1, n_ambient=1.0, x0=None, max_nfev=2000):
    """Fit (omega_v, n_eff, d, Omega_R) of the coupled-mode dispersion to
    a measured DispersionTable; both branches enter the residual."""
    rows = table.good_rows()
    if len(rows) < 4:
        raise FitError(f"need >= 4 usable dispersion rows, have {len(rows)}")
    angles = np.array([r.angle for r in rows])
    up = np.array([r.omega_upper for r in rows])
    lp = np.array([r.omega_lower for r in rows])

    if x0 is None:
        i0 = int(np.argmin(np.abs(angles)))
        omega_v0 = float(lp.max())
        split0 = float((up - lp).min())
        omega_c0 = float(up[i0] + lp[i0] - omega_v0)
        n0 = 1.4
        d0 = 1e7 / (2.0 * n0 * omega_c0)
        x0 = [omega_v0, n0, d0, split0]

    def residual(p):
        omega_v, n_eff, d, split = p
        mu, ml = _coupled_branches(angles, omega_v, n_eff, d, split, order, n_ambient)
        return np.concatenate([mu - up, ml - lp])

    import scipy.optimize

    lo = [x0[0] * 0.5, 1.0, x0[2] * 0.2, 0.0]
    hi = [x0[0] * 1.5, 5.0, x0[2] * 5.0, x0[3] * 5.0 + 10.0]
    res = scipy.optimize.least_squares(
        residual, x0, bounds=(lo, hi), method="trf", x_scale="jac",
        ftol=1e-10, max_nfev=max_nfev,
    )
    rms = float(np.sqrt(np.mean(res.fun**2)))
    n = len(rows)
    per_row = np.sqrt(0.5 * (res.fun[:n] ** 2 + res.fun[n:] ** 2))
    return CoupledFitResult(
        omega_v=float(res.x[0]),
        n_eff=float(res.x[1]),
        thickness_nm=float(res.x[2]),
        splitting_cm1=float(res.x[3]),
        residual_rms=rms,
        row_residuals=per_row,
        success=bool(res.status > 0),
    )


def load_measured(path):
    """Two-column CSV (wavenumber, value); '#' starts a comment line.
    Returns (k, values) sorted by wavenumber."""
    data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    if data.shape[1] < 2:
        raise DomainError(f"{path}: expected two comma-separated columns")
    k, values = data[:, 0], data[:, 1]
    if np.any(k <= 0):
        raise DomainError(f"{path}: wavenumbers must be positive")
    order = np.argsort(k)
    return k[order], values[order]
