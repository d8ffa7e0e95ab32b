"""Spectral analysis: peak extraction, polariton splittings, dispersion
tables and model fits against them.

Peak centers are refined off the sample lattice with a three-point
parabola through the discrete maximum; widths come from the half-maximum
crossings with linear interpolation between samples, measured from a zero
baseline.  Prominences take one Python pass from each end over the turning
points, a few operations per peak.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import cm1_to_mev
from .errors import DomainError, FitError, PeakCountError, _check_range


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
    if not np.all(np.isfinite(k)):
        raise DomainError("wavenumbers must be finite")
    if window is not None:
        try:
            lo, hi = window
        except (TypeError, ValueError):
            raise DomainError("window must be a (lo, hi) pair") from None
        _check_range(lo, "window lo")
        _check_range(hi, "window hi")
        if not lo < hi:
            raise DomainError("window must satisfy lo < hi")
        mask = (k >= lo) & (k <= hi)
        k, values = k[mask], values[mask]
    n_bad = int(np.count_nonzero(~np.isfinite(values)))
    if n_bad:
        raise DomainError(f"{n_bad} non-finite sample(s) in the peak search window")
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
    """k where y first falls to `half` or below walking from sample i_peak
    in `direction` (-1 or +1), interpolated linearly from the sample
    before; None if it never does, or if sample i_peak is itself at or
    below `half` (a peak whose vertex is <= 0 or at least twice its
    sample), where there is no crossing to interpolate.

    The side is scanned outward in windows of 256, 512, 1024, ... samples,
    so a crossing d samples away costs O(d), not O(len(y)): on a noisy
    band with thousands of peaks, each close to its crossings, the peak
    finder stays linear in the samples.  A window's fixed cost is about
    that of comparing a thousand samples, so smaller first windows save
    nothing, and at 64 the crossings of a cavity band, 16 to 160 samples
    out, took two windows where one whole-side scan took less."""
    if y[i_peak] <= half:
        return None
    side = y[i_peak + 1:] if direction > 0 else y[:i_peak][::-1]
    start, size = 0, 256
    while start < side.size:
        below = np.flatnonzero(side[start:start + size] <= half)
        if below.size:
            j = i_peak + direction * (1 + start + below[0])
            # y[i] > half >= y[j], so the two samples differ
            i = j - direction
            frac = (y[i] - half) / (y[i] - y[j])
            return k[i] + frac * (k[j] - k[i])
        start += size
        size *= 2
    return None


def _prominences(y, peaks):
    """Height of each peak y[i], i in the list peaks, above the higher of
    its two bounding minima: the lowest values between it and the first
    strictly higher value on each side, or the end of the list y.

    y lists Python floats, each strictly above or below both neighbours,
    so one pass from each end over the peaks, each taking in the dip
    before it, finds their minima on that side.  A pass keeps a stack of
    (height, lowest value since the entry below), and a peak pops every
    entry that is not strictly higher: each peak, about every other
    turning point, is pushed and popped once, a few Python operations.
    """
    sides = []
    for order, step, top in ((peaks, -1, y[0]), (peaks[::-1], 1, y[-1])):
        # the top entry is (top, top_low), over a sentinel never popped
        stack, lows, top_low = [(np.inf, np.inf)], [], top
        for i in order:
            h, low = y[i], y[i + step]
            while top <= h:
                if top_low < low:
                    low = top_low
                top, top_low = stack.pop()
            stack.append((top, top_low))
            top, top_low = h, low
            lows.append(low)
        sides.append(lows)
    return np.array([y[i] - max(lo, hi) for i, lo, hi in zip(peaks, sides[0], sides[1][::-1])])


def _prominent_peaks(x, min_prominence):
    """Indices and prominences of the interior local maxima of x whose
    prominence is >= min_prominence, in index order.

    A run of equal samples is a maximum when the runs on both sides are
    lower; it is reported at its midpoint (left + right) // 2, and a run
    touching either end of x never is one.  Prominences are taken over the
    turning points only (local maxima, local minima and the two end runs):
    the runs in between lie on monotone stretches, and dropping them
    leaves every bounding minimum unchanged.  The runs come from array
    operations, the prominences from `_prominences`' Python passes.
    """
    if x.size < 3:
        return np.empty(0, dtype=np.intp), np.empty(0)
    edge = np.ones(x.size + 1, dtype=bool)
    np.not_equal(x[1:], x[:-1], out=edge[1:-1])
    bound = np.flatnonzero(edge)  # the first sample of each run, then x.size
    v = x[bound[:-1]]
    rise = v[1:] > v[:-1]  # rise[r]: run r + 1 is above run r
    is_max = np.zeros(v.size, dtype=bool)
    is_max[1:-1] = rise[:-1] & ~rise[1:]
    turn = np.ones(v.size, dtype=bool)
    turn[1:-1] = rise[:-1] != rise[1:]
    peaks = (bound[:-1][is_max] + bound[1:][is_max] - 1) // 2
    prom = _prominences(v[turn].tolist(), np.flatnonzero(is_max[turn]).tolist())
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
    the search.  A window (the whole spectrum when window is None) of
    fewer than 3 samples holds no peak; one with a NaN or infinite sample
    raises DomainError.
    """
    k, values = _windowed(k, values, window)
    if min_prominence is not None:
        _check_range(min_prominence, "min_prominence", ge=0.0)
    if k.size < 3:
        return []
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


def _channel_peaks(k, values, channel, window, min_prominence):
    """Peaks of one channel, R searched as its dips 1 - R, and their
    SplittingReport when there are exactly two, else None.  channel is
    T, R or A, or None for the value column of a two-column file."""
    if channel == "R":
        values = 1.0 - values
    peaks = find_peaks(k, values, min_prominence=min_prominence, window=window)
    if len(peaks) != 2:
        return peaks, None
    lo, hi = peaks[0].center, peaks[1].center
    return peaks, SplittingReport(channel, lo, hi, hi - lo, cm1_to_mev(hi - lo),
                                  (peaks[0], peaks[1]))


def extract_splitting(spectrum, channel="T", window=None, min_prominence=None):
    """Polariton splitting from a Spectrum: peak pair of T or A, or of
    1 - R (reflection dips).  Exactly two peaks are required."""
    peaks, report = _channel_peaks(spectrum.k, spectrum.channel(channel), channel,
                                   window, min_prominence)
    if report is None:
        raise PeakCountError(
            f"expected 2 peaks in channel {channel}, found {len(peaks)} "
            f"at {[round(p.center, 2) for p in peaks]}",
            peaks,
        )
    return report


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
        return _band_model(self.params(), np.asarray(k, dtype=float))[0]

    def params(self):
        return np.array([self.f, self.k0, self.gamma, self.baseline])


def _band_model(p, k):
    """The band profile at parameters p = (f, k0, gamma, baseline) and its
    Jacobian with respect to p, shape k.shape + (4,)."""
    f, k0, gamma, base = p
    detune = k**2 - k0**2
    denom = detune**2 + (k * gamma) ** 2
    shape = k * gamma / denom  # d model / d f
    jac = np.empty(k.shape + (4,))
    jac[..., 0] = shape
    jac[..., 1] = 4.0 * f * shape * k0 * detune / denom
    jac[..., 2] = f * k * (detune**2 - (k * gamma) ** 2) / denom**2
    jac[..., 3] = 1.0
    return base + f * k * gamma / denom, jac


def fit_lorentzian_band(k, values, window=None, p0=None, max_nfev=2000):
    """Least-squares (f, k0, gamma, baseline) of a single absorption band.

    The segment should contain one dominant band; a large residual_rms
    signals that the single-oscillator model does not describe it.  The
    starting point comes from find_peaks when p0 is not given.  A window
    of fewer than 3 samples raises DomainError; non-convergence raises
    FitError carrying the best-so-far fit.
    """
    k, values = _windowed(k, values, window)
    if k.size < 3:
        where = "window" if window is not None else "spectrum"
        raise DomainError(f"{where} contains fewer than 3 samples")
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
    lower = np.array([0.0, k[0], 1e-12, -np.inf])
    upper = np.array([np.inf, k[-1], np.inf, np.inf])
    for name, value, lo, hi in zip(("f", "k0", "gamma", "baseline"), p0, lower, upper):
        _check_range(value, f"p0 {name}", ge=lo, le=hi)
    _check_range(max_nfev, "max_nfev", ge=1, integer=True)

    # imported here, like the coupled model's terms, so that a command that
    # only finds peaks loads no solver
    from ._lsq import least_squares

    def fun_jac(p):
        model, jac = _band_model(p, k)
        return model - values, jac

    res = least_squares(fun_jac, p0, lower, upper, ftol=1e-12, xtol=1e-12, max_nfev=max_nfev,
                        name="band fit")
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
    """Measured polariton branches versus angle."""

    rows: list[DispersionRow]
    channel: str

    def good_rows(self):
        return [r for r in self.rows if r.status == "ok"]


def build_dispersion(spectra, channel="T", window=None, min_prominence=None):
    """Peak-pair dispersion from a list of Spectrum at different angles.

    Angles where the peak finder does not return exactly two peaks are
    kept with a flag instead of failing the whole table."""
    rows = []
    for sp in spectra:
        peaks, rep = _channel_peaks(sp.k, sp.channel(channel), channel, window, min_prominence)
        if rep is None:
            rows.append(DispersionRow(sp.angle, None, None, f"peaks={len(peaks)}"))
        else:
            rows.append(DispersionRow(sp.angle, rep.omega_lower, rep.omega_upper, "ok"))
    return DispersionTable(rows=rows, channel=channel)


def _coupled_model(p, angles, order, n_ambient):
    """The RWA branches of anticrossing_dispersion at p = (omega_v, n_eff,
    thickness_nm, splitting), upper then lower, and their Jacobian with
    respect to p, shape (2 angles.size, 4)."""
    from .polariton import _branches, _cavity_modes

    omega_v, n_eff, d, split = p
    omega_c, cos2 = _cavity_modes(n_eff, d, order, angles, n_ambient)
    upper, lower, cos, sin = _branches(omega_c, omega_v, split)
    # row 0 the upper branch, row 1 the lower: d branch / d omega_c, and
    # the chain rule through omega_c(n_eff, d)
    sign = np.array([[1.0], [-1.0]])
    by_cavity = 0.5 * (1.0 + sign * cos)
    jac = np.stack([1.0 - by_cavity, by_cavity * (-omega_c / (n_eff * cos2)),
                    by_cavity * (-omega_c / d), 0.5 * sign * sin], axis=-1)
    return np.concatenate([upper, lower]), jac.reshape(-1, 4)


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


def fit_coupled_model(table, order=1, n_ambient=1.0, x0=None, max_nfev=2000):
    """Fit (omega_v, n_eff, d, Omega_R) of the coupled-mode dispersion to
    a measured DispersionTable; both branches enter the residual.  The
    search box comes from x0: omega_v in [0.5, 1.5] x0, n_eff in [1, 5],
    d in [0.2, 5] x0 and Omega_R in [0, 5 x0 + 10]; success needs
    convergence with every parameter strictly inside it."""
    rows = table.good_rows()
    if len(rows) < 4:
        raise FitError(f"need >= 4 usable dispersion rows, have {len(rows)}")
    angles = np.array([r.angle for r in rows])
    up = np.array([r.omega_upper for r in rows])
    lp = np.array([r.omega_lower for r in rows])
    measured = np.concatenate([up, lp])

    if x0 is None:
        i0 = int(np.argmin(np.abs(angles)))
        omega_v0 = float(lp.max())
        split0 = float((up - lp).min())
        omega_c0 = float(up[i0] + lp[i0] - omega_v0)
        n0 = 1.4
        d0 = 1e7 / (2.0 * n0 * omega_c0)
        x0 = [omega_v0, n0, d0, split0]
    if np.shape(x0) != (4,):
        raise DomainError("x0 must be (omega_v, n_eff, thickness, splitting)")
    _check_range(x0[0], "x0 omega_v", gt=0.0, unit="cm^-1")
    _check_range(x0[1], "x0 n_eff", ge=1.0, le=5.0)
    _check_range(x0[2], "x0 thickness", gt=0.0, unit="nm")
    _check_range(x0[3], "x0 splitting", ge=0.0, unit="cm^-1")
    _check_range(max_nfev, "max_nfev", ge=1, integer=True)

    from ._lsq import least_squares

    def fun_jac(p):
        branches, jac = _coupled_model(p, angles, order, n_ambient)
        return branches - measured, jac

    lo = np.array([x0[0] * 0.5, 1.0, x0[2] * 0.2, 0.0])
    hi = np.array([x0[0] * 1.5, 5.0, x0[2] * 5.0, x0[3] * 5.0 + 10.0])
    res = least_squares(fun_jac, x0, lo, hi, ftol=1e-10, max_nfev=max_nfev,
                        name="coupled-mode fit")
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
        success=bool(res.status > 0 and np.all((lo < res.x) & (res.x < hi))),
    )


def load_measured(path):
    """(k, values) of a two-column spectrum file, read by `vibropol.io`; a
    native k_cm1,T,R,A spectrum is a DomainError naming the file."""
    # imported here so that `import vibropol.spectra` does not load io,
    # json and tmm
    from .io import read_spectrum_csv

    data = read_spectrum_csv(path)
    if not isinstance(data, tuple):
        raise DomainError(f"{path}: a native k_cm1,T,R,A spectrum, not a two-column file")
    return data
