"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line with the measured values so a test
log doubles as a results table.  Tolerances are fixed here, not tuned.
"""

import math
import time

import numpy as np
import pytest

from vibropol import (
    ConstantMedium,
    FitProblem,
    FreeParameter,
    Layer,
    LayerStack,
    SpectralGrid,
    apply_params,
    bond_density,
    build_dispersion,
    coupled_frequencies,
    dephasing_time,
    effective_concentration,
    extract_splitting,
    field_profile,
    find_peaks,
    fit_coupled_model,
    loss_gradient,
    loss_value,
    mev_to_cm1,
    model_values,
    quality_factor,
    single_coupling,
    solve,
    spectrum_scan,
    stack_response,
    thermal_occupation,
    vacuum_field,
)
from vibropol.polariton import CavityMode

from conftest import CO_BAND, make_stack, random_passive_stack, local_maxima
from test_tmm import airy_slab_TR, bare_interface

MODULE_T0 = time.time()

# polymer absorption bands: the C=O stretch plus four weaker mid-IR bands
# (representative strengths, not fitted values)
ALL_BANDS = [
    CO_BAND,
    dict(f=1.2e4, k0=1435.0, gamma=18.0),
    dict(f=0.9e4, k0=1373.0, gamma=14.0),
    dict(f=3.0e4, k0=1240.0, gamma=22.0),
    dict(f=2.6e4, k0=1022.0, gamma=20.0),
]

WINDOW = (1500.0, 2000.0)


@pytest.fixture
def report(capsys):
    def _emit(ok, label, detail):
        with capsys.disabled():
            print(f"ACCEPTANCE {label} {'PASS' if ok else 'FAIL'}: {detail}")

    return _emit


def test_criterion_1_transmission_splitting(report):
    t0 = time.time()
    stack = make_stack([CO_BAND])
    spectrum = spectrum_scan(stack, SpectralGrid(1400.0, 2100.0, 0.25))
    rep = extract_splitting(spectrum, "T", window=WINDOW)
    elapsed = time.time() - t0
    ok = abs(rep.splitting_cm1 - 167.0) <= 5.0 and elapsed < 10.0
    report(
        ok,
        "1",
        f"transmission splitting {rep.splitting_cm1:.2f} cm^-1 (167 +- 5), "
        f"runtime {elapsed:.2f} s (< 10 s)",
    )
    assert ok


def test_criterion_2_channel_splittings(report):
    stack = make_stack(ALL_BANDS)
    spectrum = spectrum_scan(stack, SpectralGrid(1400.0, 2100.0, 0.25))
    s_t = extract_splitting(spectrum, "T", window=WINDOW).splitting_cm1
    s_a = extract_splitting(spectrum, "A", window=WINDOW).splitting_cm1
    s_r = extract_splitting(spectrum, "R", window=WINDOW).splitting_cm1
    ratio = s_t / s_a
    ok = (
        abs(s_a - 162.0) <= 5.0
        and abs(s_r - 161.0) <= 5.0
        and 1.00 <= ratio <= 1.06
    )
    report(
        ok,
        "2",
        f"splittings A {s_a:.2f} (162 +- 5), R {s_r:.2f} (161 +- 5) cm^-1, "
        f"T/A {ratio:.4f} (within [1.00, 1.06])",
    )
    assert ok


def test_criterion_3_uncoupled_cavity(report):
    stack = make_stack([])
    spectrum = spectrum_scan(stack, SpectralGrid(1400.0, 2100.0, 0.25))
    peaks = find_peaks(spectrum.k, spectrum.T, window=WINDOW)
    one_peak = len(peaks) == 1
    center, fwhm = peaks[0].center, peaks[0].fwhm
    center_ok = abs(center - 1740.0) <= 40.0
    fwhm_ok = abs(fwhm - 137.0) <= 0.25 * 137.0

    high = spectrum_scan(stack, SpectralGrid(3000.0, 4000.0, 0.25))
    mode2 = find_peaks(high.k, high.T)
    mode2_ok = len(mode2) == 1 and abs(mode2[0].center - 3500.0) <= 150.0
    z = np.arange(-100.0, 2060.0, 2.0)
    prof = field_profile(stack, mode2[0].center, z=z)
    z_max, _ = local_maxima(z, prof.intensity, 10.0, 1940.0)
    two_maxima = len(z_max) == 2

    ok = one_peak and center_ok and fwhm_ok and mode2_ok and two_maxima
    report(
        ok,
        "3",
        f"uncoupled peak {center:.1f} cm^-1 (1740 +- 40), FWHM {fwhm:.1f} cm^-1 "
        f"(137 +- 25%), second mode {mode2[0].center:.1f} cm^-1 (3500 +- 150) "
        f"with {len(z_max)} field maxima (need 2)",
    )
    assert ok


def test_criterion_4_anticrossing(report):
    stack = make_stack([CO_BAND])
    angles = np.arange(0.0, 61.0, 5.0)
    grid = SpectralGrid(1400.0, 2300.0, 0.5)
    spectra = [spectrum_scan(stack, grid, angle=a) for a in angles]
    table = build_dispersion(spectra, window=(1450.0, 2250.0))
    rows = table.good_rows()
    sep = np.array([r.omega_upper - r.omega_lower for r in rows])
    sep0 = sep[0]
    i_min = int(np.argmin(sep))
    min_near_zero = rows[i_min].angle <= 10.0
    min_within = sep.min() >= 0.9 * sep0

    fit = fit_coupled_model(table)
    omega_ok = abs(fit.omega_v - 1739.0) <= 10.0

    ok = len(rows) == len(angles) and min_near_zero and min_within and omega_ok
    report(
        ok,
        "4",
        f"minimum separation {sep.min():.2f} cm^-1 at {rows[i_min].angle:.0f} deg "
        f"(0 deg value {sep0:.2f}, within 10%), fitted omega_v {fit.omega_v:.1f} cm^-1 "
        f"(1739 +- 10)",
    )
    assert ok


def test_criterion_5_scalar_estimators(report):
    n_v = thermal_occupation(mev_to_cm1(215.0), 300.0)
    rho = bond_density(1.18, 86.09)
    cavity = CavityMode(omega_cm1=1740.0)
    g1 = single_coupling(1.0, 1740.0, cavity.volume_m3)
    e_vac = vacuum_field(1740.0, cavity.volume_m3)
    q_v = quality_factor(215.0, 3.2)
    rho_c = effective_concentration(20.7e-3, 0.131e-6, cavity.volume_m3)
    tau_up = dephasing_time(2.86)
    tau_lp = dephasing_time(1.50)

    checks = {
        "n_v": abs(n_v - 2.4e-4) <= 0.05 * 2.4e-4,
        "rho": abs(rho - 8.25e21) <= 0.005 * 8.25e21,
        "single": 0.05e-6 <= g1 <= 0.2e-6,
        "E_vac": abs(e_vac - 6.3e3) <= 0.30 * 6.3e3,
        "Q_v": 65.0 <= q_v <= 70.0,
        "rho_C": 0.5 <= rho_c / 4.4e20 <= 2.0,
        "tau_up": abs(tau_up - 0.23) <= 0.01,
        "tau_lp": abs(tau_lp - 0.44) <= 0.02,
    }
    ok = all(checks.values())
    report(
        ok,
        "5",
        f"n_v {n_v:.3e} (2.4e-4 +- 5%), rho {rho:.3e} (8.25e21 +- 0.5%), "
        f"g(1 D) {g1 * 1e6:.3f} ueV (in [0.05, 0.2]), E_vac {e_vac:.0f} V/m "
        f"(6.3e3 +- 30%), Q_v {q_v:.1f} (in [65, 70]), rho_C/4.4e20 "
        f"{rho_c / 4.4e20:.2f} (in [0.5, 2]), tau {tau_up:.3f}/{tau_lp:.3f} ps "
        f"(0.23 +- 0.01 / 0.44 +- 0.02)"
        + ("" if ok else f"; failed: {[k for k, v in checks.items() if not v]}"),
    )
    assert ok


def test_criterion_6a_fresnel_airy(report):
    k = np.linspace(400.0, 7400.0, 701)
    iface = bare_interface()
    T, R, _ = stack_response(iface, k, 0.0, "s")
    fresnel_err = max(np.abs(T - 0.64).max(), np.abs(R - 0.36).max())

    n_f, d_f = 1.8, 1200.0
    slab = LayerStack(
        materials={"film": ConstantMedium(eps=n_f**2), "air": ConstantMedium(eps=1.0)},
        layers=(Layer("film", d_f),),
        substrate="air",
        substrate_mode="coherent",
    )
    T_s, R_s, _ = stack_response(slab, k, 0.0, "s")
    T_ref, R_ref = airy_slab_TR(n_f, d_f, k)
    airy_err = max(np.abs(T_s - T_ref).max(), np.abs(R_s - R_ref).max())

    ok = fresnel_err <= 1e-8 and airy_err <= 1e-8
    report(
        ok,
        "6a",
        f"Fresnel deviation {fresnel_err:.2e}, Airy deviation {airy_err:.2e} (<= 1e-8)",
    )
    assert ok


def test_criterion_6b_energy_conservation(report):
    rng = np.random.default_rng(2026)
    k = np.linspace(600.0, 6000.0, 8)
    worst_sum = 0.0
    worst_bound = 0.0
    worst_lossless = 0.0
    for i in range(1000):
        angle = float(rng.uniform(0.0, 80.0))
        pol = ("s", "p")[int(rng.integers(0, 2))]
        stack = random_passive_stack(rng)
        T, R, A = stack_response(stack, k, angle, pol)
        worst_sum = max(worst_sum, np.abs(T + R + A - 1.0).max())
        worst_bound = max(
            worst_bound,
            float((-T).max()), float((-R).max()), float((-A).max()),
            float((T - 1.0).max()), float((R - 1.0).max()), float((A - 1.0).max()),
        )
        if i < 500:
            # lossless counterpart: real constant media, coherent exit
            materials = {"sub": ConstantMedium(eps=float(rng.uniform(1.0, 16.0)))}
            layers = []
            for j in range(int(rng.integers(1, 4))):
                materials[f"c{j}"] = ConstantMedium(eps=float(rng.uniform(1.0, 16.0)))
                layers.append(Layer(f"c{j}", float(rng.uniform(10.0, 2000.0))))
            lossless = LayerStack(
                materials=materials, layers=tuple(layers), substrate="sub",
                n_ambient=1.0, substrate_mode="coherent",
            )
            _, _, A_ll = stack_response(lossless, k, angle, pol)
            worst_lossless = max(worst_lossless, np.abs(A_ll).max())
    ok = worst_sum <= 1e-12 and worst_bound <= 1e-12 and worst_lossless <= 1e-10
    report(
        ok,
        "6b",
        f"1000 random stacks: max |T+R+A-1| {worst_sum:.2e} (<= 1e-12), "
        f"channel bound excess {worst_bound:.2e}, lossless max |A| "
        f"{worst_lossless:.2e} (<= 1e-10)",
    )
    assert ok


def test_criterion_6c_coupled_mode_oracle(report):
    rng = np.random.default_rng(2027)
    worst = 0.0
    for _ in range(100):
        wc = float(rng.uniform(800.0, 4000.0))
        wv = float(rng.uniform(800.0, 4000.0))
        om = float(rng.uniform(0.0, 0.3)) * min(wc, wv)
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
        worst = max(
            worst,
            abs(res.omega_lower - freqs[0]) / freqs[0],
            abs(res.omega_upper - freqs[1]) / freqs[1],
        )
    ok = worst <= 1e-9
    report(ok, "6c", f"100 random triples vs quadrature eigvals: worst {worst:.2e} (<= 1e-9)")
    assert ok


TRUTH = {
    "layers[1].thickness": 1930.0,
    "materials.pvac.oscillators[0].f": 5.0e4,
    "materials.pvac.oscillators[0].gamma": 13.0,
    "materials.gold.damping_multiplier": 2.5,
}
BOUNDS = {
    "layers[1].thickness": (1500.0, 2500.0),
    "materials.pvac.oscillators[0].f": (1.0e4, 1.0e5),
    "materials.pvac.oscillators[0].gamma": (5.0, 40.0),
    "materials.gold.damping_multiplier": (1.0, 4.0),
}


def four_parameter_problem():
    truth_stack = make_stack([CO_BAND])
    k = np.arange(1600.0, 1900.0, 2.0)
    probe = FitProblem(stack=truth_stack, free=(), k=k, target=np.zeros_like(k))
    target = model_values(probe, np.empty(0))
    template = apply_params(truth_stack, {p: 1.1 * v for p, v in TRUTH.items()})
    free = tuple(FreeParameter(p, *BOUNDS[p]) for p in TRUTH)
    return FitProblem(stack=template, free=free, k=k, target=target)


def test_criterion_6d_fit_round_trip(report):
    problem = four_parameter_problem()
    result = solve(problem)
    errors = {p: abs(result.params[p] - v) / v for p, v in TRUTH.items()}
    ok = result.success and max(errors.values()) <= 0.02 and result.loss < 1e-8
    report(
        ok,
        "6d",
        f"4-parameter round trip: worst recovery error "
        f"{100.0 * max(errors.values()):.4f}% (<= 2%), loss {result.loss:.2e} (< 1e-8)",
    )
    assert ok


def test_criterion_6e_gradient_check(report):
    problem = four_parameter_problem()
    values = np.array([1.1 * TRUTH[p.path] for p in problem.free])
    grad = loss_gradient(problem, values)
    worst = 0.0
    for i, p in enumerate(problem.free):
        h = 1e-5 * (p.upper - p.lower)
        up = values.copy()
        up[i] += h
        dn = values.copy()
        dn[i] -= h
        central = (loss_value(problem, up) - loss_value(problem, dn)) / (2.0 * h)
        worst = max(worst, abs(grad[i] - central) / max(abs(central), 1e-12))
    ok = worst <= 1e-4
    report(ok, "6e", f"loss gradient vs central difference: worst {worst:.2e} (<= 1e-4)")
    assert ok


def test_criterion_6f_grid_convergence(report):
    stack = make_stack([CO_BAND])
    splits = []
    for step in (1.0, 0.5, 0.25):
        sp = spectrum_scan(stack, SpectralGrid(1400.0, 2100.0, step))
        splits.append(extract_splitting(sp, "T", window=WINDOW).splitting_cm1)
    variation = max(splits) - min(splits)
    ok = variation < 1.0
    report(
        ok,
        "6f",
        f"splitting over steps 1/0.5/0.25: "
        f"{splits[0]:.3f}/{splits[1]:.3f}/{splits[2]:.3f} cm^-1, "
        f"variation {variation:.4f} (< 1)",
    )
    assert ok


def test_criterion_6_runtime(report):
    elapsed = time.time() - MODULE_T0
    ok = elapsed < 300.0
    report(ok, "6", f"oracle suites completed in {elapsed:.1f} s (< 300 s)")
    assert ok
