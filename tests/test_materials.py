"""Dielectric models: frozen reference values, passivity, branch choice,
and the parameters the models square kept below the square root of the
largest float."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vibropol import (
    BoundTransition,
    ConstantMedium,
    DomainError,
    DrudeLorentzMetal,
    LorentzMedium,
    LorentzOscillator,
    cm1_to_ev,
    ev_to_cm1,
    gold,
    refractive_index,
)

CO = LorentzMedium(eps_b=1.41**2, oscillators=(LorentzOscillator(5.0e4, 1739.0, 13.0),))


class TestLorentz:
    def test_on_resonance_reference_value(self):
        eps = CO.epsilon(1739.0)
        assert eps == pytest.approx(1.9881 + 2.2117j, abs=1e-4)

    def test_on_resonance_imag_is_f_over_k0_gamma(self):
        # at k = k0 the oscillator term collapses to i f/(k0 gamma)
        eps = CO.epsilon(1739.0)
        assert eps.imag == pytest.approx(5.0e4 / (1739.0 * 13.0), rel=1e-14)
        assert eps.real == pytest.approx(1.41**2, rel=1e-14)

    def test_far_above_resonance_returns_background(self):
        assert abs(CO.epsilon(1.0e6) - 1.41**2) < 1e-6

    def test_zero_strength_is_background_everywhere(self):
        medium = LorentzMedium(eps_b=2.25, oscillators=(LorentzOscillator(0.0, 1200.0, 20.0),))
        k = np.linspace(400.0, 7400.0, 701)
        np.testing.assert_allclose(medium.epsilon(k), 2.25, rtol=0, atol=0)

    def test_imag_fwhm_equals_gamma(self):
        k = np.arange(1600.0, 1900.0, 0.01)
        im = CO.epsilon(k).imag
        half = im.max() / 2.0
        above = np.flatnonzero(im >= half)
        lo, hi = above[0], above[-1]
        # linear interpolation at both half-maximum crossings
        k_lo = np.interp(half, [im[lo - 1], im[lo]], [k[lo - 1], k[lo]])
        k_hi = np.interp(half, [im[hi + 1], im[hi]], [k[hi + 1], k[hi]])
        assert k_hi - k_lo == pytest.approx(13.0, abs=0.01)

    def test_rejects_nonpositive_wavenumber(self):
        for bad in (0.0, -5.0):
            with pytest.raises(DomainError):
                CO.epsilon(bad)
        with pytest.raises(DomainError):
            CO.epsilon(np.array([1000.0, -1.0]))

    def test_invariants_enforced(self):
        with pytest.raises(DomainError):
            LorentzOscillator(-1.0, 1739.0, 13.0)
        with pytest.raises(DomainError):
            LorentzOscillator(1.0, 0.0, 13.0)
        with pytest.raises(DomainError):
            LorentzOscillator(1.0, 1739.0, 0.0)
        with pytest.raises(DomainError):
            LorentzMedium(eps_b=0.8, oscillators=())


class TestDrudeLorentz:
    def test_gold_mid_ir_regression(self):
        eps = gold().epsilon(1740.0)
        # frozen after cross-checking the free-electron-dominated value
        assert eps == pytest.approx(-977.9443314269037 + 582.6848702348243j, rel=1e-12)
        assert eps.real < -500.0
        assert eps.imag > 100.0

    def test_gamma_total_is_multiplied(self):
        metal = gold()
        assert metal.gamma_total == pytest.approx(0.125, rel=1e-12)

    def test_vacuum_limit(self):
        metal = DrudeLorentzMetal(
            f0=0.0,
            bound=(BoundTransition(f=0.0, gamma=0.24, omega0=0.41),),
        )
        k = np.array([500.0, 1740.0, 6000.0])
        np.testing.assert_allclose(metal.epsilon(k), 1.0, rtol=0, atol=0)

    def test_larger_multiplier_increases_loss(self):
        # Drude loss grows with damping only while Gamma_tot < omega,
        # i.e. above ~1010 cm^-1 for these values; test the mid-IR band
        k = np.linspace(1100.0, 7400.0, 64)
        im_low = gold(damping_multiplier=1.0).epsilon(k).imag
        im_high = gold(damping_multiplier=2.5).epsilon(k).imag
        assert np.all(im_high > im_low)

    def test_passive_over_mid_ir(self):
        k = np.linspace(400.0, 7400.0, 1401)
        assert np.all(gold().epsilon(k).imag >= 0.0)

    def test_multiplier_below_one_rejected(self):
        with pytest.raises(DomainError):
            gold(damping_multiplier=0.5)

    def test_rejects_nonpositive_wavenumber(self):
        with pytest.raises(DomainError):
            gold().epsilon(-10.0)


class TestRefractiveIndex:
    def test_real_background(self):
        n = refractive_index(1.41**2)
        assert n == pytest.approx(1.41, rel=1e-12)
        assert n.imag == 0.0

    def test_negative_real_axis(self):
        assert refractive_index(-1.0 + 0.0j) == pytest.approx(1j, abs=1e-15)

    def test_model_dispatch_matches_epsilon(self):
        k = np.array([1000.0, 1739.0, 2500.0])
        n = refractive_index(CO, k)
        np.testing.assert_allclose(n**2, CO.epsilon(k), rtol=1e-12)

    @given(
        re=st.floats(-50.0, 50.0),
        im=st.floats(0.0, 50.0),
    )
    def test_branch_and_round_trip(self, re, im):
        eps = complex(re, im)
        n = refractive_index(eps)
        assert n.imag >= 0.0
        assert n.real >= 0.0
        assert n * n == pytest.approx(eps, rel=1e-12, abs=1e-12)


def three_line_index(eps):
    """The branch rule refractive_index was first written with."""
    n = np.sqrt(np.asarray(eps, dtype=complex))
    n = np.where(n.imag < 0.0, -n, n)
    return np.where((n.imag == 0.0) & (n.real < 0.0), -n, n)


# finite doubles of every sign and magnitude, with both zeros spelled out
_PARTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                   st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300)
@given(parts=st.lists(st.tuples(_PARTS, _PARTS), min_size=1, max_size=20))
def test_index_branch_is_bitwise_the_three_line_rule(parts):
    eps = np.array([complex(re, im) for re, im in parts])
    n = refractive_index(eps)
    assert n.tobytes() == three_line_index(eps).tobytes()
    for e in eps:
        one = refractive_index(e)
        assert type(one) is np.ndarray and one.shape == ()
        assert one.tobytes() == three_line_index(e).tobytes()


@settings(max_examples=60)
@given(
    f=st.floats(0.0, 1.0e5),
    k0=st.floats(500.0, 4000.0),
    gamma=st.floats(1.0, 200.0),
    eps_b=st.floats(1.0, 12.0),
    k=st.floats(1.0, 1.0e4),
)
def test_lorentz_passivity(f, k0, gamma, eps_b, k):
    medium = LorentzMedium(eps_b=eps_b, oscillators=(LorentzOscillator(f, k0, gamma),))
    eps = medium.epsilon(k)
    assert eps.imag >= 0.0
    assert refractive_index(eps).imag >= 0.0


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda v: DrudeLorentzMetal(omega_p=v), "plasma energy omega_p"),
        (lambda v: LorentzMedium(2.0, (LorentzOscillator(1.0, v, 1.0),)),
         "oscillator center k0"),
        (lambda v: BoundTransition(1.0, 1.0, v), "bound transition center omega0"),
    ],
    ids=["omega_p", "k0", "omega0"],
)
def test_a_parameter_whose_square_overflows_is_a_domain_error(build, name):
    # Python's float ** raises OverflowError where numpy would give inf
    largest = math.sqrt(sys.float_info.max)
    build(largest)
    for value in (math.nextafter(largest, math.inf), 1e300):
        with pytest.raises(DomainError, match=f"^{name} must be finite and > 0 and <= "):
            build(value)


def test_constant_medium_requires_passive():
    with pytest.raises(DomainError):
        ConstantMedium(eps=complex(2.0, -0.1))


def test_refractive_index_of_a_model_needs_wavenumbers():
    with pytest.raises(DomainError, match="needs wavenumbers"):
        refractive_index(gold())


def test_unit_conversion_identity():
    for ev in (0.01, 0.2157, 1.0, 6.5):
        assert cm1_to_ev(ev_to_cm1(ev)) == pytest.approx(ev, rel=1e-12)
    assert ev_to_cm1(1.0) == pytest.approx(8065.54, rel=0, abs=0)
