"""Shared stacks and helpers for the test suite."""

import numpy as np
import pytest
from hypothesis import strategies as st

from vibropol import (
    ConstantMedium,
    Layer,
    LayerStack,
    LorentzMedium,
    LorentzOscillator,
    gold,
)

N_BACKGROUND = 1.41
CO_BAND = dict(f=5.0e4, k0=1739.0, gamma=13.0)


def make_stack(oscillators, thickness=1930.0, substrate_mode="incoherent_to_air"):
    """Au 10 nm / polymer / Au 10 nm on Ge, polymer bands as given."""
    materials = {
        "pvac": LorentzMedium(
            eps_b=N_BACKGROUND**2,
            oscillators=tuple(LorentzOscillator(**o) for o in oscillators),
        ),
        "gold": gold(),
        "germanium": ConstantMedium(eps=16.0),
    }
    return LayerStack(
        materials=materials,
        layers=(
            Layer("gold", 10.0),
            Layer("pvac", thickness),
            Layer("gold", 10.0),
        ),
        substrate="germanium",
        n_ambient=1.0,
        substrate_mode=substrate_mode,
    )


def constant_stack(layered, substrate_mode="coherent"):
    """An edge shape of the stack kernel: no layers, or a lossy and a
    lossless layer, on Ge, every medium a ConstantMedium, so r and t stay
    Python scalars until a phase or the final broadcast puts them on k."""
    materials = {"film": ConstantMedium(eps=complex(2.25, 0.05)),
                 "spacer": ConstantMedium(eps=1.8), "germanium": ConstantMedium(eps=16.0)}
    layers = (Layer("film", 800.0), Layer("spacer", 120.0)) if layered else ()
    return LayerStack(materials=materials, layers=layers, substrate="germanium",
                      substrate_mode=substrate_mode)


@pytest.fixture(scope="session")
def coupled_stack():
    """Cavity tuned to the C=O stretch, that band alone."""
    return make_stack([CO_BAND])


@pytest.fixture(scope="session")
def uncoupled_stack():
    """Same cavity with the vibrational contribution deactivated."""
    return make_stack([])


@pytest.fixture(scope="session")
def coupled_spectrum(coupled_stack):
    from vibropol import SpectralGrid, spectrum_scan

    return spectrum_scan(coupled_stack, SpectralGrid(1400.0, 2100.0, 0.25))


@pytest.fixture(scope="session")
def lossless_cavity():
    """Symmetric all-dielectric cavity; every medium has Im eps = 0."""
    materials = {
        "mirror": ConstantMedium(eps=9.0),
        "core": ConstantMedium(eps=N_BACKGROUND**2),
        "air": ConstantMedium(eps=1.0),
    }
    return LayerStack(
        materials=materials,
        layers=(
            Layer("mirror", 150.0),
            Layer("core", 1930.0),
            Layer("mirror", 150.0),
        ),
        substrate="air",
        n_ambient=1.0,
        substrate_mode="coherent",
    )


def random_passive_stack(rng):
    """Random 1-4 layer stack; every medium passive, ambient lossless."""
    materials = {"sub": ConstantMedium(eps=float(rng.uniform(1.0, 20.0)))}
    layers = []
    for i in range(rng.integers(1, 5)):
        name = f"m{i}"
        kind = rng.integers(0, 3)
        if kind == 0:
            materials[name] = ConstantMedium(
                eps=complex(rng.uniform(1.0, 18.0), rng.uniform(0.0, 6.0))
            )
        elif kind == 1:
            oscillators = tuple(
                LorentzOscillator(
                    f=float(rng.uniform(0.0, 8.0e4)),
                    k0=float(rng.uniform(800.0, 3500.0)),
                    gamma=float(rng.uniform(5.0, 80.0)),
                )
                for _ in range(rng.integers(1, 4))
            )
            materials[name] = LorentzMedium(
                eps_b=float(rng.uniform(1.0, 4.0)), oscillators=oscillators
            )
        else:
            materials[name] = gold(damping_multiplier=float(rng.uniform(1.0, 4.0)))
        layers.append(Layer(name, float(rng.uniform(5.0, 2500.0))))
    return LayerStack(
        materials=materials,
        layers=tuple(layers),
        substrate="sub",
        n_ambient=float(rng.uniform(1.0, 2.0)),
        substrate_mode="coherent" if rng.integers(0, 2) else "incoherent_to_air",
    )


def local_maxima(z, intensity, z_lo, z_hi):
    """Indices of strict interior maxima of intensity within [z_lo, z_hi]."""
    mask = (z > z_lo) & (z < z_hi)
    zi = z[mask]
    yi = intensity[mask]
    hit = (yi[1:-1] > yi[:-2]) & (yi[1:-1] > yi[2:])
    return zi[1:-1][hit], yi[1:-1][hit]


# Hard regimes for the stack solver: micrometre-thick lossy layers,
# epsilon-near-zero media, low-index layers and substrates under a dense
# ambient (evanescent waves and total internal reflection) and angles up
# to 89.9 degrees.
THICK_GOLD_NM = 20000.0


@st.composite
def hard_media(draw):
    kind = draw(st.sampled_from(["thick_lossy", "gold", "enz", "low_index", "dielectric"]))
    if kind == "thick_lossy":
        eps = ConstantMedium(eps=complex(draw(st.floats(-50.0, 20.0)), draw(st.floats(0.5, 60.0))))
        return eps, draw(st.floats(2000.0, 100000.0))
    if kind == "gold":
        return gold(draw(st.floats(1.0, 4.0))), draw(st.floats(5.0, 50000.0))
    if kind == "enz":
        eps = complex(draw(st.floats(-0.02, 0.02)), draw(st.floats(1e-6, 0.02)))
        return ConstantMedium(eps=eps), draw(st.floats(5.0, 5000.0))
    if kind == "low_index":
        return ConstantMedium(eps=draw(st.floats(1.0, 2.0))), draw(st.floats(5.0, 20000.0))
    return ConstantMedium(eps=draw(st.floats(1.0, 18.0))), draw(st.floats(5.0, 5000.0))


@st.composite
def hard_stacks(draw, coherent=False):
    """(stack, angle) in the hard regimes; the ambient is lossless."""
    n_ambient = draw(st.floats(1.0, 4.0))
    materials = {"sub": ConstantMedium(eps=draw(st.floats(1.0, 20.0)))}
    layers = []
    for i in range(draw(st.integers(0, 4))):
        model, thickness = draw(hard_media())
        materials[f"m{i}"] = model
        layers.append(Layer(f"m{i}", thickness))
    mode = "coherent" if coherent else draw(st.sampled_from(["coherent", "incoherent_to_air"]))
    stack = LayerStack(
        materials=materials, layers=tuple(layers), substrate="sub",
        n_ambient=n_ambient, substrate_mode=mode,
    )
    angle = draw(st.one_of(st.floats(-89.9, 89.9), st.floats(85.0, 89.9)))
    return stack, angle
