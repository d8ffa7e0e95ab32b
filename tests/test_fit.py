"""Parameter paths, residuals, the exact Jacobian and bounded
least-squares fitting."""

import dataclasses
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vibropol import (
    ConstantMedium,
    DomainError,
    DrudeLorentzMetal,
    FreeParameter,
    FitProblem,
    Layer,
    LayerStack,
    apply_params,
    gold,
    load_config,
    loss_gradient,
    loss_value,
    model_values,
    residual_vector,
    solve,
    stack_response,
)
from vibropol import fit, tmm
from vibropol.fit import _locate

from conftest import make_stack, CO_BAND, constant_stack, hard_stacks

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def small_problem(stack, free, channel="T", target=None):
    k = np.arange(1600.0, 1900.0, 2.0)
    if target is None:
        probe = FitProblem(stack=stack, free=(), k=k, target=np.zeros_like(k))
        target = model_values(probe, np.empty(0))
    return FitProblem(stack=stack, free=tuple(free), k=k, target=target, channel=channel)


class TestApplyParams:
    def test_layer_thickness(self, coupled_stack):
        new = apply_params(coupled_stack, {"layers[1].thickness": 2000.0})
        assert new.layers[1].thickness == 2000.0
        assert coupled_stack.layers[1].thickness == 1930.0  # template untouched
        assert new.layers[0].thickness == 10.0

    def test_oscillator_fields(self, coupled_stack):
        new = apply_params(
            coupled_stack,
            {
                "materials.pvac.oscillators[0].f": 6.0e4,
                "materials.pvac.oscillators[0].k0": 1700.0,
                "materials.pvac.oscillators[0].gamma": 20.0,
            },
        )
        osc = new.materials["pvac"].oscillators[0]
        assert (osc.f, osc.k0, osc.gamma) == (6.0e4, 1700.0, 20.0)
        old = coupled_stack.materials["pvac"].oscillators[0]
        assert (old.f, old.k0, old.gamma) == (CO_BAND["f"], CO_BAND["k0"], CO_BAND["gamma"])

    def test_background_and_metal_fields(self, coupled_stack):
        new = apply_params(
            coupled_stack,
            {"materials.pvac.eps_b": 2.25, "materials.gold.damping_multiplier": 3.0},
        )
        assert new.materials["pvac"].eps_b == 2.25
        assert new.materials["gold"].damping_multiplier == 3.0

    def test_constant_medium_keeps_imaginary_part(self):
        stack = LayerStack(
            materials={"film": ConstantMedium(eps=complex(4.0, 0.5)),
                       "sub": ConstantMedium(eps=2.25)},
            layers=(Layer("film", 500.0),),
            substrate="sub",
            substrate_mode="coherent",
        )
        assert _locate(stack, "materials.film.eps")[0] == 4.0
        new = apply_params(stack, {"materials.film.eps": 9.0})
        assert new.materials["film"].eps == complex(9.0, 0.5)
        assert _locate(new, "materials.film.eps")[0] == 9.0

    def test_rejected_paths(self, coupled_stack):
        k = np.arange(1600.0, 1900.0, 2.0)
        bad = [
            "layers[9].thickness",
            "materials.pvac.oscillators[5].f",
            "materials.gold.oscillators[0].f",
            "materials.nosuch.eps_b",
            "materials.pvac.nonsense",
            "layers[1].wat",
            "thickness",
            # attributes that are not parameters: a property, containers
            # and a method
            "materials.gold.gamma_total",
            "materials.pvac.oscillators",
            "materials.gold.bound",
            "materials.pvac.epsilon",
            # an index with a leading zero would alias layers[1]
            "layers[01].thickness",
        ]
        for path in bad:
            with pytest.raises(DomainError):
                apply_params(coupled_stack, {path: 1.0})
            with pytest.raises(DomainError):
                FitProblem(
                    stack=coupled_stack,
                    free=(FreeParameter(path, 0.5, 2.0),),
                    k=k,
                    target=np.zeros_like(k),
                )

    @pytest.mark.parametrize(
        "path, value",
        [
            ("layers[1].thickness", 2000.0),
            ("materials.pvac.oscillators[0].f", 6.0e4),
            ("materials.pvac.oscillators[0].k0", 1700.0),
            ("materials.pvac.oscillators[0].gamma", 20.0),
            ("materials.pvac.eps_b", 2.25),
            ("materials.gold.omega_p", 8.5),
            ("materials.gold.f0", 0.7),
            ("materials.gold.gamma0", 0.06),
            ("materials.gold.damping_multiplier", 3.0),
        ],
    )
    def test_read_after_write(self, coupled_stack, path, value):
        before = _locate(coupled_stack, path)[0]
        assert before != value
        new = apply_params(coupled_stack, {path: value})
        assert _locate(new, path)[0] == value
        assert _locate(coupled_stack, path)[0] == before


class TestProblem:
    def test_paths_validated_at_construction(self, coupled_stack):
        k = np.arange(1600.0, 1900.0, 2.0)
        with pytest.raises(DomainError):
            FitProblem(
                stack=coupled_stack,
                free=(FreeParameter("materials.pvac.oscillators[3].f", 0.0, 1.0),),
                k=k,
                target=np.zeros_like(k),
            )

    def test_duplicate_paths_rejected(self, coupled_stack):
        k = np.arange(1600.0, 1900.0, 2.0)
        free = (
            FreeParameter("layers[1].thickness", 1500.0, 2500.0),
            FreeParameter("materials.pvac.eps_b", 1.5, 2.5),
            FreeParameter("layers[1].thickness", 1800.0, 2000.0),
        )
        with pytest.raises(DomainError, match=r"'layers\[1\]\.thickness'"):
            FitProblem(stack=coupled_stack, free=free, k=k, target=np.zeros_like(k))

    @pytest.mark.parametrize(
        "free, bound",
        [
            (FreeParameter("materials.pvac.oscillators[0].gamma", -10.0, 40.0), "lower"),
            (FreeParameter("layers[1].thickness", 0.0, 2500.0), "lower"),
            (FreeParameter("materials.pvac.eps_b", 0.5, 2.5), "lower"),
            (FreeParameter("materials.gold.damping_multiplier", 0.5, 3.0), "lower"),
            (FreeParameter("materials.germanium.eps", -1.0, 0.0), "upper"),
        ],
        ids=lambda case: getattr(case, "path", case),
    )
    def test_bounds_checked_against_the_domain(self, coupled_stack, free, bound):
        k = np.arange(1600.0, 1900.0, 2.0)
        with pytest.raises(DomainError, match=rf"{bound} bound .* of '{re.escape(free.path)}'"):
            FitProblem(stack=coupled_stack, free=(free,), k=k, target=np.zeros_like(k))

    def test_grid_and_channel_validation(self, coupled_stack):
        k = np.arange(1600.0, 1900.0, 2.0)
        with pytest.raises(DomainError):
            FitProblem(stack=coupled_stack, free=(), k=k[::-1], target=np.zeros_like(k))
        with pytest.raises(DomainError):
            FitProblem(stack=coupled_stack, free=(), k=k, target=np.zeros(5))
        with pytest.raises(DomainError):
            FitProblem(
                stack=coupled_stack, free=(), k=k, target=np.zeros_like(k), channel="X"
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["k", "target"])
    def test_non_finite_inputs_rejected(self, coupled_stack, field, bad):
        k = np.arange(1600.0, 1900.0, 2.0)
        inputs = {"k": k, "target": np.zeros_like(k)}
        inputs[field] = inputs[field].copy()
        inputs[field][5] = bad
        with pytest.raises(DomainError, match=rf"^fit {field} must hold finite values"):
            FitProblem(
                stack=coupled_stack,
                free=(FreeParameter("layers[1].thickness", 1500.0, 2500.0),),
                **inputs,
            )

    def test_params_dict_requires_matching_length(self, coupled_stack):
        problem = small_problem(
            coupled_stack, [FreeParameter("layers[1].thickness", 1500.0, 2500.0)]
        )
        assert problem.params_dict([1930.0]) == {"layers[1].thickness": 1930.0}
        with pytest.raises(DomainError):
            problem.params_dict([1.0, 2.0])

    # a FitProblem is mutable: solve and loss_gradient check it again as it
    # is now and raise the constructor's error
    @pytest.mark.parametrize("n_free", [0, 1])
    @pytest.mark.parametrize(
        "field, message",
        [("k", "k and target must be 1-D arrays of equal length"),
         ("target", "fit target must hold finite values only")],
        ids=["k", "target"],
    )
    def test_fields_changed_after_construction_are_checked(self, coupled_stack, field,
                                                           message, n_free):
        free = [FreeParameter("layers[1].thickness", 1500.0, 2500.0)][:n_free]
        problem = small_problem(coupled_stack, free)
        if field == "k":
            problem.k = problem.k[:10]
        else:
            problem.target = np.full_like(problem.k, math.nan)
        with pytest.raises(DomainError, match=f"^{message}$"):
            solve(problem)
        if n_free:
            with pytest.raises(DomainError, match=f"^{message}$"):
                loss_gradient(problem, [1930.0])

    # model_values, residual_vector and loss_value evaluate through the same
    # plan as solve, so they raise the constructor's error too
    @pytest.mark.parametrize("evaluate", [model_values, residual_vector, loss_value])
    @pytest.mark.parametrize("n_free", [0, 1])
    @pytest.mark.parametrize(
        "field, message",
        [("k", "k and target must be 1-D arrays of equal length"),
         ("target", "fit target must hold finite values only")],
        ids=["k", "target"],
    )
    def test_single_evaluations_check_a_changed_problem(self, coupled_stack, field, message,
                                                         n_free, evaluate):
        free = [FreeParameter("layers[1].thickness", 1500.0, 2500.0)][:n_free]
        problem = small_problem(coupled_stack, free)
        if field == "k":
            problem.k = problem.k[:10]
        else:
            problem.target = np.full_like(problem.k, math.nan)
        with pytest.raises(DomainError, match=f"^{message}$"):
            evaluate(problem, [1930.0][:n_free])

    def test_problem_checked_once_per_solve(self, coupled_stack, monkeypatch):
        problem = small_problem(
            coupled_stack, [FreeParameter("layers[1].thickness", 1500.0, 2500.0)]
        )
        problem.target = problem.target * 0.9
        checks = []
        post_init = FitProblem.__post_init__

        def counting(self):
            checks.append(1)
            post_init(self)

        monkeypatch.setattr(FitProblem, "__post_init__", counting)
        result = solve(problem, n_starts=2)
        assert result.n_evaluations > 2
        assert len(checks) == 1

    def test_bound_validation(self):
        with pytest.raises(DomainError):
            FreeParameter("layers[1].thickness", 2.0, 1.0)
        with pytest.raises(DomainError):
            FreeParameter("layers[1].thickness", 0.0, np.inf)


class TestResiduals:
    def test_zero_at_template(self, coupled_stack):
        problem = small_problem(
            coupled_stack, [FreeParameter("layers[1].thickness", 1500.0, 2500.0)]
        )
        r = residual_vector(problem, [1930.0])
        np.testing.assert_allclose(r, 0.0, atol=1e-14)
        assert loss_value(problem, [1930.0]) == pytest.approx(0.0, abs=1e-25)

    def test_constant_offset_loss(self, coupled_stack):
        k = np.arange(1600.0, 1900.0, 2.0)
        base = small_problem(coupled_stack, [])
        offset_target = base.target + 0.01
        problem = FitProblem(stack=coupled_stack, free=(), k=k, target=offset_target)
        assert loss_value(problem, np.empty(0)) == pytest.approx(k.size * 1e-4, rel=1e-9)

    # the fit's one evaluation path gives stack_response's values bit for bit
    @pytest.mark.parametrize("config", ["film_absorption", "cavity_coupled"])
    @pytest.mark.parametrize("polarization", ["s", "p", "unpolarized"])
    @pytest.mark.parametrize("channel", ["T", "R", "A"])
    def test_model_values_equal_stack_response(self, config, polarization, channel):
        stack = load_config(CONFIGS / f"{config}.yaml").require_stack()
        k = np.linspace(1600.0, 1900.0, 61)
        thickness = (FreeParameter("layers[0].thickness", 5.0, 3000.0),)
        for free, values in (((), []), (thickness, [stack.layers[0].thickness * 1.01])):
            problem = FitProblem(stack=stack, free=free, k=k, target=np.zeros_like(k),
                                 channel=channel, angle=20.0, polarization=polarization)
            moved = apply_params(stack, problem.params_dict(values))
            T, R, A = stack_response(moved, k, 20.0, polarization)
            np.testing.assert_array_equal(model_values(problem, values),
                                          {"T": T, "R": R, "A": A}[channel])

    def test_gradient_matches_central_difference(self, coupled_stack):
        free = [
            FreeParameter("layers[1].thickness", 1500.0, 2500.0),
            FreeParameter("materials.pvac.oscillators[0].f", 1.0e4, 1.0e5),
        ]
        base = small_problem(coupled_stack, [])
        shifted = apply_params(
            coupled_stack,
            {"layers[1].thickness": 1900.0, "materials.pvac.oscillators[0].f": 5.5e4},
        )
        problem = FitProblem(
            stack=shifted, free=tuple(free), k=base.k, target=base.target
        )
        values = np.array([1900.0, 5.5e4])
        grad = loss_gradient(problem, values)
        for i, p in enumerate(free):
            h = 1e-6 * (p.upper - p.lower)
            up = values.copy()
            up[i] += h
            dn = values.copy()
            dn[i] -= h
            central = (loss_value(problem, up) - loss_value(problem, dn)) / (2.0 * h)
            assert abs(grad[i] - central) / max(abs(central), 1e-12) < 1e-4

    @staticmethod
    def film_problem(k):
        stack = load_config(CONFIGS / "film_absorption.yaml").require_stack()
        free = (FreeParameter("materials.pvac.oscillators[0].f", 1e4, 1e308),
                FreeParameter("materials.pvac.oscillators[0].gamma", 1e-300, 40.0))
        return FitProblem(stack=stack, free=free, k=k, target=np.zeros_like(k))

    def test_overflowing_gradient_raises_naming_the_values(self):
        # at this in-bounds point d eps / d gamma = i k f / denom^2
        # overflows, and 0 * inf is nan: the gradient is refused, while the
        # model, residuals and loss are finite and warn of nothing
        problem = self.film_problem(np.arange(1600.0, 1900.0, 2.0))
        values = np.array([1e308, 1e-300])
        with pytest.raises(DomainError, match=re.escape(
                "the loss gradient is not finite at {'materials.pvac.oscillators[0].f': "
                "1e+308, 'materials.pvac.oscillators[0].gamma': 1e-300}")):
            loss_gradient(problem, values)
        assert np.isfinite(model_values(problem, values)).all()
        assert np.isfinite(residual_vector(problem, values)).all()
        assert np.isfinite(loss_value(problem, values))

    @pytest.mark.parametrize("run, what", [
        (model_values, "the model"),
        (residual_vector, "the residual vector"),
        (loss_value, "the loss"),
        (loss_gradient, "the loss gradient"),
    ], ids=["model_values", "residual_vector", "loss_value", "loss_gradient"])
    def test_non_finite_model_raises_naming_the_values(self, run, what):
        # the grid holds the oscillator's centre, 1739 cm^-1, where eps
        # overflows at these values; the template is finite
        problem = self.film_problem(np.arange(1601.0, 1900.0, 2.0))
        message = f"{what} is not finite at {{'materials.pvac.oscillators[0].f': 1e+308"
        with pytest.raises(DomainError, match="^" + re.escape(message)):
            run(problem, np.array([1e308, 1e-300]))


def exact_jacobian(problem, values):
    return fit._Plan(problem)(values)[1]


def central_jacobian(problem, values, rel_step):
    """d(residual)/d(ln value) by central differences; values near zero
    step as if they were 1."""
    cols = []
    for i, v in enumerate(values):
        h = rel_step * max(abs(v), 1.0)
        up, dn = values.copy(), values.copy()
        up[i] += h
        dn[i] -= h
        diff = residual_vector(problem, up) - residual_vector(problem, dn)
        cols.append(diff / (2.0 * h) * max(abs(v), 1.0))
    return np.array(cols).T


# The exact Jacobian against central differences (step 1e-6 of each
# value), in units of d(residual) / d(ln value): a column agrees when its
# largest error is below RTOL of its largest entry plus ATOL, the
# rounding floor of a central difference of O(1) residuals.
RTOL, ATOL = 1e-5, 1e-9

# every path form, gold shared by layers 0 and 4, a constant layer and
# the constant substrate
EVERY_FORM = (
    "layers[1].thickness",
    "layers[2].thickness",
    "materials.pvac.oscillators[0].f",
    "materials.pvac.oscillators[0].k0",
    "materials.pvac.oscillators[0].gamma",
    "materials.pvac.eps_b",
    "materials.gold.omega_p",
    "materials.gold.f0",
    "materials.gold.gamma0",
    "materials.gold.damping_multiplier",
    "materials.spacer.eps",
    "materials.germanium.eps",
)


def cavity_with_spacer(substrate_mode):
    base = make_stack([CO_BAND])
    materials = dict(base.materials, spacer=ConstantMedium(eps=complex(2.25, 0.1)))
    layers = (
        Layer("gold", 10.0), Layer("pvac", 1930.0), Layer("spacer", 50.0), Layer("gold", 10.0),
    )
    return LayerStack(materials=materials, layers=layers, substrate="germanium",
                      substrate_mode=substrate_mode)


# one free Lorentz film on both sides of a spacer and as the substrate
BOTH_SIDES = (
    "materials.film.oscillators[0].f",
    "materials.film.oscillators[0].k0",
    "materials.film.oscillators[0].gamma",
    "materials.film.eps_b",
    "materials.spacer.eps",
    "materials.gold.f0",
    "layers[1].thickness",
    "layers[2].thickness",
    "layers[3].thickness",
)


def film_on_itself():
    base = make_stack([CO_BAND])
    materials = {"gold": base.materials["gold"], "film": base.materials["pvac"],
                 "spacer": ConstantMedium(eps=complex(2.25, 0.1))}
    layers = (Layer("gold", 10.0), Layer("film", 600.0), Layer("spacer", 300.0),
              Layer("film", 400.0))
    return LayerStack(materials=materials, layers=layers, substrate="film",
                      substrate_mode="coherent")


def free_parameters(stack):
    """Every fittable field of a stack without Lorentz media, with bounds
    that centre on its value."""
    free = [FreeParameter(f"layers[{i}].thickness", 0.5 * ly.thickness, 1.5 * ly.thickness)
            for i, ly in enumerate(stack.layers)]
    for name, mat in stack.materials.items():
        if isinstance(mat, ConstantMedium):
            v = mat.eps.real
            free.append(FreeParameter(f"materials.{name}.eps", v - 1.0 - abs(v), v + 1.0 + abs(v)))
        elif isinstance(mat, DrudeLorentzMetal):
            for fld in ("omega_p", "f0", "gamma0"):
                v = getattr(mat, fld)
                free.append(FreeParameter(f"materials.{name}.{fld}", 0.5 * v, 1.5 * v))
            m = mat.damping_multiplier
            free.append(FreeParameter(f"materials.{name}.damping_multiplier", m, m + 1.0))
    return tuple(free)


class TestJacobian:
    @pytest.mark.parametrize("substrate_mode", ["coherent", "incoherent_to_air"])
    @pytest.mark.parametrize("polarization", ["s", "p", "unpolarized"])
    @pytest.mark.parametrize("channel", ["T", "R", "A"])
    def test_every_path_form_matches_central_differences(self, substrate_mode, polarization,
                                                         channel):
        stack = cavity_with_spacer(substrate_mode)
        values = np.array([_locate(stack, path)[0] for path in EVERY_FORM])
        free = tuple(FreeParameter(p, 0.8 * v, 1.2 * v) for p, v in zip(EVERY_FORM, values))
        k = np.linspace(1500.0, 2000.0, 60)
        problem = FitProblem(
            stack=stack, free=free, k=k, target=np.full_like(k, 0.3), channel=channel,
            angle=30.0, polarization=polarization,
        )
        scale = np.maximum(np.abs(values), 1.0)
        exact = exact_jacobian(problem, values) * scale
        central = central_jacobian(problem, values, 1e-6)
        for i, path in enumerate(EVERY_FORM):
            err = np.max(np.abs(exact[:, i] - central[:, i]))
            assert err <= RTOL * np.max(np.abs(central[:, i])) + ATOL, path

    @pytest.mark.parametrize("layered", [False, True], ids=["no-layers", "constant-layers"])
    @pytest.mark.parametrize("substrate_mode", ["coherent", "incoherent_to_air"])
    @pytest.mark.parametrize("polarization", ["s", "p"])
    @pytest.mark.parametrize("channel", ["T", "R", "A"])
    def test_constant_stacks_match_central_differences(self, layered, substrate_mode,
                                                       polarization, channel):
        # a free substrate eps, and a free thickness where there is a
        # layer, on the stacks whose r and t start as scalars in the sweep
        stack = constant_stack(layered, substrate_mode)
        paths = ["materials.germanium.eps"] + (["layers[0].thickness"] if layered else [])
        values = np.array([_locate(stack, path)[0] for path in paths])
        free = tuple(FreeParameter(p, 0.8 * v, 1.2 * v) for p, v in zip(paths, values))
        k = np.linspace(1500.0, 2000.0, 40)
        problem = FitProblem(stack=stack, free=free, k=k, target=np.full_like(k, 0.3),
                             channel=channel, angle=30.0, polarization=polarization)
        exact = exact_jacobian(problem, values) * np.maximum(np.abs(values), 1.0)
        central = central_jacobian(problem, values, 1e-6)
        assert exact.shape == (k.size, len(paths))
        for i, path in enumerate(paths):
            err = np.max(np.abs(exact[:, i] - central[:, i]))
            assert err <= RTOL * np.max(np.abs(central[:, i])) + ATOL, path

    @settings(max_examples=150, deadline=None)
    @given(case=hard_stacks(), polarization=st.sampled_from(["s", "p", "unpolarized"]),
           channel=st.sampled_from(["T", "R", "A"]))
    def test_hard_stacks_match_central_differences(self, case, polarization, channel):
        # near grazing incidence some columns are too small or too curved
        # for a central difference to resolve; a column is checked where
        # the steps 1e-6 and 2.5e-7 agree to a tenth of the tolerance
        stack, angle = case
        free = free_parameters(stack)
        values = np.array([0.5 * (p.lower + p.upper) for p in free])
        k = np.linspace(400.0, 7400.0, 15)
        problem = FitProblem(stack=stack, free=free, k=k, target=np.zeros_like(k),
                             channel=channel, angle=angle, polarization=polarization)
        exact = exact_jacobian(problem, values) * np.maximum(np.abs(values), 1.0)
        coarse = central_jacobian(problem, values, 1e-6)
        fine = central_jacobian(problem, values, 2.5e-7)
        for i, p in enumerate(free):
            tol = RTOL * np.max(np.abs(coarse[:, i])) + ATOL
            if np.max(np.abs(coarse[:, i] - fine[:, i])) <= 0.1 * tol:
                assert np.max(np.abs(exact[:, i] - coarse[:, i])) <= tol, p.path

    @pytest.mark.parametrize("polarization", ["s", "p"])
    @pytest.mark.parametrize("channel", ["T", "R", "A"])
    def test_free_media_on_both_sides_and_the_substrate(self, polarization, channel):
        # film meets spacer (two directions at one interface), meets itself
        # as the coherent substrate (both terms of w from one direction,
        # and dq_sub), and gold fronts the stack; central differences step
        # 1e-5 of each bound width, as acceptance criterion 6e does
        stack = film_on_itself()
        values = np.array([_locate(stack, path)[0] for path in BOTH_SIDES])
        free = tuple(FreeParameter(p, 0.8 * v, 1.2 * v) for p, v in zip(BOTH_SIDES, values))
        k = np.linspace(1500.0, 2000.0, 60)
        problem = FitProblem(stack=stack, free=free, k=k, target=np.full_like(k, 0.3),
                             channel=channel, angle=30.0, polarization=polarization)
        exact = exact_jacobian(problem, values)
        for i, p in enumerate(free):
            h = 1e-5 * (p.upper - p.lower)
            up, dn = values.copy(), values.copy()
            up[i] += h
            dn[i] -= h
            central = (residual_vector(problem, up) - residual_vector(problem, dn)) / (2.0 * h)
            assert np.max(np.abs(exact[:, i] - central)) <= RTOL * np.max(np.abs(central)), p.path

    def test_singular_tangent_names_the_path(self):
        # qz = sqrt(eps - (n_ambient sin(angle))^2) vanishes in the film
        sin_amb = 2.0 * math.sin(math.radians(40.0))
        stack = LayerStack(
            materials={"film": ConstantMedium(eps=sin_amb**2), "sub": ConstantMedium(eps=9.0)},
            layers=(Layer("film", 500.0),), substrate="sub", n_ambient=2.0,
            substrate_mode="coherent",
        )
        free = (FreeParameter("layers[0].thickness", 400.0, 600.0),
                FreeParameter("materials.film.eps", 1.0, 4.0))
        k = np.linspace(1500.0, 2000.0, 11)
        problem = FitProblem(stack=stack, free=free, k=k, target=np.zeros_like(k), angle=40.0)
        with pytest.raises(DomainError, match=r"'materials\.film\.eps'"):
            loss_gradient(problem, np.array([500.0, sin_amb**2]))
        # with a thickness alone, the spectrum itself is singular there
        thickness_only = FitProblem(stack=stack, free=free[:1], k=k, target=np.zeros_like(k),
                                    angle=40.0)
        with pytest.raises(DomainError, match=r"layer 0 \(film\)"):
            loss_gradient(thickness_only, np.array([500.0]))


# five paths of four keys, a key's paths apart; GROUPED lists each key's
# paths together, keys in the reverse order
INTERLEAVED = (
    "materials.pvac.oscillators[0].f",
    "layers[1].thickness",
    "materials.gold.f0",
    "materials.pvac.oscillators[0].gamma",
    "materials.germanium.eps",
)
GROUPED = (
    "materials.germanium.eps",
    "materials.gold.f0",
    "layers[1].thickness",
    "materials.pvac.oscillators[0].gamma",
    "materials.pvac.oscillators[0].f",
)


def path_problem(stack, paths, channel="T", polarization="s"):
    """A FitProblem freeing `paths` of `stack` at oblique incidence, and
    the template's values."""
    values = np.array([_locate(stack, path)[0] for path in paths])
    free = tuple(FreeParameter(p, 0.8 * v, 1.2 * v) for p, v in zip(paths, values))
    k = np.linspace(1500.0, 2000.0, 60)
    problem = FitProblem(stack=stack, free=free, k=k, target=np.full_like(k, 0.3),
                         channel=channel, angle=30.0, polarization=polarization)
    return problem, values


class TestGrouping:
    @pytest.mark.parametrize("polarization", ["s", "p"])
    @pytest.mark.parametrize("channel", ["T", "R", "A"])
    def test_interleaved_paths_give_the_columns_of_their_grouping(self, channel, polarization):
        stack = cavity_with_spacer("incoherent_to_air")
        interleaved, values = path_problem(stack, INTERLEAVED, channel, polarization)
        grouped, _ = path_problem(stack, GROUPED, channel, polarization)
        order = [INTERLEAVED.index(path) for path in GROUPED]
        res_i, jac_i = fit._Plan(interleaved)(values)
        res_g, jac_g = fit._Plan(grouped)(values[order])
        np.testing.assert_array_equal(res_i, res_g)
        np.testing.assert_array_equal(jac_i[:, order], jac_g)

    @pytest.mark.parametrize("with_thickness", [False, True], ids=["alone", "beside-thickness"])
    def test_free_material_no_medium_uses_gives_a_zero_column(self, with_thickness):
        base = cavity_with_spacer("coherent")
        stack = dataclasses.replace(
            base, materials=dict(base.materials, unused=ConstantMedium(eps=4.0))
        )
        thickness = ["layers[1].thickness"] if with_thickness else []
        problem, values = path_problem(stack, ["materials.unused.eps"] + thickness)
        res, jac = fit._Plan(problem)(values)
        np.testing.assert_array_equal(jac[:, 0], 0.0)
        alone, _ = path_problem(stack, thickness)
        res_alone, jac_alone = fit._Plan(alone)(values[1:])
        np.testing.assert_array_equal(res, res_alone)
        np.testing.assert_array_equal(jac[:, 1:], jac_alone)

    def test_free_material_no_medium_uses_is_not_evaluated(self):
        # its eps overflows at these values, and its d eps / d gamma times
        # the zero sensitivity would be 0 * inf = nan
        stack = load_config(CONFIGS / "film_absorption.yaml").require_stack()
        stack = dataclasses.replace(stack, materials=dict(stack.materials,
                                                          unused=stack.materials["pvac"]))
        free = (FreeParameter("materials.unused.oscillators[0].f", 1e4, 1e308),
                FreeParameter("materials.unused.oscillators[0].gamma", 1e-300, 40.0),
                FreeParameter("layers[0].thickness", 1000.0, 3000.0))
        k = np.arange(1601.0, 1900.0, 2.0)
        problem = FitProblem(stack=stack, free=free, k=k, target=np.zeros_like(k))
        grad = loss_gradient(problem, np.array([1e308, 1e-300, 1930.0]))
        np.testing.assert_array_equal(grad[:2], 0.0)
        assert np.isfinite(grad[2])


# pvac's oscillator on the grid point 1700 cm^-1, far too strong and
# narrow: each field is in its domain, but eps overflows there
OVERFLOWING_PVAC = r"^material 'pvac': eps is not finite at 1700.0 cm\^-1$"


def overflowing_pvac(stack):
    return apply_params(stack, {"materials.pvac.oscillators[0].f": 1e308,
                                "materials.pvac.oscillators[0].k0": 1700.0,
                                "materials.pvac.oscillators[0].gamma": 1e-300})


def count_kernel_passes(monkeypatch):
    """A list that gains one entry per call of the stack kernel."""
    passes = []
    kernel = tmm._rouard

    def counted(*args, **kwargs):
        passes.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(tmm, "_rouard", counted)
    return passes


def shifted_problem(stack, template, free):
    """Fit the template values of the (path, lower, upper) triples free
    against the T of stack itself."""
    paths = [path for path, _, _ in free]
    base = small_problem(stack, [])
    return FitProblem(stack=apply_params(stack, dict(zip(paths, template))),
                      free=tuple(FreeParameter(*p) for p in free), k=base.k, target=base.target)


def assert_same_result(a, b):
    for field in dataclasses.fields(fit.FitResult):
        np.testing.assert_array_equal(getattr(a, field.name), getattr(b, field.name))


class TestSolve:
    def test_no_finite_difference_model_calls(self, coupled_stack, monkeypatch):
        # every kernel pass inside solve is an evaluation n_evaluations
        # counts, the template's included; a 2-point Jacobian would add
        # n_free passes per Jacobian
        passes = count_kernel_passes(monkeypatch)
        base = small_problem(coupled_stack, [])
        shifted = apply_params(coupled_stack, {"layers[1].thickness": 2050.0,
                                               "materials.gold.damping_multiplier": 2.0})
        problem = FitProblem(
            stack=shifted,
            free=(FreeParameter("layers[1].thickness", 1500.0, 2500.0),
                  FreeParameter("materials.gold.damping_multiplier", 1.0, 4.0)),
            k=base.k, target=base.target,
        )
        passes.clear()
        result = solve(problem, n_starts=2, seed=3)
        assert result.n_evaluations > 2
        assert len(passes) == result.n_evaluations

    def test_initial_loss_is_the_template_loss(self, coupled_stack, monkeypatch):
        # values at the middle of their bounds map to x = 0.5 and back
        # exactly, so start 0's first evaluation is the template point
        template = np.array([2000.0, 2.5])
        problem = shifted_problem(coupled_stack, template,
                                  (("layers[1].thickness", 1500.0, 2500.0),
                                   ("materials.gold.damping_multiplier", 1.0, 4.0)))
        passes = count_kernel_passes(monkeypatch)
        result = solve(problem, n_starts=2, seed=3)
        assert len(passes) == result.n_evaluations
        assert result.initial_loss == loss_value(problem, template)

    def test_initial_loss_of_a_template_on_a_bound(self, coupled_stack, monkeypatch):
        # the solver starts on the bound itself, so the template's loss is
        # start 0's first evaluation here too
        template = np.array([2000.0])
        problem = shifted_problem(coupled_stack, template,
                                  (("layers[1].thickness", 2000.0, 2500.0),))
        passes = count_kernel_passes(monkeypatch)
        result = solve(problem)
        assert len(passes) == result.n_evaluations
        assert result.initial_loss == loss_value(problem, template)

    def test_reassigned_problem_solves_like_a_new_one(self, coupled_stack):
        free = (("layers[1].thickness", 1500.0, 2500.0),
                ("materials.gold.damping_multiplier", 1.0, 4.0))
        problem = shifted_problem(coupled_stack, [2050.0, 2.0], free)
        solve(problem, n_starts=2, seed=3)
        problem.stack = apply_params(coupled_stack, {"layers[1].thickness": 1850.0,
                                                     "materials.gold.damping_multiplier": 3.0})
        fresh = FitProblem(stack=problem.stack, free=problem.free, k=problem.k,
                           target=problem.target)
        assert_same_result(solve(problem, n_starts=2, seed=3), solve(fresh, n_starts=2, seed=3))
        problem.k = problem.k + 1.0
        fresh = FitProblem(stack=problem.stack, free=problem.free, k=problem.k,
                           target=problem.target)
        assert_same_result(solve(problem, n_starts=2, seed=3), solve(fresh, n_starts=2, seed=3))

    def test_zero_free_parameters(self, coupled_stack):
        problem = small_problem(coupled_stack, [])
        result = solve(problem)
        assert result.params == {}
        assert result.success
        assert result.loss == pytest.approx(0.0, abs=1e-25)
        assert result.loss == result.initial_loss

    @pytest.mark.parametrize("n_starts", [1, 3])
    def test_zero_free_parameters_solved_like_any_problem(self, coupled_stack, n_starts):
        # each start stops at its first evaluation, on the gradient test
        problem = small_problem(coupled_stack, [])
        problem.target = problem.target + 0.01
        result = solve(problem, n_starts=n_starts, seed=5)
        assert result.success
        assert result.n_evaluations == n_starts
        assert result.start_params == [{}] * n_starts
        assert result.start_losses == [result.loss] * n_starts
        assert result.best_start == 0
        residuals = model_values(problem, []) - problem.target
        np.testing.assert_array_equal(result.residuals, residuals)
        assert result.loss == result.initial_loss == residuals @ residuals

    def test_template_already_optimal(self, coupled_stack):
        problem = small_problem(
            coupled_stack, [FreeParameter("layers[1].thickness", 1500.0, 2500.0)]
        )
        result = solve(problem)
        assert result.loss <= result.initial_loss + 1e-20
        assert result.loss < 1e-15
        assert result.params["layers[1].thickness"] == pytest.approx(1930.0, abs=0.5)

    def test_recovers_perturbed_thickness(self, coupled_stack):
        base = small_problem(coupled_stack, [])
        shifted = apply_params(coupled_stack, {"layers[1].thickness": 2030.0})
        problem = FitProblem(
            stack=shifted,
            free=(FreeParameter("layers[1].thickness", 1500.0, 2500.0),),
            k=base.k,
            target=base.target,
        )
        result = solve(problem)
        assert result.success
        assert result.params["layers[1].thickness"] == pytest.approx(1930.0, rel=5e-3)
        assert result.loss < 1e-10
        assert result.loss < result.initial_loss

    def test_deterministic_for_seed(self, coupled_stack):
        base = small_problem(coupled_stack, [])
        shifted = apply_params(coupled_stack, {"layers[1].thickness": 2100.0})
        problem = FitProblem(
            stack=shifted,
            free=(FreeParameter("layers[1].thickness", 1500.0, 2500.0),),
            k=base.k,
            target=base.target,
        )
        a = solve(problem, n_starts=3, seed=42)
        b = solve(problem, n_starts=3, seed=42)
        assert a.params == b.params
        assert a.start_losses == b.start_losses
        assert a.best_start == b.best_start
        np.testing.assert_array_equal(a.residuals, b.residuals)

    def test_multi_start_bookkeeping(self, coupled_stack):
        base = small_problem(coupled_stack, [])
        shifted = apply_params(coupled_stack, {"layers[1].thickness": 2100.0})
        problem = FitProblem(
            stack=shifted,
            free=(FreeParameter("layers[1].thickness", 1500.0, 2500.0),),
            k=base.k,
            target=base.target,
        )
        result = solve(problem, n_starts=4, seed=1)
        assert len(result.start_losses) == 4
        assert len(result.start_params) == 4
        assert result.best_start == int(np.argmin(result.start_losses))
        assert result.loss == min(result.start_losses)
        for params in result.start_params:
            assert 1500.0 <= params["layers[1].thickness"] <= 2500.0

    def test_non_finite_template_loss(self, coupled_stack):
        # finite inputs whose model overflows at the template: an
        # oscillator on the grid point 1700 cm^-1, far too strong and
        # narrow (a non-finite target is rejected by FitProblem itself).
        # The fit refuses it as stack_response does, naming the material
        stack = apply_params(coupled_stack, {"materials.pvac.oscillators[0].f": 1e308,
                                             "materials.pvac.oscillators[0].k0": 1700.0,
                                             "materials.pvac.oscillators[0].gamma": 1e-300})
        k = np.arange(1600.0, 1900.0, 2.0)
        problem = FitProblem(
            stack=stack,
            free=(FreeParameter("layers[1].thickness", 1500.0, 2500.0),),
            k=k,
            target=np.zeros_like(k),
        )
        with pytest.raises(DomainError, match=OVERFLOWING_PVAC):
            solve(problem)

    @pytest.mark.parametrize(
        "run", ["solve", "model_values", "residual_vector", "loss_value", "loss_gradient"]
    )
    def test_free_material_whose_template_eps_overflows(self, coupled_stack, run):
        # the overflowing material is free, and the values asked for are
        # finite ones: the template is refused all the same
        stack = overflowing_pvac(coupled_stack)
        k = np.arange(1600.0, 1900.0, 2.0)
        problem = FitProblem(
            stack=stack,
            free=(FreeParameter("materials.pvac.oscillators[0].gamma", 1e-300, 40.0),
                  FreeParameter("layers[1].thickness", 1500.0, 2500.0)),
            k=k,
            target=np.zeros_like(k),
        )
        values = np.array([13.0, 1930.0])
        with pytest.raises(DomainError, match=OVERFLOWING_PVAC):
            stack_response(stack, k)
        with pytest.raises(DomainError, match=OVERFLOWING_PVAC):
            if run == "solve":
                solve(problem)
            else:
                getattr(fit, run)(problem, values)

    def test_non_finite_trial_point_is_a_rejected_step(self, coupled_stack, monkeypatch):
        # the solver sees a non-finite model at its first trial point and
        # goes on, where the public evaluators would raise
        base = small_problem(coupled_stack, [])
        problem = FitProblem(
            stack=apply_params(coupled_stack, {"layers[1].thickness": 2030.0}),
            free=(FreeParameter("layers[1].thickness", 1500.0, 2500.0),),
            k=base.k,
            target=base.target,
        )
        model, calls = fit._Plan.model, []

        def poisoned(plan, values):
            calls.append(values)
            out, jac = model(plan, values)
            return (np.full_like(out, np.nan), jac) if len(calls) == 2 else (out, jac)

        monkeypatch.setattr(fit._Plan, "model", poisoned)
        result = solve(problem)
        assert len(calls) > 2
        assert result.success
        assert result.params["layers[1].thickness"] == pytest.approx(1930.0, rel=5e-3)
        assert np.isfinite(result.residuals).all()

    def test_n_starts_validation(self, coupled_stack):
        problem = small_problem(coupled_stack, [])
        with pytest.raises(DomainError):
            solve(problem, n_starts=0)

    def test_metal_damping_recovery(self):
        # target made with multiplier 2.5, template starts at 1.5
        truth = make_stack([CO_BAND])
        k = np.arange(1600.0, 1900.0, 2.0)
        probe = FitProblem(stack=truth, free=(), k=k, target=np.zeros_like(k))
        target = model_values(probe, np.empty(0))
        template = apply_params(truth, {"materials.gold.damping_multiplier": 1.5})
        problem = FitProblem(
            stack=template,
            free=(FreeParameter("materials.gold.damping_multiplier", 1.0, 4.0),),
            k=k,
            target=target,
        )
        result = solve(problem)
        assert result.params["materials.gold.damping_multiplier"] == pytest.approx(
            2.5, rel=1e-3
        )


def film_problem(angle, polarization, channel="A"):
    """The fit problem of film_absorption.yaml (801 points, four free
    parameters of one layer and its material) at the given angle and
    polarization; the target does not enter the model."""
    cfg = load_config(CONFIGS / "film_absorption.yaml")
    k = cfg.grid.points
    return dataclasses.replace(cfg.fit_problem(k, np.zeros_like(k)), angle=angle,
                               polarization=polarization, channel=channel)


FILM_CASES = pytest.mark.parametrize("angle, pol", [(0.0, "s"), (30.0, "p"), (30.0, "unpolarized")])


@FILM_CASES
@pytest.mark.parametrize("channel", ["T", "R", "A"])
def test_plan_results_outlive_the_next_pass(angle, pol, channel):
    # every pass of a plan runs through its one set of work arrays; the
    # model, the residuals and the Jacobian it hands out are new arrays
    problem = film_problem(angle, pol, channel)
    plan = fit._Plan(problem)
    moved = plan.template * np.array([1.1, 1.001, 1.2, 0.95])
    first = plan.model(plan.template) + plan(plan.template)
    kept = [a.copy() for a in first]
    second = plan.model(moved) + plan(moved)
    for a, b in zip(first, kept):
        assert np.array_equal(a, b)
    assert not np.array_equal(first[0], second[0])
    assert not np.array_equal(first[1], second[1])
    arrays = first + second
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1:])
    fresh = fit._Plan(problem)
    for a, b in zip(second, fresh.model(moved) + fresh(moved)):
        assert np.array_equal(a, b)


@FILM_CASES
def test_plan_evaluation_working_memory_is_bounded(angle, pol):
    # an evaluation writes every grid-sized value into arrays its plan
    # allocated at the first one; allocating them per evaluation took
    # 458 (s), 495 (p) and 559 kB (unpolarized), and pushed the heap past
    # glibc's 128 kB trim threshold and back on every evaluation
    plan = fit._Plan(film_problem(angle, pol))
    model, _ = plan.model(plan.template)
    tracemalloc.start()
    try:
        plan.model(plan.template)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # unpolarized light holds the s pass's T and R through the p pass
    held = 2 * model.nbytes if pol == "unpolarized" else 0
    assert peak < 128 * 1024 + held


@FILM_CASES
def test_plan_on_one_point_gives_the_bits_of_a_longer_grid(angle, pol):
    # numpy rounds a complex product written over its one-element operand
    # in another loop than a new one, so the plan's work arrays never take
    # a one-element product in place
    problem = film_problem(angle, pol)
    model, jac = fit._Plan(problem).model(fit._Plan(problem).template)
    for i in (0, 400, 800):
        one = dataclasses.replace(problem, k=problem.k[i:i + 1], target=problem.target[i:i + 1])
        plan = fit._Plan(one)
        plan.model(plan.template)
        model_i, jac_i = plan.model(plan.template)
        assert np.array_equal(model_i, model[i:i + 1])
        assert np.array_equal(jac_i, jac[i:i + 1])
