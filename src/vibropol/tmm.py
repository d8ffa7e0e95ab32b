"""Transfer-matrix optics for planar multilayer stacks.

The tangential field pair (U, V) is continuous across every interface;
U is E_y for s polarization and H_y for p, and V = q (u+ - u-) with the
polarization admittance q = qz (s) or q = qz / eps (p).  The reduced
out-of-plane wavevector qz = kz/k0 = sqrt(eps - (n_ambient sin(angle))^2)
is taken on the branch Im(qz) >= 0 (decay into the layer), with
Re(qz) >= 0 when Im(qz) = 0; the in-plane n_ambient sin(angle) is
conserved across the stack, and a layer of thickness d carries the phase
factor exp(i k0 d qz).  The media are isotropic, so the response depends
on the angle only through s^2 = (n_ambient sin(angle))^2: the kernel
takes s^2, and an angle scan solves each distinct s^2 once.  A Gaussian
beam divergence of sigma degrees is averaged on the nodes of a
Gauss-Hermite rule of n = 2 ceil(1.75 sigma) + 3 nodes, symmetric
exactly about the nominal angle, so the spread costs n passes per
angle, fewer at 0 degrees or where a and -a are both scanned.  A constant
medium (the ambient, and any ConstantMedium layer or substrate) keeps a
Python complex eps, qz and q through the whole pass, the exit factor of
an incoherent substrate included, so it costs scalar arithmetic only and
none of numpy's per-call overhead.  Conventions follow exp(-i omega t).

Stacks are solved with Rouard's interface recursion (compared with the
scattering-matrix form in Li, JOSA A 13, 1024 (1996)): starting at the
substrate, the reflection coefficient g seen from each medium is carried
back through one layer by the decaying factor exp(2i k0 d qz) and across
its entry interface, whose Fresnel coefficients are folded into the Airy
denominator: with S = q + q_next and D = q - q_next,
g <- (D + S g') / (S + D g'), g' = g exp(2i k0 d qz), one complex
reciprocal per layer.  Only phase factors of modulus <= 1 are ever
multiplied, so thick lossy or evanescent layers underflow to zero
transmission instead of overflowing.  The same sweep builds t as a
product of per-layer factors and returns each layer's, and `fields`
marches the wave amplitudes of every medium from them (bookkeeping as in
Byrnes, arXiv:1603.02720).  Each pass writes into the caller's work
arrays (`_Work`), which own everything it returns but T and R until the
next pass through them.

The pass takes the ordered media, each one's material name and each
layer's thickness (`_sequence`), and their permittivities by name
(`_media`); both lists reversed are the stack seen from its substrate,
layer i then n - 1 - i.  It can carry tangents, forward-mode derivatives
in the spirit of Luce et al., JOSA A 39, 1007 (2022), keyed as a fit
keys its parameters: a complex direction per material name (a unit
change of eps in every medium made of it) and a real one per layer index
(its thickness).  r and t are holomorphic in eps, so each channel gets a
complex sensitivity S per direction, and a real material parameter p
moves the channel by Re(S deps/dp).

What a pass takes and returns, the stack, grid and spectrum with the
checks of their arguments, is described in `vibropol.stack`, which loads
no numpy; this module re-exports those names.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections import Counter
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .materials import _SQUARE_MAX, ConstantMedium, _check_wavenumbers
# the stack's description, re-exported: `from vibropol.tmm import LayerStack` works
from .stack import (CHANNELS, POLARIZATIONS, Layer, LayerStack, SpectralGrid,  # noqa: F401
                    Spectrum, _check_angle, _check_polarization, _check_sigma)

# cm^-1 -> rad/nm
_K_TO_RAD_NM = 2.0e-7 * math.pi
# a layer up to this thickness (nm) keeps k0 qz d finite, as |qz| <=
# _SQUARE_MAX and k0 <= 2 pi rad/nm at _K_MAX; past it see `_thick_phase`
_THICK = _SQUARE_MAX / 8.0


def _sin2(stack, angle):
    """s^2 = (n_ambient sin(angle))^2, the one number through which the
    kernel sees the incidence angle."""
    return (stack.n_ambient * math.sin(math.radians(angle))) ** 2


def _sequence(stack):
    """The media as the kernel takes them: each one's material name (None
    for the ambient, the keys of `_media`) and each layer's thickness."""
    names = [None] + [ly.material for ly in stack.layers] + [stack.substrate]
    return names, [ly.thickness for ly in stack.layers]


def _media(stack, k):
    """Permittivities on k by material name, the ambient's under None.  A
    dispersive material is evaluated once, however many layers use it; a
    constant medium stays a Python complex, so k is checked here.  A
    dispersive eps that overflows raises DomainError naming the material
    and the first wavenumber where it is not finite, before anything is
    computed from it."""
    _check_wavenumbers(k)
    eps = {None: complex(stack.n_ambient**2)}
    for name in _sequence(stack)[0]:
        if name not in eps:
            model = stack.materials[name]
            if isinstance(model, ConstantMedium):
                eps[name] = model.eps
                continue
            # an overflow is reported below, as the material's error
            with np.errstate(all="ignore"):
                eps[name] = model.epsilon(k)
            if not np.isfinite(eps[name]).all():
                first = float(k[~np.isfinite(eps[name])][0])
                raise DomainError(f"material {name!r}: eps is not finite at {first} cm^-1")
    return eps


def _decaying_sqrt(x, out=None):
    """sqrt(x) on the branch Im >= 0, where a wave decays into the medium;
    on the real axis the principal root, Re >= 0.  A Python complex x (a
    constant medium) takes cmath.sqrt and gives a Python complex, so that
    medium costs scalar arithmetic only; an array takes numpy's root,
    written into `out` when given (x itself may be out), and a 0-d array
    gives a 0-d array."""
    if isinstance(x, complex):
        root = cmath.sqrt(x)
        return -root if root.imag < 0.0 else root
    root = np.sqrt(x, out)
    if np.ndim(root) == 0:
        return np.asarray(-root if root.imag < 0.0 else root)
    # passive media rarely need the flip, so only those elements change
    np.negative(root, out=root, where=root.imag < 0.0)
    return root


class _Work(dict):
    """The kernel's complex work arrays, each made by the first pass that
    needs it and rewritten by every later pass.  Every array a pass
    returns, but T and R, is the work's until the next pass through it: a
    caller keeps one work for all its passes, copies what it keeps past
    the next and writes into none."""

    # Python's arithmetic, for operands that are all numbers
    _ARITHMETIC = {np.add: operator.add, np.subtract: operator.sub, np.multiply: operator.mul,
                   np.divide: operator.truediv, np.negative: operator.neg,
                   np.square: lambda a: a**2}
    _shapes = staticmethod(lru_cache(maxsize=256)(np.broadcast_shapes))

    def array(self, key, shape):
        """The complex work array `key` of that shape."""
        out = self.get((key, shape))
        if out is None:
            out = self[key, shape] = np.empty(shape, complex)
        return out

    def put(self, key, ufunc, a, b=None):
        """ufunc(a) or ufunc(a, b) written into the work array `key` of the
        result's shape; when no operand is an array, the number that
        Python's arithmetic gives, as a constant medium keeps."""
        sa, sb = getattr(a, "shape", ()), getattr(b, "shape", ())
        if not (sa or sb):
            return self._ARITHMETIC[ufunc](a) if b is None else self._ARITHMETIC[ufunc](a, b)
        shape = sa if sa == sb or not sb else sb if not sa else self._shapes(sa, sb)
        out = self.array(key, shape)
        if out.size == 1 and (out is a or out is b):
            # numpy rounds a complex product that overwrites its
            # one-element operand in another loop than a new one
            out = None
        # out is positional: as a keyword it costs more than the call
        return ufunc(a, out) if b is None else ufunc(a, b, out)


def _thick_phase(put, key, name, d, qz, k0):
    """The phase factor exp(i k0 qz d) of `_rouard`, in its work array
    `key`, for a layer thicker than `_THICK`, whose product can overflow.
    The factor is 0 where the wave decays past the smallest double, its
    phase finite or not; a phase that overflows where the wave does not
    decay that far raises DomainError."""
    with np.errstate(over="ignore", invalid="ignore"):
        z = put(key, np.multiply, put(key, np.multiply, 1j * d, qz), k0)
        # exp(-746) rounds to 0
        gone = np.real(z) < -746.0
        phase = np.exp(z, z)
        phase[gone] = 0.0
    if not np.isfinite(phase).all():
        raise DomainError(f"a layer of {name!r} {d:g} nm thick: its phase k0 qz d overflows")
    return phase


def _rouard(names, thicknesses, eps, k0, sin2, polarization, work, directions=None):
    """Rouard's recursion over the ordered media of `_sequence`, names from
    the ambient's None to the substrate's and the layer thicknesses, on
    k0 (rad/nm); eps maps each name to its permittivity, as `_media` does,
    and sin2 = (n_ambient sin(angle))^2.  Both lists reversed are the
    stack seen from its substrate, a direction's layer index i then
    n - 1 - i, and errors name positions in the lists given.  Every array
    it returns is `work`'s (a `_Work`) until the next pass through it;
    media of one material share their qz and q, and layers of one
    material and thickness their phase factor.  A layer with qz = 0 at
    some wavenumber, tested once per material, raises DomainError: its waves
    exp(+-i k0 qz z) are then one wave, and the recursion divides 0 by 0.
    So does a constant medium whose eps - sin2 overflows, naming it.

    Returns (r, t, qz, q, d, steps) for a unit U amplitude incident from
    the ambient.  r and t are the U-amplitude reflection (at z = 0) and
    transmission (into the substrate's front face) on k; qz and q list
    each medium's values, ambient first.  steps[j - 1] = (g, f, phase) of
    layer j, with g the reflection coefficient at its exit face and f its
    entry forward amplitude per unit forward amplitude leaving medium
    j - 1; each layer's g and f have their own arrays.

    Each layer j, between qa = q[j - 1] and qb = q[j], costs one complex
    reciprocal: its entry interface's Fresnel coefficients (qa - qb) / S
    and 2 qa / S, with S = qa + qb and D = qa - qb, are folded into the
    Airy denominator.  With g_e = g phase^2, the exit face's reflection
    seen from the entry face,

        inv = 1 / (S + D g_e),  g <- (D + S g_e) inv,
        f = 2 qa inv,  x = f phase,  t <- t x.

    `directions` sets m tangent directions, keyed as `fit._locate` keys a
    parameter: a material name maps to the (m, 1) complex change of its
    eps in every medium made of it, a layer index to the (m, 1) real
    change of that layer's thickness.  The caller keeps qz != 0 in each
    medium a direction moves.  d is then (dr, dt, dq_sub), the tangents of
    r, t and the substrate's q along the m directions on a leading axis,
    dq_sub None when no direction moves the substrate; without directions
    d is None.  They come from the same inv, with w = qb dqa - qa dqb (no
    product for a medium no direction moves), dg_e = (dg + 2 g dlog)
    phase^2 and dlog = d(log phase):

        dg <- 2 inv^2 ((1 - g_e^2) w + 2 qa qb dg_e),
        dx = 2 inv^2 phase ((1 - g_e) w - qa D dg_e) + x dlog,
        dt <- dt x + t dx,

    starting from dg = dt = 2 w / S^2 at the substrate's face.
    """
    put = work.put
    add, sub, mul, div = np.add, np.subtract, np.multiply, np.divide
    qz_of = {}
    for name in dict.fromkeys(names):
        z = put(("qz", name), sub, eps[name], sin2)
        # a constant medium's Python complex overflows without a warning
        if isinstance(z, complex) and not cmath.isfinite(z):
            raise DomainError(f"material {name!r}: eps - (n_ambient sin(angle))^2 is not "
                              "finite, so its qz overflows")
        qz_of[name] = _decaying_sqrt(z, out=z)
    q_of = qz_of if polarization == "s" else {
        name: put(("q", name), div, z, eps[name]) for name, z in qz_of.items()}
    qz, q = [qz_of[name] for name in names], [q_of[name] for name in names]
    n, layers = len(thicknesses), list(zip(names[1:-1], thicknesses))
    singular = {m for m in set(names[1:-1]) if not np.asarray(qz_of[m]).all()}
    phases = {}
    # keyed by position: a fit moves the thickness from pass to pass
    for i, (name, d) in enumerate(dict.fromkeys(layers)):
        if d > _THICK:
            phases[name, d] = _thick_phase(put, ("phase", i), name, d, qz_of[name], k0)
            continue
        z = put(("phase", i), mul, put(("phase", i), mul, 1j * d, qz_of[name]), k0)
        phases[name, d] = np.exp(z, z)
    phase = [None] + [phases[layer] for layer in layers]

    if directions is not None:
        # every tangent is an (m, k) array of `work`, and no product is
        # written over one of its own operands (see `_Work.put`)
        shape = (len(next(iter(directions.values()), ())),) + np.shape(k0)
        DG_E, H, V, W, DX, DT, DG, DLOG = (
            work.array(key, shape) for key in ("dg_e", "dh", "dv", "dw", "dx", "dt", "dg", "dlog"))
        dqz_of, dq_of = {}, {}
        for name, row in directions.items():
            if name in qz_of:
                dz = mul(row, put("u", div, 0.5, qz_of[name]), work.array(("dqz", name), shape))
                dqz_of[name] = dq_of[name] = dz
                if polarization != "s":
                    o = work.array(("dq", name), shape)
                    dq_of[name] = div(sub(dz, mul(q_of[name], row, o), o), eps[name], o)
        dqz, dq = [dqz_of.get(name, 0.0) for name in names], [dq_of.get(name) for name in names]
        ik0 = put("ik0", mul, 1j, k0)

        def cross(i):
            # w = qb dqa - qa dqb across the interface of media i and i + 1
            qa, qb, dqa, dqb = q[i], q[i + 1], dq[i], dq[i + 1]
            if dqb is None:
                return 0.0 if dqa is None else mul(qb, dqa, W)
            if dqa is None:
                return mul(put("w", np.negative, qa), dqb, W)
            return sub(mul(qb, dqa, W), mul(qa, dqb, V), W)

    # substrate -> ambient: for a unit forward amplitude at the current
    # medium's exit face, g is the reflected amplitude and t the forward
    # amplitude in the substrate; t is a product of per-layer factors x,
    # never divided by, since an interface t can be 0.  2 qa / S keeps its
    # digits when qb >> qa (p-polarized ENZ), where 1 + r would not
    # in the loop every value but S, D and 2 qa is on k, as the phase is:
    # each has its array, g and f one per layer for the field march, and t
    # alternates between two, as no product is written over one of its
    # own operands.  The substrate's face starts inv, g and t in those
    # arrays, t in the one layer n does not write
    on_k, tkeys = np.shape(k0), ("t0", "t1")
    P2, G_E, INV, X, *T = (work.array(key, on_k) for key in ("p2", "g_e", "inv", "x") + tkeys)
    qa, qb = q[n], q[n + 1]
    inv = put("inv", div, 1.0, put("inv", add, qa, qb))
    g = put(("g", n), mul, put(("g", n), sub, qa, qb), inv)
    t = put(tkeys[(n + 1) % 2], mul, put(tkeys[(n + 1) % 2], mul, 2.0, qa), inv)
    if directions is not None:
        w, inv2 = cross(n), put("inv2", mul, put("inv2", mul, 2.0, inv), inv)
        dg = dt = mul(w, inv2, DG)
    steps = [None] * n
    for j in range(n, 0, -1):
        if names[j] in singular:
            raise DomainError(f"layer {j - 1} ({names[j]}) has eps = (n_ambient sin(angle))^2, so "
                              "qz = 0: its two waves coincide and the recursion is singular")
        qa, qb, p = q[j - 1], q[j], phase[j]
        S, D = put("S", add, qa, qb), put("D", sub, qa, qb)
        p2 = mul(p, p, P2)
        g_e = mul(g, p2, G_E)
        inv = div(1.0, add(S, mul(D, g_e, INV), INV), INV)
        f = mul(put("2qa", mul, 2.0, qa), inv, work.array(("f", j), on_k))
        steps[j - 1] = g, f, p
        x = mul(f, p, X)
        if directions is not None:
            # d(phase) = phase dlog
            dlog = mul(ik0, put("u", add, put("u", mul, qz[j], directions.get(j - 1, 0.0)),
                                put("v", mul, thicknesses[j - 1], dqz[j])), DLOG)
            mul(add(dg, mul(put("u", mul, 2.0, g), dlog, H), H), p2, DG_E)
            w = cross(j - 1)
            inv2 = put("inv2", mul, put("inv2", mul, 2.0, inv), inv)
            sub(mul(put("h", sub, 1.0, g_e), w, H), mul(put("v", mul, qa, D), DG_E, V), H)
            add(mul(put("u", mul, inv2, p), H, DX), mul(x, dlog, V), DX)
            # dt before dg: at the substrate's face they are one array
            dt = add(mul(dt, x, V), mul(t, DX, H), DT)
            h = put("h", sub, 1.0, put("h", mul, g_e, g_e))
            qq = put("v", mul, put("v", mul, 2.0, qa), qb)
            dg = mul(inv2, add(mul(h, w, H), mul(qq, DG_E, V), H), DG)
        # D + S g_e in the spent p2
        g = mul(add(D, mul(S, g_e, P2), P2), inv, work.array(("g", j - 1), on_k))
        t = mul(t, x, T[j % 2])
    if n == 0:
        # scalars between two constant media; the results live on k
        g, t = np.broadcast_to(g, on_k), np.broadcast_to(t, on_k)
    d = None if directions is None else (dg, dt, dq[-1])
    return g, t, qz, q, d, steps


def _response(stack, eps, k0, sin2, polarization, work, directions=None):
    """(T, R) of one or both polarizations from the permittivities of
    `_media` on k0 = `_K_TO_RAD_NM` k at sin2 = `_sin2(stack, angle)`,
    through the kernel's work arrays `work` (a `_Work`).  T and R are new
    arrays; every other array it returns is the work's until the next
    pass through it.

    `directions` sets m tangent directions, as in `_rouard`: a material
    name maps to the (m, 1) complex row of its eps, a layer index to the
    (m, 1) real row of its thickness.  The result then also holds the
    sensitivities (S_T, S_R), with the directions on a leading axis in row
    order: a real parameter p of direction i moves T by Re(S_T[i]
    deps/dp), where deps/dp = 1 for a thickness.  They are `work`'s, one
    pair per polarization.
    """
    if polarization == "unpolarized":
        s = _response(stack, eps, k0, sin2, "s", work, directions)
        p = _response(stack, eps, k0, sin2, "p", work, directions)
        # the product overwrites no operand of its own (see `_Work.put`)
        return tuple(np.multiply(0.5, np.add(a, b, b), a) for a, b in zip(s, p))
    put, mul = work.put, np.multiply
    r, t, _, q, d, _ = _rouard(*_sequence(stack), eps, k0, sin2, polarization, work, directions)
    q_amb, q_sub = q[0], q[-1]

    incoherent = stack.substrate_mode == "incoherent_to_air"
    if incoherent:
        # coherent T times the single-pass exit factor
        # Re(q_air) / Re(q_sub) |t_exit|^2; an evanescent substrate wave
        # (total internal reflection inside the stack) never reaches the
        # rear face, so T stays 0
        q_air = _decaying_sqrt(1.0 + 0j - sin2)
        t_exit = put("exit", np.divide, put("exit", mul, 2.0, q_sub),
                     put("exit_d", np.add, q_sub, q_air))
        # into the array of x, which the recursion has spent
        t_out = mul(t, t_exit, work.array("x", np.shape(t)))
        scale = np.real(q_air) * (np.real(q_sub) > 0.0) / np.real(q_amb)
    else:
        t_out = t
        if q_amb.real >= 1e-150:
            # Re(q_sub) is below _SQUARE_MAX, so the ratio stays finite
            scale = np.real(q_sub) / np.real(q_amb)
        else:
            # p light, q_amb = cos(angle) / n_ambient, near grazing under
            # an ambient index near its bound
            with np.errstate(over="ignore"):
                scale = np.real(q_sub) / q_amb.real
            if not np.isfinite(scale).all():
                raise DomainError(f"ambient index {stack.n_ambient:g}: its p admittance "
                                  f"{q_amb.real:g} is too small for the flux ratio into "
                                  f"substrate {stack.substrate!r}, which overflows")
    R = np.abs(r)
    R **= 2
    T = np.abs(t_out)
    T **= 2
    T = np.multiply(scale, T, T)
    # the exit factor keeps T <= 1 behind a transparent substrate, a real
    # constant q_sub; an absorbing one can pass 1, and past round-off its
    # loss is more than the single lossless pass describes
    if incoherent and not (isinstance(q_sub, complex) and q_sub.imag == 0.0) \
            and T.max() > 1.0 + 1e-6:
        raise DomainError(f"substrate {stack.substrate!r} absorbs too strongly for "
                          "incoherent_to_air: T exceeds 1")
    if d is None:
        return T, R

    dr, dt, dq_sub = d
    S_T, S_R = (work.array((key, polarization), dt.shape) for key in ("S_T", "S_R"))
    c = put("c", mul, 2.0 * scale, put("c", np.conjugate, t_out))
    if incoherent:
        dt_out = mul(dt, t_exit, work.array("dt_out", dt.shape))
        if dq_sub is not None:
            # the exit factor moves with a free substrate
            np.add(dt_out, put("u", mul, t, put(
                "u", np.divide, put("u", mul, 2.0 * q_air, dq_sub),
                put("exit_d", np.square, put("exit_d", np.add, q_sub, q_air)))), dt_out)
        mul(c, dt_out, S_T)
    else:
        mul(c, dt, S_T)
        if dq_sub is not None:
            # Re(q_sub) moves too when the substrate's eps is free
            np.add(S_T, np.abs(t) ** 2 * dq_sub / np.real(q_amb), S_T)
    mul(put("c", mul, 2.0, put("c", np.conjugate, r)), dr, S_R)
    return T, R, S_T, S_R


def stack_response(stack, k, angle=0.0, polarization="s"):
    """(T, R, A) of the stack at one incidence angle: the arrays of
    `spectrum_scan`.

    k: wavenumbers in cm^-1 (scalar or array).  Unpolarized input averages
    the s and p intensities.  A is defined as 1 - T - R.
    """
    spectrum = spectrum_scan(stack, k, angle, polarization)
    return spectrum.T, spectrum.R, spectrum.A


def _points(grid):
    """The 1-D wavenumbers of a SpectralGrid, or of a scalar or array of
    wavenumbers (cm^-1)."""
    if isinstance(grid, SpectralGrid):
        return grid.points
    return np.atleast_1d(np.asarray(grid, dtype=float))


def spectrum_scan(stack, grid, angle=0.0, polarization="s"):
    """Spectrum over a SpectralGrid, or over given wavenumbers, at a
    fixed angle: the one-angle `angle_scan`."""
    return angle_scan(stack, grid, [angle], polarization)[0]


def _hermite(n, x):
    """p_n(x) and p_(n-1)(x) of the Hermite polynomials orthonormal under
    the weight exp(-x^2), by their three-term recurrence."""
    p, p_prev = math.pi ** -0.25, 0.0
    for j in range(1, n + 1):
        p, p_prev = x * math.sqrt(2.0 / j) * p - math.sqrt((j - 1) / j) * p_prev, p
    return p, p_prev


@lru_cache(maxsize=None)
def _gauss_hermite(n):
    """Nodes x (increasing) and weights w of the n-point Gauss-Hermite rule
    for the normal weight exp(-x^2) / sqrt(pi): sum w f(x) is exact for
    polynomials f of degree up to 2n - 1, and sum w = 1 to round-off.

    Newton's method on the orthonormal recurrence, with the starting
    guesses of `gauher` (Press et al., Numerical Recipes, 4.6), solves the
    positive roots from the largest down; the negative ones are their
    mirror images and the middle one of odd n is 0, so the rule is
    symmetric exactly.  The weight at root z is
    1 / (sqrt(pi) n p_(n-1)(z)^2).
    The arrays are read-only, as every caller shares them.
    """
    roots = []
    for i in range(n // 2):
        if i == 0:
            z = math.sqrt(2 * n + 1) - 1.85575 * (2 * n + 1) ** (-1.0 / 6.0)
        elif i == 1:
            z -= 1.14 * n**0.426 / z
        elif i == 2:
            z = 1.86 * z - 0.86 * roots[0]
        elif i == 3:
            z = 1.91 * z - 0.91 * roots[1]
        else:
            z = 2.0 * z - roots[i - 2]
        for _ in range(100):
            p, p_prev = _hermite(n, z)
            step = p / (math.sqrt(2.0 * n) * p_prev)
            z -= step
            if abs(step) <= 1e-15 * z:
                break
        roots.append(z)
    # the non-negative roots, largest first, and their weights
    half = roots + [0.0] * (n % 2)
    w_half = [1.0 / (math.sqrt(math.pi) * n * _hermite(n, z)[1] ** 2) for z in half]
    x = np.array([-z for z in half] + roots[::-1])
    w = np.array(w_half + w_half[: n // 2][::-1])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def divergence_nodes(angle, sigma):
    """Angular quadrature for a Gaussian beam-divergence average of
    standard deviation sigma about angle (both in degrees): the n-point
    Gauss-Hermite rule, nodes angle + sqrt(2) sigma x_i and weights
    w_i / sqrt(pi), with n = 2 ceil(1.75 sigma) + 3 (5 nodes at sigma =
    0.5, 7 at 1, 11 at 2, 17 at 4, 109 at 30).  Nodes at or beyond 90
    degrees are dropped and the weights renormalized.  sigma = 0 gives
    the one node angle with weight 1; angle must satisfy |angle| < 90
    and sigma lie in 0 to 30 degrees.

    Without truncation the rule gives the moments of the normal
    distribution exactly up to degree 2n - 1.  n grows with sigma
    because the spectrum's angular structure stays fixed while the
    spread widens.  On the bundled cavity stacks (s and p, 0 to 60
    degrees) the worst |dT| against a converged average is 1e-13 at
    sigma = 0.25, 1e-9 at 1, 3e-8 at 2, 2e-6 at 4 and 9e-4 at 30, where
    most nodes are dropped; the 11 uniform nodes over +-3 sigma that
    this rule replaced gave 7e-7, 9e-6, 3e-5, 4e-5 and 6e-3.  Each node
    is one kernel pass unless it shares its s^2 (see `angle_scan`).
    """
    _check_angle(angle)
    _check_sigma(sigma)
    if sigma == 0.0:
        return np.array([angle]), np.array([1.0])
    x, w = _gauss_hermite(2 * math.ceil(1.75 * sigma) + 3)
    # the rule is exactly antisymmetric about its middle node, 0, so
    # mirrored nodes of a 0 deg angle share one s^2 and one kernel pass;
    # the middle node is the angle itself, so the truncation keeps it
    thetas = angle + (math.sqrt(2.0) * sigma) * x
    keep = np.abs(thetas) < 90.0
    thetas, weights = thetas[keep], w[keep]
    return thetas, weights / weights.sum()


def angle_scan(stack, grid, angles, polarization="s", divergence=0.0):
    """Spectra over a list of angles, optionally averaged over a Gaussian
    angular spread of half-width `divergence` degrees (one sigma) on the
    Gauss-Hermite nodes of `divergence_nodes`.

    The permittivities are evaluated once for the whole scan.  The
    response depends on an angle only through s^2 = (n_ambient
    sin(angle))^2, so each distinct s^2 among all nodes of all angles is
    one pass of the stack recursion over the grid: a and -a, and the
    mirrored nodes of a symmetric spread, cost one pass.  The 25 angles
    of `cavity_dispersion.yaml` (-60 to 60 degrees) take 13 passes, and
    with a 1 degree divergence 88: 7 nodes per angle pair, 4 at 0
    degrees.  Results are ordered like `angles`.
    """
    k = _points(grid)
    angles = list(angles)
    _check_polarization(polarization)
    _check_sigma(divergence)
    nodes = []
    for angle in angles:
        thetas, weights = divergence_nodes(angle, divergence)
        nodes.append(([_sin2(stack, theta) for theta in thetas], weights))
    uses = Counter(s2 for keys, _ in nodes for s2 in keys)
    eps = _media(stack, k)
    k0 = _K_TO_RAD_NM * k

    # in order of |angle| the nodes of a and -a are solved together, so
    # the cache holds about one angle's nodes; an entry leaves with its
    # last use.  Every pass runs through the scan's one set of work arrays
    cache, work, term = {}, _Work(), np.empty_like(k)
    scans = [None] * len(angles)
    for i in sorted(range(len(angles)), key=lambda i: abs(angles[i])):
        T = np.zeros_like(k)
        R = np.zeros_like(k)
        for s2, w in zip(*nodes[i]):
            if s2 not in cache:
                cache[s2] = _response(stack, eps, k0, s2, polarization, work)
            uses[s2] -= 1
            Ti, Ri = cache[s2] if uses[s2] else cache.pop(s2)
            T += np.multiply(w, Ti, term)
            R += np.multiply(w, Ri, term)
        A = np.subtract(1.0, T)
        scans[i] = Spectrum(k=k, T=T, R=R, A=np.subtract(A, R, A), angle=float(angles[i]),
                            polarization=polarization)
    return scans
