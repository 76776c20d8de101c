"""Warped convolution over the joint boost-gauge R^2 action.

Every function takes the model and the deformation parameter kappa as its
first two arguments, (model, kappa, ...), like boost_phases(model, t) and
gauge_phases(model, s).

Closed form
-----------
Both flows are diagonal in the occupation basis, with boost phase phi_i and
charge q_i per basis state.  Splitting an operator F into charge-shift
components and applying the sector formula

    warp_kappa(F) = sum_n U(kappa n) F_m U(-kappa (n + m)) E(n),   m = shift,

collapses to a single entrywise phase:

    warp_kappa(F)[i, j] = exp(i kappa (phi_i q_j - q_i phi_j)) F[i, j].

This makes warp exactly linear, invertible (kappa -> -kappa), adjoint- and
vacuum-compatible, and is the normative implementation.  Being entrywise, it
keeps every zero of F, so warp_word applies it to a mask word at the word's
d entries, and rieffel_word, the deformed product warp(-kappa, warp f warp
g), stays a mask word.  Every single-mode operator a command warps (the
deform generators, the oracle's spinor, the fixed-point words) is a mask
word, so no command calls the dense warp; it takes its phase from
angle_matrix on each call and is the tests' dense reference.  The boost,
gauge and reflection covariance identities are taken on mask words too
(covariance_transform).  Rotation
covariance is not checked: the warp along the rotated flow (the
inequivalence witness) is defined by conjugating with the rotation's
implementer, so that identity would hold for any unitary implementer and any
phase.

Oscillatory oracle
------------------
The defining integral (1/4 pi^2) int dv dv' e^{-i v v'} chi(eps v, eps v')
tau_{kappa theta v}(F) U(v') is evaluated independently for two cutoffs, as a
verification oracle: a width-6 Gaussian and a width-6 raised cosine (compact
support), both in closed form.  It is entrywise too, so warp_oscillatory
takes a mask word and evaluates the factors at its nonzero entries only.
For an entry (i, j) the integral factorizes into two 2D factors J(alpha,
beta) with

    boost pair:  alpha = -kappa (q_i - q_j),  beta = phi_j,
    gauge pair:  alpha = +kappa (phi_i - phi_j),  beta = q_j,

and J -> e^{i alpha beta} as eps -> 0, reproducing the closed form.

The raised cosine is (1 + cos(theta x)) / 2 on |x| <= H, with H = 6 / eps and
theta = pi eps / 6.  The window is a sum of three exponentials and its Fourier
transform a sum of three sincs, so with v = beta + t - x

    J(alpha, beta) = (1/2pi) sum_{(w,s)} sum_{(c,t)} w c e^{i (alpha+s)(beta+t)}
                     K(alpha + s; beta + t - H, beta + t + H),

    (w, s) in {(1/2, 0), (1/4, theta), (1/4, -theta)}   (window terms),
    (c, t) in {(1, 0), (1/2, theta), (1/2, -theta)}      (sinc terms),

    K(a; L, R) = int_L^R e^{-i a v} sin(H v) / v dv
               = 1/2 [Si(k+ v) + Si(k- v)]_L^R - i/2 [Cin(k+ v) - Cin(k- v)]_L^R,

with k+- = H +- a and Cin(x) = int_0^x (1 - cos t) / t dt = gamma + ln|x| -
Ci(|x|), Cin(0) = 0.  Every term is finite, also at L = 0 or k+- = 0, so J
costs the same at every eps; it is NaN only once H^2 overflows (eps below
about 1e-154).

_si_cin evaluates Si and Cin in numpy: by their power series for |x| <= 4,
and beyond by the continued fraction of the exponential integral E1(i|x|).
The tests pin both to scipy.special.sici within 2e-15.
"""

from __future__ import annotations

import math

import numpy as np

from .car_fock import (FockOperator, MaskWord, OneParticleModel, apply_number_blocks,
                       boost_phases, field_word, field_words, gauge_phases, one_particle_map,
                       reflect_word, reflection_automorphism, rotation_modes,
                       second_quantize_blocks)

CUTOFF_WIDTH = 6.0


def angle_matrix(model: OneParticleModel) -> np.ndarray:
    """phi_i q_j - q_i phi_j, read-only and built once per model."""
    phi, q = model.phases, model.charges
    return model.cached("angle_matrix", lambda: np.outer(phi, q) - np.outer(q, phi))


def warp(model: OneParticleModel, kappa: float, op: FockOperator) -> FockOperator:
    """The warped operator, by the exact sector formula; warp at -kappa inverts it."""
    return FockOperator(op.matrix * np.exp(1j * kappa * angle_matrix(model)), model)


def warp_word(model: OneParticleModel, kappa: float, word: MaskWord) -> MaskWord:
    """The warped mask word: each entry times the warp phase at its (row, column),
    evaluated at those d entries only."""
    angle = angle_matrix(model)[word.rows(), np.arange(len(word.vec))]
    return MaskWord(word.mask, word.vec * np.exp(1j * kappa * angle))


def rieffel_word(model: OneParticleModel, kappa: float, f: MaskWord, g: MaskWord) -> MaskWord:
    """The deformed product of two mask words: warp(f x g) = warp(f) warp(g)."""
    return warp_word(model, -kappa, warp_word(model, kappa, f) @ warp_word(model, kappa, g))


def warp_rotated_apply(model: OneParticleModel, kappa: float, f, v: np.ndarray,
                       angle: float | None = None) -> np.ndarray:
    """The warp of B(f) along the rotated flow r_* xi (rotated boost, same
    gauge), applied to the vector v: R warp(R^* B(f) R) R^* v, with R the
    rotation's implementer Gamma(w).

    R^* B(f) R = B(u^* f) (u = one_particle_map), a sum of single-mode
    fields that warp_word warps, and R acts on v by its number blocks, so no
    Fock-size matrix is formed.
    """
    w = rotation_modes(model, angle)
    gammas = second_quantize_blocks(model, w)
    pulled = apply_number_blocks(model, gammas, v, adjoint=True)
    inner = np.zeros(model.dim, dtype=complex)
    for word in field_words(model, one_particle_map(model, w).conj().T @ f):
        inner += warp_word(model, kappa, word).apply(pulled)
    return apply_number_blocks(model, gammas, inner)


def covariance_transform(model: OneParticleModel, kappa: float, word: MaskWord,
                         kind: str, parameter: float | None = None) -> tuple[MaskWord, MaskWord]:
    """Both sides of the covariance identity of a boost, gauge or the reflection.

    Returns (lhs, rhs) as mask words: lhs conjugates the warped word, rhs
    warps the transformed word along the pushed-forward flow.  Boost and
    gauge are diagonal and leave the flow fixed.  The reflection flips kappa;
    lhs conjugates by Gamma(tau) and rhs applies the reflection automorphism
    on the fields, so the identity also asks that Gamma(tau) implement it.
    """
    if kind in ("boost", "gauge"):
        u = (boost_phases if kind == "boost" else gauge_phases)(model, float(parameter))
        return (warp_word(model, kappa, word).conjugated_by(u),
                warp_word(model, kappa, word.conjugated_by(u)))
    if kind == "reflection":
        return (reflect_word(model, warp_word(model, kappa, word)),
                warp_word(model, -kappa, reflection_automorphism(model, word)))
    raise ValueError(f"unknown covariance kind {kind!r}; expected 'boost', 'gauge' "
                     "or 'reflection'")


# -- oscillatory-integral oracle ----------------------------------------------

def _gauss_factor(eps: float, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Closed form of (1/2pi) int e^{-ixy} e^{-(eps/W)^2 (x^2+y^2)} e^{i(ax+by)}."""
    e2 = (eps / CUTOFF_WIDTH) ** 2
    det = 1.0 + 4.0 * e2 * e2
    return det ** -0.5 * np.exp((1j * alpha * beta - e2 * (alpha ** 2 + beta ** 2)) / det)


# Shifts of the raised cosine's window and sinc terms, in units of theta, and
# the products w c of their weights (see the module docstring).
_COSINE_SHIFTS = np.array([0.0, 1.0, -1.0])
_COSINE_WEIGHTS = np.outer([0.5, 0.25, 0.25], [1.0, 0.5, 0.5])


# Si and Cin: the power series up to _SERIES_MAX, beyond it the continued
# fraction of E1(ix), which converges within _CF_MAX_STEPS steps there.
_SERIES_MAX = 4.0
_SERIES_TERMS = 18      # at x = 4 the first omitted terms are below 1e-22
_SI_SERIES = np.array([(-1.0) ** k / ((2 * k + 1) * math.factorial(2 * k + 1))
                       for k in range(_SERIES_TERMS)])
_CIN_SERIES = np.array([(-1.0) ** (k + 1) / (2 * k * math.factorial(2 * k))
                        for k in range(1, _SERIES_TERMS + 1)])
_CF_MAX_STEPS = 200
_CF_STOP = 4.0 * np.finfo(float).eps


def _si_cin(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Si(x) and Cin(x) = int_0^x (1 - cos t) / t dt, entrywise for real x.

    For |x| <= 4 both come from their power series in x^2, so Cin(0) = 0.
    Beyond, E1(i|x|) = -Ci(|x|) + i (Si(|x|) - pi/2) comes from the modified
    Lentz evaluation of its continued fraction, stopped once a step is within
    4 eps of 1.  Si is odd and Cin even; +-inf gives (+-pi/2, inf) and NaN
    gives NaN.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    si, cin = np.empty_like(ax), np.empty_like(ax)
    small = ~(ax > _SERIES_MAX)                  # NaN goes through the series
    t = ax[small] ** 2
    si_sum = cin_sum = np.zeros_like(t)
    for si_coeff, cin_coeff in zip(_SI_SERIES[::-1], _CIN_SERIES[::-1]):   # Horner in t
        si_sum = si_sum * t + si_coeff
        cin_sum = cin_sum * t + cin_coeff
    si[small] = ax[small] * si_sum
    cin[small] = t * cin_sum
    big = np.isfinite(ax) & ~small
    z = ax[big]
    b = 1.0 + 1j * z                             # modified Lentz: C_0 huge, D_1 = h_1 = 1/b_1
    c = np.full_like(b, 1e300)
    d = h = 1.0 / b
    done = np.zeros(z.shape, dtype=bool)
    for k in range(1, _CF_MAX_STEPS):
        if done.all():
            break
        a = -float(k * k)
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        step = c * d
        h = np.where(done, h, h * step)
        done |= np.abs(step - 1.0) <= _CF_STOP
    # h = e^{iz} E1(iz) = g - i f for the auxiliary functions f and g of
    # Si = pi/2 - f cos - g sin and Ci = f sin - g cos
    f, g = -h.imag, h.real
    cos, sin = np.cos(z), np.sin(z)
    si[big] = 0.5 * np.pi - f * cos - g * sin
    cin[big] = np.euler_gamma + np.log(z) - (f * sin - g * cos)
    si[np.isinf(ax)] = 0.5 * np.pi
    cin[np.isinf(ax)] = np.inf
    return np.copysign(si, x), cin


def _sinc_transform(half_width: float, a: np.ndarray, lo: np.ndarray,
                    hi: np.ndarray) -> np.ndarray:
    """int_lo^hi e^{-i a v} sin(half_width v) / v dv by the Si and Cin functions."""
    x = np.stack([half_width + a, half_width - a])[:, None] * np.stack([hi, lo])
    si, cin = _si_cin(x)
    si = si[:, 0] - si[:, 1]
    cin = cin[:, 0] - cin[:, 1]
    return 0.5 * (si[0] + si[1]) - 0.5j * (cin[0] - cin[1])


def _cosine_factor(eps: float, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Closed form of (1/2pi) int e^{-ixy} chi(eps x) chi(eps y) e^{i(ax+by)}
    for the width-6 raised cosine chi (see the module docstring)."""
    half_width = CUTOFF_WIDTH / eps
    shifts = np.pi * eps / CUTOFF_WIDTH * _COSINE_SHIFTS
    a = alpha[..., None, None] + shifts[:, None]
    b = beta[..., None, None] + shifts
    terms = np.exp(1j * a * b) * _sinc_transform(half_width, a, b - half_width,
                                                 b + half_width)
    return (_COSINE_WEIGHTS * terms).sum(axis=(-2, -1)) / (2.0 * np.pi)


_CUTOFF_FACTORS = {"gaussian": _gauss_factor, "cosine": _cosine_factor}


def warp_oscillatory(model: OneParticleModel, kappa: float, word: MaskWord, eps: float,
                     cutoff: str = "gaussian") -> MaskWord:
    """The eps-regularized warped convolution of a mask word for the named
    cutoff; the two cutoff factors are evaluated at the word's nonzero entries."""
    if eps <= 0:
        raise ValueError("regulator eps must be positive")
    factor = _CUTOFF_FACTORS.get(cutoff)
    if factor is None:
        raise ValueError(f"unknown cutoff {cutoff!r}; expected 'gaussian' or 'cosine'")
    phi, q = model.phases.astype(float), model.charges.astype(float)
    cols = np.nonzero(word.vec)[0]
    rows = cols ^ word.mask
    boost = factor(eps, -kappa * (q[rows] - q[cols]), phi[cols])
    gauge = factor(eps, kappa * (phi[rows] - phi[cols]), q[cols])
    vec = np.zeros_like(word.vec, dtype=complex)
    vec[cols] = word.vec[cols] * (boost * gauge)
    return MaskWord(word.mask, vec)


def oracle_residuals(model: OneParticleModel, kappa: float, word: MaskWord, epsilons,
                     cutoff: str = "gaussian") -> list[float]:
    """Distance of the regularized integral from the closed form, per eps."""
    exact = warp_word(model, kappa, word)
    return [(warp_oscillatory(model, kappa, word, float(e), cutoff) - exact).norm()
            for e in epsilons]


def oracle_sweep(model: OneParticleModel, kappa: float, epsilons: list[float]) -> dict:
    """Regularized-integral residuals of the first negative-charge spinor.

    Returns {cutoff: (residuals, decreasing)} for the gaussian and cosine
    cutoffs, one residual per regulator in epsilons; decreasing means finite
    and strictly decreasing.
    """
    f = np.zeros(model.doubled_dim)
    f[model.n_modes + (model.d_plus if model.d_minus else 0)] = 1.0    # B(0 (+) e)
    word = field_word(model, f)
    sweep = {}
    for cutoff in ("gaussian", "cosine"):
        residuals = oracle_residuals(model, kappa, word, epsilons, cutoff)
        decreasing = (all(math.isfinite(r) for r in residuals)
                      and all(a > b for a, b in zip(residuals, residuals[1:])))
        sweep[cutoff] = (residuals, decreasing)
    return sweep
