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
keeps every zero of F, so warp_word applies it to a mask word by gathering
the phase at the word's entries.

Oscillatory oracle
------------------
The defining integral (1/4 pi^2) int dv dv' e^{-i v v'} chi(eps v, eps v')
tau_{kappa theta v}(F) U(v') is evaluated independently for two cutoffs, as a
verification oracle: a width-6 Gaussian and a width-6 raised cosine (compact
support), both in closed form.  For an entry (i, j) the integral factorizes into two 2D
factors J(alpha, beta) with

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
"""

from __future__ import annotations

import math
from collections import OrderedDict

import numpy as np
from scipy.special import sici

from .car_fock import (FockOperator, MaskWord, OneParticleModel, boost_phases,
                       conjugate_by_diagonal, gauge_phases, reflection_fock, rotation_fock,
                       spinor)

CUTOFF_WIDTH = 6.0

# Warp phases kept per model: the most recent kappas, enough for +-kappa and
# for the +-h, +-h/2 steps of a central-difference derivative.
RECENT_PHASES = 4


def angle_matrix(model: OneParticleModel) -> np.ndarray:
    """phi_i q_j - q_i phi_j, read-only and built once per model."""
    phi, q = model.phases, model.charges
    return model.cached("angle_matrix", lambda: np.outer(phi, q) - np.outer(q, phi))


def warp_phase(model: OneParticleModel, kappa: float) -> np.ndarray:
    """exp(i kappa angle), read-only; the model keeps the RECENT_PHASES latest."""
    recent = model.cached("warp_phases", OrderedDict)
    key = (kappa, math.copysign(1.0, kappa))   # -0.0 is its own key
    phase = recent.get(key)
    if phase is None:
        phase = np.exp(1j * kappa * angle_matrix(model))
        phase.flags.writeable = False
        recent[key] = phase
        if len(recent) > RECENT_PHASES:
            recent.popitem(last=False)
    else:
        recent.move_to_end(key)
    return phase


def warp(model: OneParticleModel, kappa: float, op: FockOperator) -> FockOperator:
    """The warped operator, by the exact sector formula; warp at -kappa inverts it."""
    return FockOperator(op.matrix * warp_phase(model, kappa), model)


def warp_word(model: OneParticleModel, kappa: float, word: MaskWord) -> MaskWord:
    """The warped mask word: each entry times the warp phase at its (row, column)."""
    phase = warp_phase(model, kappa)[word.rows(), np.arange(len(word.vec))]
    return MaskWord(word.mask, word.vec * phase)


def warp_inverse_check(model: OneParticleModel, kappa: float, op: FockOperator) -> float:
    return warp(model, -kappa, warp(model, kappa, op)).dist(op)


def rieffel_product(model: OneParticleModel, kappa: float, f: FockOperator,
                    g: FockOperator) -> FockOperator:
    """The deformed product: warp(f x g) = warp(f) warp(g)."""
    return warp(model, -kappa, warp(model, kappa, f) @ warp(model, kappa, g))


def warp_rotated(model: OneParticleModel, kappa: float, op: FockOperator,
                 angle: float | None = None) -> FockOperator:
    """Warp along the rotated flow r_* xi (rotated boost, same gauge)."""
    rot = rotation_fock(model, angle)
    inner = FockOperator(rot.H.matrix @ op.matrix @ rot.matrix, model)
    return FockOperator(rot.matrix @ warp(model, kappa, inner).matrix @ rot.H.matrix, model)


def covariance_transform(model: OneParticleModel, kappa: float, op: FockOperator,
                         kind: str, parameter: float | None = None):
    """Both sides of the covariance identity for the requested symmetry.

    Returns (lhs, rhs): lhs conjugates the warped operator, rhs warps the
    conjugated operator along the pushed-forward flow.  Boost and gauge leave
    the flow fixed; the reflection flips kappa; the rotation replaces the
    boost generator by its rotated image.
    """
    if kind in ("boost", "gauge"):
        u = (boost_phases if kind == "boost" else gauge_phases)(model, float(parameter))
        lhs = FockOperator(conjugate_by_diagonal(u, warp(model, kappa, op).matrix), model)
        rhs = warp(model, kappa, FockOperator(conjugate_by_diagonal(u, op.matrix), model))
    elif kind == "reflection":
        r = reflection_fock(model)
        lhs = r @ warp(model, kappa, op) @ r.H
        rhs = warp(model, -kappa, r @ op @ r.H)
    elif kind == "rotation":
        g = rotation_fock(model, parameter)
        lhs = g @ warp(model, kappa, op) @ g.H
        rhs = warp_rotated(model, kappa, g @ op @ g.H, parameter)
    else:
        raise ValueError(f"unknown covariance kind {kind!r}")
    return lhs, rhs


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


def _sinc_transform(half_width: float, a: np.ndarray, lo: np.ndarray,
                    hi: np.ndarray) -> np.ndarray:
    """int_lo^hi e^{-i a v} sin(half_width v) / v dv by the Si and Cin functions."""
    x = np.stack([half_width + a, half_width - a])[:, None] * np.stack([hi, lo])
    ax = np.abs(x)
    si, ci = sici(ax)
    with np.errstate(divide="ignore", invalid="ignore"):     # Cin(0) = 0
        cin = np.where(ax == 0, 0.0, np.euler_gamma + np.log(ax) - ci)
    si = np.copysign(si, x)
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


def warp_oscillatory(model: OneParticleModel, kappa: float, op: FockOperator, eps: float,
                     cutoff: str = "gaussian") -> FockOperator:
    """The eps-regularized warped convolution for the named cutoff."""
    if eps <= 0:
        raise ValueError("regulator eps must be positive")
    factor = _CUTOFF_FACTORS.get(cutoff)
    if factor is None:
        raise ValueError(f"unknown cutoff {cutoff!r}; expected 'gaussian' or 'cosine'")
    phi, q = model.phases.astype(float), model.charges.astype(float)
    rows, cols = np.nonzero(op.matrix)
    boost = factor(eps, -kappa * (q[rows] - q[cols]), phi[cols])
    gauge = factor(eps, kappa * (phi[rows] - phi[cols]), q[cols])
    out = np.zeros_like(op.matrix)
    out[rows, cols] = op.matrix[rows, cols] * (boost * gauge)
    return FockOperator(out, model)


def oracle_residuals(model: OneParticleModel, kappa: float, op: FockOperator, epsilons,
                     cutoff: str = "gaussian") -> list[float]:
    """Distance of the regularized integral from the closed form, per eps."""
    exact = warp(model, kappa, op)
    return [warp_oscillatory(model, kappa, op, float(e), cutoff).dist(exact)
            for e in epsilons]


def oracle_sweep(model: OneParticleModel, kappa: float, epsilons: list[float]) -> dict:
    """Regularized-integral residuals of the first negative-charge spinor.

    Returns {cutoff: (residuals, decreasing)} for the gaussian and cosine
    cutoffs, one residual per regulator in epsilons; decreasing means finite
    and strictly decreasing.
    """
    f_minus = np.zeros(model.n_modes)
    f_minus[model.d_plus if model.d_minus else 0] = 1.0
    op = spinor(model, f_minus)
    sweep = {}
    for cutoff in ("gaussian", "cosine"):
        residuals = oracle_residuals(model, kappa, op, epsilons, cutoff)
        decreasing = (all(math.isfinite(r) for r in residuals)
                      and all(a > b for a, b in zip(residuals, residuals[1:])))
        sweep[cutoff] = (residuals, decreasing)
    return sweep
