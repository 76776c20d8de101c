"""Warped convolution over the joint boost-gauge R^2 action.

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
verification oracle: a width-6 Gaussian (closed form) and a width-6 raised
cosine (compact support, semi-analytic inner integral plus composite
Gauss-Legendre).  For an entry (i, j) the integral factorizes into two 2D
factors J(alpha, beta) with

    boost pair:  alpha = -kappa (q_i - q_j),  beta = phi_j,
    gauge pair:  alpha = +kappa (phi_i - phi_j),  beta = q_j,

and J -> e^{i alpha beta} as eps -> 0, reproducing the closed form.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre

from .car_fock import (FockOperator, MaskWord, OneParticleModel, boost_phases,
                       conjugate_by_diagonal, gauge_phases, reflection_fock, rotation_fock,
                       spinor)

CUTOFF_WIDTH = 6.0

# Warp phases kept per model: the most recent kappas, enough for +-kappa and
# for the +-h, +-h/2 steps of a central-difference derivative.
RECENT_PHASES = 4


@dataclass(frozen=True)
class DeformationContext:
    """Model plus deformation parameter kappa (theta is fixed)."""

    model: OneParticleModel
    kappa: float

    def with_kappa(self, kappa: float) -> "DeformationContext":
        return DeformationContext(self.model, float(kappa))

    def angle_matrix(self) -> np.ndarray:
        """phi_i q_j - q_i phi_j, read-only and built once per model."""
        phi, q = self.model.phases, self.model.charges
        return self.model.cached("angle_matrix",
                                 lambda: np.outer(phi, q) - np.outer(q, phi))


def warp_phase(ctx: DeformationContext) -> np.ndarray:
    """exp(i kappa angle), read-only; the model keeps the RECENT_PHASES latest."""
    recent = ctx.model.cached("warp_phases", OrderedDict)
    key = (ctx.kappa, math.copysign(1.0, ctx.kappa))   # -0.0 is its own key
    phase = recent.get(key)
    if phase is None:
        phase = np.exp(1j * ctx.kappa * ctx.angle_matrix())
        phase.flags.writeable = False
        recent[key] = phase
        if len(recent) > RECENT_PHASES:
            recent.popitem(last=False)
    else:
        recent.move_to_end(key)
    return phase


def warp(ctx: DeformationContext, op: FockOperator) -> FockOperator:
    """The warped operator, by the exact sector formula."""
    return FockOperator(op.matrix * warp_phase(ctx), ctx.model)


def warp_word(ctx: DeformationContext, word: MaskWord) -> MaskWord:
    """The warped mask word: each entry times the warp phase at its (row, column)."""
    phase = warp_phase(ctx)[word.rows(), np.arange(len(word.vec))]
    return MaskWord(word.mask, word.vec * phase)


def unwarp(ctx: DeformationContext, op: FockOperator) -> FockOperator:
    return warp(ctx.with_kappa(-ctx.kappa), op)


def warp_inverse_check(ctx: DeformationContext, op: FockOperator) -> float:
    return unwarp(ctx, warp(ctx, op)).dist(op)


def rieffel_product(ctx: DeformationContext, f: FockOperator,
                    g: FockOperator) -> FockOperator:
    """The deformed product: warp(f x g) = warp(f) warp(g)."""
    return unwarp(ctx, warp(ctx, f) @ warp(ctx, g))


def warp_rotated(ctx: DeformationContext, op: FockOperator,
                 angle: float | None = None) -> FockOperator:
    """Warp along the rotated flow r_* xi (rotated boost, same gauge)."""
    rot = rotation_fock(ctx.model, angle)
    inner = FockOperator(rot.H.matrix @ op.matrix @ rot.matrix, ctx.model)
    return FockOperator(rot.matrix @ warp(ctx, inner).matrix @ rot.H.matrix, ctx.model)


def covariance_transform(ctx: DeformationContext, op: FockOperator, kind: str,
                         parameter: float | None = None):
    """Both sides of the covariance identity for the requested symmetry.

    Returns (lhs, rhs): lhs conjugates the warped operator, rhs warps the
    conjugated operator along the pushed-forward flow.  Boost and gauge leave
    the flow fixed; the reflection flips kappa; the rotation replaces the
    boost generator by its rotated image.
    """
    model = ctx.model
    if kind in ("boost", "gauge"):
        u = (boost_phases if kind == "boost" else gauge_phases)(model, float(parameter))
        lhs = FockOperator(conjugate_by_diagonal(u, warp(ctx, op).matrix), model)
        rhs = warp(ctx, FockOperator(conjugate_by_diagonal(u, op.matrix), model))
    elif kind == "reflection":
        r = reflection_fock(model)
        lhs = r @ warp(ctx, op) @ r.H
        rhs = warp(ctx.with_kappa(-ctx.kappa), r @ op @ r.H)
    elif kind == "rotation":
        g = rotation_fock(model, parameter)
        lhs = g @ warp(ctx, op) @ g.H
        rhs = warp_rotated(ctx, g @ op @ g.H, parameter)
    else:
        raise ValueError(f"unknown covariance kind {kind!r}")
    return lhs, rhs


# -- oscillatory-integral oracle ----------------------------------------------

def _gauss_factor(eps: float, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Closed form of (1/2pi) int e^{-ixy} e^{-(eps/W)^2 (x^2+y^2)} e^{i(ax+by)}."""
    e2 = (eps / CUTOFF_WIDTH) ** 2
    det = 1.0 + 4.0 * e2 * e2
    return det ** -0.5 * np.exp((1j * alpha * beta - e2 * (alpha ** 2 + beta ** 2)) / det)


@lru_cache(maxsize=32)
def _composite_gl_nodes(half_width: float, panel_rad: float,
                        order: int = 24) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [-half_width, half_width].

    Panel width is chosen so each panel sees at most panel_rad radians of the
    fastest oscillation, which keeps the fixed-order rule spectrally accurate.
    """
    base_x, base_w = roots_legendre(order)
    n_panels = max(1, int(np.ceil(2.0 * half_width * half_width / panel_rad)))
    edges = np.linspace(-half_width, half_width, n_panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * np.diff(edges)
    nodes = (mids[:, None] + halves[:, None] * base_x[None, :]).ravel()
    weights = (halves[:, None] * base_w[None, :]).ravel()
    return nodes, weights


def _cosine_factor(eps: float, alpha: float, beta: float) -> complex:
    """(1/2pi) iterated integral with the width-6 raised-cosine cutoff.

    Inner integral in closed form (three shifted sinc terms from the cosine
    window), outer integral by composite Gauss-Legendre over the support.
    """
    half_width = CUTOFF_WIDTH / eps
    theta = np.pi * eps / CUTOFF_WIDTH
    x, w = _composite_gl_nodes(half_width, 18.0)
    window = 0.5 * (1.0 + np.cos(np.pi * eps * x / CUTOFF_WIDTH))
    inner = np.zeros_like(x)
    for shift, coef in ((0.0, 0.5), (theta, 0.25), (-theta, 0.25)):
        u = beta - x + shift
        inner += coef * 2.0 * half_width * np.sinc(half_width * u / np.pi)
    integrand = window * np.exp(1j * alpha * x) * inner
    return complex(np.sum(w * integrand) / (2.0 * np.pi))


def warp_oscillatory(ctx: DeformationContext, op: FockOperator, eps: float,
                     cutoff: str = "gaussian") -> FockOperator:
    """The eps-regularized warped convolution for the named cutoff."""
    if eps <= 0:
        raise ValueError("regulator eps must be positive")
    model = ctx.model
    phi, q = model.phases.astype(float), model.charges.astype(float)
    dphi = phi[:, None] - phi[None, :]
    dq = q[:, None] - q[None, :]
    alpha1 = -ctx.kappa * dq
    beta1 = np.broadcast_to(phi[None, :], dphi.shape)
    alpha2 = ctx.kappa * dphi
    beta2 = np.broadcast_to(q[None, :], dphi.shape)
    if cutoff == "gaussian":
        factors = _gauss_factor(eps, alpha1, beta1) * _gauss_factor(eps, alpha2, beta2)
    elif cutoff == "cosine":
        factors = np.ones(op.matrix.shape, dtype=complex)
        nz_rows, nz_cols = np.nonzero(np.abs(op.matrix) > 1e-15)
        cache: dict[tuple[float, float], complex] = {}
        for i, j in zip(nz_rows, nz_cols):
            value = 1.0 + 0.0j
            for a, b in ((alpha1[i, j], beta1[i, j]), (alpha2[i, j], beta2[i, j])):
                key = (round(float(a), 12), round(float(b), 12))
                if key not in cache:
                    cache[key] = _cosine_factor(eps, *key)
                value *= cache[key]
            factors[i, j] = value
    else:
        raise ValueError(f"unknown cutoff {cutoff!r}; expected 'gaussian' or 'cosine'")
    return FockOperator(op.matrix * factors, model)


def oracle_residuals(ctx: DeformationContext, op: FockOperator, epsilons,
                     cutoff: str = "gaussian") -> list[float]:
    """Distance of the regularized integral from the closed form, per eps."""
    exact = warp(ctx, op)
    return [warp_oscillatory(ctx, op, float(e), cutoff).dist(exact) for e in epsilons]


def oracle_sweep(model: OneParticleModel, kappa: float, epsilons: list[float]) -> dict:
    """Regularized-integral residuals of the first negative-charge spinor.

    Returns {cutoff: (residuals, strictly_decreasing)} for the gaussian and
    cosine cutoffs, one residual per regulator in epsilons.
    """
    ctx = DeformationContext(model, kappa)
    f_minus = np.zeros(model.n_modes)
    f_minus[model.d_plus if model.d_minus else 0] = 1.0
    op = spinor(model, f_minus)
    sweep = {}
    for cutoff in ("gaussian", "cosine"):
        residuals = oracle_residuals(ctx, op, epsilons, cutoff)
        sweep[cutoff] = (residuals, all(residuals[i] > residuals[i + 1]
                                        for i in range(len(residuals) - 1)))
    return sweep
