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
cosine (compact support, closed-form inner integral plus composite
Gauss-Legendre).  For an entry (i, j) the integral factorizes into two 2D
factors J(alpha, beta) with

    boost pair:  alpha = -kappa (q_i - q_j),  beta = phi_j,
    gauge pair:  alpha = +kappa (phi_i - phi_j),  beta = q_j,

and J -> e^{i alpha beta} as eps -> 0, reproducing the closed form.

The raised cosine is (1 + cos(theta x)) / 2 on |x| <= H, with H = 6 / eps and
theta = pi eps / 6, so H theta = pi.  Its inner integral at u = beta - x is a
sum of three sincs centred at u = 0, +-theta; since sin(H (u +- theta)) =
-sin(H u) they collapse to one sine per node,

    inner(u) = theta^2 sin(H u) / (u (theta^2 - u^2)),

whose removable points u = 0 and u = +-theta take the limits H and H / 2.
J = (1/2pi) sum_x w(x) window(x) e^{i alpha x} inner(beta - x) over a
composite 24-point rule of ceil(4 / eps^2) panels on [-H, H].  The rule is
generated a block of panels at a time, so no array grows with 1 / eps^2.  Per
block, cos(H x), sin(H x) and the weight times the window are built once for
every key (alpha, beta) of one eps, and each key combines them as

    sin(H (beta - x)) = sin(H beta) cos(H x) - cos(H beta) sin(H x).

cos(alpha x) and sin(alpha x) are built once per distinct alpha, and J
accumulates as two real dot products.  Near the removable points the
collapsed form divides a rounded sine by a vanishing denominator, so there
the three-sinc sum is evaluated instead.
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


GL_ORDER = 24

# Radians of the fastest oscillation, H x over [-H, H], that one panel spans.
PANEL_RADIANS = 18.0

# Largest raised-cosine rule an oracle call may use; it is reached near
# eps = 9.8e-4, and smaller regulators are refused.
MAX_RULE_NODES = 10 ** 8

# Entries of one (key, node) block array: 128 KiB of float64, so a call's
# working set stays near 1 MB whatever eps and the key count are.
BLOCK_ENTRIES = 1 << 14

# Within this distance of the removable points u = 0, +-theta the collapsed
# kernel divides a rounded sine by a small denominator (1e-2 off at u - theta
# = 1e-15, 5e-13 off at 1e-5); there the three-sinc sum is used instead.
NEAR_REMOVABLE = 1.0


def _panel_count(half_width: float) -> int | float:
    panels = 2.0 * half_width * half_width / PANEL_RADIANS
    return max(1, math.ceil(panels)) if math.isfinite(panels) else math.inf


def cosine_rule_nodes(eps: float) -> float:
    """Node count of the raised-cosine oracle's rule at eps (inf if it overflows)."""
    return GL_ORDER * _panel_count(CUTOFF_WIDTH / eps)


@lru_cache(maxsize=1)
def _gauss_legendre_base() -> tuple[np.ndarray, np.ndarray]:
    x, w = roots_legendre(GL_ORDER)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _composite_gl_blocks(half_width: float, panels_per_block: int):
    """Composite Gauss-Legendre rule on [-half_width, half_width], by blocks.

    Panel width is chosen so each panel sees at most PANEL_RADIANS of the
    fastest oscillation, which keeps the fixed-order rule spectrally accurate.
    Yields (nodes, weights) for panels_per_block panels at a time, ascending;
    the edges are those of np.linspace(-half_width, half_width, n + 1).
    """
    base_x, base_w = _gauss_legendre_base()
    n_panels = _panel_count(half_width)
    step = 2.0 * half_width / n_panels
    for start in range(0, n_panels, panels_per_block):
        stop = min(start + panels_per_block, n_panels)
        edges = np.arange(start, stop + 1) * step - half_width
        if stop == n_panels:
            edges[-1] = half_width
        mids = 0.5 * (edges[:-1] + edges[1:])
        halves = 0.5 * np.diff(edges)
        yield ((mids[:, None] + halves[:, None] * base_x).ravel(),
               (halves[:, None] * base_w).ravel())


def _three_sinc(half_width: float, theta: float, u: np.ndarray) -> np.ndarray:
    """Inner integral at u = beta - x as the sum of the window's three sincs."""
    h = half_width / np.pi
    return half_width * (np.sinc(h * u) + 0.5 * np.sinc(h * (u + theta))
                         + 0.5 * np.sinc(h * (u - theta)))


def _cosine_factors(eps: float, alphas: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """(1/2pi) iterated integral with the width-6 raised-cosine cutoff, per key.

    Key k is (alphas[k], betas[k]).  The inner integral is in closed form, the
    outer one a composite Gauss-Legendre sum over the support, evaluated a
    block of nodes at a time for all keys (see the module docstring).
    """
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    half_width = CUTOFF_WIDTH / eps
    theta = np.pi * eps / CUTOFF_WIDTH
    scale = theta * theta
    sin_hb, cos_hb = np.sin(half_width * betas)[:, None], np.cos(half_width * betas)[:, None]
    unique_alphas, alpha_of_key = np.unique(alphas, return_inverse=True)
    unique_alphas = unique_alphas[:, None]
    key_index = np.arange(len(betas))
    reach = theta + NEAR_REMOVABLE
    panels = max(1, BLOCK_ENTRIES // (GL_ORDER * max(1, len(betas))))
    total = np.zeros(len(betas), dtype=complex)
    for x, w in _composite_gl_blocks(half_width, panels):
        hx = half_width * x
        u = betas[:, None] - x
        # inner(u) / theta^2; theta^2 rides on the weights
        den = theta - u
        den *= theta + u
        den *= u
        inner = sin_hb * np.cos(hx)
        inner -= cos_hb * np.sin(hx)
        with np.errstate(divide="ignore", invalid="ignore"):
            inner /= den
        lo = np.searchsorted(x, betas - reach)
        hi = np.searchsorted(x, betas + reach)
        for k in np.nonzero(hi > lo)[0]:
            near = slice(lo[k], hi[k])
            inner[k, near] = _three_sinc(half_width, theta, u[k, near]) / scale
        inner *= w * (0.5 * scale) * (1.0 + np.cos(theta * x))
        ax = unique_alphas * x
        total.real += (inner @ np.cos(ax).T)[key_index, alpha_of_key]
        total.imag += (inner @ np.sin(ax).T)[key_index, alpha_of_key]
    return total / (2.0 * np.pi)


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
        if cosine_rule_nodes(eps) > MAX_RULE_NODES:
            raise ValueError(f"regulator eps={eps!r} needs {cosine_rule_nodes(eps):.3g} "
                             f"quadrature nodes, above the cap of {MAX_RULE_NODES:.0e}")
        factors = np.ones(op.matrix.shape, dtype=complex)
        rows, cols = np.nonzero(np.abs(op.matrix) > 1e-15)
        pairs = [(round(float(a), 12), round(float(b), 12)) for a, b in zip(
            np.concatenate([alpha1[rows, cols], alpha2[rows, cols]]),
            np.concatenate([beta1[rows, cols], beta2[rows, cols]]))]
        keys, key_of_pair = np.unique(np.array(pairs).reshape(-1, 2), axis=0,
                                      return_inverse=True)
        values = _cosine_factors(eps, keys[:, 0], keys[:, 1])[key_of_pair.reshape(2, -1)]
        factors[rows, cols] = values[0] * values[1]
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
