"""Ambient Minkowski form, gamma matrices, and the hyperboloid chart.

Conventions pinned here and relied on everywhere else:

* eta = diag(1, -1, -1, -1, -1) on the ambient R^5.
* gamma_0 = diag(1, -1), gamma_1 = [[0, 1], [-1, 0]] and, for k = 2, 3, 4,
  gamma_k = [[0, u], [u, 0]] with u = e1, e2, e3 the quaternion units.  The
  Clifford relations {gamma_mu, gamma_nu} = 2 eta_mu_nu hold exactly in
  quaternion arithmetic, and the product gamma_0*...*gamma_4 is the scalar -1
  (the representation identifies the two irreducible Clifford modules, so it
  is not faithful).
* Points x with eta(x, x) = -1 embed as x_tilde = sum_mu x^mu gamma_mu; the
  inverse reads off x^mu = (1/4) eta^{mu mu} Tr(gamma_mu x_tilde) with the
  trace taken in the 4x4 complex realization.  The raised index makes
  extract_point the exact linear inverse of embed_point.
"""

from __future__ import annotations

import numpy as np

from .quaternion import E1, E2, E3, ONE, ZERO, QuatMatrix2

ETA_DIAG = np.array([1.0, -1.0, -1.0, -1.0, -1.0])
ETA = np.diag(ETA_DIAG)

HYPERBOLOID_TOL = 1e-9
RHO_RANGE = (-2.0, 2.0)      # rapidity span of sample_hyperboloid


class OffHyperboloidError(ValueError):
    """Input point does not satisfy eta(x, x) = -1 within tolerance."""


class NonCoercibleMatrixError(ValueError):
    """Matrix is not the embedding of any ambient point."""


def minkowski_form(a, b):
    """eta(a, b) = a0*b0 - sum_k ak*bk for ambient 5-vectors, broadcast over (..., 5)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    form = np.sum(ETA_DIAG * a * b, axis=-1)
    return float(form) if form.ndim == 0 else form


# All five generators as one batch of shape (5,): GAMMA_STACK[mu] is gamma_mu.
GAMMA_STACK = QuatMatrix2(np.array([
    [[ONE, ZERO], [ZERO, -ONE]],
    [[ZERO, ONE], [-ONE, ZERO]],
    [[ZERO, E1], [E1, ZERO]],
    [[ZERO, E2], [E2, ZERO]],
    [[ZERO, E3], [E3, ZERO]],
]))
_GAMMAS = tuple(GAMMA_STACK[mu] for mu in range(5))


def gamma(mu: int) -> QuatMatrix2:
    """The generator gamma_mu, mu in 0..4."""
    if not 0 <= mu <= 4:
        raise IndexError(f"gamma index must be in 0..4, got {mu}")
    return _GAMMAS[mu]


def _as_points(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != 5:
        raise ValueError(f"ambient point must have 5 components, got shape {x.shape}")
    return x


def embed_point(x, strict: bool = True, tol: float = HYPERBOLOID_TOL) -> QuatMatrix2:
    """x_tilde = sum_mu x^mu gamma_mu, for one point (5,) or a batch (..., 5).

    In strict mode every point must lie on the hyperboloid eta(x, x) = -1.
    """
    x = _as_points(x)
    if strict:
        defect = np.max(np.abs(minkowski_form(x, x) + 1.0), initial=0.0)
        if not defect <= tol:
            raise OffHyperboloidError(
                f"point is off the hyperboloid: |eta(x,x)+1| = {defect:.3e} > {tol:.1e}")
    m = _GAMMAS[0].scale(x[..., 0])
    for mu in range(1, 5):
        m = m + _GAMMAS[mu].scale(x[..., mu])
    return m


def extract_point(m: QuatMatrix2, tol: float = 1e-8) -> np.ndarray:
    """Inverse of embed_point via the raised-index trace formula.

    Accepts one matrix or a batch; returns points of shape (..., 5).  Raises
    NonCoercibleMatrixError when any matrix is not (close to) an embedded point.
    """
    # Tr over the 4x4 realization equals twice the diagonal scalar sum.
    x = 0.5 * ETA_DIAG * np.asarray((GAMMA_STACK @ m[..., None]).diag_scalar_sum())
    residual = np.max((embed_point(x, strict=False) - m).max_abs(), initial=0.0)
    if not residual <= tol:
        raise NonCoercibleMatrixError(
            f"matrix is not an embedded ambient point: roundtrip residual {residual:.3e}")
    return x


def eta_identity_residual(x):
    """Max-abs defect of eta(x,x)*1 = x_tilde^* gamma0 x_tilde gamma0, per point."""
    x = _as_points(x)
    m = embed_point(x, strict=False)
    lhs = (m.adjoint() @ _GAMMAS[0] @ m @ _GAMMAS[0]).to_complex()
    rhs = np.asarray(minkowski_form(x, x))[..., None, None] * np.eye(4, dtype=complex)
    residual = np.max(np.abs(lhs - rhs), axis=(-2, -1))
    return float(residual) if residual.ndim == 0 else residual


def clifford_residual() -> float:
    """Max defect of {gamma_mu, gamma_nu} = 2 eta_mu_nu over all 25 pairs."""
    rows, cols = GAMMA_STACK[:, None], GAMMA_STACK[None, :]
    anti = rows @ cols + cols @ rows                              # batch (5, 5)
    target = QuatMatrix2.identity().scale(2.0 * ETA)
    return float(np.max((anti - target).max_abs()))


def pseudoscalar() -> np.ndarray:
    """gamma_0 gamma_1 gamma_2 gamma_3 gamma_4 in the 4x4 complex realization.

    Equals -1 exactly in this representation: the product of all five
    generators is central and scalar, which is what makes the representation
    non-faithful on the full Clifford algebra.
    """
    prod = _GAMMAS[0]
    for mu in range(1, 5):
        prod = prod @ _GAMMAS[mu]
    return prod.to_complex()


def sample_hyperboloid(n: int, rng: np.random.Generator) -> np.ndarray:
    """n seeded points on eta(x,x) = -1.

    x0 = sinh(rho) with rho uniform in RHO_RANGE; the spatial part is
    cosh(rho) times a uniform direction on S^3.
    """
    rho = rng.uniform(RHO_RANGE[0], RHO_RANGE[1], size=n)
    direction = rng.normal(size=(n, 4))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    points = np.empty((n, 5))
    points[:, 0] = np.sinh(rho)
    points[:, 1:] = np.cosh(rho)[:, None] * direction
    return points
