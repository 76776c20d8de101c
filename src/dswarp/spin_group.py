"""The covering group Sp(1,1) of SO(1,4)_0, its Lie algebra, and flows.

Membership: g in Sp(1,1) iff g^* gamma0 g = gamma0 (quaternionic adjoint).
The covering homomorphism is evaluated by the trace formula

    pi(g)_{mu nu} = (1/4) eta^{mu mu} Tr(gamma_mu g gamma_nu g^{-1}),

trace in the 4x4 complex realization; the raised first index is the unique
dressing that makes pi(1) = 1 and pi multiplicative.  The boost lift uses
rapidity pi*t against the base group's 2*pi*t, and its sign is pinned by
pi(boost_cover(t)) = boost_base(t) under the normative embedding
x_tilde = sum x^mu gamma_mu.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import ETA, ETA_DIAG, GAMMA_STACK, gamma
from .quaternion import ONE, QuatMatrix2, qmat_dist

SP11_TOL = 1e-10


# Largest 1-norm at which the degree-16 Taylor polynomial is used unscaled:
# its remainder 0.8^17 / 17! = 6.3e-17 is below the unit roundoff 2^-53.
_EXPM_THETA = 0.8
_EXPM_GROUPS = np.array([1.0 / math.factorial(k) for k in range(16)]).reshape(4, 4)


def expm(a) -> np.ndarray:
    """exp(a) for a real (..., m, m) stack, by scaling and squaring.

    The stack is scaled by 2^-s until every 1-norm is at most _EXPM_THETA,
    the degree-16 Taylor polynomial is evaluated in powers of a^4
    (Paterson-Stockmeyer: 6 products), and the result is squared s times.
    Unlike an eigen-decomposition this is safe for the non-normal and
    nilpotent so(1,4) elements (Higham, SIAM J. Matrix Anal. Appl. 26, 2005).
    """
    a = np.asarray(a, dtype=float)
    # s = ceil(log2(norm / theta)); frexp gives (0, 0) at 0 and exponent 0 if not finite
    mantissa, exponent = math.frexp(float(np.abs(a).sum(axis=-2).max(initial=0.0))
                                    / _EXPM_THETA)
    squarings = max(exponent - (mantissa == 0.5), 0)
    powers = np.empty((4,) + a.shape)           # I, a, a^2, a^3 of the scaled stack
    powers[0] = np.eye(a.shape[-1])
    powers[1] = np.ldexp(a, -squarings)
    np.matmul(powers[1], powers[1], out=powers[2])
    np.matmul(powers[2], powers[1], out=powers[3])
    a4 = powers[2] @ powers[2]
    # groups[j] = sum_i a^i / (4j + i)!, so exp(a) ~ sum_j groups[j] a^{4j} + a^16 / 16!
    groups = (_EXPM_GROUPS @ powers.reshape(4, -1)).reshape(powers.shape)
    out = groups[3] + a4 / math.factorial(16)
    for j in (2, 1, 0):
        out = groups[j] + out @ a4
    for _ in range(squarings):
        out = out @ out
    return out


class NotInSpinGroupError(ValueError):
    """Matrix fails the g^* gamma0 g = gamma0 membership invariant."""


class SpinElement:
    """An element of Sp(1,1), or a batch of them, stored as a 2x2 quaternionic matrix.

    Construction checks membership for every element of the batch: the
    defect max|g^* gamma0 g - gamma0| of an element g is gated at
    tol * max(1, ||g||_F^2 / 2), the rounding of g^* gamma0 g, which grows
    like the entries squared.  That is tol at the identity (||1||_F^2 = 2),
    and cosh(2 pi t) tol for the boost lift at t.  An element whose squared
    norm overflows is refused.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: QuatMatrix2, tol: float = SP11_TOL):
        residual = sp11_residual(matrix)
        scale = np.maximum(1.0, 0.5 * np.sum(matrix.array ** 2, axis=(-3, -2, -1)))
        if not np.all(np.isfinite(scale) & (residual <= tol * scale)):
            worst = np.max(residual / scale, initial=0.0)
            raise NotInSpinGroupError(
                f"not an Sp(1,1) element: membership residual {worst:.3e} "
                f"relative to max(1, |g|_F^2 / 2)")
        self.matrix = matrix

    @classmethod
    def _checked(cls, matrix: QuatMatrix2) -> "SpinElement":
        """Wrap a matrix taken from an already checked batch."""
        out = cls.__new__(cls)
        out.matrix = matrix
        return out

    def __getitem__(self, index) -> "SpinElement":
        return SpinElement._checked(self.matrix[index])

    def __len__(self) -> int:
        return len(self.matrix)

    def __matmul__(self, other: "SpinElement") -> "SpinElement":
        return SpinElement(self.matrix @ other.matrix)

    def __neg__(self) -> "SpinElement":
        return SpinElement(-self.matrix)

    def inverse_matrix(self) -> QuatMatrix2:
        """g^{-1} = gamma0 g^* gamma0, exact on the group."""
        g0 = gamma(0)
        return g0 @ self.matrix.adjoint() @ g0

    def dist(self, other: "SpinElement"):
        return qmat_dist(self.matrix, other.matrix)


def sp11_residual(m: QuatMatrix2):
    """Membership defect max|g^* gamma0 g - gamma0|, per batch element."""
    g0 = gamma(0)
    return qmat_dist(m.adjoint() @ g0 @ m, g0)


def spin_identity() -> SpinElement:
    return SpinElement(QuatMatrix2.identity())


def _boost_array(t) -> np.ndarray:
    """The (..., 2, 2, 4) array of the boost lift [[c, s], [s, c]], real entries."""
    out = np.zeros(np.shape(t) + (2, 2, 4))
    out[..., 0, 0, 0] = out[..., 1, 1, 0] = np.cosh(np.pi * t)
    out[..., 0, 1, 0] = out[..., 1, 0, 0] = -np.sinh(np.pi * t)
    return out


def boost_cover(t) -> SpinElement:
    """Lift of the reference-wedge boost; rapidity pi*t (t a scalar or an array)."""
    return SpinElement(QuatMatrix2(_boost_array(t)))


def reflection_cover() -> SpinElement:
    """Lift of the wedge reflection: diag(1, -1)."""
    return SpinElement(QuatMatrix2.diag(ONE, -ONE))


def covering_hom(g: SpinElement) -> np.ndarray:
    """The 5x5 proper orthochronous image of g, shape (..., 5, 5) for a batch."""
    conj = g.matrix[..., None] @ GAMMA_STACK @ g.inverse_matrix()[..., None]  # (..., nu)
    prod = GAMMA_STACK[:, None] @ conj[..., None, :]                          # (..., mu, nu)
    out = (0.5 * ETA_DIAG[:, None]) * np.asarray(prod.diag_scalar_sum())
    if not np.all(is_proper_orthochronous(out)):
        raise NotInSpinGroupError("covering image failed the SO(1,4)_0 checks")
    return out


# The Lorentz defect max|Lam^T eta Lam - eta| of a matrix whose entries are
# correct to rounding is a few units of roundoff times ||Lam||_F^2 (random
# frames and covering images stay below 9 u ||Lam||_F^2).  At c = 256 the gate
# is below 1e-8 for every boost with |t| <= 1 (||Lam||_F^2 <= 2 cosh(4 pi) + 3),
# and 2.3e-3 at t = 2, where the defect is 3.2e-6.
LORENTZ_ROUNDING = 256 * np.finfo(float).eps / 2

# Largest Lam_00 whose determinant gate the cofactor can decide.  In
# det(Lam[1:, 1:]) / Lam_00 the unit diagonal entries Lam_22..Lam_44 of a
# boost are sums of terms of size up to Lam_00 that cancel to 1, so each
# carries an absolute rounding error of a few u Lam_00 (u = eps / 2; at most
# 3.3 u Lam_00 over the boost lifts on the 0.01 grid of t up to 10).  With
# 4 u Lam_00 on every entry of the unit block, its three diagonal errors put
# up to 12 u Lam_00 into |det - 1| at first order and its three 2 x 2 minors
# up to 6 (4 u Lam_00)^2 at second; the entries of row and column 1 that
# should be 0 enter divided by Lam_11.  At Lam_00 = 1 / (32 u) = 2^48 that
# is at most 12/32 + 6/64 < 0.47, below the gate |det - 1| <= 1 with room: a
# proper Lam passes, and an improper one (|det - 1| = 2) still fails.
# Further out rounding alone can decide the verdict (|det - 1| is 0.58 at
# t = 5.67 and 2.4 at t = 5.83), so a larger Lam_00 is refused.  The boost
# lift is checkable up to t = acosh(2^48) / (2 pi) = 5.4056.
COFACTOR_CAP = 2.0 ** 48


def is_proper_orthochronous(lam: np.ndarray):
    """Lorentz, time-orienting and unimodular; one verdict per (..., 5, 5) matrix.

    The Lorentz defect and |det - 1| are gated at LORENTZ_ROUNDING * ||Lam||_F^2,
    the rounding of Lam^T eta Lam.  The determinant is taken from the cofactor
    identity det Lam = det(Lam[1:, 1:]) / Lam_00 of a Lorentz matrix
    ((Lam^-1)_00 = Lam_00), which stays accurate where LU on Lam loses every
    digit (at t = 3 the boost's LU determinant is 0).  A Lorentz matrix has
    det = +-1, so the determinant gate is capped at 1: det = -1 is refused
    however large Lam is.  A Lam with Lam_00 above COFACTOR_CAP, where the
    cofactor's rounding can reach that gate, or whose ||Lam||_F^2 overflows,
    cannot be checked and is refused.
    """
    lam = np.asarray(lam, dtype=float)
    bound = LORENTZ_ROUNDING * np.sum(lam * lam, axis=(-2, -1))
    defect = np.max(np.abs(np.swapaxes(lam, -1, -2) @ ETA @ lam - ETA), axis=(-2, -1))
    lam00 = lam[..., 0, 0]
    det_gap = np.abs(np.linalg.det(lam[..., 1:, 1:]) - lam00)      # |det Lam - 1| * Lam_00
    ok = (np.isfinite(bound) & (defect <= bound) & (lam00 >= 1.0 - 1e-10)
          & (lam00 <= COFACTOR_CAP) & (det_gap <= np.minimum(bound, 1.0) * lam00))
    return bool(ok) if ok.ndim == 0 else ok


def boost_base(t: float) -> np.ndarray:
    """The reference-wedge boost in SO(1,4)_0; rapidity 2*pi*t."""
    lam = np.eye(5)
    c, s = np.cosh(2.0 * np.pi * t), np.sinh(2.0 * np.pi * t)
    lam[0, 0] = lam[1, 1] = c
    lam[0, 1] = lam[1, 0] = s
    return lam


def reflection_base() -> np.ndarray:
    """(x0, x1, vec x) -> (x0, -x1, -vec x); proper orthochronous in 5 dims."""
    return np.diag([1.0, -1.0, -1.0, -1.0, -1.0])


def rotation_base(phi: float, axis1: int = 1, axis2: int = 2) -> np.ndarray:
    """Rotation by phi in the (x^axis1, x^axis2) plane."""
    lam = np.eye(5)
    c, s = np.cos(phi), np.sin(phi)
    lam[axis1, axis1] = lam[axis2, axis2] = c
    lam[axis1, axis2] = -s
    lam[axis2, axis1] = s
    return lam


# -- so(1,4) --------------------------------------------------------------

def lie_generator(mu: int, nu: int) -> np.ndarray:
    """Basis element M_{mu nu} with (M_{mu nu})_{ab} = eta_{nu a} d_{mu b} - eta_{mu a} d_{nu b}.

    Antisymmetric in the labels; spatial pairs give E_mu_nu - E_nu_mu.
    Integer entries, so bracket identities can be checked exactly.
    """
    m = np.zeros((5, 5), dtype=int)
    if mu == nu:
        return m
    m[nu, mu] += int(ETA_DIAG[nu])
    m[mu, nu] -= int(ETA_DIAG[mu])
    return m


def lie_basis() -> list[tuple[int, int, np.ndarray]]:
    """The ten basis elements (mu, nu, M_{mu nu}) with mu < nu."""
    return [(mu, nu, lie_generator(mu, nu))
            for mu in range(5) for nu in range(mu + 1, 5)]


def lie_bracket(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def structure_rhs(mu: int, nu: int, rho: int, sigma: int) -> np.ndarray:
    """eta_mr M_ns + eta_ns M_mr - eta_nr M_ms - eta_ms M_nr."""
    eta = ETA_DIAG
    return (int(eta[mu]) * (mu == rho) * lie_generator(nu, sigma)
            + int(eta[nu]) * (nu == sigma) * lie_generator(mu, rho)
            - int(eta[nu]) * (nu == rho) * lie_generator(mu, sigma)
            - int(eta[mu]) * (mu == sigma) * lie_generator(nu, rho))


# Two-dimensional Abelian subgroups: rotation pair, boost+rotation, two null
# rotations about the common null direction e0+e1, null rotation + rotation.
ABELIAN_SUBGROUPS = {
    "L1": (lie_generator(1, 2), lie_generator(3, 4)),
    "L2": (lie_generator(0, 1), lie_generator(2, 3)),
    "L3": (lie_generator(1, 2) - lie_generator(0, 2),
           lie_generator(1, 3) - lie_generator(0, 3)),
    "L4": (lie_generator(1, 2) - lie_generator(0, 2), lie_generator(3, 4)),
}


def abelian_flow(tag: str, t: float, s: float) -> np.ndarray:
    """exp(t*G1) exp(s*G2) for the tagged Abelian generator pair."""
    if tag not in ABELIAN_SUBGROUPS:
        raise KeyError(f"unknown Abelian subgroup tag {tag!r}; expected one of "
                       f"{sorted(ABELIAN_SUBGROUPS)}")
    g1, g2 = ABELIAN_SUBGROUPS[tag]
    return expm(t * g1.astype(float)) @ expm(s * g2.astype(float))


def abelian_commutation_residual(tag: str, t: float, s: float) -> float:
    g1, g2 = ABELIAN_SUBGROUPS[tag]
    e1 = expm(t * g1.astype(float))
    e2 = expm(s * g2.astype(float))
    return float(np.max(np.abs(e1 @ e2 - e2 @ e1)))


J12 = np.diag([1.0, -1.0, -1.0, 1.0, 1.0])
OBSTRUCTION_GRID = 5
OBSTRUCTION_EXTENT = 1.0


def reflection_obstruction_check() -> dict:
    """j12 Lambda(t,s) j12 = Lambda(-t,-s) for the L2 flow, on a grid.

    The conjugated L2 flow reproduces itself with both parameters negated,
    which is exactly the behaviour that rules this subgroup out as a
    deformation flow: the reflected algebra would carry the same deformation
    sign instead of the flipped one.  A NaN at any grid point is the maximum.
    """
    ts = np.linspace(-OBSTRUCTION_EXTENT, OBSTRUCTION_EXTENT, OBSTRUCTION_GRID)
    residuals = [np.max(np.abs(J12 @ abelian_flow("L2", t, s) @ J12
                               - abelian_flow("L2", -t, -s)))
                 for t in ts for s in ts]
    worst = float(np.max(residuals))
    return {
        "subgroup": "L2",
        "grid": OBSTRUCTION_GRID,
        "extent": OBSTRUCTION_EXTENT,
        "max_residual": worst,
        "passed": bool(worst < 1e-10),
    }


# Letters of random_spin_words as (2, 2, 4) arrays: the padding and the reflection lift.
_IDENTITY = QuatMatrix2.identity().array
_REFLECTION = QuatMatrix2.diag(ONE, -ONE).array


def random_spin_words(rng: np.random.Generator, count: int,
                      max_len: int = 4) -> SpinElement:
    """A batch of count short random words in boost and reflection lifts.

    Draws from rng one whole word at a time, so the first k words do not
    depend on count.
    Boost parameters stay small so that matrix entries remain moderate and
    absolute float error stays far below the 1e-10 homomorphism tolerance.
    Words shorter than max_len are padded with identity letters, which
    multiply exactly.
    """
    letters = np.empty((count, max_len, 2, 2, 4))
    letters[:] = _IDENTITY
    for word in letters:
        for k in range(int(rng.integers(1, max_len + 1))):
            if rng.random() < 0.5:
                word[k] = _boost_array(float(rng.uniform(-0.3, 0.3)))
            else:
                word[k] = _REFLECTION
    words = QuatMatrix2(letters[:, 0])
    for k in range(1, max_len):
        words = words @ QuatMatrix2(letters[:, k])
    return SpinElement(words)


_LIE_BASIS_FLOAT = np.array([m for _, _, m in lie_basis()], dtype=float)


def random_proper_lorentz(rng: np.random.Generator, scale: float = 0.7,
                          count: int | None = None) -> np.ndarray:
    """exp of a random so(1,4) combination: a generic element of SO(1,4)_0.

    With count, a (count, 5, 5) stack from one draw of count x 10 coefficients,
    the same numbers as count single draws; one stacked expm exponentiates it.
    The basis elements have disjoint supports, so each algebra entry is one
    coefficient, exactly.
    """
    coeffs = rng.uniform(-scale, scale, size=10 if count is None else (count, 10))
    return expm(np.tensordot(coeffs, _LIE_BASIS_FLOAT, axes=1))
