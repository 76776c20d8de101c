"""The dense operator layer: d x d Fock matrices, the reference of the tests.

The program keeps one operator form, mask words and number blocks
(dswarp.car_fock).  The tests compare it against these dense constructions:
FockOperator with its norm by one SVD (operator_norm), the field B(f) as the
matrix car_fock.field_B builds, the spinor B(0 (+) f) and the cospinor
B(f (+) 0), and the warp as the entrywise phase exp(i kappa theta) of the
angle matrix theta_ij = phi_i q_j - q_i phi_j, built whole by two outer
products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dswarp.car_fock import OneParticleModel, field_B


@dataclass(frozen=True)
class FockOperator:
    """Dense operator on the Fock space, tagged with its model."""

    matrix: np.ndarray
    model: OneParticleModel

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.model.dim, self.model.dim):
            raise ValueError(f"operator shape {m.shape} does not match Fock dim {self.model.dim}")
        object.__setattr__(self, "matrix", m)

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        return FockOperator(self.matrix @ other.matrix, self.model)

    def __add__(self, other: "FockOperator") -> "FockOperator":
        return FockOperator(self.matrix + other.matrix, self.model)

    def __sub__(self, other: "FockOperator") -> "FockOperator":
        return FockOperator(self.matrix - other.matrix, self.model)

    def __mul__(self, scalar) -> "FockOperator":
        return FockOperator(self.matrix * scalar, self.model)

    __rmul__ = __mul__

    def __neg__(self) -> "FockOperator":
        return FockOperator(-self.matrix, self.model)

    @property
    def H(self) -> "FockOperator":
        return FockOperator(self.matrix.conj().T, self.model)

    def norm(self) -> float:
        """Operator norm (largest singular value), NaN if an entry is not finite."""
        return operator_norm(self.model, self.matrix)

    def dist(self, other: "FockOperator") -> float:
        return operator_norm(self.model, self.matrix - other.matrix)

    def charge_shift(self, m: int) -> np.ndarray:
        """Component sum_n E(n+m) F E(n)."""
        q = self.model.charges
        mask = (q[:, None] - q[None, :]) == m
        return np.where(mask, self.matrix, 0.0)


def operator_norm(model: OneParticleModel, m: np.ndarray) -> float:
    """Largest singular value of the d x d matrix m by one SVD; 0 for a zero
    matrix, NaN if an entry is not finite."""
    m = np.asarray(m)
    d = model.dim
    if m.shape != (d, d):
        raise ValueError(f"matrix shape {m.shape} does not match Fock dim {d}")
    if not np.count_nonzero(m):
        return 0.0
    if not np.isfinite(m).all():
        return math.nan
    return float(np.linalg.svd(m, compute_uv=False)[0])


def field_operator(model: OneParticleModel, f) -> FockOperator:
    """The selfdual generator B(f) as a dense operator."""
    return FockOperator(field_B(model, f), model)


def cospinor(model: OneParticleModel, f_plus) -> FockOperator:
    """Charge-raising field B(f (+) 0)."""
    f_plus = np.asarray(f_plus, dtype=complex)
    if f_plus.shape != (model.n_modes,):
        raise ValueError(f"cospinor argument must have {model.n_modes} components")
    return field_operator(model, np.concatenate([f_plus, np.zeros(model.n_modes)]))


def spinor(model: OneParticleModel, f_minus) -> FockOperator:
    """Charge-lowering field B(0 (+) f)."""
    f_minus = np.asarray(f_minus, dtype=complex)
    if f_minus.shape != (model.n_modes,):
        raise ValueError(f"spinor argument must have {model.n_modes} components")
    return field_operator(model, np.concatenate([np.zeros(model.n_modes), f_minus]))


def angle_matrix(model: OneParticleModel) -> np.ndarray:
    """The d x d warp angles phi_i q_j - q_i phi_j."""
    phi, q = model.phases, model.charges
    return np.outer(phi, q) - np.outer(q, phi)


def warp(model: OneParticleModel, kappa: float, op: FockOperator) -> FockOperator:
    """The warped operator, entrywise; warp at -kappa inverts it."""
    return FockOperator(op.matrix * np.exp(1j * kappa * angle_matrix(model)), model)
