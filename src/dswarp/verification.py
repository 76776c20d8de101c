"""Theorem-level property suites for the deformed wedge nets.

Algebra spans are handled as monomial bases up to a degree bound, compared by
numerical rank (SVD threshold 1e-9), which makes set statements like
"conjugation maps the deformed algebra onto itself" decidable at this scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .car_fock import (FockOperator, OneParticleModel, boost_phases, conjugate_by_diagonal,
                       gauge_phases, spinor, twist_phases, wedge_generators)
from .deformation import DeformationContext, warp, warp_rotated
from .spin_group import boost_base, rotation_base

SPAN_SVD_TOL = 1e-9


def worst(residuals) -> float:
    """Largest of the residuals, NaN if any is NaN, 0.0 if there are none.

    Python's max() keeps its first argument against a NaN (max(0.0, nan) is
    0.0), which would let a NaN residual pass.
    """
    values = np.fromiter(residuals, dtype=float)
    return float(values.max()) if values.size else 0.0


@dataclass(frozen=True)
class CheckReport:
    """One named residual check; pass iff the residual is finite and meets the tolerance."""

    name: str
    max_residual: float
    tolerance: float
    metadata: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return math.isfinite(self.max_residual) and self.max_residual <= self.tolerance

    def as_dict(self) -> dict:
        """JSON-ready fields; a non-finite number (residual or metadata) becomes None."""
        return {
            "name": self.name,
            "max_residual": _finite_or_none(self.max_residual),
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
            "metadata": _finite_or_none(self.metadata),
        }


def _finite_or_none(value):
    """value with every non-finite float, also inside dicts and lists, as None."""
    if isinstance(value, dict):
        return {k: _finite_or_none(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(v) for v in value]
    if isinstance(value, (float, np.floating)):
        return float(value) if math.isfinite(value) else None
    return value


# -- span machinery -----------------------------------------------------------

def span_basis(mats: list[np.ndarray], svd_tol: float = SPAN_SVD_TOL) -> np.ndarray:
    """Orthonormal row basis of the linear span of vectorized matrices."""
    stack = np.stack([m.ravel() for m in mats])
    _, svals, vh = np.linalg.svd(stack, full_matrices=False)
    rank = int(np.sum(svals > svd_tol * max(1.0, svals[0])))
    return vh[:rank]


def span_residual(basis: np.ndarray, mats: list[np.ndarray]) -> float:
    """Largest relative distance of any matrix from the span."""
    conj = basis.conj()
    residuals = []
    for m in mats:
        v = m.ravel()
        scale = np.linalg.norm(v)
        if scale == 0.0:
            continue
        proj = basis.T @ (conj @ v)
        residuals.append(float(np.linalg.norm(v - proj) / scale))
    return worst(residuals)


def spans_equal_residual(mats_a: list[np.ndarray], mats_b: list[np.ndarray]) -> float:
    """Symmetric containment defect of two spans."""
    basis_a, basis_b = span_basis(mats_a), span_basis(mats_b)
    return worst([span_residual(basis_a, mats_b), span_residual(basis_b, mats_a)])


def wedge_monomials(model: OneParticleModel, tag: str, degree: int) -> list[np.ndarray]:
    """All generator words of length <= degree over the tagged wedge basis."""
    gens = wedge_generators(model, tag)
    words = [np.eye(model.dim, dtype=complex)]
    layer = [np.eye(model.dim, dtype=complex)]
    for _ in range(degree):
        layer = [w @ g for w in layer for g in gens]
        words.extend(layer)
    return words


@dataclass(frozen=True)
class NetAssignment:
    """Deformed generator families per wedge tag, with their spans."""

    kappa: float
    degree: int
    generators: dict
    spans: dict


def build_net(model: OneParticleModel, kappa: float, degree: int = 4,
              tags: tuple[str, ...] = ("W0", "W0p")) -> NetAssignment:
    """Assign warped monomial families to the wedge tags.

    W0 carries warp with +kappa; the reflected wedge carries the reflection
    image, equivalently warp with -kappa of the reflected monomials.
    """
    ctx = DeformationContext(model, kappa)
    gens: dict[str, list[np.ndarray]] = {}
    spans: dict[str, np.ndarray] = {}
    for tag in tags:
        words = wedge_monomials(model, tag, degree)
        if tag == "W0p":
            deformed = [warp(ctx.with_kappa(-kappa), FockOperator(w, model)).matrix
                        for w in words]
        else:
            deformed = [warp(ctx, FockOperator(w, model)).matrix for w in words]
        gens[tag] = deformed
        spans[tag] = span_basis(deformed)
    return NetAssignment(kappa, degree, gens, spans)


def random_monomial(model: OneParticleModel, tag: str, degree: int,
                    rng: np.random.Generator) -> np.ndarray:
    """A product of 1..degree random wedge generators, as a new array."""
    gens = wedge_generators(model, tag)
    picks = [int(rng.integers(len(gens))) for _ in range(int(rng.integers(1, degree + 1)))]
    out = gens[picks[0]].copy()
    for i in picks[1:]:
        out = out @ gens[i]
    return out


def check_twisted_locality(model: OneParticleModel, kappa: float, degree: int = 2,
                           seed: int = 0, n_samples: int = 24,
                           tolerance: float = 1e-10,
                           flip_kappa: bool = True) -> CheckReport:
    """Max twisted commutator between deformed W0 and deformed W0' monomials.

    With flip_kappa=False the reflected algebra is (wrongly) deformed with
    +kappa; that is the negative control showing the sign flip is what makes
    wedge locality survive the deformation.
    """
    rng = np.random.default_rng(seed)
    ctx = DeformationContext(model, kappa)
    ctx_refl = ctx.with_kappa(-kappa if flip_kappa else kappa)
    z = twist_phases(model)
    residuals = []
    for _ in range(n_samples):
        f = warp(ctx, FockOperator(random_monomial(model, "W0", degree, rng), model)).matrix
        g = warp(ctx_refl, FockOperator(random_monomial(model, "W0p", degree, rng), model)).matrix
        twisted = conjugate_by_diagonal(z, f)
        comm = twisted @ g - g @ twisted
        residuals.append(float(np.linalg.norm(comm, 2)))
    name = "twisted-locality" if flip_kappa else "twisted-locality-negative-control"
    return CheckReport(name, worst(residuals), tolerance,
                       {"kappa": kappa, "degree": degree, "seed": seed,
                        "samples": n_samples, "kappa_flip": flip_kappa})


# -- fixed points --------------------------------------------------------------

def deformation_derivative_at_zero(model: OneParticleModel, op: FockOperator,
                                   step: float = 1e-4) -> float:
    """|d/dkappa warp(A)|_0| by central differences with one Richardson step."""
    def central(h: float) -> np.ndarray:
        plus = warp(DeformationContext(model, h), op).matrix
        minus = warp(DeformationContext(model, -h), op).matrix
        return (plus - minus) / (2.0 * h)

    coarse = central(step)
    fine = central(step / 2.0)
    refined = (4.0 * fine - coarse) / 3.0
    return float(np.linalg.norm(refined, 2))


def fixed_point_residual(model: OneParticleModel, op: FockOperator,
                         gauge_tol: float = 1e-10) -> tuple[dict[int, float], float]:
    """Per-sector boost-commutator norms and the kappa-derivative at zero.

    The derivative vanishes iff every charged-sector commutator [K, A E(n)],
    n != 0, vanishes; gauge-invariant inputs are required.  K and E(n) are
    diagonal, so [K, A E(n)] is zero outside the sector-n columns and equals
    (phi_i - phi_j) A_ij on them; the norm of that column block is the norm
    of the commutator.
    """
    if not op.is_gauge_invariant(gauge_tol):
        raise ValueError("fixed-point analysis needs a gauge-invariant operator")
    phi = model.phases
    sector_residuals: dict[int, float] = {}
    for n in model.charge_values():
        cols = np.nonzero(model.charges == n)[0]
        block = (phi[:, None] - phi[cols][None, :]) * op.matrix[:, cols]
        sector_residuals[n] = float(np.linalg.norm(block, 2))
    derivative = deformation_derivative_at_zero(model, op)
    return sector_residuals, derivative


# -- unitary inequivalence ------------------------------------------------------

def inequivalence_witness(model: OneParticleModel, kappa: float,
                          phi: float) -> tuple[float, float]:
    """Group-level and Fock-level witnesses that the deformation moves the net.

    group residual: commutator defect of the wedge boost (rapidity parameter
    kappa) with the (x1, x2)-plane rotation, in 5x5 matrices.  fock residual:
    the two warpings of a charge-lowering field along the original and the
    rotated flow, applied to a charge-one one-particle vector.  Both vanish
    iff kappa * phi = 0.
    """
    if model.rotation_angle is None and phi != 0.0:
        raise ValueError("model has no rotation")
    if model.d_plus < 1 or model.d_minus < 1:
        raise ValueError("witness needs at least one particle and one antiparticle mode")
    lam = boost_base(kappa)
    rot = rotation_base(phi)
    group_residual = float(np.linalg.norm(lam @ rot - rot @ lam, 2))

    ctx = DeformationContext(model, kappa)
    f_minus = np.zeros(model.n_modes, dtype=complex)
    f_minus[model.d_plus] = 1.0             # first antiparticle mode
    psi_op = spinor(model, f_minus)
    straight = warp(ctx, psi_op)
    rotated = warp_rotated(ctx, psi_op, phi)

    ops = model.annihilators()
    one_particle = ops[0].conj().T @ model.vacuum()   # first particle mode, charge +1
    diff = (straight.matrix - rotated.matrix) @ one_particle
    fock_residual = float(np.linalg.norm(diff))
    return group_residual, fock_residual


# -- causal Borchers axioms ------------------------------------------------------

def causal_borchers_axioms(model: OneParticleModel, kappa: float, degree: int = 2,
                           seed: int = 0, tolerance: float = 1e-10,
                           break_reflection: bool = False) -> list[CheckReport]:
    """Boost-stabilizer invariance, twisted commutation of the reflected
    family, and gauge invariance, for the deformed W0 assignment.

    break_reflection replaces the reflected family by the W0 family itself
    (conditions on the reflected subspace deliberately violated); axiom b
    must then fail.
    """
    ctx = DeformationContext(model, kappa)
    words = wedge_monomials(model, "W0", degree)
    deformed = [warp(ctx, FockOperator(w, model)).matrix for w in words]
    basis = span_basis(deformed)

    reports = []
    for t in (0.35, -0.8):
        u = boost_phases(model, t)
        conjugated = [conjugate_by_diagonal(u, m) for m in deformed]
        residual = span_residual(basis, conjugated)
        reports.append(("boost-stabilizer-invariance", residual, {"t": t}))

    if break_reflection:
        reflected = [warp(ctx, FockOperator(w, model)).matrix for w in words]
    else:
        refl_words = wedge_monomials(model, "W0p", degree)
        reflected = [warp(ctx.with_kappa(-kappa), FockOperator(w, model)).matrix
                     for w in refl_words]
    z = twist_phases(model)
    residuals = []
    rng = np.random.default_rng(seed)
    for _ in range(24):
        f = deformed[int(rng.integers(len(deformed)))]
        g = reflected[int(rng.integers(len(reflected)))]
        twisted = conjugate_by_diagonal(z, f)
        residuals.append(float(np.linalg.norm(twisted @ g - g @ twisted, 2)))
    reports.append(("reflected-in-twisted-commutant", worst(residuals),
                    {"broken": break_reflection}))

    for s in (0.7, 2.1):
        v = gauge_phases(model, s)
        conjugated = [conjugate_by_diagonal(v, m) for m in deformed]
        residual = span_residual(basis, conjugated)
        reports.append(("gauge-invariance", residual, {"s": s}))

    merged: dict[str, CheckReport] = {}
    for name, residual, meta in reports:
        meta = dict(meta, kappa=kappa, degree=degree)
        if name in merged:
            prev = merged[name]
            merged[name] = CheckReport(name, worst([prev.max_residual, residual]),
                                       tolerance, prev.metadata)
        else:
            merged[name] = CheckReport(name, residual, tolerance, meta)
    return list(merged.values())


def net_well_defined_residual(model: OneParticleModel, kappa: float,
                              degree: int = 2) -> float:
    """Equal wedges get equal spans: stabilizer conjugates of the deformed
    W0 family against the family itself."""
    ctx = DeformationContext(model, kappa)
    words = wedge_monomials(model, "W0", degree)
    deformed = [warp(ctx, FockOperator(w, model)).matrix for w in words]
    residuals = []
    for t, s in ((0.4, 0.0), (-0.25, 1.3), (0.0, 2.0)):
        u = boost_phases(model, t) * gauge_phases(model, s)
        conjugated = [conjugate_by_diagonal(u, m) for m in deformed]
        residuals.append(spans_equal_residual(deformed, conjugated))
    return worst(residuals)
