"""Theorem-level property suites for the deformed wedge nets.

Algebra spans are handled as monomial bases up to a degree bound, compared by
numerical rank (SVD threshold 1e-9), which makes set statements like
"conjugation maps the deformed algebra onto itself" decidable at this scale.

The monomials are words in the W0 or W0p wedge generators, each a field on
one mode, so every word is a mask word D P_S (car_fock.MaskWord).  Warp,
boost, gauge and twist conjugation are entrywise and keep the mask.  Words
with different masks have disjoint supports, so a span is the orthogonal sum
of its per-mask spans: span_basis runs one SVD per mask block (#words with
that mask x d) and cuts the rank of every block against the largest singular
value over all blocks.  That is the top singular value of the whole stack of
vectorized matrices, so the rank is the one a single SVD of the stack gives.
A twisted commutator of two mask words is again a mask word, and its
operator norm is its largest absolute entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .car_fock import (FockOperator, MaskWord, OneParticleModel, boost_phases, gauge_phases,
                       spinor, twist_phases, wedge_generators)
from .deformation import DeformationContext, warp, warp_rotated, warp_word
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

def span_basis(words: list[MaskWord], svd_tol: float = SPAN_SVD_TOL) -> dict[int, np.ndarray]:
    """Orthonormal basis of the linear span of mask words: {mask: rows of vectors}.

    Each mask block's rank is cut against the largest singular value of all
    blocks, as for one SVD of the whole stack.
    """
    blocks: dict[int, list[np.ndarray]] = {}
    for w in words:
        blocks.setdefault(w.mask, []).append(w.vec)
    svds = {mask: np.linalg.svd(np.stack(vecs), full_matrices=False)[1:]
            for mask, vecs in blocks.items()}
    top = worst(svals[0] for svals, _ in svds.values())
    cut = svd_tol * max(1.0, top)
    return {mask: vh[:int(np.sum(svals > cut))] for mask, (svals, vh) in svds.items()}


def span_residual(basis: dict[int, np.ndarray], words: list[MaskWord]) -> float:
    """Largest relative distance of any word from the span.

    A word whose mask has no basis rows is orthogonal to the span: distance 1.
    """
    residuals = []
    for w in words:
        scale = np.linalg.norm(w.vec)
        if scale == 0.0:
            continue
        rows = basis.get(w.mask)
        if rows is None:
            residuals.append(1.0)
            continue
        proj = rows.T @ (rows.conj() @ w.vec)
        residuals.append(float(np.linalg.norm(w.vec - proj) / scale))
    return worst(residuals)


def spans_equal_residual(words_a: list[MaskWord], words_b: list[MaskWord]) -> float:
    """Symmetric containment defect of two spans."""
    basis_a, basis_b = span_basis(words_a), span_basis(words_b)
    return worst([span_residual(basis_a, words_b), span_residual(basis_b, words_a)])


def wedge_monomials(model: OneParticleModel, tag: str, degree: int) -> list[MaskWord]:
    """All generator words of length <= degree over the tagged wedge basis."""
    gens = wedge_generators(model, tag)
    identity = MaskWord(0, np.ones(model.dim, dtype=complex))
    words = [identity]
    layer = [identity]
    for _ in range(degree):
        layer = [w @ g for w in layer for g in gens]
        words.extend(layer)
    return words


def random_monomial(model: OneParticleModel, tag: str, degree: int,
                    rng: np.random.Generator) -> MaskWord:
    """A product of 1..degree random wedge generators."""
    gens = wedge_generators(model, tag)
    picks = [int(rng.integers(len(gens))) for _ in range(int(rng.integers(1, degree + 1)))]
    out = gens[picks[0]]
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
        f = warp_word(ctx, random_monomial(model, "W0", degree, rng))
        g = warp_word(ctx_refl, random_monomial(model, "W0p", degree, rng))
        twisted = f.conjugated_by(z)
        residuals.append((twisted @ g - g @ twisted).norm())
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
    deformed = [warp_word(ctx, w) for w in words]
    basis = span_basis(deformed)

    reports = []
    for t in (0.35, -0.8):
        u = boost_phases(model, t)
        conjugated = [m.conjugated_by(u) for m in deformed]
        residual = span_residual(basis, conjugated)
        reports.append(("boost-stabilizer-invariance", residual, {"t": t}))

    if break_reflection:
        reflected = deformed
    else:
        ctx_refl = ctx.with_kappa(-kappa)
        reflected = [warp_word(ctx_refl, w) for w in wedge_monomials(model, "W0p", degree)]
    z = twist_phases(model)
    residuals = []
    rng = np.random.default_rng(seed)
    for _ in range(24):
        f = deformed[int(rng.integers(len(deformed)))]
        g = reflected[int(rng.integers(len(reflected)))]
        twisted = f.conjugated_by(z)
        residuals.append((twisted @ g - g @ twisted).norm())
    reports.append(("reflected-in-twisted-commutant", worst(residuals),
                    {"broken": break_reflection}))

    for s in (0.7, 2.1):
        v = gauge_phases(model, s)
        conjugated = [m.conjugated_by(v) for m in deformed]
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
    deformed = [warp_word(ctx, w) for w in wedge_monomials(model, "W0", degree)]
    residuals = []
    for t, s in ((0.4, 0.0), (-0.25, 1.3), (0.0, 2.0)):
        u = boost_phases(model, t) * gauge_phases(model, s)
        conjugated = [m.conjugated_by(u) for m in deformed]
        residuals.append(spans_equal_residual(deformed, conjugated))
    return worst(residuals)
