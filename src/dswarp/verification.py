"""Theorem-level property suites for the deformed wedge nets.

Every check of `dswarp verify` is defined here, with its name, residual and
tolerance: SUITES maps a suite name to a function (model, cfg, rng) ->
[CheckReport], run_suites runs the configured suites in order, and
unrunnable names the suites a model cannot run, before any of them starts.

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

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from . import spin_group as sg
from . import wedges as wd
from .car_fock import (FockOperator, MaskWord, OneParticleModel, bogolyubov_fock,
                       boost_phases, car_norm_bound, charge_projector, field_B, fock_npoint,
                       gauge_phases, identity_op, operator_norm, quasifree_npoint, spinor,
                       twist_phases, wedge_generators)
from .deformation import (covariance_transform, oracle_sweep, rieffel_product, warp,
                          warp_inverse_check, warp_rotated, warp_word)

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

def span_basis(words: list[MaskWord]) -> dict[int, np.ndarray]:
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
    cut = SPAN_SVD_TOL * max(1.0, top)
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
    kappa_refl = -kappa if flip_kappa else kappa
    z = twist_phases(model)
    residuals = []
    for _ in range(n_samples):
        f = warp_word(model, kappa, random_monomial(model, "W0", degree, rng))
        g = warp_word(model, kappa_refl, random_monomial(model, "W0p", degree, rng))
        residuals.append(_twisted_commutator_norm(f, g, z))
    name = "twisted-locality" if flip_kappa else "twisted-locality-negative-control"
    return CheckReport(name, worst(residuals), tolerance,
                       {"kappa": kappa, "degree": degree, "seed": seed,
                        "samples": n_samples, "kappa_flip": flip_kappa})


def _twisted_commutator_norm(f: MaskWord, g: MaskWord, z: np.ndarray) -> float:
    """Norm of the twisted commutator [Z f Z*, g], with Z the diagonal twist z."""
    zf = f.conjugated_by(z)
    return (zf @ g - g @ zf).norm()


# -- fixed points --------------------------------------------------------------

def deformation_derivative_at_zero(model: OneParticleModel, op: FockOperator,
                                   step: float = 1e-4) -> float:
    """|d/dkappa warp(A)|_0| by central differences with one Richardson step."""
    def central(h: float) -> np.ndarray:
        plus = warp(model, h, op).matrix
        minus = warp(model, -h, op).matrix
        return (plus - minus) / (2.0 * h)

    coarse = central(step)
    fine = central(step / 2.0)
    refined = (4.0 * fine - coarse) / 3.0
    return operator_norm(model, refined)


def fixed_point_residual(model: OneParticleModel, op: FockOperator,
                         gauge_tol: float = 1e-10) -> tuple[dict[int, float], float]:
    """Per-sector boost-commutator norms and the kappa-derivative at zero.

    The derivative vanishes iff every charged-sector commutator [K, A E(n)],
    n != 0, vanishes; gauge-invariant inputs are required.  K and E(n) are
    diagonal, so [K, A E(n)] is (phi_i - phi_j) A_ij on the sector-n columns
    and zero elsewhere.
    """
    if not op.is_gauge_invariant(gauge_tol):
        raise ValueError("fixed-point analysis needs a gauge-invariant operator")
    phi, q = model.phases, model.charges
    commutator = (phi[:, None] - phi[None, :]) * op.matrix
    sector_residuals = {n: operator_norm(model, np.where(q == n, commutator, 0.0))
                        for n in model.charge_values()}
    derivative = deformation_derivative_at_zero(model, op)
    return sector_residuals, derivative


# -- unitary inequivalence ------------------------------------------------------

def _ladder(model: OneParticleModel, j: int, create: bool) -> FockOperator:
    """c_j^+ (create) or c_j, as the field of the unit vector on the copy that
    raises (or lowers) mode j: copy A raises a particle mode, copy B an
    antiparticle mode."""
    f = np.zeros(model.doubled_dim, dtype=complex)
    f[j if create == (model.mode_charges[j] > 0) else model.n_modes + j] = 1.0
    return field_B(model, f)


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
    lam = sg.boost_base(kappa)
    rot = sg.rotation_base(phi)
    group_residual = float(np.linalg.norm(lam @ rot - rot @ lam, 2))

    f_minus = np.zeros(model.n_modes, dtype=complex)
    f_minus[model.d_plus] = 1.0             # first antiparticle mode
    psi_op = spinor(model, f_minus)
    straight = warp(model, kappa, psi_op)
    rotated = warp_rotated(model, kappa, psi_op, phi)

    one_particle = _ladder(model, 0, True).matrix @ model.vacuum()   # mode 0, charge +1
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
    deformed = [warp_word(model, kappa, w) for w in wedge_monomials(model, "W0", degree)]
    basis = span_basis(deformed)
    boosts, gauges = [0.35, -0.8], [0.7, 2.1]
    boost_res = worst(span_residual(basis, [m.conjugated_by(boost_phases(model, t))
                                            for m in deformed]) for t in boosts)

    if break_reflection:
        reflected = deformed
    else:
        reflected = [warp_word(model, -kappa, w) for w in wedge_monomials(model, "W0p", degree)]
    z = twist_phases(model)
    twisted = []
    rng = np.random.default_rng(seed)
    for _ in range(24):
        f = deformed[int(rng.integers(len(deformed)))]
        g = reflected[int(rng.integers(len(reflected)))]
        twisted.append(_twisted_commutator_norm(f, g, z))

    gauge_res = worst(span_residual(basis, [m.conjugated_by(gauge_phases(model, s))
                                            for m in deformed]) for s in gauges)
    meta = {"kappa": kappa, "degree": degree}
    return [
        CheckReport("boost-stabilizer-invariance", boost_res, tolerance, {"t": boosts, **meta}),
        CheckReport("reflected-in-twisted-commutant", worst(twisted), tolerance,
                    {"broken": break_reflection, **meta}),
        CheckReport("gauge-invariance", gauge_res, tolerance, {"s": gauges, **meta}),
    ]


def net_well_defined_residual(model: OneParticleModel, kappa: float,
                              degree: int = 2) -> float:
    """Equal wedges get equal spans: stabilizer conjugates of the deformed
    W0 family against the family itself."""
    deformed = [warp_word(model, kappa, w) for w in wedge_monomials(model, "W0", degree)]
    residuals = []
    for t, s in ((0.4, 0.0), (-0.25, 1.3), (0.0, 2.0)):
        u = boost_phases(model, t) * gauge_phases(model, s)
        conjugated = [m.conjugated_by(u) for m in deformed]
        residuals.append(spans_equal_residual(deformed, conjugated))
    return worst(residuals)


# -- suites ---------------------------------------------------------------------

def _random_operator(model: OneParticleModel, rng: np.random.Generator) -> FockOperator:
    m = rng.standard_normal((model.dim, model.dim)) + 1j * rng.standard_normal((model.dim, model.dim))
    return FockOperator(m, model)


def _random_doubled_vector(model: OneParticleModel, rng: np.random.Generator) -> np.ndarray:
    d = model.doubled_dim
    return rng.standard_normal(d) + 1j * rng.standard_normal(d)


def _max_abs_per_matrix(a: np.ndarray) -> np.ndarray:
    return np.max(np.abs(a), axis=(-2, -1))


def suite_geometry(model: OneParticleModel, cfg: dict, rng) -> list[CheckReport]:
    tol = cfg["tolerances"]
    points = geometry.sample_hyperboloid(1000, rng)
    eta_res = worst(geometry.eta_identity_residual(points))
    round_res = worst(np.max(np.abs(geometry.extract_point(geometry.embed_point(points))
                                    - points), axis=1))
    pseudo = float(np.max(np.abs(geometry.pseudoscalar() + np.eye(4))))
    return [
        CheckReport("clifford-relations", geometry.clifford_residual(), tol["exact"]),
        CheckReport("pseudoscalar-is-minus-one", pseudo, tol["exact"]),
        CheckReport("eta-identity", eta_res, tol["exact"], {"points": 1000}),
        CheckReport("embed-extract-roundtrip", round_res, 1e-10, {"points": 1000}),
    ]


def suite_covering(model: OneParticleModel, cfg: dict, rng) -> list[CheckReport]:
    tol = cfg["tolerances"]
    ident = sg.spin_identity()
    kernel_res = worst([
        np.max(np.abs(sg.covering_hom(ident) - np.eye(5))),
        np.max(np.abs(sg.covering_hom(-ident) - np.eye(5))),
    ])
    ts = np.array([0.1, 0.5, 1.0])
    boost_res = worst(_max_abs_per_matrix(sg.covering_hom(sg.boost_cover(ts))
                                          - np.stack([sg.boost_base(t) for t in ts])))
    words = sg.random_spin_words(rng, 200)      # drawn as g, h, g, h, ...
    g, h = words[0::2], words[1::2]
    hom = _max_abs_per_matrix(sg.covering_hom(g @ h)
                              - sg.covering_hom(g) @ sg.covering_hom(h))
    g = sg.random_spin_words(rng, 20)
    sign = _max_abs_per_matrix(sg.covering_hom(g) - sg.covering_hom(-g))
    commute = []
    for t in (0.3, -0.6):
        lam = sg.boost_base(t)
        for _ in range(5):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            if np.linalg.det(q) < 0:
                q[:, 0] = -q[:, 0]
            stab = np.eye(5)
            rapidity = float(rng.uniform(-1, 1))
            stab[:2, :2] = [[np.cosh(rapidity), np.sinh(rapidity)],
                            [np.sinh(rapidity), np.cosh(rapidity)]]
            stab[2:, 2:] = q
            commute.append(np.max(np.abs(stab @ lam - lam @ stab)))
    return [
        CheckReport("kernel-plus-minus-one", kernel_res, tol["exact"]),
        CheckReport("boost-cover-matches-base", boost_res, tol["composed"]),
        CheckReport("homomorphism-100-words", worst(hom), tol["composed"]),
        CheckReport("two-to-one-sign", worst(sign), tol["exact"]),
        CheckReport("stabilizer-commutes-with-boost", worst(commute), tol["composed"]),
    ]


def suite_lie(model: OneParticleModel, cfg: dict, rng) -> list[CheckReport]:
    tol = cfg["tolerances"]
    basis = sg.lie_basis()
    bracket_res = worst(np.max(np.abs(sg.lie_bracket(a, b) - sg.structure_rhs(mu, nu, rho, sig)))
                        for mu, nu, a in basis for rho, sig, b in basis)
    abelian = []
    for tag in sorted(sg.ABELIAN_SUBGROUPS):
        for _ in range(5):
            t, s = rng.uniform(-1.5, 1.5, size=2)
            abelian.append(sg.abelian_commutation_residual(tag, t, s))
    period_res = float(np.max(np.abs(sg.abelian_flow("L1", 2 * np.pi, 2 * np.pi) - np.eye(5))))
    obstruction = sg.reflection_obstruction_check()
    return [
        CheckReport("structure-constants-100-brackets", bracket_res, tol["exact"]),
        CheckReport("table-subgroups-commute", worst(abelian), tol["composed"]),
        CheckReport("rotation-flow-periodicity", period_res, tol["composed"]),
        CheckReport("reflection-obstruction-grid", obstruction["max_residual"],
                    tol["composed"], {"grid": obstruction["grid"]}),
    ]


def suite_wedges(model: OneParticleModel, cfg: dict, rng) -> list[CheckReport]:
    w0 = wd.Wedge.reference()
    sample = wd.sample_wedge_points(w0, 500, seed=model.seed + 11)
    boost = sg.boost_base(0.4)
    boosted = (boost @ sample.points.T).T
    boost_mismatch = int(np.sum(~wd.wedge_contains(w0, boosted)))
    comp = wd.causal_complement(w0)
    reflected = (sg.reflection_base() @ sample.points.T).T
    refl_mismatch = int(np.sum(~wd.wedge_contains(comp, reflected)))

    comp_sample = wd.sample_wedge_points(comp, 60, seed=model.seed + 13)
    causal_violations = int(np.sum(~wd.spacelike_separated(
        sample.points[:60, None, :], comp_sample.points[None, :, :])))

    inconclusive = 0
    for pair_idx in range(200):
        w1 = wd.Wedge(sg.random_proper_lorentz(rng))
        w2 = wd.Wedge(sg.random_proper_lorentz(rng))
        result = wd.inclusion_rigidity_probe(w1, w2, n=100_000, seed=model.seed + pair_idx)
        if result.verdict == "INCONCLUSIVE":      # an EQUAL pair needs no witness
            inconclusive += 1
    return [
        CheckReport("boost-preserves-reference-wedge", float(boost_mismatch), 0.0,
                    {"points": 500}),
        CheckReport("reflection-maps-to-complement", float(refl_mismatch), 0.0),
        CheckReport("complement-spacelike", float(causal_violations), 0.0,
                    {"pairs": 60 * 60}),
        CheckReport("rigidity-witness-200-pairs", float(inconclusive), 0.0,
                    {"pairs": 200, "trials_cap": 100_000}),
    ]


def suite_car(model: OneParticleModel, cfg: dict, rng) -> list[CheckReport]:
    tol = cfg["tolerances"]
    car, norm = [], []
    for _ in range(200):
        f = _random_doubled_vector(model, rng)
        g = _random_doubled_vector(model, rng)
        bf, bg = field_B(model, f), field_B(model, g)
        anti = bf @ bg + bg @ bf
        target = complex(np.vdot(model.apply_conjugation(f), g)) * identity_op(model)
        car.append(anti.dist(target))
        norm.append(abs(bf.norm() - car_norm_bound(model, f)))

    s_fock = model.basis_projection()
    quasi = []
    for length in range(1, 7):
        for _ in range(12):
            fs = [_random_doubled_vector(model, rng) / 2.0 for _ in range(length)]
            lhs = quasifree_npoint(model, s_fock, fs)
            rhs = fock_npoint(model, fs)
            quasi.append(abs(lhs - rhs))

    bogo = []
    for _ in range(6):
        hp = rng.standard_normal((model.d_plus, model.d_plus))
        hm = rng.standard_normal((model.d_minus, model.d_minus))
        hp = hp + hp.T
        hm = hm + hm.T
        big_u, u_one = bogolyubov_fock(model, hp, hm)
        f = _random_doubled_vector(model, rng)
        lhs = big_u @ field_B(model, f) @ big_u.H
        rhs = field_B(model, u_one @ f)
        bogo.append(lhs.dist(rhs))
        bogo.append(np.linalg.norm(big_u.matrix @ model.vacuum() - model.vacuum()))

    omega = model.vacuum()
    vac_res = worst([
        np.linalg.norm(gauge_phases(model, 1.7) * omega - omega),
        np.linalg.norm(boost_phases(model, -2.3) * omega - omega),
    ])
    return [
        CheckReport("car-anticommutators", worst(car), tol["exact"], {"pairs": 200}),
        CheckReport("cstar-norm-formula", worst(norm), 1e-9, {"samples": 200}),
        CheckReport("quasifree-matches-fock", worst(quasi), tol["composed"],
                    {"max_length": 6}),
        CheckReport("bogolyubov-implementation", worst(bogo), tol["composed"]),
        CheckReport("vacuum-invariance", vac_res, tol["exact"]),
    ]


def suite_deformation(model: OneParticleModel, cfg: dict, rng) -> list[CheckReport]:
    tol = cfg["tolerances"]
    kappas = [float(k) for k in cfg["deformation"]["kappa"]]
    zero = []
    for _ in range(10):
        op = _random_operator(model, rng)
        zero.append(np.max(np.abs(warp(model, 0.0, op).matrix - op.matrix)))

    adjoint, homo, assoc, inverse, vacuum, unit = [], [], [], [], [], []
    omega = model.vacuum()
    for kappa in kappas:
        for _ in range(12):
            f, g, h = (_random_operator(model, rng) for _ in range(3))
            adjoint.append(warp(model, kappa, f).H.dist(warp(model, kappa, f.H)))
            homo.append((warp(model, kappa, f) @ warp(model, kappa, g)).dist(
                warp(model, kappa, rieffel_product(model, kappa, f, g))))
            assoc.append(
                rieffel_product(model, kappa, rieffel_product(model, kappa, f, g), h).dist(
                    rieffel_product(model, kappa, f, rieffel_product(model, kappa, g, h))))
            inverse.append(warp_inverse_check(model, kappa, f))
            vacuum.append(np.linalg.norm((warp(model, kappa, f).matrix - f.matrix) @ omega))
        unit.append(warp(model, kappa, identity_op(model)).dist(identity_op(model)))

    commutant, twisted, covariance = [], [], []
    z = twist_phases(model)
    for kappa in (0.5, 1.0, -0.7):
        for _ in range(8):
            f_even = random_monomial(model, "W0", 1, rng)
            f_even = f_even @ f_even.H   # even element of the localized algebra
            g_even = random_monomial(model, "W0p", 1, rng)
            g_even = g_even @ g_even.H
            wf, wg = warp_word(model, kappa, f_even), warp_word(model, -kappa, g_even)
            commutant.append((wf @ wg - wg @ wf).norm())
            f_odd = random_monomial(model, "W0", 1, rng)
            g_odd = random_monomial(model, "W0p", 1, rng)
            twisted.append(_twisted_commutator_norm(warp_word(model, kappa, f_odd),
                                                    warp_word(model, -kappa, g_odd), z))
        for kind, param in (("gauge", 0.9), ("boost", 0.45), ("reflection", None),
                            ("rotation", 0.6)):
            op = _random_operator(model, rng)
            lhs, rhs = covariance_transform(model, kappa, op, kind, param)
            covariance.append(lhs.dist(rhs))

    return [
        CheckReport("warp-at-zero-is-identity", worst(zero), 0.0),
        CheckReport("warp-fixes-unit", worst(unit), tol["exact"]),
        CheckReport("adjoint-compatibility", worst(adjoint), tol["exact"]),
        CheckReport("rieffel-homomorphism", worst(homo), tol["composed"]),
        CheckReport("rieffel-associativity", worst(assoc), tol["composed"]),
        CheckReport("warp-inverse", worst(inverse), tol["exact"]),
        CheckReport("vacuum-invariance", worst(vacuum), tol["exact"]),
        CheckReport("deformed-commutant", worst(commutant), tol["composed"]),
        CheckReport("deformed-twisted-commutant", worst(twisted), tol["composed"]),
        CheckReport("covariance-identities", worst(covariance), tol["composed"]),
    ]


def suite_oracle(model: OneParticleModel, cfg: dict, rng) -> list[CheckReport]:
    tol = cfg["tolerances"]
    epsilons = [0.1, 0.05, 0.025]
    kappa = 0.5
    checks = []
    for cutoff, (residuals, monotone) in oracle_sweep(model, kappa, epsilons).items():
        checks.append(CheckReport(
            f"oracle-{cutoff}-final-residual", residuals[-1], tol["oracle"],
            {"epsilons": epsilons, "residuals": residuals, "kappa": kappa}))
        checks.append(CheckReport(
            f"oracle-{cutoff}-monotone-decay", 0.0 if monotone else 1.0, 0.0,
            {"residuals": residuals}))
    return checks


def suite_locality(model: OneParticleModel, cfg: dict, rng) -> list[CheckReport]:
    tol = cfg["tolerances"]
    checks = []
    for kappa in cfg["deformation"]["kappa"]:
        checks.append(check_twisted_locality(model, float(kappa), degree=4, seed=model.seed,
                                             n_samples=16, tolerance=tol["composed"]))
    neg = check_twisted_locality(model, 0.5, degree=2, seed=model.seed, n_samples=16,
                                 flip_kappa=False)
    threshold = 1e-2
    checks.append(CheckReport("negative-control-missing-flip",
                              worst([0.0, threshold - neg.max_residual]), 0.0,
                              {"observed": neg.max_residual, "must_exceed": threshold}))
    checks += causal_borchers_axioms(model, 0.5, degree=2, seed=model.seed,
                                     tolerance=tol["composed"])
    checks.append(CheckReport("net-well-defined", net_well_defined_residual(model, 0.5),
                              1e-8))
    return checks


def _cross_frequency_pair(model: OneParticleModel) -> tuple[int, int] | None:
    """The first modes j < k of one species with distinct boost frequencies."""
    species, freqs = np.arange(model.n_modes) < model.d_plus, model.mode_freqs
    return next(((j, k) for j, k in itertools.combinations(range(model.n_modes), 2)
                 if species[j] == species[k] and freqs[j] != freqs[k]), None)


def suite_fixed_point(model: OneParticleModel, cfg: dict, rng) -> list[CheckReport]:
    low, high = 1e-8, 1e-6
    inconsistent = 0
    for idx in range(100):
        if idx % 2 == 0:
            mat = np.diag(rng.standard_normal(model.dim)
                          + 1j * rng.standard_normal(model.dim))
            op = FockOperator(mat, model)
        else:
            op = _random_operator(model, rng)
            op = FockOperator(op.charge_shift(0), model)
        sectors, derivative = fixed_point_residual(model, op)
        charged = worst(r for n, r in sectors.items() if n != 0)
        both_zero = charged < low and derivative < low
        both_moving = charged > high and derivative > high
        if not (both_zero or both_moving):
            inconsistent += 1

    e1 = charge_projector(model, 1)
    sectors, derivative = fixed_point_residual(model, e1)
    e1_res = worst([*sectors.values(), derivative])
    e1_fixed = warp(model, 0.3, e1).dist(e1)

    j, k = _cross_frequency_pair(model)
    mover = _ladder(model, j, True) @ _ladder(model, k, False)   # charge 0, boost-moving
    _, mover_derivative = fixed_point_residual(model, mover)
    mover_moved = warp(model, 0.3, mover).dist(mover)
    return [
        CheckReport("derivative-commutator-equivalence", float(inconsistent), 0.0,
                    {"samples": 100, "low": low, "high": high}),
        CheckReport("sector-projector-is-fixed", worst([e1_res, e1_fixed]), 1e-8,
                    {"note": "non-scalar fixed point at finite dimension"}),
        CheckReport("cross-frequency-observable-moves",
                    worst([0.0, high - mover_derivative, high - mover_moved]), 0.0,
                    {"derivative": mover_derivative, "moved": mover_moved}),
    ]


def suite_inequivalence(model: OneParticleModel, cfg: dict, rng) -> list[CheckReport]:
    tol = cfg["tolerances"]
    zeros = []
    for kappa, phi in ((0.0, 0.8), (0.7, 0.0), (0.0, 0.0)):
        zeros.extend(inequivalence_witness(model, kappa, phi))
    phi = model.rotation_angle
    group_res, fock_res = inequivalence_witness(model, 1.0, phi)
    threshold = 0.1
    _, fock_small = inequivalence_witness(model, 0.1, phi)
    return [
        CheckReport("witness-vanishes-without-deformation", worst(zeros), tol["exact"]),
        CheckReport("witness-nonzero",
                    worst([0.0, threshold - group_res, threshold - fock_res]), 0.0,
                    {"group_residual": group_res, "fock_residual": fock_res,
                     "must_exceed": threshold}),
        CheckReport("witness-monotone-in-kappa",
                    worst([0.0, fock_small - fock_res]), 0.0,
                    {"kappa_small": 0.1, "kappa_large": 1.0,
                     "fock_small": fock_small, "fock_large": fock_res}),
    ]


SUITES = {
    "geometry": suite_geometry,
    "covering": suite_covering,
    "lie": suite_lie,
    "wedges": suite_wedges,
    "car": suite_car,
    "deformation": suite_deformation,
    "oracle": suite_oracle,
    "locality": suite_locality,
    "fixed_point": suite_fixed_point,
    "inequivalence": suite_inequivalence,
}

def unrunnable(model: OneParticleModel, suites) -> list[str]:
    """One message per requested suite that model cannot run, naming what it lacks."""
    reflection = "no reflection_pairing" if model.reflection_pairing is None else ""
    rotation = ("" if max(model.d_plus, model.d_minus) >= 2
                else "no species block of two modes to rotate")
    lacks = {
        "deformation": [reflection, rotation],
        "locality": [reflection],
        "fixed_point": ["" if _cross_frequency_pair(model)
                        else "no two modes of one species with distinct boost frequencies"],
        "inequivalence": ["no rotation_angle" if model.rotation_angle is None else "",
                          rotation, "no particle mode" if model.d_plus < 1 else "",
                          "no antiparticle mode" if model.d_minus < 1 else ""],
    }
    missing = {suite: [m for m in lacks.get(suite, []) if m] for suite in suites}
    return [f"suite {suite!r} cannot run: the model has {' and '.join(m)}"
            for suite, m in missing.items() if m]


def run_suites(model: OneParticleModel,
               cfg: dict) -> tuple[dict[str, list[CheckReport]], dict[str, float]]:
    """Checks and seconds of each of cfg["suites"], run in order; suite number
    i draws from its own generator, seeded by (model seed, i)."""
    checks, seconds = {}, {}
    for index, name in enumerate(cfg["suites"]):
        started = time.perf_counter()
        checks[name] = SUITES[name](model, cfg, np.random.default_rng([model.seed, index]))
        seconds[name] = round(time.perf_counter() - started, 6)
    return checks, seconds


def covering_summary(t: float) -> dict:
    """`dswarp group`: the boost lift's covering at t, the kernel and the obstruction."""
    pi_lam = sg.covering_hom(sg.boost_cover(t))
    lam_base = sg.boost_base(t)
    return {
        "t": t,
        "covering_of_boost": pi_lam.tolist(),
        "base_boost": lam_base.tolist(),
        "boost_match_residual": float(np.max(np.abs(pi_lam - lam_base))),
        "kernel_residual": float(np.max(np.abs(sg.covering_hom(-sg.spin_identity())
                                               - np.eye(5)))),
        "obstruction": sg.reflection_obstruction_check(),
    }
