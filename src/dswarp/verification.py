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

The deformation suite draws its random operators as mask words too: a
uniform mask and a complex Gaussian vector, with mask 0 and every
single-mode mask among the draws.  The warp is an entrywise phase, so each
identity it checks is multilinear, and one word tests d matrix entries at
once.  Warp, adjoint, product, Rieffel product, inverse, vacuum action,
boost and gauge conjugation and the reflection (a signed permutation of the
basis states) all keep the form, so every residual is a word's largest
absolute entry, exact for a monomial, and no SVD is taken.  The draws of
each kappa are checked as one stack of words (car_fock, "Mask words"): the
12 triples of the identities, the commutant and twisted pairs and the
covariance words, in the order the generator gives them, and so are the
samples of each twisted-locality check and the wedge monomials of the
locality suite.  Each row is computed as its word alone would be, so the
residuals are those of a word-by-word loop.  The span code takes a stack
too, and projects the words of one mask in one product.

The fixed-point statement is linear in A and holds entry by entry.  For a
gauge-invariant A, the kappa-derivative of the warp at zero is
sum_n i n [K, A E(n)]: on the charge-n sector every entry has q_i = q_j = n,
so the warp angle phi_i q_j - q_i phi_j there is n (phi_i - phi_j), and K
and E(n) are diagonal, so [K, A E(n)] scales the entry A_ij by
phi_i - phi_j.  Both sides scale each sector entry of A by a number, so the
identity holds for every A exactly when those numbers agree at every sector
entry.  derivative-commutator-equivalence compares them once per entry
(derivative_commutator_residual): the Richardson derivative of the warp
phase, from deformation.warp_angles at the sector entries, against
i n (phi_i - phi_j), from the boost phases and the charges.  It draws
nothing and takes no SVD.
fixed_point_residual takes E(1) and the mover, single-mask words: every
sector block of one is a monomial, so its norms are largest absolute
entries of the scaled word.

The CAR {B(f), B(g)} = <Cf, g> 1 is bilinear in f and g, so it holds for
every pair exactly when it holds for the 2n unit vectors.  The car suite
checks it on the unit words W_a = B(e_a): W_a W_b and W_b W_a both have the
mask S_a ^ S_b, so each anticommutator is one mask word, <Ce_a, e_b> is
subtracted on mask 0, and the residual is the largest absolute entry.  Each
W_a meets the stack of all 2n unit words in one product.  The
field norms of cstar-norm-formula come from car_fock.field_norms, certified
Lanczos runs on the fields' action.

Every implementer a check needs, Gamma(w) of a Bogolyubov map or of the
rotation, conserves the particle number and is kept as its number blocks
(car_fock, "Implementers").  The inequivalence witness applies the rotated
warp to one vector (deformation.warp_rotated_apply), and the fixed-point
suite takes E(1) and the mover as mask words, so no check forms a
Fock-size matrix product.

bogolyubov-implementation decides R(f) = Gamma B(f) Gamma^* - B(u f) on the
n lowering unit fields ell_j, B(ell_j) = c_j, with no field draw and no SVD.
R is linear in f, so |R(f)| <= sqrt(2n) |f| max_a |R(e_a)| over the 2n unit
vectors e_a.  u commutes with C, so R(Cf) = R(f)^*, and the raising unit
C ell_j has the norm of ell_j: |R(f)| <= sqrt(2n) |f| max_j |R(ell_j)|.  u
keeps the raising and lowering components apart, so R(ell_j) is the direct
sum of its blocks from the number-k to the number-(k-1) states; times the
unitary G_k on the right, a block is G_{k-1} L_k(ell_j) - L_k(u ell_j) G_k.
The residual is the largest Frobenius norm of those blocks, which bounds
their operator norm from above, so the check gets no looser; a NaN entry
propagates through the sum.
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
from .car_fock import (MaskWord, OneParticleModel, bogolyubov_modes, boost_phases,
                       car_norm_bound, charge_projector, field_norms, field_word, fock_npoint,
                       gauge_phases, lowering_entries, one_particle_map, quasifree_npoint,
                       second_quantize_blocks, twist_phases, wedge_generators)
from .deformation import (covariance_transform, oracle_sweep, rieffel_word, warp_angles,
                          warp_rotated_apply, warp_word)

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

def _mask_groups(words: MaskWord) -> list[tuple[int, np.ndarray]]:
    """(mask, indices of its rows in stack order) for each mask of a stack,
    by a stable sort of the masks (np.unique would load numpy.ma)."""
    order = np.argsort(words.mask, kind="stable")
    starts = np.flatnonzero(np.diff(words.mask[order])) + 1
    return [(int(words.mask[rows[0]]), rows) for rows in np.split(order, starts) if rows.size]


def span_basis(words: MaskWord) -> dict[int, np.ndarray]:
    """Orthonormal basis of the linear span of a stack of mask words:
    {mask: rows of vectors}.

    Each mask block's rank is cut against the largest singular value of all
    blocks, as for one SVD of the whole stack.
    """
    svds = {mask: np.linalg.svd(words.vec[rows], full_matrices=False)[1:]
            for mask, rows in _mask_groups(words)}
    top = worst(svals[0] for svals, _ in svds.values())
    cut = SPAN_SVD_TOL * max(1.0, top)
    return {mask: vh[:int(np.sum(svals > cut))] for mask, (svals, vh) in svds.items()}


def span_residual(basis: dict[int, np.ndarray], words: MaskWord) -> float:
    """Largest relative distance of any word of a stack from the span; the
    words of one mask are projected in one product.

    A word whose mask has no basis rows is orthogonal to the span: distance
    1.  A zero word is skipped.
    """
    distance = np.zeros(len(words.mask))
    for mask, rows in _mask_groups(words):
        vecs = words.vec[rows]
        span = basis.get(mask, np.zeros((0, vecs.shape[-1])))
        distance[rows] = np.linalg.norm(vecs - (vecs @ span.conj().T) @ span, axis=-1)
    scale = np.linalg.norm(words.vec, axis=-1)
    return worst(np.divide(distance, scale, out=np.zeros_like(scale), where=scale != 0.0))


def spans_equal_residual(words_a: MaskWord, words_b: MaskWord) -> float:
    """Symmetric containment defect of the spans of two stacks."""
    basis_a, basis_b = span_basis(words_a), span_basis(words_b)
    return worst([span_residual(basis_a, words_b), span_residual(basis_b, words_a)])


def _generator_products(gens: MaskWord, picks: np.ndarray) -> MaskWord:
    """The products, left to right, of the generators that each row of picks
    names; the pick -1 is the identity, which multiplies exactly."""
    padded = MaskWord(np.append(gens.mask, 0), np.vstack([gens.vec, np.ones(gens.vec.shape[-1])]))
    words = padded[picks[:, 0]]
    for column in picks.T[1:]:
        words = words @ padded[column]
    return words


def wedge_monomials(model: OneParticleModel, tag: str, degree: int) -> MaskWord:
    """All generator words of length <= degree (>= 1) over the tagged wedge
    basis, as one stack: shortest first, each length with its last pick
    running fastest."""
    gens = wedge_generators(model, tag)
    picks = [p + (-1,) * (degree - length) for length in range(degree + 1)
             for p in itertools.product(range(len(gens.mask)), repeat=length)]
    return _generator_products(gens, np.array(picks))


def random_monomial(model: OneParticleModel, tags: tuple[str, ...], degree: int, count: int,
                    rng: np.random.Generator) -> tuple[MaskWord, ...]:
    """count products of 1..degree random wedge generators per tag, one stack
    per tag.  Lengths and picks are drawn sample by sample, tag by tag; a
    short word is padded with the identity, which multiplies exactly."""
    gens = [wedge_generators(model, tag) for tag in tags]
    picks = np.full((count, len(gens), degree), -1)
    for sample in picks:
        for word, g in zip(sample, gens):
            length = rng.integers(1, degree + 1)
            word[:length] = [rng.integers(len(g.mask)) for _ in range(length)]
    return tuple(map(_generator_products, gens, np.moveaxis(picks, 1, 0)))


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
    f, g = random_monomial(model, ("W0", "W0p"), degree, n_samples, rng)
    residuals = _twisted_commutator_norm(warp_word(model, kappa, f),
                                         warp_word(model, kappa_refl, g), twist_phases(model))
    name = "twisted-locality" if flip_kappa else "twisted-locality-negative-control"
    return CheckReport(name, worst(residuals), tolerance,
                       {"kappa": kappa, "degree": degree, "seed": seed,
                        "samples": n_samples, "kappa_flip": flip_kappa})


def _twisted_commutator_norm(f: MaskWord, g: MaskWord, z: np.ndarray) -> float | np.ndarray:
    """Norm of the twisted commutator [Z f Z*, g], with Z the diagonal twist z;
    per row for stacks."""
    zf = f.conjugated_by(z)
    return (zf @ g - g @ zf).norm()


# -- fixed points --------------------------------------------------------------

# Central-difference step of the kappa-derivative; the Richardson step halves it.
DERIVATIVE_STEP = 1e-4
# Largest charge-moving entry that fixed_point_residual reads as gauge-invariant.
GAUGE_TOL = 1e-10


def _richardson(values, h: float):
    """The kappa-derivative at 0 from values at kappa = +h, -h, +h/2, -h/2:
    central differences with one Richardson step."""
    plus, minus, plus_half, minus_half = values
    coarse = (plus - minus) / (2.0 * h)
    fine = (plus_half - minus_half) / h
    return (4.0 * fine - coarse) / 3.0


def _step_phases(theta: np.ndarray, h: float) -> np.ndarray:
    """The warp phases exp(i kappa theta) at the angles theta, stacked for
    kappa = +h, -h, +h/2, -h/2 (_richardson's order)."""
    return np.stack([np.exp(1j * k * theta) for k in (h, -h, h / 2.0, -h / 2.0)])


def derivative_commutator_residual(model: OneParticleModel) -> tuple[float, float]:
    """(residual, scale s) of d/dkappa warp(A)|_0 = sum_n i n [K, A E(n)],
    decided at every charge-sector entry (see the module docstring).

    On an entry (i, j) with q_i = q_j = n, D_ij is the Richardson derivative
    at kappa = 0 of the warp phase exp(i kappa angle_ij), and the right side
    is i n (phi_i - phi_j), from the boost phases and the charges.  The
    residual is the largest |D_ij - i n (phi_i - phi_j)| / s, with s = max(1,
    largest |n (phi_i - phi_j)|), and the step is h = DERIVATIVE_STEP / s, so
    h |angle_ij| <= 1e-4 on every model.  Relative to s, the truncation error
    is (h angle)^4 / 480 <= 2e-19, and the rounding of the four phases,
    divided by the steps, gives about 3u / DERIVATIVE_STEP = 7e-12 (u the
    unit round-off).
    """
    phi, q = model.phases, model.charges
    sectors = [(n, np.nonzero(q == n)[0]) for n in range(-model.d_minus, model.d_plus + 1)]
    scale = float(max(1.0, *(abs(n) * np.ptp(phi[s]) for n, s in sectors)))
    h = DERIVATIVE_STEP / scale
    residuals = []
    for n, s in sectors:
        derivative = _richardson(_step_phases(warp_angles(model, *np.ix_(s, s)), h), h)
        residuals.append(np.max(np.abs(derivative - 1j * n * np.subtract.outer(phi[s], phi[s]))))
    return worst(residuals) / scale, scale


def fixed_point_residual(model: OneParticleModel,
                         word: MaskWord) -> tuple[dict[int, float], float]:
    """Per-sector norms of the boost commutator [K, A E(n)], and the norm of
    the kappa-derivative at zero of warp(A), for a gauge-invariant mask word A.

    Every sector block of a single-mask word is a monomial (a permutation
    times a diagonal), so each sector's commutator norm and the derivative
    norm are largest absolute entries of the word's sector entries, scaled
    by phi_i - phi_j and by the Richardson difference of the warp phases at
    h = DERIVATIVE_STEP.  The derivative vanishes iff every charged-sector
    commutator [K, A E(n)], n != 0, vanishes; a word with an entry above
    GAUGE_TOL that moves the charge is refused.
    """
    rows, q = word.rows(), model.charges
    moves = q[rows] != q
    if not np.max(np.abs(word.vec[moves]), initial=0.0) <= GAUGE_TOL:
        raise ValueError("fixed-point analysis needs a gauge-invariant operator")
    cols = np.nonzero(~moves)[0]
    rows, vec, charge = rows[cols], word.vec[cols], q[cols]
    commutator = np.abs((model.phases[rows] - model.phases[cols]) * vec)
    h = DERIVATIVE_STEP
    derivative = np.abs(_richardson(vec * _step_phases(warp_angles(model, rows, cols), h), h))
    sectors = {n: float(np.max(commutator[charge == n], initial=0.0))
               for n in range(-model.d_minus, model.d_plus + 1)}
    return sectors, float(np.max(derivative, initial=0.0))


# -- Bogolyubov implementers -----------------------------------------------------

def bogolyubov_residuals(model: OneParticleModel, w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """How far Gamma(w_b) is from implementing u_b, for each draw b of the
    (m, n, n) and (m, 2n, 2n) stacks, on the lowering unit fields (module
    docstring).  B(u ell_j) = sum_b M[b, j] c_b, M the lowering block of u,
    so a block is the signed row gathers of G_k that lowering_entries names,
    weighted by M, minus a signed column gather of G_{k-1} (the sign of the
    block does not change its norm).  The residual is the largest block
    Frobenius norm, or |G_0 - 1| (Gamma Omega = Omega) if larger; one draw
    is held at a time.
    """
    n = model.n_modes
    lower = np.arange(n) + n * (model.mode_charges > 0)      # B(e_lower[j]) = c_j, as in _ladder
    residuals = []
    for w_draw, coef in zip(w, u[:, lower[:, None], lower]):      # coef[b, j] = M[b, j]
        gammas = second_quantize_blocks(model, w_draw)
        residual = np.abs(gammas[0][0, 0] - 1.0)
        for (mode, col, sign), g_out, g_in in zip(lowering_entries(model), gammas, gammas[1:]):
            blocks = np.swapaxes(coef[mode] * sign[..., None], 1, 2) @ g_in[col]  # [row, j, col]
            blocks[:, mode, col] -= g_out[:, :, None] * sign
            residual = np.maximum(residual, np.linalg.norm(blocks, axis=(0, 2)).max())
        residuals.append(residual)
    return np.array(residuals)


# -- unitary inequivalence ------------------------------------------------------

def _ladder(model: OneParticleModel, j: int, create: bool) -> MaskWord:
    """c_j^+ (create) or c_j, as the field of the unit vector on the copy that
    raises (or lowers) mode j: copy A raises a particle mode, copy B an
    antiparticle mode."""
    f = np.zeros(model.doubled_dim, dtype=complex)
    f[j if create == (model.mode_charges[j] > 0) else model.n_modes + j] = 1.0
    return field_word(model, f)


def inequivalence_witness(model: OneParticleModel, kappa: float,
                          phi: float) -> tuple[float, float]:
    """Group-level and Fock-level witnesses that the deformation moves the net.

    group residual: commutator defect of the wedge boost (rapidity parameter
    kappa) with the (x1, x2)-plane rotation, in 5x5 matrices.  fock residual:
    the two warpings of a charge-lowering field psi along the original and
    the rotated flow (warp_rotated_apply), applied to the charge-one vector
    c_0^+ Omega.  Both vanish iff kappa * phi = 0.
    """
    if model.rotation_angle is None and phi != 0.0:
        raise ValueError("model has no rotation")
    if model.d_plus < 1 or model.d_minus < 1:
        raise ValueError("witness needs at least one particle and one antiparticle mode")
    lam = sg.boost_base(kappa)
    rot = sg.rotation_base(phi)
    group_residual = float(np.linalg.norm(lam @ rot - rot @ lam, 2))

    psi = np.zeros(model.doubled_dim, dtype=complex)
    psi[model.n_modes + model.d_plus] = 1.0     # the spinor of the first antiparticle mode
    one_particle = _ladder(model, 0, True).apply(model.vacuum())   # mode 0, charge +1
    straight = warp_word(model, kappa, field_word(model, psi)).apply(one_particle)
    rotated = warp_rotated_apply(model, kappa, psi, one_particle, phi)
    fock_residual = float(np.linalg.norm(straight - rotated))
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
    deformed = warp_word(model, kappa, wedge_monomials(model, "W0", degree))
    basis = span_basis(deformed)
    boosts, gauges = [0.35, -0.8], [0.7, 2.1]
    boost_res = worst(span_residual(basis, deformed.conjugated_by(boost_phases(model, t)))
                      for t in boosts)

    reflected = (deformed if break_reflection
                 else warp_word(model, -kappa, wedge_monomials(model, "W0p", degree)))
    rng = np.random.default_rng(seed)
    picks = [(int(rng.integers(len(deformed.mask))), int(rng.integers(len(reflected.mask))))
             for _ in range(24)]
    f, g = (np.array(rows) for rows in zip(*picks))
    twisted = _twisted_commutator_norm(deformed[f], reflected[g], twist_phases(model))

    gauge_res = worst(span_residual(basis, deformed.conjugated_by(gauge_phases(model, s)))
                      for s in gauges)
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
    deformed = warp_word(model, kappa, wedge_monomials(model, "W0", degree))
    residuals = []
    for t, s in ((0.4, 0.0), (-0.25, 1.3), (0.0, 2.0)):
        u = boost_phases(model, t) * gauge_phases(model, s)
        residuals.append(spans_equal_residual(deformed, deformed.conjugated_by(u)))
    return worst(residuals)


# -- suites ---------------------------------------------------------------------

def _random_words(model: OneParticleModel, rng: np.random.Generator,
                  count: int) -> MaskWord:
    """A stack of at least count mask words with complex Gaussian entries, in
    random order: mask 0 and every single-mode mask once each, the other
    masks uniform."""
    fixed = [0] + [1 << j for j in range(model.n_modes)]
    masks = rng.permutation(np.concatenate(
        [fixed, rng.integers(model.dim, size=max(count - len(fixed), 0))]))
    shape = (len(masks), model.dim)
    return MaskWord(masks, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _random_doubled_vector(model: OneParticleModel, rng: np.random.Generator) -> np.ndarray:
    d = model.doubled_dim
    return rng.standard_normal(d) + 1j * rng.standard_normal(d)


def _random_hermitian(k: int, rng: np.random.Generator) -> np.ndarray:
    x = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return x + x.conj().T


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

    # 200 pairs of random wedges, as two stacks: a witness must be built
    # exactly for the pairs wedges_equal calls distinct, and wedge_contains
    # must confirm each, inside w1 and not inside w2
    frames = sg.random_proper_lorentz(rng, count=400)
    w1, w2 = wd.Wedge(frames[0::2]), wd.Wedge(frames[1::2])
    points, margins = wd.rigidity_witnesses(w1.frame, w2.frame)
    equal = wd.wedges_equal(w1, w2)
    built = ~np.isnan(points).any(axis=-1)
    confirmed = (wd.wedge_contains(w1[built], points[built])
                 & ~wd.wedge_contains(w2[built], points[built]))
    missing = int(np.sum(equal == built)) + int(np.sum(~(confirmed | equal[built])))
    smallest = np.min(margins[~equal], initial=math.inf)
    return [
        CheckReport("boost-preserves-reference-wedge", float(boost_mismatch), 0.0,
                    {"points": 500}),
        CheckReport("reflection-maps-to-complement", float(refl_mismatch), 0.0),
        CheckReport("complement-spacelike", float(causal_violations), 0.0,
                    {"pairs": 60 * 60}),
        CheckReport("rigidity-witness-200-pairs", float(missing), 0.0,
                    {"pairs": 200, "min_margin": float(smallest)}),
    ]


def _unit_car_residuals(model: OneParticleModel) -> np.ndarray:
    """Norm of {W_a, W_b} - <Ce_a, e_b> 1 for every ordered pair (a, b) of the
    2n unit words W_a = B(e_a), a-major; see the module docstring.

    Each W_a meets the stack of all 2n unit words at once, so no more than
    2n words are held at a time.
    """
    units = np.eye(model.doubled_dim)
    stack = MaskWord.stack([field_word(model, e) for e in units])
    pairing = model.apply_conjugation(units).conj()      # <Ce_a, e_b> = conj(Ce_a)_b
    residuals = []
    for a, wa in enumerate(stack):
        anti = (wa @ stack).vec                     # row b on the mask S_a ^ S_b
        anti += (stack @ wa).vec
        norms = np.abs(anti).max(axis=-1)
        same = stack.mask == wa.mask                # <Ce_a, e_b> sits on mask 0
        norms[same] = np.abs(anti[same] - pairing[a, same][:, None]).max(axis=-1)
        residuals.append(norms)
    return np.concatenate(residuals)


def suite_car(model: OneParticleModel, cfg: dict, rng) -> list[CheckReport]:
    tol = cfg["tolerances"]
    car = _unit_car_residuals(model)
    fs = [_random_doubled_vector(model, rng) for _ in range(200)]
    # the Lanczos start vectors come from a child generator (numpy >= 1.25), so
    # they take nothing from rng's own stream, which the later checks draw from
    norm = [abs(b - car_norm_bound(model, f))
            for b, f in zip(field_norms(model, fs, rng.spawn(1)[0]), fs)]

    s_fock = model.basis_projection()
    quasi = []
    for length in range(1, 7):       # the 12 draws of one length as one stack
        fs = np.array([[_random_doubled_vector(model, rng) / 2.0 for _ in range(length)]
                       for _ in range(12)])
        # abs per value: numpy's array abs may round a last bit differently
        quasi.extend(map(abs, quasifree_npoint(model, s_fock, fs) - fock_npoint(model, fs)))

    # complex Hermitian, so that w = e^{ih} is not symmetric and a Gamma(w)
    # built from the transpose of w fails
    draws = [[_random_hermitian(k, rng) for k in (model.d_plus, model.d_minus)]
             for _ in range(6)]
    w = bogolyubov_modes(model, *map(np.stack, zip(*draws)))
    bogo = bogolyubov_residuals(model, w, one_particle_map(model, w))

    omega = model.vacuum()
    vac_res = worst([
        np.linalg.norm(gauge_phases(model, 1.7) * omega - omega),
        np.linalg.norm(boost_phases(model, -2.3) * omega - omega),
    ])
    return [
        CheckReport("car-anticommutators", worst(car), tol["exact"], {"pairs": len(car)}),
        CheckReport("cstar-norm-formula", worst(norm), 1e-9, {"samples": 200}),
        CheckReport("quasifree-matches-fock", worst(quasi), tol["composed"],
                    {"max_length": 6}),
        CheckReport("bogolyubov-implementation", worst(bogo), tol["composed"],
                    {"unit_fields": model.n_modes, "draws": len(bogo)}),
        CheckReport("vacuum-invariance", vac_res, tol["exact"]),
    ]


def suite_deformation(model: OneParticleModel, cfg: dict, rng) -> list[CheckReport]:
    """The deformation identities on random mask words (see the module docstring)."""
    tol = cfg["tolerances"]
    kappas = [float(k) for k in cfg["deformation"]["kappa"]]
    words = _random_words(model, rng, 10)
    zero = np.abs(warp_word(model, 0.0, words).vec - words.vec).max(axis=-1)

    adjoint, homo, assoc, inverse, vacuum, unit = [], [], [], [], [], []
    omega = model.vacuum()
    one = MaskWord(0, np.ones(model.dim, dtype=complex))
    for kappa in kappas:            # the 12 triples of each kappa as one stack
        f, g, h = (_random_words(model, rng, 12) for _ in range(3))
        wf = warp_word(model, kappa, f)
        fg = rieffel_word(model, kappa, f, g)
        adjoint.extend((wf.H - warp_word(model, kappa, f.H)).norm())
        homo.extend((wf @ warp_word(model, kappa, g) - warp_word(model, kappa, fg)).norm())
        assoc.extend((rieffel_word(model, kappa, fg, h)
                      - rieffel_word(model, kappa, f, rieffel_word(model, kappa, g, h))).norm())
        inverse.extend((warp_word(model, -kappa, wf) - f).norm())
        vacuum.extend(np.linalg.norm((wf - f).apply(omega), axis=-1))
        unit.append((warp_word(model, kappa, one) - one).norm())

    commutant, twisted, covariance = [], [], []
    z = twist_phases(model)
    for kappa in (0.5, 1.0, -0.7):
        f_even, g_even, f_odd, g_odd = random_monomial(model, ("W0", "W0p", "W0", "W0p"), 1, 8,
                                                       rng)
        f_even = f_even @ f_even.H       # even elements of the localized algebras
        g_even = g_even @ g_even.H
        wf, wg = warp_word(model, kappa, f_even), warp_word(model, -kappa, g_even)
        commutant.extend((wf @ wg - wg @ wf).norm())
        twisted.extend(_twisted_commutator_norm(warp_word(model, kappa, f_odd),
                                                warp_word(model, -kappa, g_odd), z))
        for kind, param in (("gauge", 0.9), ("boost", 0.45), ("reflection", None)):
            lhs, rhs = covariance_transform(model, kappa, _random_words(model, rng, 4),
                                            kind, param)
            covariance.extend((lhs - rhs).norm())

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
    tol = cfg["tolerances"]
    residual, scale = derivative_commutator_residual(model)
    high = 1e-6

    e1 = charge_projector(model, 1)
    sectors, derivative = fixed_point_residual(model, e1)
    e1_res = worst([*sectors.values(), derivative])
    e1_fixed = (warp_word(model, 0.3, e1) - e1).norm()

    j, k = _cross_frequency_pair(model)
    mover = _ladder(model, j, True) @ _ladder(model, k, False)   # charge 0, boost-moving
    _, mover_derivative = fixed_point_residual(model, mover)
    mover_moved = (warp_word(model, 0.3, mover) - mover).norm()
    return [
        CheckReport("derivative-commutator-equivalence", residual, tol["composed"],
                    {"scale": scale, "step": DERIVATIVE_STEP / scale}),
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
        "deformation": [reflection],
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
