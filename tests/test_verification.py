from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dswarp.car_fock import (FockOperator, MaskWord, OneParticleModel, boost_phases,
                             charge_projector, conjugate_by_diagonal,
                             default_model, field_B, gauge_phases,
                             identity_op, twist_phases, wedge_generators,
                             wedge_subalgebra_basis)
from dswarp.deformation import warp, warp_word
from dswarp.verification import (SPAN_SVD_TOL, CheckReport, causal_borchers_axioms,
                                 check_twisted_locality, fixed_point_residual,
                                 inequivalence_witness, net_well_defined_residual,
                                 random_monomial, span_basis, span_residual,
                                 wedge_monomials)
from test_fock_properties import jordan_wigner_ops

MODEL = default_model()


# -- dense oracle ----------------------------------------------------------------
# Wedge words as dense d x d matrices, spans by one SVD of the words x d^2
# stack: the reference the mask-word path is compared against.

def dense(word: MaskWord) -> np.ndarray:
    d = len(word.vec)
    m = np.zeros((d, d), dtype=complex)
    m[word.rows(), np.arange(d)] = word.vec
    return m


def dense_generators(model: OneParticleModel, tag: str) -> list[np.ndarray]:
    return [field_B(model, f).matrix for f in wedge_subalgebra_basis(model, tag)]


def dense_monomials(model: OneParticleModel, tag: str, degree: int) -> list[np.ndarray]:
    gens = dense_generators(model, tag)
    words = [np.eye(model.dim, dtype=complex)]
    layer = [np.eye(model.dim, dtype=complex)]
    for _ in range(degree):
        layer = [w @ g for w in layer for g in gens]
        words.extend(layer)
    return words


def dense_span_basis(mats: list[np.ndarray]) -> np.ndarray:
    stack = np.stack([m.ravel() for m in mats])
    _, svals, vh = np.linalg.svd(stack, full_matrices=False)
    return vh[:int(np.sum(svals > SPAN_SVD_TOL * max(1.0, svals[0])))]


def dense_span_residual(basis: np.ndarray, mats: list[np.ndarray]) -> float:
    residuals = [0.0]
    for m in mats:
        v = m.ravel()
        if np.linalg.norm(v) > 0.0:
            proj = basis.T @ (basis.conj() @ v)
            residuals.append(float(np.linalg.norm(v - proj) / np.linalg.norm(v)))
    return max(residuals)


@dataclass(frozen=True)
class NetAssignment:
    """Deformed generator families per wedge tag, with their spans."""

    kappa: float
    degree: int
    generators: dict
    spans: dict


def build_net(model: OneParticleModel, kappa: float, degree: int = 4,
              tags: tuple[str, ...] = ("W0", "W0p")) -> NetAssignment:
    """Warped dense monomial families per wedge tag.

    W0 carries warp with +kappa; the reflected wedge carries the reflection
    image, equivalently warp with -kappa of the reflected monomials.
    """
    gens, spans = {}, {}
    for tag in tags:
        tag_kappa = -kappa if tag == "W0p" else kappa
        gens[tag] = [warp(model, tag_kappa, FockOperator(w, model)).matrix
                     for w in dense_monomials(model, tag, degree)]
        spans[tag] = dense_span_basis(gens[tag])
    return NetAssignment(kappa, degree, gens, spans)


def test_check_report_pass_semantics():
    assert CheckReport("x", 1e-12, 1e-10).passed
    assert not CheckReport("x", 1e-8, 1e-10).passed
    d = CheckReport("x", 0.5, 1.0, {"k": 1}).as_dict()
    assert d["pass"] and d["metadata"] == {"k": 1}


def test_span_machinery():
    rng = np.random.default_rng(70)
    vecs = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(3)]
    words = [MaskWord(1, vecs[0]), MaskWord(1, vecs[1]), MaskWord(2, vecs[2])]
    basis = span_basis(words)
    assert sorted(basis) == [1, 2]
    assert sum(rows.shape[0] for rows in basis.values()) == 3
    combo = MaskWord(1, 0.3j * vecs[0] - 1.7 * vecs[1])
    assert span_residual(basis, [combo]) < 1e-12
    outside = MaskWord(1, rng.standard_normal(4))
    assert span_residual(basis, [outside]) > 1e-2
    assert span_residual(basis, [MaskWord(3, rng.standard_normal(4))]) > 1e-2


def test_span_rank_is_cut_against_the_global_top_singular_value():
    # the mask-2 word is below 1e-9 of the largest singular value (1e6) of the
    # whole stack, though not below 1e-9 of its own block's
    words = [MaskWord(1, np.array([1e6, 0, 0, 0])), MaskWord(2, np.array([1e-5, 0, 0, 0]))]
    basis = span_basis(words)
    assert [basis[1].shape[0], basis[2].shape[0]] == [1, 0]
    assert dense_span_basis([dense(w) for w in words]).shape[0] == 1


def test_build_net_undeformed_matches_monomials():
    net = build_net(MODEL, 0.0, degree=2)
    raw = [dense(w) for w in wedge_monomials(MODEL, "W0", 2)]
    assert dense_span_residual(net.spans["W0"], raw) < 1e-12


def test_build_net_deformed_spans_are_flow_invariant():
    net = build_net(MODEL, 0.5, degree=2)
    u = np.diag(boost_phases(MODEL, 0.8))
    conj = [u @ m @ u.conj().T for m in net.generators["W0"]]
    assert dense_span_residual(net.spans["W0"], conj) < 1e-10
    v = np.diag(gauge_phases(MODEL, 1.3))
    conj = [v @ m @ v.conj().T for m in net.generators["W0"]]
    assert dense_span_residual(net.spans["W0"], conj) < 1e-10


def test_twisted_locality_grid():
    for kappa in (-1.0, -0.5, -0.1, 0.1, 0.5, 1.0):
        report = check_twisted_locality(MODEL, kappa, degree=4, seed=3, n_samples=12)
        assert report.passed, (kappa, report.max_residual)


def test_twisted_locality_at_zero_kappa():
    report = check_twisted_locality(MODEL, 0.0, degree=2, seed=4, n_samples=12,
                                    tolerance=1e-12)
    assert report.passed


def test_twisted_locality_negative_control():
    report = check_twisted_locality(MODEL, 0.5, degree=2, seed=5, n_samples=12,
                                    flip_kappa=False)
    assert report.max_residual > 1e-2


def test_fixed_point_unit_and_projector():
    sectors, derivative = fixed_point_residual(MODEL, identity_op(MODEL))
    assert max(sectors.values()) == 0.0 and derivative == 0.0
    e1 = charge_projector(MODEL, 1)
    sectors, derivative = fixed_point_residual(MODEL, e1)
    assert max(sectors.values()) == 0.0 and derivative == 0.0
    # E(1) is fixed by the deformation but is not a multiple of the identity
    assert warp(MODEL, 0.3, e1).dist(e1) == 0.0
    assert e1.dist(identity_op(MODEL) * (np.trace(e1.matrix) / MODEL.dim)) > 0.1


def test_fixed_point_rejects_charged_operator():
    ops = jordan_wigner_ops(MODEL.n_modes)
    with pytest.raises(ValueError):
        fixed_point_residual(MODEL, FockOperator(ops[0], MODEL))


def test_fixed_point_cross_frequency_mover():
    ops = jordan_wigner_ops(MODEL.n_modes)
    mover = FockOperator(ops[0].conj().T @ ops[1], MODEL)
    sectors, derivative = fixed_point_residual(MODEL, mover)
    assert derivative > 1e-6
    assert max(r for n, r in sectors.items() if n != 0) > 1e-6
    assert warp(MODEL, 0.3, mover).dist(mover) > 1e-3


def test_fixed_point_equivalence_on_random_operators():
    rng = np.random.default_rng(71)
    low, high = 1e-8, 1e-6
    for idx in range(100):
        if idx % 2 == 0:
            op = FockOperator(np.diag(rng.standard_normal(MODEL.dim)
                                      + 1j * rng.standard_normal(MODEL.dim)), MODEL)
        else:
            raw = rng.standard_normal((MODEL.dim, MODEL.dim)) \
                + 1j * rng.standard_normal((MODEL.dim, MODEL.dim))
            op = FockOperator(FockOperator(raw, MODEL).charge_shift(0), MODEL)
        sectors, derivative = fixed_point_residual(MODEL, op)
        charged = max((r for n, r in sectors.items() if n != 0), default=0.0)
        assert (charged < low and derivative < low) or \
               (charged > high and derivative > high)


def test_inequivalence_witness_zero_cases():
    for kappa, phi in ((0.0, 0.8), (0.6, 0.0), (0.0, 0.0)):
        group_res, fock_res = inequivalence_witness(MODEL, kappa, phi)
        assert group_res < 1e-12 and fock_res < 1e-12


def test_inequivalence_witness_nonzero_and_monotone():
    group_res, fock_res = inequivalence_witness(MODEL, 1.0, np.pi / 4)
    assert group_res > 0.1 and fock_res > 0.1
    _, fock_small = inequivalence_witness(MODEL, 0.1, np.pi / 4)
    assert fock_res > fock_small


def test_inequivalence_witness_requires_rotation():
    from dswarp.car_fock import OneParticleModel
    no_rot = OneParticleModel(2, 2, [1, -1], [1, -1], [0, 2],
                              reflection_pairing=[1, 0, 3, 2])
    with pytest.raises(ValueError):
        inequivalence_witness(no_rot, 0.5, 0.4)


def test_causal_borchers_axioms_pass_and_negative_control():
    for kappa in (0.0, 0.5, -1.0):
        for report in causal_borchers_axioms(MODEL, kappa, seed=6):
            assert report.passed, (kappa, report.name, report.max_residual)
    broken = {r.name: r for r in causal_borchers_axioms(MODEL, 0.5, seed=6,
                                                        break_reflection=True)}
    assert not broken["reflected-in-twisted-commutant"].passed
    assert broken["boost-stabilizer-invariance"].passed


def test_net_well_defined():
    assert net_well_defined_residual(MODEL, 0.0) < 1e-8
    assert net_well_defined_residual(MODEL, 0.7) < 1e-8


def test_worst_propagates_nan():
    from dswarp.verification import worst
    assert worst([]) == 0.0
    assert worst([1e-3, 2.0, 0.5]) == 2.0
    assert np.isnan(worst([0.0, float("nan"), 1.0]))
    assert np.isnan(worst(x for x in (float("nan"), 0.0)))
    assert worst([0.0, float("inf")]) == float("inf")


def test_check_report_fails_nonfinite_residual():
    assert not CheckReport("x", float("nan"), 1e-10).passed
    assert not CheckReport("x", float("inf"), float("inf")).passed
    assert not CheckReport("x", float("-inf"), 1e-10).passed


# -- mask words against the dense oracle ---------------------------------------------

PROPERTY = settings(max_examples=30, deadline=None)
FREQS = st.integers(-12, 12).map(lambda k: k / 4.0)
SEEDS = st.integers(0, 2 ** 32 - 1)
KAPPAS = st.floats(-2.0, 2.0)


@st.composite
def word_models(draw):
    """Models of 2 to 3 + 3 modes with a random localized set and a random mode
    permutation as the reflection; unvalidated, as only the word algebra is tested."""
    dp = draw(st.integers(0, 3))
    dm = draw(st.integers(max(0, 2 - dp), 3))
    n = dp + dm
    return OneParticleModel(dp, dm,
                            draw(st.lists(FREQS, min_size=dp, max_size=dp)),
                            draw(st.lists(FREQS, min_size=dm, max_size=dm)),
                            draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                                          unique=True)),
                            reflection_pairing=draw(st.permutations(range(n))),
                            validate=False)


def _random_word(rng, dim) -> MaskWord:
    return MaskWord(int(rng.integers(dim)),
                    rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


@PROPERTY
@given(word_models(), SEEDS)
def test_mask_words_and_products_equal_dense_words(model, seed):
    for tag in ("W0", "W0p"):
        gens = dense_generators(model, tag)
        assert all((dense(w) == g).all() for w, g in zip(wedge_generators(model, tag), gens))
        for w, expected in zip(wedge_monomials(model, tag, 2), dense_monomials(model, tag, 2)):
            assert (dense(w) == expected).all()
        rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            word = random_monomial(model, tag, 4, rng)
            picks = [int(replay.integers(len(gens)))
                     for _ in range(int(replay.integers(1, 5)))]
            expected = gens[picks[0]]
            for i in picks[1:]:
                expected = expected @ gens[i]
            assert (dense(word) == expected).all()
            assert (dense(word.H) == expected.conj().T).all()
        assert rng.random() == replay.random()


@PROPERTY
@given(word_models(), SEEDS, KAPPAS, st.floats(-3.0, 3.0))
def test_word_warp_and_diagonal_conjugation_match_dense(model, seed, kappa, t):
    word = _random_word(np.random.default_rng(seed), model.dim)
    m = dense(word)
    scale = np.max(np.abs(m))
    reference = warp(model, kappa, FockOperator(m, model)).matrix
    assert np.max(np.abs(dense(warp_word(model, kappa, word)) - reference)) <= 1e-15 * scale
    for u in (boost_phases(model, t), gauge_phases(model, t), twist_phases(model)):
        reference = conjugate_by_diagonal(u, m)
        assert np.max(np.abs(dense(word.conjugated_by(u)) - reference)) <= 1e-15 * scale


@PROPERTY
@given(word_models(), SEEDS, KAPPAS)
def test_max_entry_norm_matches_dense_two_norm(model, seed, kappa):
    rng = np.random.default_rng(seed)
    z = twist_phases(model)
    words = [_random_word(rng, model.dim)]
    for refl_kappa in (-kappa, kappa):      # twisted commutators, with and without the flip
        f = warp_word(model, kappa, random_monomial(model, "W0", 3, rng)).conjugated_by(z)
        g = warp_word(model, refl_kappa, random_monomial(model, "W0p", 3, rng))
        words.append(f @ g - g @ f)
    for w in words:
        reference = float(np.linalg.norm(dense(w), 2))
        assert abs(w.norm() - reference) <= 1e-13 * reference


@PROPERTY
@given(word_models(), SEEDS, KAPPAS, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_per_mask_spans_match_dense_span(model, seed, kappa, t, s):
    rng = np.random.default_rng(seed)
    words = [warp_word(model, kappa, w) for w in wedge_monomials(model, "W0", 2)]
    for _ in range(4):     # dependent words: combinations within one mask
        a = words[int(rng.integers(len(words)))]
        same = [w for w in words if w.mask == a.mask]
        b = same[int(rng.integers(len(same)))]
        words.append(MaskWord(a.mask, (0.3 - 1.1j) * a.vec + 2.0 * b.vec))
    basis = span_basis(words)
    reference = dense_span_basis([dense(w) for w in words])
    assert sum(rows.shape[0] for rows in basis.values()) == reference.shape[0]
    u = boost_phases(model, t) * gauge_phases(model, s)
    reflected = [warp_word(model, -kappa, w) for w in wedge_monomials(model, "W0p", 1)]
    for probe in ([w.conjugated_by(u) for w in words], reflected,
                  [_random_word(rng, model.dim) for _ in range(3)]):
        assert abs(span_residual(basis, probe)
                   - dense_span_residual(reference, [dense(w) for w in probe])) <= 1e-13


def test_mask_word_difference_needs_one_mask():
    with pytest.raises(ValueError, match="single-mask"):
        MaskWord(1, np.ones(4)) - MaskWord(2, np.ones(4))
