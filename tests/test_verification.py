import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dswarp import car_fock, cli, deformation, verification
from dswarp import wedges as wd
from dswarp.car_fock import (MaskWord, OneParticleModel, boost_phases, charge_projector,
                             default_model, field_B, gauge_phases, reflect_word,
                             reflection_automorphism, twist_phases, wedge_generators,
                             wedge_subalgebra_basis)
from dswarp.deformation import warp_angles, warp_word
from dswarp.verification import (SPAN_SVD_TOL, CheckReport, causal_borchers_axioms,
                                 check_twisted_locality, fixed_point_residual,
                                 inequivalence_witness, net_well_defined_residual,
                                 random_monomial, span_basis, span_residual, suite_car,
                                 suite_deformation, wedge_monomials)
from test_fock_properties import (conjugate_by_diagonal, dense, dense_fixed_point_residual,
                                  dense_op, identity_op, jordan_wigner_ops)
from dense_reference import FockOperator, warp

MODEL = default_model()


# -- dense oracle ----------------------------------------------------------------
# Wedge words as dense d x d matrices (test_fock_properties.dense), spans by one
# SVD of the words x d^2 stack: the reference the mask-word path is compared
# against.

def dense_generators(model: OneParticleModel, tag: str) -> list[np.ndarray]:
    return [field_B(model, f) for f in wedge_subalgebra_basis(model, tag)]


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
    vecs = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    basis = span_basis(MaskWord(np.array([1, 2, 1]), vecs))
    assert sorted(basis) == [1, 2]
    assert sum(rows.shape[0] for rows in basis.values()) == 3
    combo = MaskWord(np.array([1]), np.array([0.3j * vecs[0] - 1.7 * vecs[2]]))
    assert span_residual(basis, combo) < 1e-12
    outside = MaskWord(np.array([2, 1]), np.array([2.0 * vecs[1], rng.standard_normal(4)]))
    assert span_residual(basis, outside) > 1e-2
    assert span_residual(basis, MaskWord(np.array([3]), rng.standard_normal((1, 4)))) == 1.0
    # a zero word is skipped, with no divide-by-zero warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert span_residual(basis, MaskWord(np.array([1, 3]), np.zeros((2, 4)))) == 0.0


def test_span_rank_is_cut_against_the_global_top_singular_value():
    # the mask-2 word is below 1e-9 of the largest singular value (1e6) of the
    # whole stack, though not below 1e-9 of its own block's
    words = MaskWord(np.array([1, 2]), np.array([[1e6, 0, 0, 0], [1e-5, 0, 0, 0]]))
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
    sectors, derivative = fixed_point_residual(MODEL, MaskWord(0, np.ones(MODEL.dim)))
    assert max(sectors.values()) == 0.0 and derivative == 0.0
    word = charge_projector(MODEL, 1)
    e1 = dense_op(MODEL, word)
    for residual in (fixed_point_residual(MODEL, word), dense_fixed_point_residual(MODEL, e1)):
        sectors, derivative = residual
        assert max(sectors.values()) == 0.0 and derivative == 0.0
    # E(1) is fixed by the deformation but is not a multiple of the identity
    assert (warp_word(MODEL, 0.3, word) - word).norm() == 0.0
    assert warp(MODEL, 0.3, e1).dist(e1) == 0.0
    assert e1.dist(identity_op(MODEL) * (np.trace(e1.matrix) / MODEL.dim)) > 0.1


def test_fixed_point_rejects_charged_operator():
    lowering = verification._ladder(MODEL, 0, False)
    with pytest.raises(ValueError, match="gauge-invariant"):
        fixed_point_residual(MODEL, lowering)
    for scale in (2.0 * verification.GAUGE_TOL, np.nan):
        with pytest.raises(ValueError, match="gauge-invariant"):
            fixed_point_residual(MODEL, MaskWord(lowering.mask, scale * lowering.vec))
    # charge-moving entries at or below GAUGE_TOL are read as zero
    sectors, derivative = fixed_point_residual(
        MODEL, MaskWord(lowering.mask, verification.GAUGE_TOL * lowering.vec))
    assert max(sectors.values()) == 0.0 and derivative == 0.0


def test_fixed_point_cross_frequency_mover():
    ops = jordan_wigner_ops(MODEL.n_modes)
    word = verification._ladder(MODEL, 0, True) @ verification._ladder(MODEL, 1, False)
    mover = FockOperator(ops[0].conj().T @ ops[1], MODEL)
    assert (dense(word) == mover.matrix).all()
    sectors, derivative = fixed_point_residual(MODEL, word)
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
        sectors, derivative = dense_fixed_point_residual(MODEL, op)
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


# -- the structured car and fixed-point paths can still fail ---------------------------

def _car_checks(model: OneParticleModel) -> dict[str, CheckReport]:
    cfg = cli.load_config(None)
    return {c.name: c for c in suite_car(model, cfg, np.random.default_rng(0))}


def test_car_anticommutators_fail_without_jordan_wigner_signs(monkeypatch):
    """With every sign +1 the modes commute instead of anticommuting."""
    mode, src, dst, _ = car_fock._mode_flips(4)
    unsigned = (mode, src, dst, np.ones(len(mode)))
    monkeypatch.setattr(car_fock, "_mode_flips", lambda n: unsigned)
    check = _car_checks(default_model())["car-anticommutators"]
    assert check.max_residual > 1.0
    assert not check.passed


def test_each_flipped_jordan_wigner_sign_fails_car_anticommutators(monkeypatch):
    """A sign enters {c_j, c_j^+} squared, but for a mode k != j the flipped entry
    lies on only one of the two paths c_j c_k and c_k c_j (or with adjoints)
    through some basis state, so their anticommutator has an entry +-2 there."""
    mode, src, dst, sign = car_fock._mode_flips(4)
    for entry in range(len(sign)):
        flipped = sign.copy()
        flipped[entry] = -flipped[entry]
        monkeypatch.setattr(car_fock, "_mode_flips", lambda n: (mode, src, dst, flipped))
        check = _car_checks(default_model())["car-anticommutators"]
        assert check.max_residual == 2.0, entry
        assert not check.passed


def test_car_anticommutators_build_no_fock_size_array():
    """At dim 1024 one d x d complex array takes 16 MiB; the residuals of all
    (2n)^2 = 400 unit-word pairs, with the flip tables built on the way, are
    computed within 2 MiB."""
    import tracemalloc
    model = OneParticleModel(6, 4, [1.0, -1.0, 2.0, -2.0, 3.0, -3.0], [1.0, -1.0, 2.0, -2.0],
                             [0, 2, 4, 6, 8])
    tracemalloc.start()
    try:
        residuals = verification._unit_car_residuals(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(residuals) == 400 and max(residuals) == 0.0
    assert peak < 2 ** 21 < 16 * model.dim ** 2


def test_cstar_norm_formula_fails_without_jordan_wigner_signs(monkeypatch):
    """Unsigned modes commute, so B(f)^* B(f) has more than two eigenvalues: the
    Lanczos certificate rejects every field, every norm is NaN, and the check
    fails with a null residual, with no dense field built."""
    mode, src, dst, _ = car_fock._mode_flips(4)
    unsigned = (mode, src, dst, np.ones(len(mode)))
    monkeypatch.setattr(car_fock, "_mode_flips", lambda n: unsigned)
    counts = _count_calls(monkeypatch, [("field_B", car_fock, "field_B")])
    check = _car_checks(default_model())["cstar-norm-formula"].as_dict()   # a fresh model
    assert counts == {"field_B": 0}
    assert check["max_residual"] is None
    assert check["pass"] is False


def test_one_uncertified_field_norm_fails_cstar_norm_formula(monkeypatch):
    """A single field whose Lanczos run misses the certificate gets the norm
    NaN, so the check fails with a null residual instead of passing on the
    other 199."""
    lanczos, batches = car_fock._lanczos, []

    def one_uncertified(model, fs, starts):      # the first row of the first batch
        ritz, residual, one_step = lanczos(model, fs, starts)
        if not batches:
            residual[0] = 10.0 * car_fock.LANCZOS_CERTIFICATE
        batches.append(len(fs))
        return ritz, residual, one_step

    norms, field_norms = [], car_fock.field_norms
    monkeypatch.setattr(car_fock, "_lanczos", one_uncertified)
    monkeypatch.setattr(verification, "field_norms",
                        lambda *args: norms.append(field_norms(*args)) or norms[-1])
    check = _car_checks(default_model())["cstar-norm-formula"].as_dict()
    assert np.isnan(norms[0]).sum() == 1
    assert check["max_residual"] is None
    assert check["pass"] is False


def _count_calls(monkeypatch, targets) -> dict[str, int]:
    """Patch each (name, owner, attribute) to count its calls; returns the counts."""
    counts = dict.fromkeys([name for name, _, _ in targets], 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, owner, attr in targets:
        monkeypatch.setattr(owner, attr, counted(name, getattr(owner, attr)))
    return counts


def _record_svd_shapes(monkeypatch) -> list[tuple[int, ...]]:
    """The shapes of the arrays np.linalg.svd is called on, as they come."""
    shapes, svd = [], np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return shapes


@pytest.mark.parametrize("model", [default_model(), OneParticleModel(
    4, 3, [1.0, -1.0, 2.0, -2.0], [1.0, -1.0, 0.0], [0, 2, 4])], ids=["dim16", "dim128"])
def test_car_suite_builds_no_dense_field_product_or_fock_size_svd(monkeypatch, model):
    """The car suite builds no dense field and takes no SVD: the Bogolyubov
    check reads Frobenius norms of gathers of the number blocks."""
    counts = _count_calls(monkeypatch, [("field_B", car_fock, "field_B")])
    shapes = _record_svd_shapes(monkeypatch)
    assert all(c.passed for c in _car_checks(model).values())
    assert counts == {"field_B": 0} and shapes == []


def _cached_arrays(value):
    """The arrays a per-model cache value holds: itself, its items, or the
    vectors of its mask words."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, MaskWord):
        yield value.vec
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _cached_arrays(item)


def _assert_no_fock_size_cache(model: OneParticleModel):
    """No value of the model's cache holds an array of d^2 or more entries."""
    cached = [a.size for value in model._cache.values() for a in _cached_arrays(value)]
    assert max(cached, default=0) < model.dim ** 2


def _assert_verify_builds_no_fock_size_array(monkeypatch, cfg: dict):
    """The verify of cfg passes, builds no dense field, takes no SVD of a d x d
    or d/2 x d/2 array, and leaves no Fock-size array in the model's cache."""
    model = cli.model_from_config(cfg)
    counts = _count_calls(monkeypatch, [("field_B", car_fock, "field_B")])
    shapes = _record_svd_shapes(monkeypatch)
    checks, _ = verification.run_suites(model, cfg)
    assert list(checks) == cfg["suites"]
    assert all(c.passed for suite in checks.values() for c in suite)
    assert counts == {"field_B": 0}
    d = model.dim
    assert shapes and not [s for s in shapes if s[-2:] in ((d, d), (d // 2, d // 2))]
    _assert_no_fock_size_cache(model)


def test_full_verify_takes_no_dense_product_and_no_fock_size_svd(monkeypatch):
    """Every single-mode operator of a default verify stays a mask word: the
    oracle's spinor, E(1) and the fixed-point mover included."""
    _assert_verify_builds_no_fock_size_array(monkeypatch, cli.load_config(None))


def test_fock128_verify_takes_no_dense_product_and_no_fock_size_svd(monkeypatch):
    """The same on the 4+3-mode model (dim 128) with the Fock suites."""
    cfg = cli.load_config(None)
    cfg["model"].update({"d_plus": 4, "d_minus": 3,
                         "boost_freqs_plus": [1.0, -1.0, 2.0, -2.0],
                         "boost_freqs_minus": [1.0, -1.0, 0.0],
                         "localized_modes": [0, 2, 4],
                         "reflection_pairing": [1, 0, 3, 2, 5, 4, 6]})
    cfg["suites"] = ["car", "deformation", "oracle", "locality", "fixed_point",
                     "inequivalence"]
    _assert_verify_builds_no_fock_size_array(monkeypatch, cfg)


def test_dim1024_oracle_run_caches_no_fock_size_array(monkeypatch):
    """The oracle suite on the 6+4-mode model (dim 1024) builds no dense field,
    takes no SVD, and keeps no Fock-size array: the warp takes its angles at
    the word's entries.  Its verdicts are not asserted, since at this
    dimension the fixed eps grid ends above the oracle's gate."""
    cfg = cli.load_config(None)
    cfg["model"].update({"d_plus": 6, "d_minus": 4,
                         "boost_freqs_plus": [1.0, -1.0, 2.0, -2.0, 3.0, -3.0],
                         "boost_freqs_minus": [1.0, -1.0, 2.0, -2.0],
                         "localized_modes": [0, 2, 4, 6, 8],
                         "reflection_pairing": [1, 0, 3, 2, 5, 4, 7, 6, 9, 8]})
    cfg["suites"] = ["oracle"]
    model = cli.model_from_config(cfg)
    counts = _count_calls(monkeypatch, [("field_B", car_fock, "field_B")])
    shapes = _record_svd_shapes(monkeypatch)
    checks, _ = verification.run_suites(model, cfg)
    assert len(checks["oracle"]) == 4
    assert counts == {"field_B": 0} and shapes == []
    _assert_no_fock_size_cache(model)


def test_gamma_of_the_transpose_fails_bogolyubov_implementation(monkeypatch):
    """The check draws complex Hermitian h, so w = e^{ih} is not symmetric."""
    quantize = car_fock.second_quantize_blocks
    monkeypatch.setattr(verification, "second_quantize_blocks",
                        lambda model, w: quantize(model, np.swapaxes(w, -1, -2)))
    check = _car_checks(default_model())["bogolyubov-implementation"]
    assert check.max_residual > 1e-2
    assert not check.passed


def test_non_finite_field_vector_fails_car_anticommutators(monkeypatch):
    """A NaN sign in the flip tables puts a NaN into a unit word's vector."""
    mode, src, dst, sign = car_fock._mode_flips(4)
    poisoned = sign.copy()
    poisoned[1] = np.nan
    monkeypatch.setattr(car_fock, "_mode_flips", lambda n: (mode, src, dst, poisoned))
    check = _car_checks(default_model())["car-anticommutators"].as_dict()
    assert check["max_residual"] is None
    assert check["pass"] is False


def _fixed_point_checks(model: OneParticleModel) -> dict[str, CheckReport]:
    """The fixed-point suite's checks; a generator without attributes makes
    any draw from it raise."""
    return {c.name: c for c in verification.suite_fixed_point(model, cli.load_config(None),
                                                              object())}


def test_sector_norms_give_nan_for_a_sector_with_a_nan_entry(monkeypatch):
    """A NaN warp angle at one entry of the charge-1 sector makes the
    derivative-commutator residual NaN: the check fails and reports null."""
    state = int(np.nonzero(MODEL.charges == 1)[0][0])

    def angles(model, rows, cols):
        return np.where((rows == state) & (cols == state), np.nan,
                        warp_angles(model, rows, cols))

    monkeypatch.setattr(verification, "warp_angles", angles)
    check = _fixed_point_checks(MODEL)["derivative-commutator-equivalence"].as_dict()
    assert check["max_residual"] is None
    assert check["pass"] is False


@pytest.mark.parametrize("model", [default_model(), OneParticleModel(
    4, 3, [1.0, -1.0, 2.0, -2.0], [1.0, -1.0, 0.0], [0, 2, 4])], ids=["dim16", "dim128"])
def test_fixed_point_loop_draws_sector_blocks_and_takes_no_dense_warp(monkeypatch, model):
    """The suite decides its statement at the sector entries: it draws nothing
    from its generator, and E(1) and the mover are mask words, so it builds no
    dense field and takes every warp angle at sector or word entries, never
    a d x d block of them."""
    sizes = []
    for module in (deformation, verification):
        monkeypatch.setattr(module, "warp_angles",
                            lambda m, rows, cols: sizes.append(np.broadcast(rows, cols).size)
                            or warp_angles(m, rows, cols))
    counts = _count_calls(monkeypatch, [("field_B", car_fock, "field_B")])
    assert all(c.passed for c in _fixed_point_checks(model).values())
    assert counts == {"field_B": 0}
    assert sizes and max(sizes) < model.dim ** 2


@pytest.mark.parametrize("model", [default_model(), OneParticleModel(
    4, 3, [1.0, -1.0, 2.0, -2.0], [1.0, -1.0, 0.0], [0, 2, 4])], ids=["dim16", "dim128"])
def test_fixed_point_loop_takes_no_svd(monkeypatch, model):
    """The statement is decided entry by entry, and E(1) and the mover are
    single-mask words, whose sector norms are largest entries: the whole
    suite takes no SVD."""
    shapes = _record_svd_shapes(monkeypatch)
    calls, residual = [], verification.fixed_point_residual
    monkeypatch.setattr(verification, "fixed_point_residual",
                        lambda m, word: calls.append(word.mask) or residual(m, word))
    assert all(c.passed for c in _fixed_point_checks(model).values())
    j, k = verification._cross_frequency_pair(model)
    n = model.n_modes
    assert calls == [0, (1 << (n - 1 - j)) ^ (1 << (n - 1 - k))]
    assert shapes == []


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
        assert [(dense(w) == g).all() for w, g
                in zip(wedge_generators(model, tag), gens)] == [True] * len(gens)
        monomials = dense_monomials(model, tag, 2)
        assert [(dense(w) == expected).all() for w, expected
                in zip(wedge_monomials(model, tag, 2), monomials)] == [True] * len(monomials)
    # the picks of each sample are drawn tag by tag, as for one word at a time
    rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
    stacks = random_monomial(model, ("W0", "W0p"), 4, 5, rng)
    gens = [dense_generators(model, tag) for tag in ("W0", "W0p")]
    for sample in range(5):
        for stack, tag_gens in zip(stacks, gens):
            picks = [int(replay.integers(len(tag_gens)))
                     for _ in range(int(replay.integers(1, 5)))]
            expected = tag_gens[picks[0]]
            for i in picks[1:]:
                expected = expected @ tag_gens[i]
            assert (dense(stack[sample]) == expected).all()
            assert (dense(stack[sample].H) == expected.conj().T).all()
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
        f, g = random_monomial(model, ("W0", "W0p"), 3, 1, rng)
        f = warp_word(model, kappa, f[0]).conjugated_by(z)
        g = warp_word(model, refl_kappa, g[0])
        words.append(f @ g - g @ f)
    for w in words:
        reference = float(np.linalg.norm(dense(w), 2))
        assert abs(w.norm() - reference) <= 1e-13 * reference


@PROPERTY
@given(word_models(), SEEDS, KAPPAS, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_per_mask_spans_match_dense_span(model, seed, kappa, t, s):
    rng = np.random.default_rng(seed)
    words = list(warp_word(model, kappa, wedge_monomials(model, "W0", 2)))
    for _ in range(4):     # dependent words: combinations within one mask
        a = words[int(rng.integers(len(words)))]
        same = [w for w in words if w.mask == a.mask]
        b = same[int(rng.integers(len(same)))]
        words.append(MaskWord(a.mask, (0.3 - 1.1j) * a.vec + 2.0 * b.vec))
    words = MaskWord.stack(words)
    basis = span_basis(words)
    reference = dense_span_basis([dense(w) for w in words])
    assert sum(rows.shape[0] for rows in basis.values()) == reference.shape[0]
    u = boost_phases(model, t) * gauge_phases(model, s)
    reflected = warp_word(model, -kappa, wedge_monomials(model, "W0p", 1))
    for probe in (words.conjugated_by(u), reflected,
                  MaskWord.stack([_random_word(rng, model.dim) for _ in range(3)])):
        assert abs(span_residual(basis, probe)
                   - dense_span_residual(reference, [dense(w) for w in probe])) <= 1e-13


def test_mask_word_difference_needs_one_mask():
    with pytest.raises(ValueError, match="single-mask"):
        MaskWord(1, np.ones(4)) - MaskWord(2, np.ones(4))


# -- stacks of mask words ----------------------------------------------------------

def _random_stack(rng, dim: int, masks) -> tuple[MaskWord, list[MaskWord]]:
    """A stack with the given masks and complex Gaussian rows, and the same
    words one by one, with int masks and vectors of their own."""
    vecs = rng.standard_normal((len(masks), dim)) + 1j * rng.standard_normal((len(masks), dim))
    return (MaskWord(np.array(masks), vecs),
            [MaskWord(int(m), v.copy()) for m, v in zip(masks, vecs)])


def _assert_rows_equal(stack: MaskWord, words: list[MaskWord]):
    """Row b of the stack is words[b], mask and entries bit for bit."""
    assert len(stack.mask) == len(words)
    for row, word in zip(stack, words):
        assert row.mask == word.mask and np.array_equal(row.vec, word.vec)


@PROPERTY
@given(word_models(), SEEDS, st.integers(1, 8), st.booleans(), KAPPAS, st.floats(-3.0, 3.0))
def test_stacked_words_equal_the_words_one_by_one(model, seed, size, one_mask, kappa, t):
    """Every word operation on a stack of 1-8 words, of one mask or of mixed
    masks, gives in each row exactly what it gives that row's word alone; a
    single word broadcasts against a stack."""
    rng = np.random.default_rng(seed)
    d = model.dim
    masks = np.full(size, rng.integers(d)) if one_mask else rng.integers(d, size=size)
    a, a_words = _random_stack(rng, d, masks)
    b, b_words = _random_stack(rng, d, rng.integers(d, size=size))
    c, c_words = _random_stack(rng, d, masks)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    vs = rng.standard_normal((size, d)) + 1j * rng.standard_normal((size, d))
    u = boost_phases(model, t)

    _assert_rows_equal(a @ b, [x @ y for x, y in zip(a_words, b_words)])
    _assert_rows_equal(a_words[0] @ b, [a_words[0] @ y for y in b_words])
    _assert_rows_equal(a @ b_words[0], [x @ b_words[0] for x in a_words])
    _assert_rows_equal(a.H, [x.H for x in a_words])
    _assert_rows_equal(a - c, [x - y for x, y in zip(a_words, c_words)])
    _assert_rows_equal(a.conjugated_by(u), [x.conjugated_by(u) for x in a_words])
    _assert_rows_equal(warp_word(model, kappa, a), [warp_word(model, kappa, x) for x in a_words])
    _assert_rows_equal(reflect_word(model, a), [reflect_word(model, x) for x in a_words])
    _assert_rows_equal(reflection_automorphism(model, a),
                       [reflection_automorphism(model, x) for x in a_words])
    assert np.array_equal(a.apply(v), [x.apply(v) for x in a_words])
    assert np.array_equal(a.apply(vs), [x.apply(w) for x, w in zip(a_words, vs)])
    assert np.array_equal(a_words[0].apply(vs), [a_words[0].apply(w) for w in vs])
    assert np.array_equal(a.norm(), [x.norm() for x in a_words])
    if (b.mask != a.mask).any():
        with pytest.raises(ValueError, match="single-mask"):
            a - b


# warp_word calls of one suite run, on the 2+2- and the 4+3-mode models alike:
# each kappa's draws are warped as one stack.  Warping word by word took 1631
# and 1685 (deformation), 319 and 385 (locality).
WARP_WORD_CALLS = {"deformation": 157, "locality": 19}
FOCK128_MODEL = {"d_plus": 4, "d_minus": 3, "boost_freqs_plus": [1.0, -1.0, 2.0, -2.0],
                 "boost_freqs_minus": [1.0, -1.0, 0.0], "localized_modes": [0, 2, 4],
                 "reflection_pairing": [1, 0, 3, 2, 5, 4, 6]}


def _count_warp_words(monkeypatch) -> dict[str, int]:
    """Count warp_word calls, also those rieffel_word and covariance_transform make."""
    counts = _count_calls(monkeypatch, [("warp_word", deformation, "warp_word")])
    monkeypatch.setattr(verification, "warp_word", deformation.warp_word)
    return counts


@pytest.mark.parametrize("suite", sorted(WARP_WORD_CALLS))
def test_warp_word_calls_do_not_grow_with_the_draws(monkeypatch, suite):
    counts = _count_warp_words(monkeypatch)
    per_model = []
    for model in ({}, FOCK128_MODEL):            # dim 16 and dim 128
        cfg = cli.load_config(None)
        cfg["model"].update(model)
        counts["warp_word"] = 0
        checks = verification.SUITES[suite](cli.model_from_config(cfg), cfg,
                                            np.random.default_rng(0))
        assert all(c.passed for c in checks)
        per_model.append(counts["warp_word"])
    assert per_model[0] == per_model[1] <= WARP_WORD_CALLS[suite]


def test_warp_word_calls_do_not_depend_on_the_number_of_draws(monkeypatch):
    """Twice the random words per kappa leave the deformation suite's count as
    it is, and twisted locality warps 4 or 64 samples in two calls."""
    counts = _count_warp_words(monkeypatch)
    random_words = verification._random_words
    monkeypatch.setattr(verification, "_random_words",
                        lambda model, rng, count: random_words(model, rng, 2 * count))
    suite_deformation(MODEL, cli.load_config(None), np.random.default_rng(0))
    assert counts["warp_word"] == WARP_WORD_CALLS["deformation"]
    for samples in (4, 64):
        counts["warp_word"] = 0
        assert check_twisted_locality(MODEL, 0.5, degree=4, n_samples=samples).passed
        assert counts["warp_word"] == 2


def test_wedge_pairs_and_random_monomials_are_drawn_as_stacks(monkeypatch):
    """The wedges suite decides its 200 pairs with one wedges_equal call and
    at most four wedge_contains calls, and each twisted-locality check draws
    its monomials with one random_monomial call."""
    counts = _count_calls(monkeypatch, [("wedges_equal", wd, "wedges_equal"),
                                        ("wedge_contains", wd, "wedge_contains"),
                                        ("random_monomial", verification, "random_monomial")])
    cfg = cli.load_config(None)
    checks = verification.suite_wedges(MODEL, cfg, np.random.default_rng(0))
    assert all(c.passed for c in checks)
    assert counts["wedges_equal"] == 1 and counts["wedge_contains"] <= 4
    for samples in (4, 64):
        counts["random_monomial"] = 0
        assert check_twisted_locality(MODEL, 0.5, degree=4, n_samples=samples).passed
        assert counts["random_monomial"] == 1


# -- the mask-word deformation suite can still fail ---------------------------------

def _deformation_checks(model: OneParticleModel) -> dict[str, CheckReport]:
    cfg = cli.load_config(None)
    return {c.name: c for c in suite_deformation(model, cfg, np.random.default_rng(0))}


def _failed(checks: dict[str, CheckReport]) -> set[str]:
    return {name for name, check in checks.items() if not check.passed}


def test_deformation_suite_passes_on_the_default_model():
    assert not _failed(_deformation_checks(default_model()))


def test_deformation_suite_makes_no_dense_product_norm_or_svd(monkeypatch):
    """Every residual of the suite is a mask word's largest absolute entry: no
    dense field is built and no SVD is taken."""
    counts = _count_calls(monkeypatch, [("field_B", car_fock, "field_B"),
                                        ("svd", np.linalg, "svd")])
    assert not _failed(_deformation_checks(default_model()))
    assert counts == {"field_B": 0, "svd": 0}


def test_antisymmetric_angle_perturbation_fails_the_deformation_suite(monkeypatch):
    """A phase exp(i kappa M) with M real antisymmetric but not the warp angles."""
    model = default_model()
    rng = np.random.default_rng(81)
    a = rng.standard_normal((model.dim, model.dim))
    extra = a - a.T
    monkeypatch.setattr(deformation, "warp_angles", lambda m, rows, cols: warp_angles(
        m, rows, cols) + extra[rows, np.arange(m.dim)[cols]])
    failed = _failed(_deformation_checks(model))
    assert {"vacuum-invariance", "deformed-twisted-commutant",
            "covariance-identities"} <= failed


def test_reflection_covariance_without_the_kappa_flip_fails(monkeypatch):
    transform = deformation.covariance_transform

    def no_flip(model, kappa, word, kind, parameter=None):
        if kind != "reflection":
            return transform(model, kappa, word, kind, parameter)
        return (car_fock.reflect_word(model, warp_word(model, kappa, word)),
                warp_word(model, kappa, car_fock.reflection_automorphism(model, word)))

    monkeypatch.setattr(verification, "covariance_transform", no_flip)
    assert _failed(_deformation_checks(default_model())) == {"covariance-identities"}


def test_every_flipped_sign_in_the_reflection_table_fails_covariance(monkeypatch):
    """A sign flip alone is a symmetry of Gamma(tau) warp Gamma(tau)^* = warp(-kappa)
    (both sides are conjugated by the same diagonal); the check sees it because
    its right side reflects through the fields, not through the table."""
    table = car_fock.reflection_table
    model = default_model()
    perm, sign = table(model)
    for state in range(model.dim):
        flipped = sign.copy()
        flipped[state] = -flipped[state]
        monkeypatch.setattr(car_fock, "reflection_table", lambda m: (perm, flipped))
        assert _failed(_deformation_checks(model)) == {"covariance-identities"}, state
