"""Property tests: each structured Fock fast path against its dense reference.

The references are the dense constructions the fast paths replaced: the
Kronecker-product Jordan-Wigner tower for the fields, exp(i dGamma(h)) on that
tower for the second quantization Gamma(e^{ih}), the full commutator
[K, A E(n)] for the fixed-point sectors, one full SVD for the charge-block
operator norm, dense products with diagonal matrices for conjugation, and the
uncached phase expression for warp.
Models are small random ones, up to 3 + 3 modes.
"""

import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag, expm

from dswarp.car_fock import (FockOperator, OneParticleModel, _mode_flips, boost_phases,
                             charge_projector, conjugate_by_diagonal, default_model,
                             field_B, gauge_phases, identity_op, operator_norm,
                             reflection_fock, second_quantize, twist_phases,
                             wedge_generators)
from dswarp.deformation import RECENT_PHASES, angle_matrix, warp, warp_phase
from dswarp.verification import _ladder, fixed_point_residual

PROPERTY = settings(max_examples=30, deadline=None)


@lru_cache(maxsize=8)
def jordan_wigner_ops(n: int) -> tuple[np.ndarray, ...]:
    """Annihilation matrices c_0..c_{n-1} as Kronecker products (the oracle)."""
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    zphase = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    ident = np.eye(2, dtype=complex)
    ops = []
    for j in range(n):
        m = np.eye(1, dtype=complex)
        for k in range(n):
            if k < j:
                m = np.kron(m, zphase)
            elif k == j:
                m = np.kron(m, lower)
            else:
                m = np.kron(m, ident)
        ops.append(m)
    return tuple(ops)


def oracle_field(model: OneParticleModel, f: np.ndarray) -> np.ndarray:
    """B(f) as the dense sum over modes of coefficient times c_j or c_j^+."""
    n, dp = model.n_modes, model.d_plus
    ops = jordan_wigner_ops(n)
    out = np.zeros((model.dim, model.dim), dtype=complex)
    for j in range(n):
        c, cdag = ops[j], ops[j].conj().T
        raise_coef, lower_coef = f[j], f[n + j]
        if j < dp:
            out += raise_coef * cdag + lower_coef * c
        else:
            out += raise_coef * c + lower_coef * cdag
    return out


def diagonal(model: OneParticleModel, values) -> FockOperator:
    """The dense diagonal operator with the given diagonal (the reference for
    the phase vectors)."""
    return FockOperator(np.diag(values), model)


def charge_shifts(op: FockOperator, tol: float = 0.0) -> dict[int, np.ndarray]:
    """The charge-shift components of op with an entry above tol, keyed by the shift."""
    n = op.model.n_modes
    blocks = {m: op.charge_shift(m) for m in range(-n, n + 1)}
    return {m: b for m, b in blocks.items() if np.max(np.abs(b)) > tol}


def dgamma(model: OneParticleModel, h: np.ndarray) -> np.ndarray:
    """dGamma(h) = sum_jk h[j, k] c_j^+ c_k on the Kronecker tower (the oracle for Gamma)."""
    ops = jordan_wigner_ops(model.n_modes)
    out = np.zeros((model.dim, model.dim), dtype=complex)
    for j, cj in enumerate(ops):
        for k, ck in enumerate(ops):
            out += h[j, k] * (cj.conj().T @ ck)
    return out


# Frequencies are multiples of 1/4, so every phase phi_i is an exact sum and
# phi_i - phi_j is exact; the sector-block and dense commutators then differ
# only by the rounding of their last products.
FREQS = st.integers(-12, 12).map(lambda k: k / 4.0)
SEEDS = st.integers(0, 2 ** 32 - 1)


@st.composite
def models(draw):
    dp = draw(st.integers(0, 3))
    dm = draw(st.integers(max(0, 2 - dp), 3))
    return OneParticleModel(dp, dm,
                            draw(st.lists(FREQS, min_size=dp, max_size=dp)),
                            draw(st.lists(FREQS, min_size=dm, max_size=dm)),
                            localized_modes=[0])


def _random_matrix(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


@PROPERTY
@given(models(), SEEDS)
def test_bit_built_field_equals_kronecker_oracle(model, seed):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(model.doubled_dim) + 1j * rng.standard_normal(model.doubled_dim)
    assert (field_B(model, f).matrix == oracle_field(model, f)).all()


@PROPERTY
@given(models())
def test_bit_built_annihilators_equal_kronecker_oracle(model):
    for j, oracle in enumerate(jordan_wigner_ops(model.n_modes)):
        assert (_ladder(model, j, False).matrix == oracle).all()
        assert (_ladder(model, j, True).matrix == oracle.conj().T).all()


@PROPERTY
@given(models())
def test_field_built_hopping_equals_kronecker_oracle_product(model):
    # c_j^+ c_k over every pair of particle and antiparticle modes: pins which
    # copy raises a mode of each species
    ops = jordan_wigner_ops(model.n_modes)
    for j, k in itertools.product(range(model.n_modes), repeat=2):
        built = _ladder(model, j, True) @ _ladder(model, k, False)
        assert (built.matrix == ops[j].conj().T @ ops[k]).all(), (j, k)


def _species_block_unitary(model, rng) -> tuple[np.ndarray, np.ndarray]:
    """(e^{ih}, h) for a random Hermitian h that keeps each species block."""
    dp = model.d_plus
    h = _random_matrix(rng, model.n_modes)
    h = h + h.conj().T
    h[:dp, dp:] = h[dp:, :dp] = 0.0
    return expm(1j * h), h


@PROPERTY
@given(models(), SEEDS)
def test_second_quantize_is_a_unitary_representation(model, seed):
    rng = np.random.default_rng(seed)
    (w1, _), (w2, _) = _species_block_unitary(model, rng), _species_block_unitary(model, rng)
    g1, g2 = second_quantize(model, w1), second_quantize(model, w2)
    assert second_quantize(model, w1 @ w2).dist(g1 @ g2) < 1e-12
    assert (g1 @ g1.H).dist(identity_op(model)) < 1e-12


@PROPERTY
@given(models(), SEEDS)
def test_second_quantize_implements_the_one_particle_map(model, seed):
    rng = np.random.default_rng(seed)
    w, _ = _species_block_unitary(model, rng)
    # copy A raises particle modes and lowers antiparticle modes
    dp = model.d_plus
    copy_a = block_diag(w[:dp, :dp], np.conj(w[dp:, dp:]))
    u = block_diag(copy_a, np.conj(copy_a))
    f = rng.standard_normal(model.doubled_dim) + 1j * rng.standard_normal(model.doubled_dim)
    g = second_quantize(model, w)
    assert (g @ field_B(model, f) @ g.H).dist(field_B(model, u @ f)) < 1e-12


@PROPERTY
@given(models(), SEEDS)
def test_second_quantize_equals_exp_of_dgamma(model, seed):
    w, h = _species_block_unitary(model, np.random.default_rng(seed))
    reference = FockOperator(expm(1j * dgamma(model, h)), model)
    assert second_quantize(model, w).dist(reference) < 1e-12


def test_second_quantize_refuses_a_map_of_the_wrong_size():
    model = default_model()
    for shape in ((4, 3), (3, 3), (8, 8)):
        with pytest.raises(ValueError, match="mode-space operator must be 4x4"):
            second_quantize(model, np.eye(*shape))


@PROPERTY
@given(models(), SEEDS)
def test_sector_block_norm_matches_full_commutator_norm(model, seed):
    rng = np.random.default_rng(seed)
    op = FockOperator(_random_matrix(rng, model.dim), model)
    op = FockOperator(op.charge_shift(0), model)
    sectors, _ = fixed_point_residual(model, op)
    k = np.diag(model.phases.astype(complex))
    assert sorted(sectors) == model.charge_values()
    for n, block_norm in sectors.items():
        an = op.matrix @ charge_projector(model, n).matrix
        full = float(np.linalg.norm(k @ an - an @ k, 2))
        assert abs(block_norm - full) <= 1e-13 * full


def _norm_cases(model, rng) -> dict[str, np.ndarray]:
    """Matrices with the charge structures the checks take norms of."""
    d, n = model.dim, model.n_modes
    f, g = (rng.standard_normal(model.doubled_dim) + 1j * rng.standard_normal(model.doubled_dim)
            for _ in range(2))
    bf, bg = field_B(model, f), field_B(model, g)
    anti = (bf @ bg + bg @ bf).matrix
    dense = FockOperator(_random_matrix(rng, d), model)
    one = np.zeros((d, d), dtype=complex)
    one[rng.integers(d), rng.integers(d)] = rng.standard_normal() + 1j
    return {
        "field": bf.matrix,
        "product": (bf @ bg).matrix,
        "anticommutator": anti,
        "car-residual": anti - np.vdot(model.apply_conjugation(f), g) * np.eye(d),
        "gauge-invariant": dense.charge_shift(0),
        "charge-shift": dense.charge_shift(int(rng.integers(-n, n + 1))),
        "dense": dense.matrix,
        "one-entry": one,
        "zero": np.zeros((d, d), dtype=complex),
    }


NORM_CASES = st.sampled_from(["field", "product", "anticommutator", "car-residual",
                              "gauge-invariant", "charge-shift", "dense", "one-entry",
                              "zero"])


@PROPERTY
@given(models(), SEEDS, NORM_CASES)
def test_charge_block_norm_equals_full_svd_norm(model, seed, case):
    m = _norm_cases(model, np.random.default_rng(seed))[case]
    full = float(np.linalg.norm(m, 2))
    assert abs(operator_norm(model, m) - full) <= 1e-13 * full


@PROPERTY
@given(models(), SEEDS, NORM_CASES,
       st.sampled_from([np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(np.nan, 1.0)]))
def test_non_finite_entry_gives_nan_norm(model, seed, case, bad):
    rng = np.random.default_rng(seed)
    m = _norm_cases(model, rng)[case]
    m[rng.integers(model.dim), rng.integers(model.dim)] = bad
    assert np.isnan(operator_norm(model, m))
    assert np.isnan(FockOperator(m, model).norm())


def _recorded_svd_shapes(model, m) -> list[tuple[int, ...]]:
    """Shapes of the arrays operator_norm(model, m) passes to np.linalg.svd."""
    shapes, svd = [], np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "svd", recording)
        operator_norm(model, m)
    return shapes


@PROPERTY
@given(models(), SEEDS, st.sampled_from(["field", "product", "anticommutator",
                                         "car-residual", "even", "odd"]))
def test_parity_homogeneous_operator_takes_no_full_size_svd(model, seed, case):
    rng = np.random.default_rng(seed)
    if case in ("even", "odd"):
        same = np.equal.outer(model.parities, model.parities)
        m = np.where(same if case == "even" else ~same, _random_matrix(rng, model.dim), 0.0)
    else:
        m = _norm_cases(model, rng)[case]
    # shifts of one parity have an even gcd, so the blocks are at most d/2 wide
    shapes = _recorded_svd_shapes(model, m)
    assert bool(shapes) == bool(m.any())
    assert all(max(s[-2:]) <= model.dim // 2 for s in shapes)


def test_dense_operator_takes_one_svd_and_zero_takes_none():
    model = default_model()
    m = _random_matrix(np.random.default_rng(3), model.dim)
    assert _recorded_svd_shapes(model, m) == [(model.dim, model.dim)]
    assert _recorded_svd_shapes(model, np.zeros_like(m)) == []
    assert operator_norm(model, np.zeros_like(m)) == 0.0


@PROPERTY
@given(models(), SEEDS, st.floats(-3.0, 3.0))
def test_entrywise_diagonal_conjugation_matches_dense(model, seed, t):
    rng = np.random.default_rng(seed)
    m = _random_matrix(rng, model.dim)
    for u in (boost_phases(model, t), gauge_phases(model, t), twist_phases(model)):
        dense = np.diag(u)
        reference = dense @ m @ dense.conj().T
        assert np.max(np.abs(conjugate_by_diagonal(u, m) - reference)) \
            <= 1e-13 * np.max(np.abs(m))


KAPPAS = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1e-4, -1e-4]),
                   st.floats(-2.0, 2.0))


@PROPERTY
@given(models(), st.lists(KAPPAS, min_size=1, max_size=12), SEEDS)
def test_cached_warp_phase_is_bit_identical(model, kappas, seed):
    op_matrix = _random_matrix(np.random.default_rng(seed), model.dim)
    op = FockOperator(op_matrix, model)
    phi, q = model.phases, model.charges
    for kappa in kappas + kappas[::-1]:
        expected = np.exp(1j * kappa * (np.outer(phi, q) - np.outer(q, phi)))
        assert warp_phase(model, kappa).tobytes() == expected.tobytes()
        assert warp(model, kappa, op).matrix.tobytes() == (op_matrix * expected).tobytes()
    assert len(model.cached("warp_phases", dict)) <= RECENT_PHASES


def _assert_frozen(a: np.ndarray):
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[(0,) * a.ndim] = 1.0


@PROPERTY
@given(models())
def test_cached_generators_are_read_only_and_built_once(model):
    gens = wedge_generators(model, "W0")
    assert wedge_generators(model, "W0") is gens
    assert len(gens) == 2 * len(model.localized_modes)
    for g in gens:
        _assert_frozen(g.vec)


def test_per_model_caches_are_read_only():
    model = default_model()
    for tag in ("W0", "W0p"):
        for g in wedge_generators(model, tag):
            _assert_frozen(g.vec)
    with pytest.raises(ValueError, match="unknown wedge tag"):
        wedge_generators(model, "rotated")
    _assert_frozen(model.conjugation_matrix())
    assert angle_matrix(model) is angle_matrix(model)
    _assert_frozen(angle_matrix(model))
    _assert_frozen(warp_phase(model, 0.5))
    assert reflection_fock(model).matrix is reflection_fock(model).matrix
    _assert_frozen(reflection_fock(model).matrix)
    for table in _mode_flips(model.n_modes):
        _assert_frozen(table)
