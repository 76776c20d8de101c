"""Property tests: each structured Fock fast path against its dense reference.

The references are the dense constructions the fast paths replaced: the
Kronecker-product Jordan-Wigner tower for the fields, dense field products for
the n-point function, exp(i dGamma(h)) on that
tower for the second quantization Gamma(e^{ih}), the dense Gamma(w) by k x k
minors (second_quantize) for its number blocks, dense products
Gamma B(f) Gamma^* for the Bogolyubov unit-field residual, the dense rotated warp
for the inequivalence witness, the full commutator
[K, A E(n)] and the dense warp's kappa-derivative for the fixed-point
sectors and for the per-entry derivative-commutator statement, the sector
SVDs for the mask-word fixed-point norms, one full SVD for the Lanczos field
norm, dense products with diagonal matrices for conjugation, the dense angle
matrix for the per-entry warp angles, the phase expression for the dense
warp, and the cutoff factors at every nonzero entry of a dense matrix for the
mask-word oracle.  The dense operator layer itself is dense_reference.
Models are small random ones, up to 3 + 3 modes.
"""

import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag, expm

from dswarp.car_fock import (LANCZOS_BATCH, LANCZOS_CERTIFICATE, MaskWord, OneParticleModel,
                             _expi_hermitian, _lanczos, _majorana_words, _mode_flips,
                             bogolyubov_modes, boost_phases, charge_projector, default_model,
                             field_B, field_norms, fock_npoint, gauge_phases,
                             number_states, occupation_table, one_particle_map,
                             reflection_table, rotation_modes, second_quantize_blocks,
                             twist_phases, wedge_generators)
from dswarp.deformation import _CUTOFF_FACTORS, warp_angles, warp_rotated_apply, warp_word
from dswarp import verification
from dswarp.verification import (DERIVATIVE_STEP, _ladder, bogolyubov_residuals,
                                 derivative_commutator_residual, fixed_point_residual,
                                 inequivalence_witness)
from dense_reference import (FockOperator, angle_matrix, field_operator, operator_norm, spinor,
                             warp)

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


def dense(word: MaskWord) -> np.ndarray:
    """The d x d matrix of a mask word."""
    d = len(word.vec)
    m = np.zeros((d, d), dtype=complex)
    m[word.rows(), np.arange(d)] = word.vec
    return m


def dense_op(model: OneParticleModel, word: MaskWord) -> FockOperator:
    return FockOperator(dense(word), model)


def second_quantize(model: OneParticleModel, w: np.ndarray) -> FockOperator:
    """The dense Gamma(w) of any n x n mode-space map w: the entry at (T, S) is
    det w[T, S] for |T| = |S|, one batch of k x k minors per particle number k
    (the oracle for the number blocks)."""
    w = np.asarray(w)
    n = model.n_modes
    if w.shape != (n, n):
        raise ValueError(f"mode-space operator must be {n}x{n}")
    occ = occupation_table(n)
    number = occ.sum(axis=1)
    out = np.zeros((model.dim, model.dim), dtype=complex)
    for k in range(n + 1):
        states = np.nonzero(number == k)[0]
        modes = np.nonzero(occ[states])[1].reshape(len(states), k)
        out[np.ix_(states, states)] = np.linalg.det(
            w[modes[:, None, :, None], modes[None, :, None, :]])
    return FockOperator(out, model)


def rotation_fock(model: OneParticleModel, angle: float | None = None) -> FockOperator:
    """The dense implementer Gamma(exp(angle g)) of the rotation."""
    return second_quantize(model, rotation_modes(model, angle))


def bogolyubov_fock(model: OneParticleModel, h_plus: np.ndarray,
                    h_minus: np.ndarray) -> tuple[FockOperator, np.ndarray]:
    """(U, u): the dense implementer U = Gamma(w) of the Bogolyubov map and the
    2n x 2n one-particle map u = (e^{ih+} (+) e^{ih-}) (+) conj, built from the
    two exponentials directly."""
    w_plus = _expi_hermitian(np.asarray(h_plus, dtype=complex))
    w_minus = _expi_hermitian(np.asarray(h_minus, dtype=complex))
    # antiparticle modes are raised by copy B, so Gamma takes the conjugate block
    big_u = second_quantize(model, block_diag(w_plus, np.conj(w_minus)))
    w = block_diag(w_plus, w_minus)
    return big_u, block_diag(w, np.conj(w))


def warp_rotated(model: OneParticleModel, kappa: float, op: FockOperator,
                 angle: float | None = None) -> FockOperator:
    """The dense warp along the rotated flow: rot warp(rot^* op rot) rot^*,
    with rot the dense rotation implementer."""
    rot = rotation_fock(model, angle).matrix
    inner = FockOperator(rot.conj().T @ op.matrix @ rot, model)
    return FockOperator(rot @ warp(model, kappa, inner).matrix @ rot.conj().T, model)


def identity_op(model: OneParticleModel) -> FockOperator:
    return FockOperator(np.eye(model.dim, dtype=complex), model)


def diagonal(model: OneParticleModel, values) -> FockOperator:
    """The dense diagonal operator with the given diagonal (the reference for
    the phase vectors)."""
    return FockOperator(np.diag(values), model)


def charge_shifts(op: FockOperator, tol: float = 0.0) -> dict[int, np.ndarray]:
    """The charge-shift components of op with an entry above tol, keyed by the shift."""
    n = op.model.n_modes
    blocks = {m: op.charge_shift(m) for m in range(-n, n + 1)}
    return {m: b for m, b in blocks.items() if np.max(np.abs(b)) > tol}


def conjugate_by_diagonal(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    """u m u^* for the diagonal unitary with diagonal u, entrywise."""
    return u[:, None] * m * u.conj()[None, :]


def reflection_fock(model: OneParticleModel) -> FockOperator:
    """The dense implementer Gamma(tau) of the wedge reflection (the oracle for
    the signed-permutation table)."""
    return second_quantize(model, model.reflection_modes())


def dense_warp_derivative(model: OneParticleModel, op: FockOperator,
                          step: float = DERIVATIVE_STEP) -> np.ndarray:
    """d/dkappa warp(A)|_0 by central differences of the dense warp with one
    Richardson step."""
    def central(h: float) -> np.ndarray:
        return (warp(model, h, op).matrix - warp(model, -h, op).matrix) / (2.0 * h)

    return (4.0 * central(step / 2.0) - central(step)) / 3.0


def dense_fixed_point_residual(model: OneParticleModel,
                               op: FockOperator) -> tuple[dict[int, float], float]:
    """{charge n: norm of [K, A E(n)]} and the norm of d/dkappa warp(A)|_0 for a
    dense gauge-invariant A, by SVDs of the sector blocks m[np.ix_(s, s)]; an
    entry above GAUGE_TOL that moves the charge is refused."""
    if set(charge_shifts(op, verification.GAUGE_TOL)) - {0}:
        raise ValueError("fixed-point analysis needs a gauge-invariant operator")
    commutator = np.subtract.outer(model.phases, model.phases) * op.matrix
    derivative = dense_warp_derivative(model, op)
    sectors, derivative_norms = {}, []
    for n in np.unique(model.charges).tolist():
        s = np.ix_(*2 * [np.nonzero(model.charges == n)[0]])
        sectors[n] = float(np.linalg.norm(commutator[s], 2))
        derivative_norms.append(np.linalg.norm(derivative[s], 2))
    return sectors, float(max(derivative_norms))


def dense_warp_oscillatory(model: OneParticleModel, kappa: float, op: FockOperator,
                           eps: float, cutoff: str = "gaussian") -> FockOperator:
    """The regularized warp of a dense operator: the two cutoff factors at every
    nonzero entry (the reference for the mask-word oracle)."""
    factor = _CUTOFF_FACTORS[cutoff]
    phi, q = model.phases.astype(float), model.charges.astype(float)
    rows, cols = np.nonzero(op.matrix)
    boost = factor(eps, -kappa * (q[rows] - q[cols]), phi[cols])
    gauge = factor(eps, kappa * (phi[rows] - phi[cols]), q[cols])
    out = np.zeros_like(op.matrix)
    out[rows, cols] = op.matrix[rows, cols] * (boost * gauge)
    return FockOperator(out, model)


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
    assert (field_B(model, f) == oracle_field(model, f)).all()


@PROPERTY
@given(models())
def test_bit_built_annihilators_equal_kronecker_oracle(model):
    for j, oracle in enumerate(jordan_wigner_ops(model.n_modes)):
        assert (dense(_ladder(model, j, False)) == oracle).all()
        assert (dense(_ladder(model, j, True)) == oracle.conj().T).all()


def _random_vector(rng, dim):
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


@PROPERTY
@given(models(), SEEDS, st.integers(0, 5))
def test_npoint_function_equals_dense_fields_on_the_vacuum(model, seed, length):
    rng = np.random.default_rng(seed)
    fs = [_random_vector(rng, model.doubled_dim) for _ in range(length)]
    vec = model.vacuum()
    for f in reversed(fs):
        vec = field_B(model, f) @ vec
    dense = np.vdot(model.vacuum(), vec)
    scale = np.prod([np.linalg.norm(f) for f in fs])
    assert abs(fock_npoint(model, fs) - dense) <= 1e-13 * scale


@PROPERTY
@given(models())
def test_field_built_hopping_equals_kronecker_oracle_product(model):
    # c_j^+ c_k over every pair of particle and antiparticle modes: pins which
    # copy raises a mode of each species
    ops = jordan_wigner_ops(model.n_modes)
    for j, k in itertools.product(range(model.n_modes), repeat=2):
        built = _ladder(model, j, True) @ _ladder(model, k, False)
        assert (dense(built) == ops[j].conj().T @ ops[k]).all(), (j, k)


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
    assert (g @ field_operator(model, f) @ g.H).dist(field_operator(model, u @ f)) < 1e-12


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
            second_quantize_blocks(model, np.eye(*shape))


def test_number_blocks_refuse_a_map_that_mixes_the_species():
    model = default_model()
    w = np.eye(4)
    w[0, 3] = 1e-3
    with pytest.raises(ValueError, match="mixes particle and antiparticle"):
        second_quantize_blocks(model, w)


def _number_block(m: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    return m[np.ix_(rows, cols)]


@PROPERTY
@given(models(), SEEDS)
def test_number_blocks_equal_the_dense_minor_formula(model, seed):
    """The species-factor blocks of a stack of maps against the dense k x k
    minors of each map; the dense Gamma has no entry outside the blocks."""
    rng = np.random.default_rng(seed)
    ws = np.stack([_species_block_unitary(model, rng)[0] for _ in range(2)])
    stacked = second_quantize_blocks(model, ws)
    for b, w in enumerate(ws):
        full = second_quantize(model, w).matrix
        outside = full.copy()
        for states, g in zip(number_states(model), stacked):
            block = _number_block(full, states, states)
            assert np.max(np.abs(g[b] - block)) <= 1e-13 * np.max(np.abs(block))
            outside[np.ix_(states, states)] = 0.0
        assert not outside.any()


@PROPERTY
@given(models(), SEEDS)
def test_bogolyubov_residual_is_the_dense_unit_field_norm_and_bounds_every_field(model, seed):
    """bogolyubov_residuals against the dense R(g) = Gamma B(g) Gamma^* - B(u g).

    The lowering unit fields ell_j are found by their dense fields, B(ell_j)
    = c_j of the Kronecker tower.  For the implemented u and for the u of
    another map, the residual is the largest Frobenius norm of a number-k to
    number-(k-1) block of R(ell_j) over j and k (or |Gamma Omega - Omega|);
    and for the other map it bounds the dense norm of R(f) at a random f by
    sqrt(2n) |f| times the residual."""
    rng = np.random.default_rng(seed)
    w, other = (_species_block_unitary(model, rng)[0] for _ in range(2))
    f = _random_vector(rng, model.doubled_dim)
    n, big = model.n_modes, second_quantize(model, w)
    ops = jordan_wigner_ops(n)
    units = {j: e for e in np.eye(2 * n) for j in range(n) if (field_B(model, e) == ops[j]).all()}
    assert sorted(units) == list(range(n))
    states = number_states(model)

    def dense_residual(u, g):
        return (big @ field_operator(model, g) @ big.H).matrix - field_B(model, u @ g)

    residuals = []
    for u in (one_particle_map(model, w), one_particle_map(model, other)):
        blocks = [np.linalg.norm(_number_block(dense_residual(u, e), states[k - 1], states[k]))
                  for e in units.values() for k in range(1, n + 1)]
        dense_norm = max(abs(big.matrix[0, 0] - 1.0), *blocks)
        residuals.append(bogolyubov_residuals(model, w[None], u[None])[0])
        assert abs(residuals[-1] - dense_norm) <= 1e-13 * max(dense_norm, 1.0)
    assert residuals[0] <= 1e-12
    bound = np.sqrt(2 * n) * np.linalg.norm(f) * residuals[1]
    assert np.linalg.norm(dense_residual(one_particle_map(model, other), f), 2) \
        <= bound * (1.0 + 1e-12)


def test_bogolyubov_modes_give_the_dense_implementer():
    """bogolyubov_modes and one_particle_map against the dense pair built from
    the two exponentials, for a stack of generators."""
    model = OneParticleModel(3, 2, [1, -1, 2], [1, -1], [0])
    rng = np.random.default_rng(39)
    hp, hm = (_random_matrix(rng, k) for k in (3, 2))
    hp, hm = hp + hp.conj().T, hm + hm.conj().T
    big_u, u_one = bogolyubov_fock(model, hp, hm)
    w = bogolyubov_modes(model, np.stack([hp, hp]), np.stack([hm, hm]))
    np.testing.assert_allclose(one_particle_map(model, w[1]), u_one, rtol=0, atol=1e-14)
    for states, g in zip(number_states(model), second_quantize_blocks(model, w)):
        block = _number_block(big_u.matrix, states, states)
        assert np.max(np.abs(g - block)) <= 1e-13


@st.composite
def rotation_models(draw):
    """Models of 1 + 1 to 3 + 3 modes with a species of two modes to rotate."""
    dp = draw(st.integers(1, 3))
    dm = draw(st.integers(2 if dp < 2 else 1, 3))
    return OneParticleModel(dp, dm,
                            draw(st.lists(FREQS, min_size=dp, max_size=dp)),
                            draw(st.lists(FREQS, min_size=dm, max_size=dm)),
                            localized_modes=[0], rotation_angle=0.3)


@PROPERTY
@given(rotation_models(), SEEDS, st.floats(-2.0, 2.0), st.floats(-4.0, 4.0))
def test_rotated_warp_on_a_vector_equals_the_dense_rotated_warp(model, seed, kappa, phi):
    """warp_rotated_apply of a random field on a random vector, and the
    inequivalence witness, against the dense rotated warp."""
    rng = np.random.default_rng(seed)
    f = _random_vector(rng, model.doubled_dim)
    v = _random_vector(rng, model.dim)
    dense_vec = warp_rotated(model, kappa, field_operator(model, f), phi).matrix @ v
    block_vec = warp_rotated_apply(model, kappa, f, v, phi)
    assert np.max(np.abs(block_vec - dense_vec)) <= 1e-13 * np.max(np.abs(dense_vec))

    psi_f = np.zeros(model.n_modes)
    psi_f[model.d_plus] = 1.0
    psi = spinor(model, psi_f)
    one_particle = field_B(model, np.eye(model.doubled_dim)[0]) @ model.vacuum()
    straight = warp(model, kappa, psi).matrix @ one_particle
    rotated = warp_rotated(model, kappa, psi, phi).matrix @ one_particle
    _, fock = inequivalence_witness(model, kappa, phi)
    assert abs(fock - np.linalg.norm(straight - rotated)) <= 1e-13


@PROPERTY
@given(models(), SEEDS)
def test_sector_block_norm_matches_full_commutator_norm(model, seed):
    rng = np.random.default_rng(seed)
    op = FockOperator(_random_matrix(rng, model.dim), model)
    op = FockOperator(op.charge_shift(0), model)
    sectors, _ = dense_fixed_point_residual(model, op)
    k = np.diag(model.phases.astype(complex))
    assert sorted(sectors) == np.unique(model.charges).tolist()
    for n, block_norm in sectors.items():
        an = op.matrix @ dense(charge_projector(model, n))
        full = float(np.linalg.norm(k @ an - an @ k, 2))
        assert abs(block_norm - full) <= 1e-13 * full


def _gauge_invariant_word(model: OneParticleModel, rng) -> MaskWord:
    """A random mask word with its charge-moving entries zeroed."""
    word = MaskWord(int(rng.integers(model.dim)), _random_vector(rng, model.dim))
    word.vec[model.charges[word.rows()] != model.charges] = 0.0
    return word


@PROPERTY
@given(models(), SEEDS, st.sampled_from(["mover", "word"]))
def test_block_fixed_point_path_matches_dense_derivative(model, seed, case):
    """The mask-word norms of fixed_point_residual against the sector SVDs of
    the dense commutator and of the dense warp's derivative."""
    rng = np.random.default_rng(seed)
    if case == "mover":
        j, k = rng.choice(model.n_modes, size=2, replace=False)
        if model.mode_charges[j] != model.mode_charges[k]:
            k = j         # a charge-0 hopping needs one species; c_j^+ c_j is a number operator
        word = _ladder(model, int(j), True) @ _ladder(model, int(k), False)
    else:
        word = _gauge_invariant_word(model, rng)
    op = dense_op(model, word)
    sectors, derivative = fixed_point_residual(model, word)
    dense_sectors, dense_derivative = dense_fixed_point_residual(model, op)
    assert list(sectors) == list(dense_sectors)
    for n, norm in sectors.items():
        assert abs(norm - dense_sectors[n]) <= 1e-13 * dense_sectors[n]
    assert abs(derivative - dense_derivative) <= 1e-13 * dense_derivative
    full = operator_norm(model, dense_warp_derivative(model, op))
    assert abs(derivative - full) <= 1e-13 * full


@PROPERTY
@given(models(), SEEDS)
def test_warp_derivative_is_i_n_times_the_sector_commutators(model, seed):
    """The linearity argument of derivative-commutator-equivalence, made
    executable: for a random dense gauge-invariant A, the dense warp's
    Richardson derivative at zero equals sum_n i n [K, A E(n)] entrywise,
    at the suite's step DERIVATIVE_STEP / s."""
    rng = np.random.default_rng(seed)
    op = FockOperator(FockOperator(_random_matrix(rng, model.dim), model).charge_shift(0), model)
    k = np.diag(model.phases.astype(complex))
    expected = np.zeros((model.dim, model.dim), dtype=complex)
    for n in np.unique(model.charges).tolist():
        an = op.matrix @ dense(charge_projector(model, n))
        expected += 1j * n * (k @ an - an @ k)
    q = model.charges
    weights = np.where(np.equal.outer(q, q), q[:, None] * np.subtract.outer(model.phases,
                                                                            model.phases), 0.0)
    scale = max(1.0, float(np.max(np.abs(weights))))
    derivative = dense_warp_derivative(model, op, DERIVATIVE_STEP / scale)
    assert np.max(np.abs(derivative - expected)) <= 1e-10 * scale * np.max(np.abs(op.matrix))


@PROPERTY
@given(models())
def test_derivative_commutator_residual_vanishes_on_random_models(model):
    residual, _ = derivative_commutator_residual(model)
    assert residual <= 1e-12


@pytest.mark.parametrize("freqs", [[100.0, -100.0, 200.0, -200.0], [1e-6, -1e-6, 2e-6, -2e-6]],
                         ids=["wide", "narrow"])
def test_derivative_commutator_residual_on_wide_and_narrow_spectra(freqs):
    """The step scales with the largest sector weight, so the residual stays at
    rounding level for frequencies +-100/+-200 and for +-1e-6 (dim 64)."""
    model = OneParticleModel(4, 2, freqs, freqs[:2], [0, 2, 4])
    residual, _ = derivative_commutator_residual(model)
    assert residual <= 1e-12


def _field_case(model: OneParticleModel, rng, case: str) -> np.ndarray:
    """A field vector: generic, on one copy only, or with f = e^{i theta} C f."""
    f = _random_vector(rng, model.doubled_dim)
    n = model.n_modes
    if case == "copy A":
        f[n:] = 0.0
    elif case == "copy B":
        f[:n] = 0.0
    elif case == "selfadjoint up to a phase":
        f = f + np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * model.apply_conjugation(f)
    return f


FIELD_CASES = ["generic", "copy A", "copy B", "selfadjoint up to a phase"]


@PROPERTY
@given(models(), SEEDS)
def test_lanczos_field_norm_equals_dense_svd(model, seed):
    """Every case is certified.  For f = e^{i theta} C f,
    B(f)^* B(f) is the scalar |f|^2 / 2 and the run stops after one step."""
    rng = np.random.default_rng(seed)
    fs = np.stack([_field_case(model, rng, case) for case in FIELD_CASES])
    _, residual, one_step = _lanczos(model, fs, _random_matrix(rng, model.dim)[:len(fs)])
    assert (residual <= LANCZOS_CERTIFICATE).all()
    assert one_step.tolist() == [False, False, False, True]
    for f, norm in zip(fs, field_norms(model, fs, rng)):
        dense = float(np.linalg.norm(field_B(model, f), 2))
        assert abs(norm - dense) <= 1e-13 * dense


def test_lanczos_field_norms_across_batches_equal_dense_svd():
    model = default_model()
    rng = np.random.default_rng(37)
    count = 2 * LANCZOS_BATCH + 3
    fs = np.stack([_field_case(model, rng, FIELD_CASES[b % 4]) for b in range(count)])
    fs[5] = 0.0
    norms = field_norms(model, fs, rng)
    dense = np.array([np.linalg.norm(field_B(model, f), 2) for f in fs])
    assert norms[5] == 0.0
    assert np.max(np.abs(norms - dense)) <= 1e-13 * np.max(dense)
    with pytest.raises(ValueError, match="rows of 8 components"):
        field_norms(model, fs[:, :7], rng)


def test_lanczos_field_norm_of_a_non_finite_field_is_nan():
    """A NaN entry, and an f near 1e200 whose B(f)^* B(f) overflows, both fail
    the certificate and get NaN; the finite row keeps its exact norm."""
    model = default_model()
    rng = np.random.default_rng(38)
    fs = _random_matrix(rng, model.doubled_dim)[:3]
    fs[1, 2] = np.nan
    fs[2, 0] = 1e200
    with np.errstate(all="raise"):
        norms = field_norms(model, fs, rng)
    assert np.isnan(norms[[1, 2]]).all()
    assert abs(norms[0] - np.linalg.norm(field_B(model, fs[0]), 2)) <= 1e-13 * norms[0]


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
def test_dense_warp_is_bit_identical(model, kappas, seed):
    op_matrix = _random_matrix(np.random.default_rng(seed), model.dim)
    op = FockOperator(op_matrix, model)
    phi, q = model.phases, model.charges
    for kappa in kappas + kappas[::-1]:
        expected = np.exp(1j * kappa * (np.outer(phi, q) - np.outer(q, phi)))
        assert warp(model, kappa, op).matrix.tobytes() == (op_matrix * expected).tobytes()


@PROPERTY
@given(models(), SEEDS, KAPPAS)
def test_warp_angles_equal_the_dense_angle_matrix_at_every_entry(model, seed, kappa):
    """warp_angles at random entries, at a word's entries and on a charge sector
    block equals the dense angle matrix gathered there, and the word warp
    equals the dense warp at the word's entries bit for bit."""
    rng = np.random.default_rng(seed)
    full, d = angle_matrix(model), model.dim
    rows, cols = rng.integers(d, size=(2, 20))
    assert np.array_equal(warp_angles(model, rows, cols), full[rows, cols])
    word = MaskWord(int(rng.integers(d)), _random_vector(rng, d))
    assert np.array_equal(warp_angles(model, word.rows(), slice(None)),
                          full[word.rows(), np.arange(d)])
    s = np.nonzero(model.charges == rng.choice(model.charges))[0]
    assert np.array_equal(warp_angles(model, *np.ix_(s, s)), full[np.ix_(s, s)])
    dense_warp = warp(model, kappa, FockOperator(dense(word), model)).matrix
    assert (warp_word(model, kappa, word).vec.tobytes()
            == dense_warp[word.rows(), np.arange(d)].tobytes())


def _assert_frozen(a: np.ndarray):
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[(0,) * a.ndim] = 1.0


@PROPERTY
@given(models())
def test_cached_generators_are_read_only_and_built_once(model):
    gens = wedge_generators(model, "W0")
    assert wedge_generators(model, "W0") is gens
    assert gens.mask.shape == (2 * len(model.localized_modes),)
    assert gens.vec.shape == (len(gens.mask), model.dim)
    _assert_frozen(gens.mask)
    _assert_frozen(gens.vec)


def test_per_model_caches_are_read_only():
    model = default_model()
    for tag in ("W0", "W0p"):
        _assert_frozen(wedge_generators(model, tag).mask)
        _assert_frozen(wedge_generators(model, tag).vec)
    with pytest.raises(ValueError, match="unknown wedge tag"):
        wedge_generators(model, "rotated")
    _assert_frozen(model.conjugation_matrix())
    for u in _majorana_words(model):
        _assert_frozen(u.vec)
    for table in reflection_table(model):
        _assert_frozen(table)
    for table in _mode_flips(model.n_modes):
        _assert_frozen(table)
