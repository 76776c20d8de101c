import itertools

import numpy as np
import pytest
from scipy.linalg import block_diag, expm

from dswarp.car_fock import (FockOperator, ModelError, OneParticleModel, _block_diag,
                             _expi_hermitian, boost_phases, car_norm_bound,
                             charge_projector, cospinor,
                             default_model, field_B,
                             fock_npoint, gauge_phases,
                             occupation_table,
                             quasifree_npoint,
                             spinor, twist_phases, validate_quasifree,
                             wedge_subalgebra_basis)
from test_fock_properties import (bogolyubov_fock, charge_shifts, dgamma, diagonal, identity_op,
                                  reflection_fock, rotation_fock)

MODEL = default_model()


def boost_one_particle(model: OneParticleModel, t: float) -> np.ndarray:
    """u(t) on the doubled space: copy A carries e^{itw} on particle slots and
    e^{-itw} on antiparticle slots (both raise charge); copy B the conjugate."""
    raise_phase = np.exp(1j * t * model.mode_freqs * model.mode_charges)
    return np.diag(np.concatenate([raise_phase, np.conj(raise_phase)]))


def gauge_one_particle(model: OneParticleModel, s: float) -> np.ndarray:
    """V(s) on the doubled space: e^{is} on copy A, e^{-is} on copy B."""
    n = model.n_modes
    return np.diag(np.concatenate([np.full(n, np.exp(1j * s)), np.full(n, np.exp(-1j * s))]))


def exterior_rep(model: OneParticleModel, w: np.ndarray) -> FockOperator:
    """Functorial lift Gamma(w) of a mode-space map, the oracle for the implementers.

    Matrix elements are determinants of submatrices of w: exact for
    permutation matrices, and an independent cross-check of the exp(dGamma)
    route for unitaries.
    """
    w = np.asarray(w, dtype=complex)
    occ = occupation_table(model.n_modes)
    subsets = [tuple(np.nonzero(occ[i])[0]) for i in range(model.dim)]
    out = np.zeros((model.dim, model.dim), dtype=complex)
    for col, src in enumerate(subsets):
        for row, dst in enumerate(subsets):
            if len(dst) != len(src):
                continue
            out[row, col] = 1.0 if not src else np.linalg.det(w[np.ix_(dst, src)])
    return FockOperator(out, model)

def rand_vec(rng, dim):
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


# -- model validation ----------------------------------------------------------

def test_model_guards():
    with pytest.raises(ModelError):
        OneParticleModel(2, 2, [1, -1], [1, -1], localized_modes=[])
    with pytest.raises(ModelError):
        OneParticleModel(2, 2, [1, -1], [1, -1], localized_modes=[0, 1, 2, 3])
    with pytest.raises(ModelError):
        OneParticleModel(2, 2, [1, -1], [1], localized_modes=[0])
    with pytest.raises(ModelError):
        # pairing keeps a localized mode fixed
        OneParticleModel(2, 2, [1, -1], [1, -1], [0, 2],
                         reflection_pairing=[0, 1, 3, 2])
    with pytest.raises(ModelError):
        # pairing does not negate frequencies
        OneParticleModel(2, 2, [1.0, 1.0], [1, -1], [0, 2],
                         reflection_pairing=[1, 0, 3, 2])
    with pytest.raises(ModelError):
        # pairing mixes species
        OneParticleModel(2, 2, [1, -1], [1, -1], [0, 2],
                         reflection_pairing=[3, 2, 1, 0])


def test_charge_and_phase_tables():
    m = MODEL
    assert m.dim == 16
    assert m.charges[0] == 0 and m.phases[0] == 0.0
    np.testing.assert_array_equal(np.unique(m.charges), [-2, -1, 0, 1, 2])


# -- field operators -----------------------------------------------------------

def test_car_anticommutation():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(200):
        f, g = rand_vec(rng, 8), rand_vec(rng, 8)
        bf, bg = field_B(MODEL, f), field_B(MODEL, g)
        anti = (bf @ bg + bg @ bf).matrix
        target = complex(np.vdot(MODEL.apply_conjugation(f), g)) * np.eye(16)
        worst = max(worst, float(np.max(np.abs(anti - target))))
    assert worst < 1e-12


def test_field_square_zero_when_null_pairing():
    # <Cf, f> = 0 for a pure copy-A vector
    f = np.zeros(8, dtype=complex)
    f[0] = 1.0
    assert abs(np.vdot(MODEL.apply_conjugation(f), f)) == 0.0
    b = field_B(MODEL, f)
    assert (b @ b).norm() == 0.0


def test_field_adjoint_is_conjugated_argument():
    rng = np.random.default_rng(32)
    f = rand_vec(rng, 8)
    assert field_B(MODEL, f).H.dist(field_B(MODEL, MODEL.apply_conjugation(f))) == 0.0


def test_field_linearity():
    rng = np.random.default_rng(33)
    f, g = rand_vec(rng, 8), rand_vec(rng, 8)
    alpha = 0.7 - 1.3j
    lhs = field_B(MODEL, alpha * f + g)
    rhs = alpha * field_B(MODEL, f) + field_B(MODEL, g)
    assert lhs.dist(rhs) < 1e-13


def test_anticommutator_with_adjoint_is_norm():
    rng = np.random.default_rng(34)
    for _ in range(20):
        f = rand_vec(rng, 8)
        b = field_B(MODEL, f)
        anti = b @ b.H + b.H @ b
        target = float(np.real(np.vdot(f, f))) * identity_op(MODEL)
        assert anti.dist(target) < 1e-12


def test_cstar_norm_formula():
    rng = np.random.default_rng(35)
    for _ in range(200):
        f = rand_vec(rng, 8)
        assert abs(field_B(MODEL, f).norm() - car_norm_bound(MODEL, f)) < 1e-9


def test_field_dimension_mismatch():
    with pytest.raises(ValueError):
        field_B(MODEL, np.zeros(4))
    with pytest.raises(ValueError):
        spinor(MODEL, np.zeros(8))


# -- spinors, charge, gauge -----------------------------------------------------

def test_spinor_cospinor_charge_shifts():
    rng = np.random.default_rng(36)
    f = rand_vec(rng, 4)
    psi = spinor(MODEL, f)
    psid = cospinor(MODEL, f)
    assert sorted(charge_shifts(psi, 1e-14)) == [-1]
    assert sorted(charge_shifts(psid, 1e-14)) == [1]
    # adjoint relation Psi(f)^* = Psi^dag(Cf)
    assert psi.H.dist(cospinor(MODEL, np.conj(f))) == 0.0


def test_cospinor_raises_charge_on_vacuum():
    f = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    state = cospinor(MODEL, f).matrix @ MODEL.vacuum()
    q = np.diag(MODEL.charges)
    np.testing.assert_allclose(q @ state, state, atol=0)


def test_gauge_phases_on_spinors():
    rng = np.random.default_rng(37)
    f = rand_vec(rng, 4)
    s = 0.7
    v = diagonal(MODEL, gauge_phases(MODEL, s))
    lhs = v @ spinor(MODEL, f) @ v.H
    assert lhs.dist(np.exp(-1j * s) * spinor(MODEL, f)) < 1e-13
    lhs = v @ cospinor(MODEL, f) @ v.H
    assert lhs.dist(np.exp(1j * s) * cospinor(MODEL, f)) < 1e-13


def test_gauge_unitary_periodicity_and_projectors():
    assert diagonal(MODEL, gauge_phases(MODEL, 2.0 * np.pi)).dist(identity_op(MODEL)) < 1e-12
    charges = np.unique(MODEL.charges).tolist()
    # E(n) is the diagonal mask word of the charge-n states
    assert all(charge_projector(MODEL, n).mask == 0 for n in charges)
    total = sum(charge_projector(MODEL, n).vec for n in charges)
    np.testing.assert_array_equal(total, np.ones(16))
    for n in charges:
        for k in charges:
            prod = charge_projector(MODEL, n) @ charge_projector(MODEL, k)
            if n == k:
                assert (prod - charge_projector(MODEL, n)).norm() == 0.0
            else:
                assert prod.norm() == 0.0


def test_boost_unitary_properties():
    omega = MODEL.vacuum()
    np.testing.assert_array_equal(boost_phases(MODEL, 1.3) * omega, omega)
    rng = np.random.default_rng(38)
    a, b = rng.uniform(-2, 2, size=2)
    lhs = diagonal(MODEL, boost_phases(MODEL, a)) @ diagonal(MODEL, boost_phases(MODEL, b))
    assert lhs.dist(diagonal(MODEL, boost_phases(MODEL, a + b))) < 1e-13
    t, s = rng.uniform(-2, 2, size=2)
    u, v = diagonal(MODEL, boost_phases(MODEL, t)), diagonal(MODEL, gauge_phases(MODEL, s))
    assert (u @ v - v @ u).norm() == 0.0


def test_field_covariance_under_boost_and_gauge():
    rng = np.random.default_rng(39)
    f = rand_vec(rng, 8)
    t, s = 0.9, -1.4
    u = diagonal(MODEL, boost_phases(MODEL, t))
    assert (u @ field_B(MODEL, f) @ u.H).dist(
        field_B(MODEL, boost_one_particle(MODEL, t) @ f)) < 1e-13
    v = diagonal(MODEL, gauge_phases(MODEL, s))
    assert (v @ field_B(MODEL, f) @ v.H).dist(
        field_B(MODEL, gauge_one_particle(MODEL, s) @ f)) < 1e-13


# -- twist and grading -----------------------------------------------------------

def test_grading_and_twist():
    y = diagonal(MODEL, MODEL.parities)
    assert (y @ y).dist(identity_op(MODEL)) == 0.0
    z = diagonal(MODEL, twist_phases(MODEL))
    assert (z @ z.H).dist(identity_op(MODEL)) < 1e-15
    rng = np.random.default_rng(40)
    f = rand_vec(rng, 8)
    b = field_B(MODEL, f)
    # fields are odd and ZBZ^-1 = -iYB
    assert (y @ b @ y).dist(-1.0 * b) < 1e-13
    assert (z @ b @ z.H).dist(-1j * (y @ b)) < 1e-13


def test_twisted_locality_mechanism():
    basis0 = wedge_subalgebra_basis(MODEL, "W0")
    basis1 = wedge_subalgebra_basis(MODEL, "W0p")
    z = diagonal(MODEL, twist_phases(MODEL))
    for f in basis0:
        bf = field_B(MODEL, f)
        for g in basis1:
            bg = field_B(MODEL, g)
            assert (bf @ bg + bg @ bf).norm() < 1e-13      # odd-odd anticommute
            tw = z @ bf @ z.H
            assert (tw @ bg - bg @ tw).norm() < 1e-13      # twisted commutator


# -- Bogolyubov implementation -----------------------------------------------------

def test_exterior_rep_matches_dgamma_route():
    rng = np.random.default_rng(41)
    h = rng.standard_normal((4, 4))
    h = h + h.T
    w = expm(1j * h)
    lhs = exterior_rep(MODEL, w)
    rhs = FockOperator(expm(1j * dgamma(MODEL, h)), MODEL)
    assert lhs.dist(rhs) < 1e-12


def test_bogolyubov_implementer():
    rng = np.random.default_rng(42)
    for _ in range(5):
        hp = rng.standard_normal((2, 2))
        hm = rng.standard_normal((2, 2))
        hp, hm = hp + hp.T, hm + hm.T
        big_u, u_one = bogolyubov_fock(MODEL, hp, hm)
        # u commutes with the conjugation and the basis projection
        cmat = MODEL.conjugation_matrix()
        np.testing.assert_allclose(cmat @ np.conj(u_one) @ cmat, u_one, atol=1e-13)
        p = MODEL.basis_projection()
        np.testing.assert_allclose(u_one @ p, p @ u_one, atol=1e-13)
        f = rand_vec(rng, 8)
        lhs = big_u @ field_B(MODEL, f) @ big_u.H
        assert lhs.dist(field_B(MODEL, u_one @ f)) < 1e-10
        np.testing.assert_allclose(big_u.matrix @ MODEL.vacuum(), MODEL.vacuum(),
                                   atol=1e-12)


def test_reflection_implementer():
    r = reflection_fock(MODEL)
    assert (r @ r).dist(identity_op(MODEL)) == 0.0
    rng = np.random.default_rng(43)
    f = rand_vec(rng, 8)
    lhs = r @ field_B(MODEL, f) @ r.H
    perm = np.zeros((4, 4))
    perm[list(MODEL.reflection_pairing), range(4)] = 1.0
    assert lhs.dist(field_B(MODEL, np.kron(np.eye(2), perm) @ f)) < 1e-13
    t = 0.8
    u = diagonal(MODEL, boost_phases(MODEL, t))
    assert (r @ u @ r.H).dist(diagonal(MODEL, boost_phases(MODEL, -t))) == 0.0


def _permutation_model(tau) -> OneParticleModel:
    n = len(tau)
    return OneParticleModel(n, 0, np.zeros(n), [], [0], reflection_pairing=tau,
                            validate=False)


def test_reflection_implementer_equals_exterior_rep():
    rng = np.random.default_rng(44)
    perms = [p for n in range(1, 5) for p in itertools.permutations(range(n))]
    perms += [tuple(rng.permutation(n)) for n in (5, 6, 7) for _ in range(4)]
    models = [_permutation_model(tau) for tau in perms] + [MODEL]
    for model in models:
        perm = np.zeros((model.n_modes, model.n_modes))
        perm[list(model.reflection_pairing), range(model.n_modes)] = 1.0
        oracle = exterior_rep(model, perm).matrix
        assert (reflection_fock(model).matrix == oracle).all(), model.reflection_pairing


def test_apply_conjugation_equals_matrix_form():
    rng = np.random.default_rng(45)
    for model in (MODEL, OneParticleModel(3, 2, [1, -1, 2], [0.5, -0.5], [0])):
        cmat = model.conjugation_matrix()
        assert model.conjugation_matrix() is cmat
        assert not cmat.flags.writeable
        for _ in range(20):
            f = rand_vec(rng, model.doubled_dim)
            assert (model.apply_conjugation(f) == cmat @ np.conj(f)).all()


def test_rotation_implementer_commutes_with_charge():
    g = rotation_fock(MODEL, 0.6)
    q = diagonal(MODEL, MODEL.charges)
    assert (g @ q - q @ g).norm() < 1e-13
    np.testing.assert_allclose(g.matrix @ MODEL.vacuum(), MODEL.vacuum(), atol=1e-14)


@pytest.mark.parametrize("model", [MODEL, OneParticleModel(4, 3, [1, -1, 2, -2], [1, -1, 0], [0]),
                                   OneParticleModel(3, 0, [1, -1, 2], [], [0])])
@pytest.mark.parametrize("angle", [0.6, -2.5, 2.0 * np.pi])
def test_rotation_implementer_is_gamma_of_the_mode_rotation(model, angle):
    """The closed form 1 + sin g + (1 - cos) g^2 against scipy's exponential."""
    w = expm(angle * model.rotation_mode_generator())
    assert rotation_fock(model, angle).dist(exterior_rep(model, w)) < 1e-13


@pytest.mark.parametrize("k", [0, 1, 2, 3, 6])
def test_hermitian_exponential_matches_scipy_and_is_unitary(k):
    rng = np.random.default_rng(50 + k)
    for _ in range(10):
        x = rand_vec(rng, k * k).reshape(k, k) * rng.uniform(0.1, 5.0)
        h = x + x.conj().T
        w = _expi_hermitian(h)
        np.testing.assert_allclose(w, expm(1j * h), rtol=0, atol=1e-13)
        np.testing.assert_allclose(w @ w.conj().T, np.eye(k), rtol=0, atol=1e-13)


def test_block_diag_places_blocks_on_the_diagonal():
    a, b = np.arange(4.0).reshape(2, 2), np.full((1, 1), 1j)
    np.testing.assert_array_equal(_block_diag(a, np.zeros((0, 0)), b),
                                  block_diag(a, b))
    assert _block_diag(a, b).dtype == complex


def test_block_diag_and_hermitian_exponential_take_stacks():
    rng = np.random.default_rng(49)
    x = rand_vec(rng, 3 * 9).reshape(3, 3, 3)
    h = x + np.conj(np.swapaxes(x, -1, -2))
    stacked = _expi_hermitian(h)
    b = np.stack([np.eye(2)] * 3)
    for i in range(3):
        np.testing.assert_allclose(stacked[i], _expi_hermitian(h[i]), rtol=0, atol=1e-14)
        np.testing.assert_array_equal(_block_diag(stacked, b)[i], block_diag(stacked[i], b[i]))


def test_charge_shift_decomposition():
    rng = np.random.default_rng(48)
    op = FockOperator(rand_vec(rng, 16 * 16).reshape(16, 16), MODEL)
    blocks = charge_shifts(op)
    np.testing.assert_array_equal(sum(blocks.values()), op.matrix)
    for m, block in blocks.items():
        np.testing.assert_array_equal(block.conj().T, op.H.charge_shift(-m))


# -- quasifree states ----------------------------------------------------------------

def test_quasifree_validation():
    s = MODEL.basis_projection()
    validate_quasifree(MODEL, s)
    with pytest.raises(ValueError):
        validate_quasifree(MODEL, 2.0 * s)
    with pytest.raises(ValueError):
        validate_quasifree(MODEL, np.eye(8))


def test_quasifree_odd_vanishes():
    rng = np.random.default_rng(44)
    s = MODEL.basis_projection()
    fs = [rand_vec(rng, 8) for _ in range(3)]
    assert quasifree_npoint(MODEL, s, fs) == 0.0


def test_quasifree_two_point():
    rng = np.random.default_rng(45)
    s = MODEL.basis_projection()
    f, g = rand_vec(rng, 8), rand_vec(rng, 8)
    lhs = quasifree_npoint(MODEL, s, [f, g])
    rhs = complex(np.vdot(MODEL.apply_conjugation(f), s @ g))
    assert abs(lhs - rhs) < 1e-13


def test_quasifree_car_consistency():
    # omega(B1 B2) + omega(B2 B1) = <Cf1, f2>
    rng = np.random.default_rng(46)
    cmat = MODEL.conjugation_matrix()
    base = rng.standard_normal((8, 8))
    base = base + base.T
    x = 0.5 * (base - cmat @ np.conj(base) @ cmat)
    x = x / (2.0 * np.linalg.norm(x, 2))
    s = 0.5 * (np.eye(8) + x)
    validate_quasifree(MODEL, s)
    f, g = rand_vec(rng, 8), rand_vec(rng, 8)
    lhs = (quasifree_npoint(MODEL, s, [f, g]) + quasifree_npoint(MODEL, s, [g, f]))
    rhs = complex(np.vdot(MODEL.apply_conjugation(f), g))
    assert abs(lhs - rhs) < 1e-13


def test_quasifree_matches_fock_to_length_six():
    rng = np.random.default_rng(47)
    s = MODEL.basis_projection()
    worst = 0.0
    for length in range(1, 7):
        for _ in range(12):
            fs = [rand_vec(rng, 8) / 2.0 for _ in range(length)]
            worst = max(worst, abs(quasifree_npoint(MODEL, s, fs)
                                   - fock_npoint(MODEL, fs)))
    assert worst < 1e-10


# -- wedge subspace data ----------------------------------------------------------

def test_wedge_basis_orthogonality():
    basis0 = wedge_subalgebra_basis(MODEL, "W0")
    basis1 = wedge_subalgebra_basis(MODEL, "W0p")
    for f in basis0:
        for g in basis1:
            assert abs(np.vdot(f, g)) == 0.0
    for i, f in enumerate(basis0):
        for j, g in enumerate(basis0):
            assert abs(np.vdot(f, g) - (1.0 if i == j else 0.0)) < 1e-14


def test_wedge_basis_conjugation_invariance():
    basis0 = np.stack(wedge_subalgebra_basis(MODEL, "W0"))
    for f in basis0:
        image = MODEL.apply_conjugation(f)
        coeffs = np.conj(basis0) @ image
        recon = basis0.T @ coeffs
        assert np.linalg.norm(recon - image) < 1e-13


def test_wedge_basis_gauge_invariance():
    basis0 = np.stack(wedge_subalgebra_basis(MODEL, "W0"))
    v = gauge_one_particle(MODEL, 0.9)
    for f in basis0:
        image = v @ f
        coeffs = np.conj(basis0) @ image
        recon = basis0.T @ coeffs
        assert np.linalg.norm(recon - image) < 1e-13

