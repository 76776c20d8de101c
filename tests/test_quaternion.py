import numpy as np
import pytest

from dswarp.quaternion import (E1, E2, E3, ONE, ZERO, QuatMatrix2, _qconj, _realize, qmat_dist,
                               qmul)


def rand_quat(rng):
    return rng.standard_normal(4)


def norm2(q):
    return float(q @ q)


def test_unit_multiplication_table():
    assert np.array_equal(qmul(E1, E2), E3)
    assert np.array_equal(qmul(E2, E3), E1)
    assert np.array_equal(qmul(E3, E1), E2)
    for unit in (E1, E2, E3):
        assert np.array_equal(qmul(unit, unit), -ONE)
        assert np.array_equal(qmul(ONE, unit), unit)
        assert np.array_equal(qmul(unit, ONE), unit)


def test_multiplication_associative():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, b, c = rand_quat(rng), rand_quat(rng), rand_quat(rng)
        lhs = qmul(qmul(a, b), c)
        rhs = qmul(a, qmul(b, c))
        assert norm2(lhs - rhs) < 1e-24


def test_conjugation_reverses_products():
    rng = np.random.default_rng(12)
    for _ in range(50):
        a, b = rand_quat(rng), rand_quat(rng)
        lhs = _qconj(qmul(a, b))
        rhs = qmul(_qconj(b), _qconj(a))
        assert norm2(lhs - rhs) < 1e-24


def test_norm_is_multiplicative():
    rng = np.random.default_rng(13)
    for _ in range(50):
        a, b = rand_quat(rng), rand_quat(rng)
        assert norm2(qmul(a, b)) == pytest.approx(norm2(a) * norm2(b), rel=1e-12)
        # q conj(q) is the real scalar |q|^2
        np.testing.assert_allclose(qmul(a, _qconj(a)), norm2(a) * ONE, atol=1e-13)


def test_complex_realization_is_homomorphism():
    rng = np.random.default_rng(14)
    for _ in range(50):
        a, b = rand_quat(rng), rand_quat(rng)
        lhs = _realize(qmul(a, b))
        rhs = _realize(a) @ _realize(b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_realization_conjugate_is_adjoint():
    rng = np.random.default_rng(15)
    for _ in range(20):
        q = rand_quat(rng)
        np.testing.assert_allclose(_realize(_qconj(q)), _realize(q).conj().T, atol=0)


def test_batched_product_equals_products_of_elements():
    rng = np.random.default_rng(18)
    a, b = rng.standard_normal((6, 4)), rng.standard_normal((6, 4))
    batched = qmul(a, b)
    for k in range(6):
        assert np.array_equal(batched[k], qmul(a[k], b[k]))
    assert qmul(a, b[0]).shape == (6, 4)


def test_matrix_product_matches_realization():
    rng = np.random.default_rng(16)
    for _ in range(20):
        a = QuatMatrix2(rng.standard_normal((2, 2, 4)))
        b = QuatMatrix2(rng.standard_normal((2, 2, 4)))
        np.testing.assert_allclose((a @ b).to_complex(),
                                   a.to_complex() @ b.to_complex(), atol=1e-12)


def test_matrix_adjoint_matches_realization():
    rng = np.random.default_rng(17)
    a = QuatMatrix2(rng.standard_normal((2, 2, 4)))
    np.testing.assert_allclose(a.adjoint().to_complex(),
                               a.to_complex().conj().T, atol=0)
    assert qmat_dist(a, a) == 0.0


def test_identity_and_diag_from_arrays():
    assert np.array_equal(QuatMatrix2.identity().to_complex(), np.eye(4))
    q = np.array([0.5, -1.0, 2.0, 0.25])
    d = QuatMatrix2.diag(q, -ONE)
    assert np.array_equal(d.array[0, 0], q)
    assert np.array_equal(d.array[1, 1], -ONE)
    assert np.array_equal(d.array[0, 1], ZERO) and np.array_equal(d.array[1, 0], ZERO)
    assert QuatMatrix2.diag(np.ones((3, 4)), ONE).batch_shape == (3,)
    with pytest.raises(ValueError, match=r"must end in \(2, 2, 4\)"):
        QuatMatrix2(np.zeros((2, 4)))
