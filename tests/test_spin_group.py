import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from dswarp import spin_group as sg
from dswarp.quaternion import ONE, ZERO, QuatMatrix2


def rotation_cover(q) -> sg.SpinElement:
    """diag(q, q) for a unit quaternion q, a (4,) array: covers an edge rotation (SO(3))."""
    return sg.SpinElement(QuatMatrix2.diag(q, q))


def test_identity_and_kernel():
    ident = sg.spin_identity()
    np.testing.assert_allclose(sg.covering_hom(ident), np.eye(5), atol=0)
    np.testing.assert_allclose(sg.covering_hom(-ident), np.eye(5), atol=0)


def test_membership_rejects_non_group_matrix():
    bad = QuatMatrix2(np.array([[ONE, ONE], [ZERO, ONE]]))
    with pytest.raises(sg.NotInSpinGroupError):
        sg.SpinElement(bad)


def test_boost_cover_group_law():
    assert sg.boost_cover(0.0).dist(sg.spin_identity()) == 0.0
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b = rng.uniform(-0.8, 0.8, size=2)
        lhs = sg.boost_cover(a) @ sg.boost_cover(b)
        assert lhs.dist(sg.boost_cover(a + b)) < 1e-12


@pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
def test_covering_maps_boost_lift_to_base_boost(t):
    np.testing.assert_allclose(sg.covering_hom(sg.boost_cover(t)), sg.boost_base(t),
                               atol=1e-10)


def test_rapidity_doubling():
    lam = sg.covering_hom(sg.boost_cover(1.0))
    assert lam[0, 0] == pytest.approx(np.cosh(2.0 * np.pi), rel=1e-13)


def test_boost_base_action_on_e1():
    t = 0.7
    out = sg.boost_base(t) @ np.array([0.0, 1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(
        out, [np.sinh(2 * np.pi * t), np.cosh(2 * np.pi * t), 0, 0, 0], atol=0)


def test_boost_base_is_lorentz():
    lam = sg.boost_base(0.7)
    from dswarp.geometry import ETA
    np.testing.assert_allclose(lam.T @ ETA @ lam, ETA, atol=1e-9)
    assert sg.is_proper_orthochronous(lam)


@pytest.mark.parametrize("t", [0.5, 2.0, 3.0])
def test_lorentz_gate_scales_with_the_norm_and_refuses_every_sign_flip(t):
    # the covering image of the boost lift passes at every t (its defect at
    # t = 2 is 3.2e-6, at t = 3 about 1.2), and flipping the sign of any one
    # nonzero entry is refused: off the unit block the Lorentz defect grows
    # like the entries squared, on it only the determinant changes sign
    lam = sg.covering_hom(sg.boost_cover(t))
    assert sg.is_proper_orthochronous(lam)
    flipped = []
    for i, j in zip(*np.nonzero(lam)):
        bad = lam.copy()
        bad[i, j] = -bad[i, j]
        flipped.append(bad)
    assert len(flipped) == 7
    assert not np.any(sg.is_proper_orthochronous(np.array(flipped)))


@pytest.mark.parametrize("t", [0.5, 2.0, 3.0, 5.0])
def test_sp11_gate_scales_with_the_norm_and_refuses_every_sign_flip(t):
    # the boost lift [[c, -s], [-s, c]] is accepted, its defect being rounding
    # on entries of size cosh(pi t); flipping the sign of any one of its four
    # nonzero entries moves g^* gamma0 g by about c s or c^2, far above the gate
    lift = sg._boost_array(t)
    sg.SpinElement(QuatMatrix2(lift))
    entries = list(zip(*np.nonzero(lift)))
    assert len(entries) == 4
    for index in entries:
        bad = lift.copy()
        bad[index] = -bad[index]
        with pytest.raises(sg.NotInSpinGroupError):
            sg.SpinElement(QuatMatrix2(bad))


def test_sp11_gate_is_the_absolute_tolerance_at_the_identity():
    ident = QuatMatrix2.identity().array
    near = ident.copy()
    near[0, 1, 2] = 0.9 * sg.SP11_TOL
    sg.SpinElement(QuatMatrix2(near))
    near[0, 1, 2] = 2.0 * sg.SP11_TOL
    with pytest.raises(sg.NotInSpinGroupError):
        sg.SpinElement(QuatMatrix2(near))


def test_lorentz_gate_no_weaker_than_1e8_up_to_t_1():
    lam = sg.boost_base(1.0)
    assert sg.LORENTZ_ROUNDING * np.sum(lam * lam) <= 1e-8
    off = lam.copy()
    off[2, 2] += 1e-8                       # a defect of 2e-8 at entries of size one
    assert not sg.is_proper_orthochronous(off)


def test_boost_lift_verdict_changes_once_on_the_t_grid():
    """The covering image of the boost lift, on the 0.01 grid of t from 0 to
    60, is accepted up to the cofactor cap and refused from there on: the
    verdict changes once, where cosh(2 pi t) passes COFACTOR_CAP."""
    ts = np.arange(6001) / 100.0
    lift = sg.boost_cover(ts)
    verdicts = []
    with np.errstate(over="ignore", invalid="ignore"):     # ||Lam||_F^2 overflows from t = 56.5
        for i in range(len(ts)):
            try:
                sg.covering_hom(lift[i])
                verdicts.append(True)
            except sg.NotInSpinGroupError:
                verdicts.append(False)
    changes = [t for t, a, b in zip(ts[1:], verdicts, verdicts[1:]) if a != b]
    assert changes == [5.41]
    assert np.cosh(2.0 * np.pi * 5.40) <= sg.COFACTOR_CAP < np.cosh(2.0 * np.pi * 5.41)


def test_cofactor_cap_refuses_a_proper_lorentz_matrix_past_it():
    lam = sg.boost_base(5.41)        # entries from cosh and sinh: det Lam = 1 to rounding
    assert lam[0, 0] > sg.COFACTOR_CAP
    assert abs(np.linalg.det(lam[1:, 1:]) / lam[0, 0] - 1.0) < 1e-14
    assert not sg.is_proper_orthochronous(lam)
    assert sg.is_proper_orthochronous(sg.boost_base(5.40))


def test_stacked_random_lorentz_equals_single_draws():
    # the same coefficients; one expm scaling for the whole stack moves the
    # last bits only
    singles_rng, stack_rng = np.random.default_rng(31), np.random.default_rng(31)
    singles = np.array([sg.random_proper_lorentz(singles_rng) for _ in range(50)])
    stack = sg.random_proper_lorentz(stack_rng, count=50)
    assert np.max(np.abs(stack - singles)) <= 1e-14
    assert np.all(sg.is_proper_orthochronous(stack))
    assert singles_rng.random() == stack_rng.random()


def test_reflection_properties():
    j = sg.reflection_base()
    np.testing.assert_allclose(j @ j, np.eye(5), atol=0)
    np.testing.assert_allclose(sg.covering_hom(sg.reflection_cover()), j, atol=0)
    out = sg.covering_hom(sg.reflection_cover()) @ np.array([0.0, 1, 0, 0, 0])
    np.testing.assert_allclose(out, [0.0, -1, 0, 0, 0], atol=0)


def test_reflection_reverses_boost():
    t = 0.3
    j = sg.reflection_base()
    np.testing.assert_allclose(j @ sg.boost_base(t) @ j, sg.boost_base(-t), atol=0)
    jc = sg.reflection_cover()
    assert (jc @ sg.boost_cover(t) @ jc).dist(sg.boost_cover(-t)) == 0.0


def test_homomorphism_on_random_words():
    rng = np.random.default_rng(77)
    for _ in range(100):
        g, h = sg.random_spin_words(rng, 2)
        lhs = sg.covering_hom(g @ h)
        rhs = sg.covering_hom(g) @ sg.covering_hom(h)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_two_to_one_exact():
    rng = np.random.default_rng(78)
    for _ in range(20):
        g = sg.random_spin_words(rng, 1)[0]
        np.testing.assert_array_equal(sg.covering_hom(g), sg.covering_hom(-g))


def test_rotation_cover_stabilizes_boost():
    rng = np.random.default_rng(79)
    q = rng.standard_normal(4)
    q = q / np.sqrt(q @ q)
    rot = rotation_cover(q)
    lam = sg.covering_hom(rot)
    # edge rotation: fixes e0, e1 and commutes with the wedge boost
    np.testing.assert_allclose(lam[:2, :2], np.eye(2), atol=1e-12)
    base = sg.boost_base(0.4)
    np.testing.assert_allclose(lam @ base, base @ lam, atol=1e-12)


def test_structure_constants_exact():
    basis = sg.lie_basis()
    assert len(basis) == 10
    for mu, nu, a in basis:
        for rho, sig, b in basis:
            np.testing.assert_array_equal(sg.lie_bracket(a, b),
                                          sg.structure_rhs(mu, nu, rho, sig))


def test_specific_brackets():
    m = sg.lie_generator
    np.testing.assert_array_equal(sg.lie_bracket(m(1, 2), m(3, 4)), np.zeros((5, 5)))
    np.testing.assert_array_equal(sg.lie_bracket(m(0, 1), m(2, 3)), np.zeros((5, 5)))
    np.testing.assert_array_equal(sg.lie_bracket(m(1, 2), m(2, 3)),
                                  sg.structure_rhs(1, 2, 2, 3))
    assert np.max(np.abs(sg.lie_bracket(m(1, 2), m(2, 3)))) > 0


def test_abelian_flows_commute():
    rng = np.random.default_rng(80)
    for tag in sorted(sg.ABELIAN_SUBGROUPS):
        for _ in range(5):
            t, s = rng.uniform(-1.5, 1.5, size=2)
            assert sg.abelian_commutation_residual(tag, t, s) < 1e-10


def test_null_rotation_generators_are_nilpotent():
    for tag in ("L3", "L4"):
        g1 = sg.ABELIAN_SUBGROUPS[tag][0].astype(float)
        np.testing.assert_allclose(np.linalg.matrix_power(g1, 3), np.zeros((5, 5)),
                                   atol=0)


def test_rotation_flow_periodicity():
    out = sg.abelian_flow("L1", 2.0 * np.pi, 2.0 * np.pi)
    np.testing.assert_allclose(out, np.eye(5), atol=1e-12)


def test_l2_flow_is_pure_boost_at_s_zero():
    t = 0.9
    flow = sg.abelian_flow("L2", t, 0.0)
    np.testing.assert_allclose(flow, scipy.linalg.expm(t * sg.lie_generator(0, 1).astype(float)),
                               atol=1e-12)
    # orientation: exp(-2 pi t M_01) equals the wedge boost
    np.testing.assert_allclose(sg.abelian_flow("L2", -2.0 * np.pi * t, 0.0),
                               sg.boost_base(t), atol=1e-9)


def test_unknown_subgroup_tag():
    with pytest.raises(KeyError):
        sg.abelian_flow("L9", 0.1, 0.1)


def test_reflection_obstruction_identity():
    report = sg.reflection_obstruction_check()
    assert report["passed"]
    assert report["max_residual"] < 1e-10
    lhs = sg.J12 @ sg.abelian_flow("L2", 1.0, 1.0) @ sg.J12
    np.testing.assert_allclose(lhs, sg.abelian_flow("L2", -1.0, -1.0), atol=1e-10)


# -- the numpy exponential against scipy.linalg.expm ---------------------------------

def assert_expm_matches_scipy(a: np.ndarray):
    """sg.expm(a) agrees with scipy within 1e-12 of the largest entry of exp(a)."""
    ref = scipy.linalg.expm(a)
    assert np.max(np.abs(sg.expm(a) - ref)) <= 1e-12 * np.max(np.abs(ref))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=10, max_size=10))
def test_expm_of_so14_combination_matches_scipy(coeffs):
    assert_expm_matches_scipy(sum(c * m.astype(float) for c, (_, _, m) in
                                  zip(coeffs, sg.lie_basis())))


@pytest.mark.parametrize("t", [*np.linspace(-1.5, 1.5, 13), 2.0 * np.pi, -2.0 * np.pi])
@pytest.mark.parametrize("tag", sorted(sg.ABELIAN_SUBGROUPS))
def test_expm_of_abelian_generators_matches_scipy(tag, t):
    for g in sg.ABELIAN_SUBGROUPS[tag]:
        assert_expm_matches_scipy(t * g.astype(float))


def test_expm_of_a_stack_is_the_expm_of_each_matrix():
    rng = np.random.default_rng(11)
    stack = np.stack([sum(c * m.astype(float) for c, (_, _, m) in
                          zip(rng.uniform(-2.0, 2.0, size=10), sg.lie_basis()))
                      for _ in range(4)] + [np.zeros((5, 5))])
    out = sg.expm(stack)
    assert out.shape == stack.shape
    for a, e in zip(stack, out):
        np.testing.assert_allclose(e, scipy.linalg.expm(a), rtol=0, atol=1e-12 * np.max(np.abs(e)))
    np.testing.assert_array_equal(out[-1], np.eye(5))
