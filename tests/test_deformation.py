import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_legendre, sici

from dswarp.car_fock import (FockOperator, MaskWord, boost_phases, charge_projector,
                             default_model, field_B, field_word, gauge_phases,
                             reflect_word, reflection_automorphism,
                             reflection_table, spinor, twist_phases,
                             wedge_subalgebra_basis)
from dswarp.deformation import (_cosine_factor, _gauss_factor, _si_cin, covariance_transform,
                                oracle_residuals, rieffel_word, warp, warp_oscillatory,
                                warp_word)
from dswarp.car_fock import OneParticleModel
from test_fock_properties import (charge_shifts, dense_op, dense_warp_oscillatory,
                                  diagonal, identity_op,
                                  reflection_fock, rotation_fock, warp_rotated)
from test_verification import PROPERTY, KAPPAS, SEEDS, _random_word, dense, word_models

MODEL = default_model()


def rand_op(rng, model=MODEL):
    m = rng.standard_normal((model.dim, model.dim)) \
        + 1j * rng.standard_normal((model.dim, model.dim))
    return FockOperator(m, model)


# -- dense oracles -------------------------------------------------------------------
# The deformation identities on dense operators: the reference the mask-word
# path of the deformation suite is compared against.

def warp_inverse_check(model: OneParticleModel, kappa: float, op: FockOperator) -> float:
    return warp(model, -kappa, warp(model, kappa, op)).dist(op)


def rieffel_product(model: OneParticleModel, kappa: float, f: FockOperator,
                    g: FockOperator) -> FockOperator:
    """The deformed product: warp(f x g) = warp(f) warp(g)."""
    return warp(model, -kappa, warp(model, kappa, f) @ warp(model, kappa, g))


def dense_covariance(model: OneParticleModel, kappa: float, op: FockOperator, kind: str,
                     parameter: float | None = None) -> tuple[FockOperator, FockOperator]:
    """Both sides of boost, gauge or reflection covariance with dense implementers."""
    if kind == "reflection":
        r = reflection_fock(model)
        return r @ warp(model, kappa, op) @ r.H, warp(model, -kappa, r @ op @ r.H)
    u = diagonal(model, (boost_phases if kind == "boost" else gauge_phases)(model, parameter))
    return u @ warp(model, kappa, op) @ u.H, warp(model, kappa, u @ op @ u.H)


def test_warp_at_zero_is_identity_map():
    rng = np.random.default_rng(50)
    for _ in range(10):
        op = rand_op(rng)
        np.testing.assert_array_equal(warp(MODEL, 0.0, op).matrix, op.matrix)


def test_warp_fixes_unit_and_gauge_invariant_boost_commuting():
    kappa = 0.8
    assert warp(MODEL, kappa, identity_op(MODEL)).dist(identity_op(MODEL)) == 0.0
    # any function of (charge, boost phase) is diagonal, commutes with the
    # flows, and is fixed by the deformation
    diag = FockOperator(np.diag(np.exp(MODEL.charges + 0.3 * MODEL.phases)), MODEL)
    assert warp(MODEL, kappa, diag).dist(diag) == 0.0
    e1 = dense_op(MODEL, charge_projector(MODEL, 1))
    assert warp(MODEL, kappa, e1).dist(e1) == 0.0


def test_warp_is_linear():
    rng = np.random.default_rng(51)
    kappa = -0.6
    f, g = rand_op(rng), rand_op(rng)
    alpha = 1.2 - 0.4j
    lhs = warp(MODEL, kappa, alpha * f + g)
    rhs = alpha * warp(MODEL, kappa, f) + warp(MODEL, kappa, g)
    assert lhs.dist(rhs) < 1e-13


def warp_sector_sum(model: OneParticleModel, kappa: float, op: FockOperator) -> FockOperator:
    """Sector-by-sector evaluation with explicit unitaries and projectors.

    Independent of the entrywise phase shortcut; the oracle for warp.
    """
    out = np.zeros((model.dim, model.dim), dtype=complex)
    for m, block in charge_shifts(op).items():
        for n in np.unique(model.charges).tolist():
            sel = (model.charges == n)
            left = np.exp(1j * kappa * n * model.phases)
            right = np.exp(-1j * kappa * (n + m) * model.phases)
            term = (left[:, None] * block * right[None, :])
            term[:, ~sel] = 0.0
            out += term
    return FockOperator(out, model)


def test_warp_matches_explicit_sector_sum():
    rng = np.random.default_rng(52)
    for kappa in (-1.0, 0.3, 0.5):
        op = rand_op(rng)
        assert warp(MODEL, kappa, op).dist(warp_sector_sum(MODEL, kappa, op)) < 1e-12


def test_warp_spinor_phase_pattern_by_hand():
    # boost eigenvector: the m = -1 sector instance, assembled entry by entry
    kappa = 0.7
    f = np.zeros(4)
    f[2] = 1.0                      # first antiparticle mode, frequency +1
    psi = spinor(MODEL, f)
    expected = np.zeros_like(psi.matrix)
    q, phi = MODEL.charges, MODEL.phases
    for i in range(MODEL.dim):
        for j in range(MODEL.dim):
            if psi.matrix[i, j] != 0:
                n = q[j]
                phase = np.exp(1j * kappa * n * phi[i]) \
                    * np.exp(-1j * kappa * (n - 1) * phi[j])
                expected[i, j] = phase * psi.matrix[i, j]
    np.testing.assert_allclose(warp(MODEL, kappa, psi).matrix, expected, atol=1e-14)


def test_warp_inverse():
    rng = np.random.default_rng(53)
    kappa = 0.9
    for _ in range(10):
        assert warp_inverse_check(MODEL, kappa, rand_op(rng)) < 1e-12
    e1 = dense_op(MODEL, charge_projector(MODEL, 1))
    assert warp(MODEL, -kappa, warp(MODEL, kappa, e1)).dist(e1) == 0.0
    f = np.zeros(4)
    f[0] = 1.0
    assert warp_inverse_check(MODEL, kappa, spinor(MODEL, f)) < 1e-12


def test_adjoint_compatibility():
    rng = np.random.default_rng(54)
    for kappa in (-0.5, 0.25, 1.0):
        for _ in range(30):
            op = rand_op(rng)
            assert warp(MODEL, kappa, op).H.dist(warp(MODEL, kappa, op.H)) < 1e-12


def test_rieffel_product_unit_and_zero():
    rng = np.random.default_rng(55)
    f, g = rand_op(rng), rand_op(rng)
    assert rieffel_product(MODEL, 0.0, f, g).dist(f @ g) < 1e-13
    kappa = 0.7
    assert rieffel_product(MODEL, kappa, identity_op(MODEL), f).dist(f) < 1e-13
    assert rieffel_product(MODEL, kappa, f, identity_op(MODEL)).dist(f) < 1e-13


def test_rieffel_homomorphism_and_associativity():
    rng = np.random.default_rng(56)
    kappa = 0.6
    for _ in range(10):
        f, g, h = rand_op(rng), rand_op(rng), rand_op(rng)
        lhs = warp(MODEL, kappa, f) @ warp(MODEL, kappa, g)
        assert lhs.dist(warp(MODEL, kappa, rieffel_product(MODEL, kappa, f, g))) < 1e-10
        assoc = rieffel_product(MODEL, kappa, rieffel_product(MODEL, kappa, f, g), h).dist(
            rieffel_product(MODEL, kappa, f, rieffel_product(MODEL, kappa, g, h)))
        assert assoc < 1e-10


def test_vacuum_invariance():
    rng = np.random.default_rng(57)
    omega = MODEL.vacuum()
    for kappa in (-1.0, 0.45, 1.0):
        for _ in range(30):
            op = rand_op(rng)
            assert np.linalg.norm((warp(MODEL, kappa, op).matrix - op.matrix) @ omega) < 1e-12


def _even_localized(rng, tag):
    gens = [field_B(MODEL, f) for f in wedge_subalgebra_basis(MODEL, tag)]
    a = gens[int(rng.integers(len(gens)))]
    b = gens[int(rng.integers(len(gens)))]
    return a @ b


def test_opposite_sign_deformations_commute():
    rng = np.random.default_rng(58)
    kappa = 0.8
    for _ in range(20):
        f = _even_localized(rng, "W0")
        g = _even_localized(rng, "W0p")
        assert (f @ g - g @ f).norm() < 1e-13   # hypothesis: undeformed commute
        wf, wg = warp(MODEL, kappa, f), warp(MODEL, -kappa, g)
        assert (wf @ wg - wg @ wf).norm() < 1e-10


def test_twisted_commutant_property():
    rng = np.random.default_rng(59)
    kappa = 0.8
    z = diagonal(MODEL, twist_phases(MODEL))
    gens0 = [field_B(MODEL, f) for f in wedge_subalgebra_basis(MODEL, "W0")]
    gens1 = [field_B(MODEL, f) for f in wedge_subalgebra_basis(MODEL, "W0p")]
    for _ in range(20):
        f = gens0[int(rng.integers(len(gens0)))]       # odd
        g = gens1[int(rng.integers(len(gens1)))]       # odd
        zf = z @ warp(MODEL, kappa, f) @ z.H
        wg = warp(MODEL, -kappa, g)
        assert (zf @ wg - wg @ zf).norm() < 1e-10


def test_flow_unitary_conjugation():
    rng = np.random.default_rng(60)
    kappa = -0.35
    for x in (diagonal(MODEL, gauge_phases(MODEL, 1.1)),
              diagonal(MODEL, boost_phases(MODEL, 0.7))):
        for _ in range(10):
            op = rand_op(rng)
            lhs = x @ warp(MODEL, kappa, op) @ x.H
            rhs = warp(MODEL, kappa, x @ op @ x.H)
            assert lhs.dist(rhs) < 1e-12


def test_covariance_identities():
    rng = np.random.default_rng(61)
    kappa = 0.55
    for kind, param in (("gauge", 0.9), ("boost", 0.45), ("reflection", None)):
        for _ in range(5):
            lhs, rhs = covariance_transform(MODEL, kappa, _random_word(rng, MODEL.dim), kind, param)
            assert (lhs - rhs).norm() < 1e-10
    for kind in ("translation", "rotation"):
        with pytest.raises(ValueError):
            covariance_transform(MODEL, kappa, _random_word(rng, MODEL.dim), kind, 1.0)


@PROPERTY
@given(word_models(), SEEDS, KAPPAS, st.floats(-3.0, 3.0))
def test_deformation_words_match_dense_operators(model, seed, kappa, t):
    """Word warp, products, Rieffel product, reflection and every residual of the
    deformation suite against dense operators; the models' reflections are
    arbitrary mode permutations, so the reflection residual is not always 0."""
    rng = np.random.default_rng(seed)
    f, g, h = (_random_word(rng, model.dim) for _ in range(3))
    big_f, big_g, big_h = (FockOperator(dense(w), model) for w in (f, g, h))
    scale = f.norm() * g.norm() * h.norm()

    def close(word, op, bound):
        assert np.max(np.abs(dense(word) - op.matrix)) <= 1e-13 * bound

    close(warp_word(model, kappa, f), warp(model, kappa, big_f), f.norm())
    close(f @ g, big_f @ big_g, f.norm() * g.norm())
    fg = rieffel_word(model, kappa, f, g)
    close(fg, rieffel_product(model, kappa, big_f, big_g), f.norm() * g.norm())

    perm, sign = reflection_table(model)
    table = np.zeros((model.dim, model.dim))
    table[perm, np.arange(model.dim)] = sign
    r = reflection_fock(model)
    assert (table == r.matrix).all()
    reflected = r.matrix @ dense(f) @ r.matrix.T
    assert (dense(reflect_word(model, f)) == reflected).all()
    assert (dense(reflection_automorphism(model, f)) == reflected).all()

    wf = warp_word(model, kappa, f)
    pairs = [
        ((wf.H - warp_word(model, kappa, f.H)).norm(),
         warp(model, kappa, big_f).H.dist(warp(model, kappa, big_f.H))),
        ((wf @ warp_word(model, kappa, g) - warp_word(model, kappa, fg)).norm(),
         (warp(model, kappa, big_f) @ warp(model, kappa, big_g)).dist(
             warp(model, kappa, rieffel_product(model, kappa, big_f, big_g)))),
        ((rieffel_word(model, kappa, fg, h)
          - rieffel_word(model, kappa, f, rieffel_word(model, kappa, g, h))).norm(),
         rieffel_product(model, kappa, rieffel_product(model, kappa, big_f, big_g), big_h).dist(
             rieffel_product(model, kappa, big_f, rieffel_product(model, kappa, big_g, big_h)))),
        ((warp_word(model, -kappa, wf) - f).norm(), warp_inverse_check(model, kappa, big_f)),
        (np.linalg.norm((wf - f).apply(model.vacuum())),
         np.linalg.norm((warp(model, kappa, big_f).matrix - big_f.matrix) @ model.vacuum())),
    ]
    for kind in ("gauge", "boost", "reflection"):
        lhs, rhs = covariance_transform(model, kappa, f, kind, t)
        dense_lhs, dense_rhs = dense_covariance(model, kappa, big_f, kind, t)
        pairs.append(((lhs - rhs).norm(), dense_lhs.dist(dense_rhs)))
    for word_residual, dense_residual in pairs:
        assert abs(word_residual - dense_residual) <= 1e-13 * scale


def test_reflection_pins_kappa_sign():
    # the negative control: keeping +kappa on the right side breaks covariance
    rng = np.random.default_rng(62)
    kappa = 0.55
    op = rand_op(rng)
    r = reflection_fock(MODEL)
    lhs = r @ warp(MODEL, kappa, op) @ r.H
    wrong = warp(MODEL, kappa, r @ op @ r.H)
    assert lhs.dist(wrong) > 1e-2


# -- oscillatory oracle ------------------------------------------------------------

def test_gauss_factor_against_brute_quadrature():
    eps, alpha, beta = 0.3, -0.5, 2.0
    half = 60.0
    n = 1201
    xs = np.linspace(-half, half, n)
    dx = xs[1] - xs[0]
    x, y = np.meshgrid(xs, xs, indexing="ij")
    e2 = (eps / 6.0) ** 2
    integrand = (np.exp(-1j * x * y) * np.exp(-e2 * (x ** 2 + y ** 2))
                 * np.exp(1j * (alpha * x + beta * y)))
    brute = integrand.sum() * dx * dx / (2.0 * np.pi)
    assert abs(brute - _gauss_factor(eps, np.array(alpha), np.array(beta))) < 1e-7


def composite_gl_nodes(half_width, panel_rad=18.0, order=24):
    """The whole composite Gauss-Legendre rule on [-half_width, half_width]."""
    base_x, base_w = roots_legendre(order)
    n_panels = max(1, int(np.ceil(2.0 * half_width * half_width / panel_rad)))
    edges = np.linspace(-half_width, half_width, n_panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * np.diff(edges)
    nodes = (mids[:, None] + halves[:, None] * base_x[None, :]).ravel()
    weights = (halves[:, None] * base_w[None, :]).ravel()
    return nodes, weights


def cosine_factor_oracle(eps, alpha, beta):
    """One raised-cosine factor, per key and over the whole rule (the oracle).

    Inner integral as three shifted sinc terms from the cosine window, outer
    integral by composite Gauss-Legendre over the support.
    """
    half_width = 6.0 / eps
    theta = np.pi * eps / 6.0
    x, w = composite_gl_nodes(half_width)
    window = 0.5 * (1.0 + np.cos(np.pi * eps * x / 6.0))
    inner = np.zeros_like(x)
    for shift, coef in ((0.0, 0.5), (theta, 0.25), (-theta, 0.25)):
        u = beta - x + shift
        inner += coef * 2.0 * half_width * np.sinc(half_width * u / np.pi)
    integrand = window * np.exp(1j * alpha * x) * inner
    return complex(np.sum(w * integrand) / (2.0 * np.pi))


def test_cosine_factor_against_brute_quadrature():
    eps, alpha, beta = 0.3, -0.5, 2.0
    half = 6.0 / eps
    n = 3001
    xs = np.linspace(-half, half, n)
    dx = xs[1] - xs[0]
    x, y = np.meshgrid(xs, xs, indexing="ij")
    window = lambda u: 0.5 * (1.0 + np.cos(np.pi * eps * u / 6.0))
    integrand = (np.exp(-1j * x * y) * window(x) * window(y)
                 * np.exp(1j * (alpha * x + beta * y)))
    brute = integrand.sum() * dx * dx / (2.0 * np.pi)
    assert abs(brute - _cosine_factor(eps, np.array(alpha), np.array(beta))) < 1e-9


@settings(max_examples=30, deadline=None)
@given(st.floats(0.05, 3.0),
       st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
                min_size=1, max_size=6))
def test_cosine_factors_match_per_key_oracle(eps, keys):
    alphas, betas = np.array(keys).T
    values = _cosine_factor(eps, alphas, betas)
    for value, alpha, beta in zip(values, alphas, betas):
        assert abs(value - cosine_factor_oracle(eps, alpha, beta)) < 1e-12


@pytest.mark.parametrize("eps", [1.0, 0.3, 0.1, 0.05])
def test_cosine_factors_at_removable_points(eps):
    # Si and Cin meet argument 0 where an endpoint beta + t - H or a
    # frequency k- = H - (alpha + s) vanishes, t and s in {0, +-theta}
    half_width, theta = 6.0 / eps, np.pi * eps / 6.0
    alphas = np.array([0.7, 0.7, half_width, half_width - theta])
    betas = np.array([half_width, half_width + theta, 0.7, 0.7])
    values = _cosine_factor(eps, alphas, betas)
    assert np.isfinite(values).all()
    for value, alpha, beta in zip(values, alphas, betas):
        assert abs(value - cosine_factor_oracle(eps, alpha, beta)) < 1e-12


# -- Si and Cin against scipy.special.sici ---------------------------------------

def _sici_args():
    rng = np.random.default_rng(19)
    edges = [0.0, 5e-324, np.nextafter(4.0, 0.0), 4.0, np.nextafter(4.0, 5.0), 1e300, 1.7e308]
    return np.concatenate([rng.uniform(0.0, 10.0, 20000),
                           10.0 ** rng.uniform(-5.0, 6.0, 20000), edges])


def test_si_cin_match_scipy_sici():
    x = _sici_args()
    si, cin = _si_cin(x)
    ref_si, ci = sici(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        ref_cin = np.where(x == 0, 0.0, np.euler_gamma + np.log(x) - ci)
    assert np.max(np.abs(si - ref_si)) <= 2e-15
    assert np.max(np.abs(cin - ref_cin) / np.maximum(1.0, ref_cin)) <= 2e-15


# Si(x) and Cin(x) to 20 digits (40-digit mpmath), on both sides of the series limit 4
SI_CIN_REFERENCE = [(1.0, 0.94608307036718301494, 0.23981174200056472594),
                    (4.0, 1.7582031389490530581, 2.1044917239083538911),
                    (10.0, 1.6583475942188740493, 2.9252571909000339173)]


@pytest.mark.parametrize("x, si_ref, cin_ref", SI_CIN_REFERENCE)
def test_si_cin_within_two_ulp_of_reference(x, si_ref, cin_ref):
    si, cin = _si_cin(np.array([x]))
    assert abs(si[0] - si_ref) <= 2 * np.spacing(si_ref)
    assert abs(cin[0] - cin_ref) <= 2 * np.spacing(cin_ref)


def test_si_cin_is_odd_and_even():
    x = _sici_args()
    si, cin = _si_cin(x)
    neg_si, neg_cin = _si_cin(-x)
    np.testing.assert_array_equal(neg_si, -si)
    np.testing.assert_array_equal(neg_cin, cin)


def test_si_cin_at_infinity_and_nan():
    si, cin = _si_cin(np.array([np.inf, -np.inf, np.nan]))
    np.testing.assert_array_equal(si, [np.pi / 2, -np.pi / 2, np.nan])
    np.testing.assert_array_equal(cin, [np.inf, np.inf, np.nan])


@pytest.mark.parametrize("factor", [_gauss_factor, _cosine_factor],
                         ids=["gaussian", "cosine"])
def test_factor_converges_at_second_order(factor):
    # log2 of the residual ratio per halving of eps, from eps = 1e-2 to 1e-5
    alpha, beta = np.array([0.7, -2.0, 0.0]), np.array([-1.3, 1.0, 2.0])
    epsilons = 1e-2 / 2.0 ** np.arange(11)
    residuals = np.array([np.abs(factor(eps, alpha, beta) - np.exp(1j * alpha * beta))
                          for eps in epsilons])
    orders = np.log2(residuals[:-1] / residuals[1:])
    assert epsilons[-1] < 1e-5
    assert ((orders > 1.9) & (orders < 2.1)).all()


def test_cosine_oracle_memory_is_bounded():
    # eps = 0.0125 is a 614400-node rule; no array of that size may be built
    kappa = 0.5
    word = field_word(MODEL, np.eye(MODEL.doubled_dim)[MODEL.n_modes + 2])
    tracemalloc.start()
    try:
        warp_oscillatory(MODEL, kappa, word, 0.0125, "cosine")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_oscillatory_unit_operator():
    kappa = 0.5
    one = MaskWord(0, np.ones(MODEL.dim, dtype=complex))
    previous = None
    for eps in (0.4, 0.2, 0.1):
        res = (warp_oscillatory(MODEL, kappa, one, eps) - one).norm()
        if previous is not None:
            assert res < previous
        previous = res
    assert previous < 1e-2


def test_oscillatory_requires_positive_regulator():
    kappa = 0.5
    one = MaskWord(0, np.ones(MODEL.dim, dtype=complex))
    with pytest.raises(ValueError):
        warp_oscillatory(MODEL, kappa, one, 0.0)
    with pytest.raises(ValueError):
        warp_oscillatory(MODEL, kappa, one, 0.1, cutoff="box")


def test_oracle_converges_to_closed_form():
    kappa = 0.5
    word = field_word(MODEL, np.eye(MODEL.doubled_dim)[MODEL.n_modes + 2])
    for cutoff in ("gaussian", "cosine"):
        residuals = oracle_residuals(MODEL, kappa, word, [0.1, 0.05, 0.025], cutoff)
        assert residuals[0] > residuals[1] > residuals[2]
        assert residuals[2] < 1e-3


def test_single_mode_model_oracle():
    tiny = OneParticleModel(1, 1, [1.0], [-1.0], localized_modes=[0],
                            reflection_pairing=None, seed=1)
    kappa = 0.4
    word = field_word(tiny, [1.0, 0.0, 0.0, 0.0])
    res = oracle_residuals(tiny, kappa, word, (0.2, 0.1, 0.05))
    assert res[0] > res[1] > res[2]
    assert res[2] < 1e-3


@PROPERTY
@given(word_models(), SEEDS, KAPPAS, st.sampled_from(["gaussian", "cosine"]))
def test_word_oracle_matches_dense_reference(model, seed, kappa, cutoff):
    """warp_oscillatory on a mask word, some entries zero, equals the cutoff
    factors applied at every nonzero entry of its dense matrix, and its
    residuals are the dense operator norms of the difference from the dense warp."""
    rng = np.random.default_rng(seed)
    word = _random_word(rng, model.dim)
    word.vec[rng.random(model.dim) < 0.3] = 0.0
    epsilons = 10.0 ** rng.uniform(-3.0, -1.0, size=2)
    op = dense_op(model, word)
    for eps, residual in zip(epsilons, oracle_residuals(model, kappa, word, epsilons, cutoff)):
        got = warp_oscillatory(model, kappa, word, eps, cutoff)
        expected = dense_warp_oscillatory(model, kappa, op, eps, cutoff)
        assert got.mask == word.mask
        assert (dense(got) == expected.matrix).all()
        exact = expected.dist(warp(model, kappa, op))
        assert abs(residual - exact) <= 1e-13 * exact


def test_rotated_flow_matches_sector_formula():
    # warp along the rotated flow = conjugated sector formula with rotated U's
    rng = np.random.default_rng(63)
    kappa, phi = 0.6, 0.5
    op = rand_op(rng)
    rot = rotation_fock(MODEL, phi)
    u_rot = lambda t: FockOperator(
        rot.matrix @ np.diag(boost_phases(MODEL, t)) @ rot.H.matrix, MODEL)
    expected = np.zeros_like(op.matrix)
    for m, block in charge_shifts(op).items():
        for n in np.unique(MODEL.charges).tolist():
            en = np.diag(charge_projector(MODEL, n).vec)
            expected += (u_rot(kappa * n).matrix @ block
                         @ u_rot(-kappa * (n + m)).matrix @ en)
    assert warp_rotated(MODEL, kappa, op, phi).dist(FockOperator(expected, MODEL)) < 1e-12
