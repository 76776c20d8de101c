"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each check prints a single PASS/FAIL line (run with pytest -s to see them all).

Criterion 1b is asserted as g0*g1*g2*g3*g4 = -1.  The literal statement
i*g0*g1*g2*g3*g4 = 1 is dropped because clause 1a rules it out: with
{g_mu, g_nu} = 2 eta_mu_nu and eta = diag(1,-1,-1,-1,-1), the product w obeys
w^2 = (-1)^10 g0^2 g1^2 g2^2 g3^2 g4^2 = +1.  Being central, w is +-1 on an
irreducible module, and never the -i that i*w = 1 needs.  The sign -1 is the
one the geometry module pins.
"""

import numpy as np

from dswarp import geometry as geo
from dswarp import spin_group as sg
from dswarp import wedges as wd
from dswarp.car_fock import (boost_phases, car_norm_bound, charge_projector, default_model,
                             field_word, fock_npoint, gauge_phases, quasifree_npoint,
                             twist_phases, wedge_subalgebra_basis)
from dswarp.deformation import oracle_residuals
from dswarp.verification import (check_twisted_locality, fixed_point_residual,
                                 inequivalence_witness)
from dense_reference import FockOperator, field_operator, warp
from test_deformation import rieffel_product, warp_inverse_check
from test_fock_properties import dense_fixed_point_residual, dense_op, identity_op

MODEL = default_model()


def _check(name: str, residual: float, tolerance: float):
    ok = residual <= tolerance
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: residual={residual:.3e} "
          f"tolerance={tolerance:.1e}")
    assert ok, f"{name}: residual {residual:.3e} exceeds tolerance {tolerance:.1e}"


def _rand_vec(rng, dim):
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def _rand_op(rng):
    m = rng.standard_normal((MODEL.dim, MODEL.dim)) \
        + 1j * rng.standard_normal((MODEL.dim, MODEL.dim))
    return FockOperator(m, MODEL)


# -- criterion 1: Clifford / geometry -------------------------------------------

def test_criterion_01_clifford_anticommutators():
    _check("1a clifford 25 anticommutators exact", geo.clifford_residual(), 0.0)


def test_criterion_01_pseudoscalar_as_stated():
    product = np.eye(4, dtype=complex)
    for mu in range(5):
        product = product @ geo.gamma(mu).to_complex()
    residual = float(np.max(np.abs(product + np.eye(4))))
    _check("1b pseudoscalar g0..g4 = -1 exact (see module docstring)",
           residual, 0.0)


def test_criterion_01_eta_identity():
    rng = np.random.default_rng(1001)
    points = geo.sample_hyperboloid(1000, rng)
    residual = max(geo.eta_identity_residual(x) for x in points)
    _check("1c eta-identity on 1000 seeded points", residual, 1e-12)


# -- criterion 2: covering suite ---------------------------------------------------

def test_criterion_02_covering():
    rng = np.random.default_rng(1002)
    hom = 0.0
    for _ in range(100):
        g, h = sg.random_spin_words(rng, 2)
        hom = max(hom, float(np.max(np.abs(
            sg.covering_hom(g @ h) - sg.covering_hom(g) @ sg.covering_hom(h)))))
    _check("2a covering homomorphism on 100 words", hom, 1e-10)
    kernel = max(
        float(np.max(np.abs(sg.covering_hom(sg.spin_identity()) - np.eye(5)))),
        float(np.max(np.abs(sg.covering_hom(-sg.spin_identity()) - np.eye(5)))))
    _check("2b kernel pi(+-1) = 1 exact", kernel, 0.0)
    boost = max(float(np.max(np.abs(sg.covering_hom(sg.boost_cover(t))
                                    - sg.boost_base(t))))
                for t in (0.1, 0.5, 1.0))
    _check("2c pi(lambda(t)) = Lambda(t), rapidity doubling", boost, 1e-10)


# -- criterion 3: Lie algebra suite --------------------------------------------------

def test_criterion_03_lie_algebra():
    worst = 0
    for mu, nu, a in sg.lie_basis():
        for rho, sig, b in sg.lie_basis():
            defect = sg.lie_bracket(a, b) - sg.structure_rhs(mu, nu, rho, sig)
            worst = max(worst, int(np.max(np.abs(defect))))
    _check("3a 100 bracket identities exact", float(worst), 0.0)
    rng = np.random.default_rng(1003)
    commute = 0.0
    for tag in sorted(sg.ABELIAN_SUBGROUPS):
        for _ in range(5):
            t, s = rng.uniform(-1.5, 1.5, size=2)
            commute = max(commute, sg.abelian_commutation_residual(tag, t, s))
    _check("3b four Table-1 subgroup flows commute", commute, 1e-10)
    grid = 0.0
    for t in np.linspace(-1.0, 1.0, 5):
        for s in np.linspace(-1.0, 1.0, 5):
            lhs = sg.J12 @ sg.abelian_flow("L2", t, s) @ sg.J12
            grid = max(grid, float(np.max(np.abs(lhs - sg.abelian_flow("L2", -t, -s)))))
    _check("3c j12-conjugation of the L2 flow on a 5x5 grid", grid, 1e-10)


# -- criterion 4: wedge suite -----------------------------------------------------------

def test_criterion_04_wedges():
    rng = np.random.default_rng(1004)
    w0 = wd.Wedge.reference()
    frames = sg.random_proper_lorentz(rng, count=400).reshape(200, 2, 5, 5)
    witnesses, _ = wd.rigidity_witnesses(frames[:, 0], frames[:, 1])
    missing = 0
    for (f1, f2), x in zip(frames, witnesses):
        w1, w2 = wd.Wedge(f1), wd.Wedge(f2)
        assert not wd.wedges_equal(w1, w2)
        if np.isnan(x).any() or not wd.wedge_contains(w1, x) or wd.wedge_contains(w2, x):
            missing += 1
    _check("4a rigidity witness for 200 distinct pairs", float(missing), 0.0)

    sample = wd.sample_wedge_points(w0, 300, seed=1004).points
    boosted = (sg.boost_base(0.4) @ sample.T).T
    mism = sum(1 for x in boosted if not wd.wedge_contains(w0, x))
    comp = wd.causal_complement(w0)
    reflected = (sg.reflection_base() @ sample.T).T
    mism += sum(1 for x in reflected if not wd.wedge_contains(comp, x))
    _check("4b boost/reflection membership covariance exact", float(mism), 0.0)


# -- criterion 5: CAR suite ----------------------------------------------------------------

def test_criterion_05_car():
    rng = np.random.default_rng(1005)
    car = 0.0
    norm = 0.0
    for _ in range(200):
        f, g = _rand_vec(rng, 8), _rand_vec(rng, 8)
        bf, bg = field_operator(MODEL, f), field_operator(MODEL, g)
        target = complex(np.vdot(MODEL.apply_conjugation(f), g)) * identity_op(MODEL)
        car = max(car, (bf @ bg + bg @ bf).dist(target))
        norm = max(norm, abs(bf.norm() - car_norm_bound(MODEL, f)))
    _check("5a anticommutation relations on 200 pairs", car, 1e-12)
    _check("5b operator-norm formula on 200 vectors", norm, 1e-9)
    s_fock = MODEL.basis_projection()
    quasi = 0.0
    for length in range(1, 7):
        for _ in range(12):
            fs = [_rand_vec(rng, 8) / 2.0 for _ in range(length)]
            quasi = max(quasi, abs(quasifree_npoint(MODEL, s_fock, fs)
                                   - fock_npoint(MODEL, fs)))
    _check("5c quasifree 2n-point matches Fock to length 6", quasi, 1e-10)


# -- criterion 6: deformation suite ------------------------------------------------------------

def test_criterion_06_deformation():
    rng = np.random.default_rng(1006)
    zero = 0.0
    for _ in range(10):
        op = _rand_op(rng)
        zero = max(zero, float(np.max(np.abs(warp(MODEL, 0.0, op).matrix - op.matrix))))
    _check("6a warp at kappa = 0 is the identity map", zero, 0.0)

    kappa = 0.6
    adjoint = homom = 0.0
    for _ in range(100):
        f, g = _rand_op(rng), _rand_op(rng)
        adjoint = max(adjoint, warp(MODEL, kappa, f).H.dist(warp(MODEL, kappa, f.H)))
        homom = max(homom, (warp(MODEL, kappa, f) @ warp(MODEL, kappa, g)).dist(
            warp(MODEL, kappa, rieffel_product(MODEL, kappa, f, g))))
    _check("6b adjoint compatibility of the warp", adjoint, 1e-10)
    _check("6c warp is a homomorphism onto the deformed product", homom, 1e-10)

    gens0 = [field_operator(MODEL, v) for v in wedge_subalgebra_basis(MODEL, "W0")]
    gens1 = [field_operator(MODEL, v) for v in wedge_subalgebra_basis(MODEL, "W0p")]
    z = FockOperator(np.diag(twist_phases(MODEL)), MODEL)
    commutant = twisted = 0.0
    for _ in range(100):
        a = gens0[int(rng.integers(4))] @ gens0[int(rng.integers(4))]
        b = gens1[int(rng.integers(4))] @ gens1[int(rng.integers(4))]
        wf, wg = warp(MODEL, kappa, a), warp(MODEL, -kappa, b)
        commutant = max(commutant, (wf @ wg - wg @ wf).norm())
        fo, go = gens0[int(rng.integers(4))], gens1[int(rng.integers(4))]
        zf = z @ warp(MODEL, kappa, fo) @ z.H
        wgo = warp(MODEL, -kappa, go)
        twisted = max(twisted, (zf @ wgo - wgo @ zf).norm())
    _check("6d opposite-sign deformations commute", commutant, 1e-10)
    _check("6e twisted variant of the commutant property", twisted, 1e-10)

    conj = 0.0
    for x in (FockOperator(np.diag(gauge_phases(MODEL, 0.8)), MODEL),
              FockOperator(np.diag(boost_phases(MODEL, -1.2)), MODEL)):
        for _ in range(50):
            op = _rand_op(rng)
            conj = max(conj, (x @ warp(MODEL, kappa, op) @ x.H).dist(
                warp(MODEL, kappa, x @ op @ x.H)))
    _check("6f conjugation by flow unitaries passes through the warp", conj, 1e-10)

    omega = MODEL.vacuum()
    vacuum = inverse = assoc = 0.0
    for _ in range(100):
        op = _rand_op(rng)
        vacuum = max(vacuum, float(np.linalg.norm(
            (warp(MODEL, kappa, op).matrix - op.matrix) @ omega)))
        inverse = max(inverse, warp_inverse_check(MODEL, kappa, op))
    for _ in range(20):
        f, g, h = _rand_op(rng), _rand_op(rng), _rand_op(rng)
        assoc = max(assoc, rieffel_product(
            MODEL, kappa, rieffel_product(MODEL, kappa, f, g), h).dist(
            rieffel_product(MODEL, kappa, f, rieffel_product(MODEL, kappa, g, h))))
    _check("6g vacuum invariance", vacuum, 1e-12)
    _check("6h warp inverse", inverse, 1e-12)
    _check("6i Rieffel associativity", assoc, 1e-10)


# -- criterion 7: oracle suite ----------------------------------------------------------------

def test_criterion_07_oracle():
    kappa = 0.5
    f = np.zeros(8)
    f[4 + 2] = 1.0                  # the spinor B(0 (+) e_2)
    word = field_word(MODEL, f)
    epsilons = [0.1, 0.05, 0.025]
    for cutoff in ("gaussian", "cosine"):
        residuals = oracle_residuals(MODEL, kappa, word, epsilons, cutoff)
        monotone = 0.0 if residuals[0] > residuals[1] > residuals[2] else 1.0
        _check(f"7a {cutoff} cutoff monotone decay", monotone, 0.0)
        _check(f"7b {cutoff} cutoff residual at eps = 0.025", residuals[-1], 1e-3)


# -- criterion 8: deformed twisted locality -----------------------------------------------------

def test_criterion_08_twisted_locality():
    worst = 0.0
    for kappa in (1.0, -1.0, 0.5, -0.5, 0.1, -0.1):
        report = check_twisted_locality(MODEL, kappa, degree=4, seed=1008,
                                        n_samples=16)
        worst = max(worst, report.max_residual)
    _check("8a deformed twisted locality over the kappa grid", worst, 1e-10)
    negative = check_twisted_locality(MODEL, 0.5, degree=2, seed=1008,
                                      n_samples=16, flip_kappa=False)
    _check("8b negative control (missing kappa flip) exceeds 1e-2",
           0.0 if negative.max_residual > 1e-2 else 1.0, 0.0)


# -- criterion 9: fixed points -------------------------------------------------------------------

def test_criterion_09_fixed_points():
    rng = np.random.default_rng(1009)
    low, high = 1e-8, 1e-6
    bad = 0
    for idx in range(100):
        if idx % 2 == 0:
            op = FockOperator(np.diag(rng.standard_normal(MODEL.dim)
                                      + 1j * rng.standard_normal(MODEL.dim)), MODEL)
        else:
            op = FockOperator(_rand_op(rng).charge_shift(0), MODEL)
        sectors, derivative = dense_fixed_point_residual(MODEL, op)
        charged = max((r for n, r in sectors.items() if n != 0), default=0.0)
        if not ((charged < low and derivative < low)
                or (charged > high and derivative > high)):
            bad += 1
    _check("9a derivative/commutator equivalence on 100 operators", float(bad), 0.0)

    sectors, derivative = fixed_point_residual(MODEL, charge_projector(MODEL, 1))
    e1 = dense_op(MODEL, charge_projector(MODEL, 1))
    fixed = max(max(sectors.values()), derivative,
                warp(MODEL, 0.3, e1).dist(e1))
    _check("9b sector projector is a non-scalar fixed point", fixed, 1e-8)
    scalar_dist = e1.dist(identity_op(MODEL) * (np.trace(e1.matrix) / MODEL.dim))
    _check("9b' projector is not scalar (must exceed 0.1)",
           0.0 if scalar_dist > 0.1 else 1.0, 0.0)


# -- criterion 10: unitary inequivalence witness -----------------------------------------------

def test_criterion_10_inequivalence():
    zero = 0.0
    for kappa, phi in ((0.0, np.pi / 4), (1.0, 0.0), (0.0, 0.0)):
        zero = max(zero, *inequivalence_witness(MODEL, kappa, phi))
    _check("10a witness vanishes when kappa*phi = 0", zero, 1e-12)
    group_res, fock_res = inequivalence_witness(MODEL, 1.0, np.pi / 4)
    _check("10b witness exceeds 0.1 at (kappa, phi) = (1, pi/4)",
           0.0 if min(group_res, fock_res) > 0.1 else 1.0, 0.0)
