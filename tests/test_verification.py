import numpy as np
import pytest

from dswarp.car_fock import (FockOperator, charge_projector, default_model,
                             gauge_unitary, identity_op)
from dswarp.deformation import DeformationContext, warp
from dswarp.verification import (CheckReport, build_net, causal_borchers_axioms,
                                 check_twisted_locality, fixed_point_residual,
                                 inequivalence_witness, net_well_defined_residual,
                                 span_basis, span_residual, wedge_monomials)

MODEL = default_model()


def test_check_report_pass_semantics():
    assert CheckReport("x", 1e-12, 1e-10).passed
    assert not CheckReport("x", 1e-8, 1e-10).passed
    d = CheckReport("x", 0.5, 1.0, {"k": 1}).as_dict()
    assert d["pass"] and d["metadata"] == {"k": 1}


def test_span_machinery():
    rng = np.random.default_rng(70)
    mats = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            for _ in range(3)]
    basis = span_basis(mats)
    assert basis.shape[0] == 3
    combo = 0.3j * mats[0] - 1.7 * mats[2]
    assert span_residual(basis, [combo]) < 1e-12
    outside = rng.standard_normal((4, 4))
    assert span_residual(basis, [outside]) > 1e-2


def test_build_net_undeformed_matches_monomials():
    net = build_net(MODEL, 0.0, degree=2)
    raw = wedge_monomials(MODEL, "W0", 2)
    assert span_residual(net.spans["W0"], raw) < 1e-12


def test_build_net_deformed_spans_are_flow_invariant():
    from dswarp.car_fock import boost_unitary
    net = build_net(MODEL, 0.5, degree=2)
    u = boost_unitary(MODEL, 0.8).matrix
    conj = [u @ m @ u.conj().T for m in net.generators["W0"]]
    assert span_residual(net.spans["W0"], conj) < 1e-10
    v = gauge_unitary(MODEL, 1.3).matrix
    conj = [v @ m @ v.conj().T for m in net.generators["W0"]]
    assert span_residual(net.spans["W0"], conj) < 1e-10


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
    ctx = DeformationContext(MODEL, 0.3)
    assert warp(ctx, e1).dist(e1) == 0.0
    assert e1.dist(identity_op(MODEL) * (np.trace(e1.matrix) / MODEL.dim)) > 0.1


def test_fixed_point_rejects_charged_operator():
    ops = MODEL.annihilators()
    with pytest.raises(ValueError):
        fixed_point_residual(MODEL, FockOperator(ops[0], MODEL))


def test_fixed_point_cross_frequency_mover():
    ops = MODEL.annihilators()
    mover = FockOperator(ops[0].conj().T @ ops[1], MODEL)
    sectors, derivative = fixed_point_residual(MODEL, mover)
    assert derivative > 1e-6
    assert max(r for n, r in sectors.items() if n != 0) > 1e-6
    ctx = DeformationContext(MODEL, 0.3)
    assert warp(ctx, mover).dist(mover) > 1e-3


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
