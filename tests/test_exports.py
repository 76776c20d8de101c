import dswarp
import pytest

# Names removed from the program: replaced by the array, phase-vector and block
# paths, by the per-entry fixed-point statement or by the unit-field Bogolyubov
# check, or moved into the tests as oracles.
REMOVED = ["Quaternion", "Q_ZERO", "Q_ONE", "Q_E1", "Q_E2", "Q_E3", "annihilation_ops",
           "gauge_unitary", "boost_unitary", "twist_Z", "grading_Y", "charge_operator",
           "random_spin_word", "THETA", "DeformationContext", "unwarp",
           "rieffel_product", "warp_inverse_check", "identity_op",
           "deformation_derivative_at_zero", "sector_norms", "conjugate_by_diagonal",
           "reflection_fock", "rotation_cover", "field_anticommutator",
           "rotation_covariance", "inclusion_rigidity_probe", "ProbeResult",
           "second_quantize", "rotation_fock", "bogolyubov_fock", "warp_rotated",
           "validate_report_schema", "_random_sector_blocks", "_sector_weights",
           "_bound_weights", "sector_fixed_point_residual", "fixed_point_bounds",
           "fixed_point_consistent", "sector_layout", "block_sector_norms",
           "FockOperator", "operator_norm", "spinor", "cospinor", "warp", "angle_matrix",
           "lowering_blocks"]


@pytest.mark.parametrize("name", dswarp.__all__)
def test_exported_name_resolves(name):
    assert getattr(dswarp, name) is not None


def test_removed_names_are_not_exported():
    from dswarp import (car_fock, cli, deformation, quaternion, spin_group, verification,
                        wedges)
    assert not set(REMOVED) & set(dswarp.__all__)
    for module in (dswarp, car_fock, cli, deformation, quaternion, spin_group, verification,
                   wedges):
        assert not [n for n in REMOVED if hasattr(module, n)], module.__name__
    for attr in ("annihilators", "gauge_one_particle", "boost_one_particle", "charge_values"):
        assert not hasattr(car_fock.OneParticleModel, attr)
    assert not hasattr(quaternion.QuatMatrix2, "entries")
