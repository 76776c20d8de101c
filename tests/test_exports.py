import dswarp
import pytest

# Names that were removed in favour of the array and phase-vector paths.
REMOVED = ["Quaternion", "Q_ZERO", "Q_ONE", "Q_E1", "Q_E2", "Q_E3", "annihilation_ops",
           "gauge_unitary", "boost_unitary", "twist_Z", "grading_Y", "charge_operator",
           "random_spin_word", "THETA", "DeformationContext", "unwarp"]


@pytest.mark.parametrize("name", dswarp.__all__)
def test_exported_name_resolves(name):
    assert getattr(dswarp, name) is not None


def test_removed_names_are_not_exported():
    from dswarp import car_fock, deformation, quaternion, spin_group
    assert not set(REMOVED) & set(dswarp.__all__)
    for module in (dswarp, car_fock, deformation, quaternion, spin_group):
        assert not [n for n in REMOVED if hasattr(module, n)], module.__name__
    for attr in ("annihilators", "gauge_one_particle", "boost_one_particle"):
        assert not hasattr(car_fock.OneParticleModel, attr)
    assert not hasattr(car_fock.FockOperator, "charge_shifts")
    assert not hasattr(quaternion.QuatMatrix2, "entries")
