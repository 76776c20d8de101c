import numpy as np
import pytest

from dswarp import spin_group as sg
from dswarp import wedges as wd

W0 = wd.Wedge.reference()
E1 = np.array([0.0, 1.0, 0.0, 0.0, 0.0])


def test_reference_membership():
    assert wd.wedge_contains(W0, E1)
    assert not wd.wedge_contains(W0, -E1)


def test_membership_rejects_off_shell():
    with pytest.raises(wd.OffShellPointError):
        wd.wedge_contains(W0, [0.0, 2.0, 0.0, 0.0, 0.0])


def test_boost_preserves_reference_wedge():
    sample = wd.sample_wedge_points(W0, 500, seed=3)
    boosted = (sg.boost_base(0.4) @ sample.points.T).T
    assert all(wd.wedge_contains(W0, x) for x in boosted)


def test_frame_is_validated():
    with pytest.raises(ValueError):
        wd.Wedge(np.diag([1.0, -1.0, 1.0, 1.0, 1.0]))


def test_complement_involution_and_interior():
    comp = wd.causal_complement(W0)
    assert wd.wedges_equal(wd.causal_complement(comp), W0)
    assert wd.wedge_contains(comp, -E1)
    assert not wd.wedge_contains(comp, E1)


def test_reflection_maps_wedge_to_complement():
    sample = wd.sample_wedge_points(W0, 200, seed=4)
    comp = wd.causal_complement(W0)
    reflected = (sg.reflection_base() @ sample.points.T).T
    assert all(wd.wedge_contains(comp, x) for x in reflected)


def test_j12_maps_wedge_to_complement():
    sample = wd.sample_wedge_points(W0, 200, seed=5)
    comp = wd.causal_complement(W0)
    flipped = (sg.J12 @ sample.points.T).T
    assert all(wd.wedge_contains(comp, x) for x in flipped)


def test_complement_is_spacelike():
    a = wd.sample_wedge_points(W0, 60, seed=6).points
    b = wd.sample_wedge_points(wd.causal_complement(W0), 60, seed=7).points
    for x in a:
        for y in b:
            assert wd.spacelike_separated(x, y)


def test_membership_covariance():
    rng = np.random.default_rng(8)
    sample = wd.sample_wedge_points(W0, 100, seed=9).points
    outside = -sample
    for _ in range(5):
        g = sg.random_proper_lorentz(rng)
        moved = wd.Wedge(g)
        for x in np.vstack([sample[:20], outside[:20]]):
            gx = g @ x
            assert wd.wedge_contains(moved, gx) == wd.wedge_contains(W0, x)


def edge_points(w: wd.Wedge, n: int, seed: int = 0) -> wd.RegionSample:
    """n points on the wedge edge: the frame image of {x0 = x1 = 0, |vec x| = 1}."""
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=(n, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    pts = np.zeros((n, 5))
    pts[:, 2:] = direction
    return wd.RegionSample((w.frame @ pts.T).T, seed)


def test_edge_points():
    pts = edge_points(W0, 50, seed=10).points
    assert np.max(np.abs(pts[:, 0])) == 0.0
    assert np.max(np.abs(pts[:, 1])) == 0.0
    np.testing.assert_allclose(np.linalg.norm(pts[:, 2:], axis=1), 1.0, atol=1e-12)
    # edge is fixed by the wedge boost
    boosted = (sg.boost_base(1.1) @ pts.T).T
    np.testing.assert_allclose(boosted, pts, atol=1e-12)


def test_edge_covariance():
    rng = np.random.default_rng(11)
    g = sg.random_proper_lorentz(rng)
    moved = wd.Wedge(g)
    np.testing.assert_allclose(edge_points(moved, 20, seed=12).points,
                               (g @ edge_points(W0, 20, seed=12).points.T).T,
                               atol=1e-12)


def test_wedge_equality_via_stabilizer():
    lamb = wd.Wedge(sg.boost_base(0.6))
    assert wd.wedges_equal(lamb, W0)
    rot_edge = np.eye(5)
    rot_edge[2:, 2:] = sg.rotation_base(0.8, 1, 2)[1:4, 1:4]  # SO(3) block
    assert wd.wedges_equal(wd.Wedge(rot_edge), W0)
    assert not wd.wedges_equal(wd.Wedge(sg.rotation_base(0.3)), W0)


def test_rigidity_probe_equal_and_disjoint():
    assert wd.inclusion_rigidity_probe(W0, W0).verdict == "EQUAL"
    comp = wd.causal_complement(W0)
    probe = wd.inclusion_rigidity_probe(W0, comp, seed=1)
    assert probe.verdict == "WITNESS"
    assert wd.wedge_contains(W0, probe.witness)
    assert not wd.wedge_contains(comp, probe.witness)


def test_rigidity_probe_rotated():
    rotated = wd.Wedge(sg.rotation_base(0.3))
    probe = wd.inclusion_rigidity_probe(W0, rotated, seed=2)
    assert probe.verdict == "WITNESS"


def test_rigidity_random_pairs():
    rng = np.random.default_rng(21)
    for idx in range(40):
        w1 = wd.Wedge(sg.random_proper_lorentz(rng))
        w2 = wd.Wedge(sg.random_proper_lorentz(rng))
        if wd.wedges_equal(w1, w2):
            continue
        probe = wd.inclusion_rigidity_probe(w1, w2, seed=idx)
        assert probe.verdict == "WITNESS"
