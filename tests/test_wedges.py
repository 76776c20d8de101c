import numpy as np
import pytest

from dswarp import geometry as geo
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


def _confirmed_witness(w1, w2):
    """The built witness of (w1, w2) if wedge_contains confirms it, else None."""
    x, _ = wd.rigidity_witnesses(w1.frame, w2.frame)
    if not np.isnan(x).any() and wd.wedge_contains(w1, x) and not wd.wedge_contains(w2, x):
        return x
    return None


def test_rigidity_probe_equal_and_disjoint():
    assert np.isnan(wd.rigidity_witnesses(W0.frame, W0.frame)[0]).all()
    comp = wd.causal_complement(W0)
    assert _confirmed_witness(W0, comp) is not None


def test_rigidity_probe_rotated():
    assert _confirmed_witness(W0, wd.Wedge(sg.rotation_base(0.3))) is not None


def test_rigidity_witness_near_equal_rotation():
    # a 1e-5 rotation in the x1-x2 plane: W0 minus its image is a thin sliver,
    # which 100,000 hyperboloid samples used to miss
    rotated = wd.Wedge(sg.rotation_base(1e-5))
    assert not wd.wedges_equal(W0, rotated)
    assert _confirmed_witness(W0, rotated) is not None
    assert _confirmed_witness(rotated, W0) is not None
    # random frames moved by exp(1e-7 X) for a random X in so(1,4)
    rng = np.random.default_rng(8)
    for frame in sg.random_proper_lorentz(rng, count=20):
        moved = frame @ sg.random_proper_lorentz(rng, scale=1e-7)
        w1, w2 = wd.Wedge(frame), wd.Wedge(moved)
        assert not wd.wedges_equal(w1, w2)
        assert _confirmed_witness(w1, w2) is not None


def test_rigidity_witness_none_for_stabilizer_images():
    rot_edge = np.eye(5)
    rot_edge[2:, 2:] = sg.rotation_base(0.8, 1, 2)[1:4, 1:4]     # SO(3) on the edge
    for frame in (sg.boost_base(0.6), rot_edge, sg.boost_base(-0.3) @ rot_edge):
        assert wd.wedges_equal(wd.Wedge(frame), W0)
        assert np.isnan(wd.rigidity_witnesses(W0.frame, frame)[0]).all()
        assert np.isnan(wd.rigidity_witnesses(frame, W0.frame)[0]).all()


def test_rigidity_witness_for_boosted_complement():
    # W2 = W0' boosted: W2's functionals are negative multiples of W0's, but
    # not -1 times them, so the system is rank 2 and inconsistent as written
    boosted_comp = wd.Wedge(sg.boost_base(0.6) @ sg.reflection_base())
    assert _confirmed_witness(W0, boosted_comp) is not None


def test_rigidity_random_pairs():
    rng = np.random.default_rng(21)
    frames = sg.random_proper_lorentz(rng, count=80)
    points, margins = wd.rigidity_witnesses(frames[0::2], frames[1::2])
    for f1, f2, x, margin in zip(frames[0::2], frames[1::2], points, margins):
        w1, w2 = wd.Wedge(f1), wd.Wedge(f2)
        assert not wd.wedges_equal(w1, w2)
        assert margin > 0.05
        assert wd.wedge_contains(w1, x) and not wd.wedge_contains(w2, x)
        assert abs(geo.minkowski_form(x, x) + 1.0) <= 1e-12


def test_rigidity_witnesses_stacked_equal_single():
    rng = np.random.default_rng(5)
    frames = sg.random_proper_lorentz(rng, count=24).reshape(3, 4, 2, 5, 5)
    points, margins = wd.rigidity_witnesses(frames[..., 0, :, :], frames[..., 1, :, :])
    assert points.shape == (3, 4, 5) and margins.shape == (3, 4)
    for idx in np.ndindex(3, 4):
        x, margin = wd.rigidity_witnesses(frames[idx][0], frames[idx][1])
        assert np.array_equal(x, points[idx], equal_nan=True) and margin == margins[idx]


def test_wedge_stack_validates_every_frame():
    frames = sg.random_proper_lorentz(np.random.default_rng(2), count=3)
    assert [np.array_equal(w.frame, f) for w, f in zip(wd.Wedge.stack(frames), frames)] \
        == [True] * 3
    frames[1, 0, 0] = -frames[1, 0, 0]
    with pytest.raises(ValueError):
        wd.Wedge.stack(frames)
