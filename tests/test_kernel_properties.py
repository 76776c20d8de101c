"""Property tests: the array-backed quaternion kernel and its batched callers.

The oracle is the per-scalar Hamilton product on Python floats, and the
sequential one-word-at-a-time construction of random Sp(1,1) words built on
it.  Every batched call must equal its per-element results exactly, and a
batch with a single bad element must still be refused.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dswarp import geometry as geo
from dswarp import spin_group as sg
from dswarp import wedges as wd
from dswarp.quaternion import QuatMatrix2, qmul

PROPERTY = settings(max_examples=40, deadline=None)

coefficient = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
quaternion = st.tuples(coefficient, coefficient, coefficient, coefficient)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
batch_sizes = st.integers(min_value=1, max_value=12)


def oracle_qmul(a, b):
    """Hamilton product of two (w, x, y, z) tuples of Python floats."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw)


def oracle_qmatmul(a, b):
    """Product of 2x2 quaternionic matrices given as (2, 2, 4) nested lists."""
    def entry(i, j):
        left = oracle_qmul(a[i][0], b[0][j])
        right = oracle_qmul(a[i][1], b[1][j])
        return tuple(p + q for p, q in zip(left, right))
    return [[entry(i, j) for j in range(2)] for i in range(2)]


def oracle_spin_word(rng, max_len=4):
    """One random word, drawn and multiplied letter by letter with the oracle."""
    g = QuatMatrix2.identity().array.tolist()
    reflection = sg.reflection_cover().matrix.array.tolist()
    for _ in range(int(rng.integers(1, max_len + 1))):
        if rng.random() < 0.5:
            t = float(rng.uniform(-0.3, 0.3))
            c, s = float(np.cosh(np.pi * t)), float(-np.sinh(np.pi * t))
            letter = [[(c, 0.0, 0.0, 0.0), (s, 0.0, 0.0, 0.0)],
                      [(s, 0.0, 0.0, 0.0), (c, 0.0, 0.0, 0.0)]]
        else:
            letter = reflection
        g = oracle_qmatmul(g, letter)
    return np.array(g)


def hyperboloid_points(seed, n):
    return geo.sample_hyperboloid(n, np.random.default_rng(seed))


@PROPERTY
@given(st.lists(st.tuples(quaternion, quaternion), min_size=1, max_size=10))
def test_batched_product_equals_oracle(pairs):
    a = np.array([p for p, _ in pairs])
    b = np.array([q for _, q in pairs])
    batched = qmul(a, b)
    for row, (p, q) in zip(batched, pairs):
        assert tuple(row) == oracle_qmul(p, q)
    # broadcasting: one quaternion against the whole batch
    assert np.array_equal(qmul(a[:1], b), np.array([oracle_qmul(pairs[0][0], q)
                                                    for _, q in pairs]))


@PROPERTY
@given(st.lists(st.tuples(*[quaternion] * 8), min_size=1, max_size=6))
def test_batched_matrix_product_equals_oracle(entries):
    arrays = np.array(entries).reshape(len(entries), 2, 2, 2, 4)
    a, b = QuatMatrix2(arrays[:, 0]), QuatMatrix2(arrays[:, 1])
    batched = (a @ b).array
    for k in range(len(entries)):
        expected = oracle_qmatmul(arrays[k, 0].tolist(), arrays[k, 1].tolist())
        assert np.array_equal(batched[k], np.array(expected))


@PROPERTY
@given(seeds, batch_sizes)
def test_batched_geometry_equals_per_point(seed, n):
    points = hyperboloid_points(seed, n)
    embedded = geo.embed_point(points)
    extracted = geo.extract_point(embedded)
    residuals = geo.eta_identity_residual(points)
    assert embedded.batch_shape == (n,) and extracted.shape == (n, 5)
    for k, x in enumerate(points):
        single = geo.embed_point(x)
        assert np.array_equal(embedded.array[k], single.array)
        assert np.array_equal(extracted[k], geo.extract_point(single))
        assert residuals[k] == geo.eta_identity_residual(x)


@PROPERTY
@given(seeds, batch_sizes)
def test_random_spin_words_match_sequential_draws(seed, n):
    batch_rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    single_rng = np.random.default_rng(seed)
    words = sg.random_spin_words(batch_rng, n)
    assert len(words) == n
    for k in range(n):
        assert np.array_equal(words[k].matrix.array, oracle_spin_word(oracle_rng))
        assert np.array_equal(sg.random_spin_words(single_rng, 1).matrix.array[0],
                              words[k].matrix.array)
    follow = batch_rng.random()
    assert follow == oracle_rng.random() == single_rng.random()


@PROPERTY
@given(seeds, batch_sizes)
def test_batched_covering_equals_per_element(seed, n):
    words = sg.random_spin_words(np.random.default_rng(seed), n)
    images = sg.covering_hom(words)
    assert images.shape == (n, 5, 5)
    for k in range(n):
        assert np.array_equal(images[k], sg.covering_hom(words[k]))
    assert np.array_equal(sg.covering_hom(-words), images)


@PROPERTY
@given(seeds, batch_sizes)
def test_batched_wedge_checks_equal_per_point(seed, n):
    rng = np.random.default_rng(seed)
    wedge = wd.Wedge(sg.random_proper_lorentz(rng))
    points = hyperboloid_points(seed, n)
    others = hyperboloid_points(seed + 1, n)
    inside = wd.wedge_contains(wedge, points)
    spacelike = wd.spacelike_separated(points[:, None, :], others[None, :, :])
    assert inside.shape == (n,) and spacelike.shape == (n, n)
    for i, x in enumerate(points):
        assert inside[i] == wd.wedge_contains(wedge, x)
        for j, y in enumerate(others):
            assert spacelike[i, j] == wd.spacelike_separated(x, y)


@settings(max_examples=25, deadline=None)
@given(seeds, seeds, st.integers(min_value=1, max_value=40))
def test_sampler_verdicts_equal_wedge_contains(frame_seed, seed, n):
    # Redraw the sampler's candidate batches from its seed and keep, in order,
    # the points that single-point wedge_contains calls accept.
    wedge = wd.Wedge(sg.random_proper_lorentz(np.random.default_rng(frame_seed)))
    rng = np.random.default_rng(seed)
    expected, needed = [], n
    while needed > 0:
        batch = geo.sample_hyperboloid(max(4 * needed, 256), rng)
        hits = [x for x in batch if wd.wedge_contains(wedge, x)][:needed]
        expected += hits
        needed -= len(hits)
    assert np.array_equal(wd.sample_wedge_points(wedge, n, seed).points, np.array(expected))


@PROPERTY
@given(seeds, batch_sizes, st.data())
def test_witness_verdicts_equal_wedge_contains(seed, n, data):
    # n pairs, some of them equal wedges (w1 moved by a stabilizer element):
    # a witness is built iff the wedges differ, wedge_contains confirms it,
    # and the stacked construction equals the per-pair one exactly
    rng = np.random.default_rng(seed)
    first = sg.random_proper_lorentz(rng, count=n)
    second = sg.random_proper_lorentz(rng, count=n)
    for i in data.draw(st.sets(st.integers(min_value=0, max_value=n - 1))):
        edge = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        edge[:, 0] *= np.linalg.det(edge)                    # into SO(3)
        stabilizer = sg.boost_base(rng.uniform(-0.5, 0.5))
        stabilizer[2:, 2:] = edge
        second[i] = first[i] @ stabilizer
    points, margins = wd.rigidity_witnesses(first, second)
    for f1, f2, x, margin in zip(first, second, points, margins):
        w1, w2 = wd.Wedge(f1), wd.Wedge(f2)
        built = not np.isnan(x).any()
        assert built == (not wd.wedges_equal(w1, w2))
        if built:
            assert wd.wedge_contains(w1, x) and not wd.wedge_contains(w2, x)
        single = wd.rigidity_witnesses(f1, f2)
        assert np.array_equal(single[0], x, equal_nan=True) and single[1] == margin


@PROPERTY
@given(seeds, batch_sizes, st.data())
def test_one_bad_point_refuses_the_batch(seed, n, data):
    points = hyperboloid_points(seed, n)
    bad = data.draw(st.integers(min_value=0, max_value=n - 1))
    points[bad, 0] += 0.5                       # now eta(x, x) != -1
    with pytest.raises(geo.OffHyperboloidError):
        geo.embed_point(points)
    with pytest.raises(wd.OffShellPointError):
        wd.wedge_contains(wd.Wedge.reference(), points)
    with pytest.raises(wd.OffShellPointError):
        wd.spacelike_separated(points, hyperboloid_points(seed + 1, n))
    embedded = geo.embed_point(hyperboloid_points(seed, n)).array.copy()
    embedded[bad, 0, 0, 1] += 1.0               # an e1 part no embedded point has
    with pytest.raises(geo.NonCoercibleMatrixError):
        geo.extract_point(QuatMatrix2(embedded))


@PROPERTY
@given(seeds, batch_sizes, st.data())
def test_one_non_group_element_refuses_the_batch(seed, n, data):
    words = sg.random_spin_words(np.random.default_rng(seed), n).matrix.array.copy()
    bad = data.draw(st.integers(min_value=0, max_value=n - 1))
    words[bad, 0, 1, 0] += 0.25                 # breaks g^* gamma0 g = gamma0
    with pytest.raises(sg.NotInSpinGroupError):
        sg.SpinElement(QuatMatrix2(words))
    images = sg.covering_hom(sg.random_spin_words(np.random.default_rng(seed), n))
    images[bad, 0, 0] = -images[bad, 0, 0]      # no longer orthochronous
    verdicts = sg.is_proper_orthochronous(images)
    assert not verdicts[bad] and verdicts.sum() == n - 1
