"""The wedge family on the de Sitter hyperboloid.

A wedge is g*W0 for proper orthochronous g, with W0 = {x^1 > |x^0|} on the
hyperboloid.  Wedge equality is decided through the stabilizer of W0, which
is exactly (boosts in the 01 plane) x SO(3) acting on the edge directions,
so the test is a block-structure check on frame2^-1 @ frame1.  gW0 is also
the intersection of two half-spaces with null normals, {l+ > 0, l- > 0},
and rigidity_witnesses builds a point of one wedge outside another from them.

A Wedge holds one frame or a (..., 5, 5) stack of them.  wedge_contains,
wedges_equal and stabilizes_reference give one verdict per frame or pair of
a stack, each computed as for that one alone, and a bool for a single one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import minkowski_form, sample_hyperboloid
from .spin_group import is_proper_orthochronous, reflection_base

MEMBERSHIP_MARGIN = 1e-12
ON_SHELL_TOL = 1e-6
SAMPLE_MAX_TRIALS = 200_000

_J5 = reflection_base()


class OffShellPointError(ValueError):
    """Point is not on the hyperboloid within tolerance."""


@dataclass(frozen=True)
class Wedge:
    """gW0 for the frame g, or one wedge per frame of a (..., 5, 5) stack,
    each frame checked to be proper orthochronous; indexing picks frames."""

    frame: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frame, dtype=float)
        if f.shape[-2:] != (5, 5) or not np.all(is_proper_orthochronous(f)):
            raise ValueError("wedge frames must be proper orthochronous 5x5")
        object.__setattr__(self, "frame", f)

    def __getitem__(self, index) -> "Wedge":
        return Wedge(self.frame[index])

    @staticmethod
    def reference() -> "Wedge":
        return Wedge(np.eye(5))


def _check_on_shell(x) -> np.ndarray:
    """The points as a float array (..., 5), each checked to lie on the hyperboloid."""
    x = np.asarray(x, dtype=float)
    defect = np.max(np.abs(minkowski_form(x, x) + 1.0), initial=0.0)
    if not defect <= ON_SHELL_TOL:
        raise OffShellPointError(f"|eta(x,x)+1| = {defect:.3e}")
    return x


def _inside(w: Wedge, x: np.ndarray, margin: float) -> np.ndarray:
    """y1 - |y0| > margin for y = frame^-1 x, per point of x (..., 5); the
    frames of a stack broadcast against the points.  On a C-contiguous x,
    einsum sums each point's y on its own, so a verdict does not depend on
    how many points or frames come with it."""
    inv = np.linalg.inv(w.frame)[..., :2, :]
    y = np.einsum("...ij,...j->...i", inv, np.ascontiguousarray(x))
    return y[..., 1] - np.abs(y[..., 0]) > margin


def wedge_contains(w: Wedge, x):
    """True iff y = frame^-1 x satisfies y1 > |y0| + MEMBERSHIP_MARGIN.

    x is one point (5,) or a batch (..., 5), and w one wedge or a stack
    whose frames broadcast against the points; a batch gives one verdict per
    point, equal to the single-pair one bit for bit.
    """
    inside = _inside(w, _check_on_shell(x), MEMBERSHIP_MARGIN)
    return bool(inside) if inside.ndim == 0 else inside


def causal_complement(w: Wedge) -> Wedge:
    """The opposite wedge gW0' = (g j_W0) W0."""
    return Wedge(w.frame @ _J5)


def stabilizes_reference(h: np.ndarray, tol: float = 1e-8) -> bool | np.ndarray:
    """h in (01-boosts) x SO(3): block-diagonal with a symmetric unit boost
    block; one verdict per matrix of a (..., 5, 5) stack."""
    h = np.asarray(h, dtype=float)
    a, b = h[..., 0, 0], h[..., 0, 1]
    r = h[..., 2:5, 2:5]
    off_blocks = np.maximum(np.max(np.abs(h[..., 0:2, 2:5]), axis=(-2, -1)),
                            np.max(np.abs(h[..., 2:5, 0:2]), axis=(-2, -1)))
    ok = ((off_blocks <= tol) & (np.abs(h[..., 1, 0] - b) <= tol)
          & (np.abs(h[..., 1, 1] - a) <= tol) & (np.abs(a * a - b * b - 1.0) <= tol)
          & (a >= 1.0 - tol)
          & (np.max(np.abs(np.swapaxes(r, -1, -2) @ r - np.eye(3)), axis=(-2, -1)) <= tol)
          & (np.abs(np.linalg.det(r) - 1.0) <= tol))
    return bool(ok) if ok.ndim == 0 else ok


def wedges_equal(w1: Wedge, w2: Wedge, tol: float = 1e-8) -> bool | np.ndarray:
    """w1 = w2, decided on frame2^-1 frame1, per pair of broadcast frames."""
    return stabilizes_reference(np.linalg.solve(w2.frame, w1.frame), tol)


@dataclass(frozen=True)
class RegionSample:
    """Seeded hyperboloid points inside one region."""

    points: np.ndarray
    seed: int


def sample_wedge_points(w: Wedge, n: int, seed: int) -> RegionSample:
    """n interior points of w (one frame), rejection-sampled from the seeded patch."""
    rng = np.random.default_rng(seed)
    collected = []
    total = 0
    needed = n
    while needed > 0 and total < SAMPLE_MAX_TRIALS:
        batch = max(4 * needed, 256)
        pts = sample_hyperboloid(batch, rng)
        total += batch
        hits = pts[_inside(w, pts, MEMBERSHIP_MARGIN)]
        if hits.size:
            collected.append(hits[:needed])
            needed -= len(collected[-1])
    if needed > 0:
        raise RuntimeError(f"could not sample {n} wedge points in {SAMPLE_MAX_TRIALS} trials")
    return RegionSample(np.vstack(collected), seed)


def spacelike_separated(x, y):
    """eta(x - y, x - y) < 0, broadcast over (..., 5) point batches.

    Every point must lie on the hyperboloid.
    """
    d = _check_on_shell(x) - _check_on_shell(y)
    spacelike = np.asarray(minkowski_form(d, d)) < 0.0
    return bool(spacelike) if spacelike.ndim == 0 else spacelike


# Singular values of the witness system below this share of its largest are
# taken as zero: the third functional is then parallel to one of W1's.
WITNESS_RANK_RTOL = 1e-12
_WITNESS_RHS = np.array([1.0, 1.0, -1.0])


def _null_functionals(frames: np.ndarray) -> np.ndarray:
    """The rows l+ and l- of (..., 2, 5), l+-(x) = (g^-1 x)_1 +- (g^-1 x)_0, so that
    gW0 = {l+ > 0, l- > 0}."""
    inv = np.linalg.inv(frames)
    return np.stack([inv[..., 1, :] + inv[..., 0, :], inv[..., 1, :] - inv[..., 0, :]], -2)


def rigidity_witnesses(frames1, frames2) -> tuple[np.ndarray, np.ndarray]:
    """A hyperboloid point of g1 W0 outside g2 W0, for each pair of (..., 5, 5) frames.

    Distinct wedges never properly include one another (Borchers and Buchholz,
    Ann. Inst. H. Poincare 70 (1999)), and the point is built, not searched
    for.  For each functional c of W2 (l2+ or l2-), solve l1+ = 1, l1- = 1,
    c = -1 by SVD (minimum norm x, singular values below WITNESS_RANK_RTOL
    dropped), add s k for a kernel vector k, so that -eta(x, x) = N =
    max(1, |x|^2), and scale x onto the hyperboloid.  The kernel is
    eta-orthogonal to the Lorentzian plane of W1's two null normals, so
    eta(k, k) < 0 and s exists; N >= |x|^2 keeps the point's coordinates of
    order one.  Of the two choices, the pair keeps the one with the larger
    margin, min(y1 - |y0| in W1, -(y1 - |y0|) in W2).

    Returns the points (..., 5) and their margins (...).  Where the margin is
    not above MEMBERSHIP_MARGIN no witness was built and the point is NaN: so
    it is for equal wedges, whose functionals are positive multiples of one
    another, and whose margin is 0 up to rounding.  The construction never
    calls wedge_contains, so a caller can confirm the points with it.
    """
    frames1 = np.asarray(frames1, dtype=float)
    frames2 = np.asarray(frames2, dtype=float)
    l1 = _null_functionals(frames1)[..., None, :, :]                  # (..., 1, 2, 5)
    l2 = _null_functionals(frames2)
    systems = np.concatenate([np.broadcast_to(l1, l2.shape[:-2] + (2, 2, 5)),
                              l2[..., :, None, :]], axis=-2)          # (..., 2, 3, 5)
    u, sv, vt = np.linalg.svd(systems)
    keep = sv > WITNESS_RANK_RTOL * sv[..., :1]
    coeff = np.where(keep, np.einsum("...ji,j->...i", u, _WITNESS_RHS)
                     / np.where(keep, sv, 1.0), 0.0)
    x = np.einsum("...i,...ij->...j", coeff, vt[..., :3, :])
    k = vt[..., 3, :]
    # -eta(x + s k, x + s k) = n_x + 2 s beta + s^2 a, a > 0, and N >= n_x
    a = -minkowski_form(k, k)
    beta = -minkowski_form(x, k)
    n_x = -minkowski_form(x, x)
    target = np.maximum(1.0, np.sum(x * x, axis=-1))
    s = (np.sqrt(beta * beta + a * (target - n_x)) - beta) / a
    x = x + s[..., None] * k
    points = x / np.sqrt(-minkowski_form(x, x))[..., None]
    in_w1 = np.min(np.einsum("...ij,...j->...i", l1, points), axis=-1)
    out_w2 = -np.min(np.einsum("...ij,...j->...i", l2[..., None, :, :], points), axis=-1)
    margins = np.minimum(in_w1, out_w2)
    best = np.argmax(margins, axis=-1)[..., None]
    margins = np.take_along_axis(margins, best, axis=-1)[..., 0]
    points = np.take_along_axis(points, best[..., None], axis=-2)[..., 0, :]
    return np.where((margins > MEMBERSHIP_MARGIN)[..., None], points, np.nan), margins
