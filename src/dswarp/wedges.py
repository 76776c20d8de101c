"""The wedge family on the de Sitter hyperboloid.

A wedge is g*W0 for proper orthochronous g, with W0 = {x^1 > |x^0|} on the
hyperboloid.  Wedge equality is decided through the stabilizer of W0, which
is exactly (boosts in the 01 plane) x SO(3) acting on the edge directions,
so the test is a block-structure check on frame2^-1 @ frame1.
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
    """gW0, represented by the transformation g (the frame)."""

    frame: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frame, dtype=float)
        if f.shape != (5, 5) or not is_proper_orthochronous(f):
            raise ValueError("wedge frame must be proper orthochronous 5x5")
        object.__setattr__(self, "frame", f)

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
    """y1 - |y0| > margin for y = frame^-1 x, per point of x (..., 5).  On a
    C-contiguous x, einsum sums each point's y on its own, so a verdict does
    not depend on how many points come with it."""
    inv = np.linalg.inv(w.frame)[:2]
    y = np.einsum("ij,...j->...i", inv, np.ascontiguousarray(x))
    return y[..., 1] - np.abs(y[..., 0]) > margin


def wedge_contains(w: Wedge, x):
    """True iff y = frame^-1 x satisfies y1 > |y0| + MEMBERSHIP_MARGIN.

    x is one point (5,) or a batch (..., 5); a batch gives one verdict per
    point, equal to the single-point one bit for bit.
    """
    inside = _inside(w, _check_on_shell(x), MEMBERSHIP_MARGIN)
    return bool(inside) if inside.ndim == 0 else inside


def causal_complement(w: Wedge) -> Wedge:
    """The opposite wedge gW0' = (g j_W0) W0."""
    return Wedge(w.frame @ _J5)


def stabilizes_reference(h: np.ndarray, tol: float = 1e-8) -> bool:
    """h in (01-boosts) x SO(3): block-diagonal with a symmetric unit boost block."""
    if np.max(np.abs(h[0:2, 2:5])) > tol or np.max(np.abs(h[2:5, 0:2])) > tol:
        return False
    a, b = h[0, 0], h[0, 1]
    if abs(h[1, 0] - b) > tol or abs(h[1, 1] - a) > tol:
        return False
    if abs(a * a - b * b - 1.0) > tol or a < 1.0 - tol:
        return False
    r = h[2:5, 2:5]
    if np.max(np.abs(r.T @ r - np.eye(3))) > tol:
        return False
    return abs(np.linalg.det(r) - 1.0) <= tol


def wedges_equal(w1: Wedge, w2: Wedge, tol: float = 1e-8) -> bool:
    return stabilizes_reference(np.linalg.solve(w2.frame, w1.frame), tol)


@dataclass(frozen=True)
class RegionSample:
    """Seeded hyperboloid points inside one region."""

    points: np.ndarray
    seed: int


def sample_wedge_points(w: Wedge, n: int, seed: int) -> RegionSample:
    """n interior points of w, rejection-sampled from the seeded patch."""
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


@dataclass(frozen=True)
class ProbeResult:
    verdict: str                     # EQUAL | WITNESS | INCONCLUSIVE
    witness: np.ndarray | None = None
    trials: int = 0


def inclusion_rigidity_probe(w1: Wedge, w2: Wedge, n: int = 100_000,
                             seed: int = 0) -> ProbeResult:
    """Search for a point of w1 outside w2.

    Distinct wedges never strictly include one another, so for unequal inputs
    a witness must exist; failing to find one within n trials is reported as
    INCONCLUSIVE and treated as a failure by the verification suites.
    """
    if wedges_equal(w1, w2):
        return ProbeResult("EQUAL")
    rng = np.random.default_rng(seed)
    trials = 0
    while trials < n:
        batch = min(2048, n - trials)
        pts = sample_hyperboloid(batch, rng)
        trials += batch
        in_w1 = _inside(w1, pts, MEMBERSHIP_MARGIN)
        if not np.any(in_w1):
            continue
        candidates = pts[in_w1]
        outside_w2 = ~_inside(w2, candidates, -MEMBERSHIP_MARGIN)
        if np.any(outside_w2):
            return ProbeResult("WITNESS", candidates[outside_w2][0], trials)
    return ProbeResult("INCONCLUSIVE", None, trials)
