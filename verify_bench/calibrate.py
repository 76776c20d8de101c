"""A fixed CPU probe that tracks this machine's speed while a run goes on.

On a shared virtual machine the CPU speed a process gets drifts with the
other tenants' load, by tens of percent over minutes, and a whole 56 s run
can land in a slow or a fast stretch.  `probe_s` times a fixed piece of
work that does not touch dswarp, so a change to the program cannot move it.
run.py runs it before the first sample and after every sample, and scales
each sample's times by `REFERENCE_S / probe`, the mean of the probes on
either side of it.  The scaled times read in reference seconds: what the
sample would have taken at the speed this machine gave the probe when the
reference figures in README.md were made.

The probe mixes the three kinds of work `dswarp verify` does: arithmetic on
small Python objects (the quaternion layer), many numpy calls on 16 x 16
matrices (the dim-16 Fock layer) and dense SVDs at 128 x 128 (the dim-128
Fock layer).
"""

from __future__ import annotations

import time

import numpy as np

# Median of `probe_s()` on the machine of the reference figures (README.md).
REFERENCE_S = 0.23


class _Quat:
    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w: float, x: float, y: float, z: float):
        self.w = float(w)
        self.x = float(x)
        self.y = float(y)
        self.z = float(z)

    def __mul__(self, b: "_Quat") -> "_Quat":
        a = self
        return _Quat(a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
                     a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
                     a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
                     a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w)


_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((16, 16)) + 1j * _RNG.standard_normal((16, 16))
_LARGE = _RNG.standard_normal((128, 128)) + 1j * _RNG.standard_normal((128, 128))


def probe_s() -> float:
    """Wall time of the fixed work, in seconds (about 0.23 s here)."""
    started = time.perf_counter()
    q, r = _Quat(1.0, 0.0, 0.0, 0.0), _Quat(0.6, 0.8, 0.0, 0.0)
    for _ in range(60_000):
        q = q * r
    m = _SMALL
    for _ in range(5_000):
        m = (m @ _SMALL) / np.linalg.norm(m)
    for _ in range(24):
        np.linalg.svd(_LARGE, compute_uv=False)
    return time.perf_counter() - started
