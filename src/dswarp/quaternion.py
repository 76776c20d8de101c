"""Quaternions and 2x2 quaternionic matrices as float arrays.

Array layout.  A quaternion w + x*e1 + y*e2 + z*e3 is a float array whose last
axis holds (w, x, y, z), in the basis order (1, e1, e2, e3) with e1*e2 = e3
(cyclic); there is no per-scalar quaternion object.  A batch of quaternions
has shape (..., 4), and the units are the read-only arrays ONE, E1, E2, E3.
A 2x2 quaternionic matrix has shape (2, 2, 4) -- row, column, coefficient --
and a batch of them (..., 2, 2, 4); QuatMatrix2 wraps such an array and is
only ever built from one (identity and diag included).

Broadcasting.  Every operation acts entrywise over the leading batch axes and
follows numpy broadcasting on them: `qmul` of shapes (n, 4) and (4,) gives
(n, 4), and a QuatMatrix2 of batch shape (5, 1) times one of batch shape (n,)
gives batch shape (5, n).  Reductions (`diag_scalar_sum`, `max_abs`) return
one value per batch element, a Python float when there is no batch.

`qmul` evaluates the Hamilton product with the same operations in the same
order as the scalar formula, so a batched product equals the products of its
elements bit for bit.

The complex realization maps a quaternion to a 2x2 complex block,

    1 -> I,   e1 -> -i*sigma1,   e2 -> -i*sigma2,   e3 -> -i*sigma3,

which is a homomorphism of real algebras (e_j^2 = -1, e1*e2 = e3).  A 2x2
quaternionic matrix realizes as a 4x4 complex matrix by replacing each entry
with its block.  Only relations are observable downstream; this fixed chart is
validated by the Clifford-relation tests.
"""

from __future__ import annotations

import numpy as np

_SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_EYE2 = np.eye(2, dtype=complex)

_CONJ_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])

# The units 1, e1, e2, e3, then zero, as read-only (4,) arrays.
_UNITS = np.eye(5, 4)
_UNITS.flags.writeable = False
ONE, E1, E2, E3, ZERO = _UNITS


def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of quaternion arrays of shapes (..., 4), broadcast."""
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=-1)


def _qconj(a: np.ndarray) -> np.ndarray:
    """Quaternionic conjugate w - x*e1 - y*e2 - z*e3 of a (..., 4) array."""
    return a * _CONJ_SIGNS


def _realize(a: np.ndarray) -> np.ndarray:
    """(..., 2, 2) complex blocks w*I - i*(x*sigma1 + y*sigma2 + z*sigma3)."""
    w, x, y, z = (a[..., k, None, None] for k in range(4))
    return w * _EYE2 - 1.0j * (x * _SIGMA1 + y * _SIGMA2 + z * _SIGMA3)


def _scalar_or_array(values: np.ndarray):
    return float(values) if values.ndim == 0 else values


def _qmatmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of (..., 2, 2, 4) arrays: c_ij = a_i0 b_0j + a_i1 b_1j."""
    return (qmul(a[..., :, 0:1, :], b[..., 0:1, :, :])
            + qmul(a[..., :, 1:2, :], b[..., 1:2, :, :]))


class QuatMatrix2:
    """2x2 matrix over the quaternions (or a batch), held as a (..., 2, 2, 4) array.

    Built from an array whose last three axes are (row, column, coefficient).
    """

    __slots__ = ("array",)

    def __init__(self, array):
        array = np.asarray(array, dtype=float)
        if array.shape[-3:] != (2, 2, 4):
            raise ValueError(f"quaternionic 2x2 array must end in (2, 2, 4), "
                             f"got shape {array.shape}")
        self.array = array

    @staticmethod
    def identity() -> "QuatMatrix2":
        return QuatMatrix2.diag(ONE, ONE)

    @staticmethod
    def diag(a, d) -> "QuatMatrix2":
        """diag(a, d) for quaternion arrays a of shape (..., 4) and d of shape (4,)
        or a's shape."""
        array = np.zeros(np.shape(a)[:-1] + (2, 2, 4))
        array[..., 0, 0, :] = a
        array[..., 1, 1, :] = d
        return QuatMatrix2(array)

    @property
    def batch_shape(self) -> tuple:
        return self.array.shape[:-3]

    def __getitem__(self, index) -> "QuatMatrix2":
        """numpy indexing of the batch axes only: m[k], m[0::2], m[..., None]."""
        index = index if isinstance(index, tuple) else (index,)
        return QuatMatrix2(self.array[index + (slice(None),) * 3])

    def __len__(self) -> int:
        if not self.batch_shape:
            raise TypeError("an unbatched QuatMatrix2 has no length")
        return self.batch_shape[0]

    def __matmul__(self, other: "QuatMatrix2") -> "QuatMatrix2":
        return QuatMatrix2(_qmatmul(self.array, other.array))

    def __add__(self, other: "QuatMatrix2") -> "QuatMatrix2":
        return QuatMatrix2(self.array + other.array)

    def __sub__(self, other: "QuatMatrix2") -> "QuatMatrix2":
        return QuatMatrix2(self.array - other.array)

    def __neg__(self) -> "QuatMatrix2":
        return QuatMatrix2(-self.array)

    def scale(self, s) -> "QuatMatrix2":
        """Multiply every entry by the real s (a scalar, or one per batch element)."""
        return QuatMatrix2(self.array * np.asarray(s, dtype=float)[..., None, None, None])

    def adjoint(self) -> "QuatMatrix2":
        """Transpose of the entrywise quaternionic conjugate."""
        return QuatMatrix2(_qconj(np.swapaxes(self.array, -3, -2)))

    def diag_scalar_sum(self):
        """Sum of the scalar parts of the diagonal entries (half the 4x4 trace)."""
        return _scalar_or_array(self.array[..., 0, 0, 0] + self.array[..., 1, 1, 0])

    def to_complex(self) -> np.ndarray:
        """(..., 4, 4) complex realization (each quaternion entry as a 2x2 block)."""
        blocks = _realize(self.array)                        # (..., 2, 2, 2, 2)
        out = np.swapaxes(blocks, -3, -2)                    # row, block row, col, block col
        return out.reshape(out.shape[:-4] + (4, 4))

    def max_abs(self):
        """Largest absolute entry of the realization, per batch element."""
        return _scalar_or_array(np.max(np.abs(self.to_complex()), axis=(-2, -1)))

    def __repr__(self) -> str:
        return f"QuatMatrix2({self.array!r})"


def qmat_dist(a: QuatMatrix2, b: QuatMatrix2):
    """Max-abs distance between two quaternionic matrices (via realization)."""
    return (a - b).max_abs()
