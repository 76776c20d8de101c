"""Finite-mode selfdual CAR algebra in a Fock representation.

Mode layout
-----------
There are n = d_plus + d_minus Jordan-Wigner modes: particle modes first
(indices 0..d_plus-1, charge +1 when occupied), then antiparticle modes
(charge -1 when occupied).  Sign strings sit on lower-numbered modes.  Basis
state i occupies mode j iff bit (n-1-j) of i is set, so index 0 is the
vacuum.

Doubled one-particle space
--------------------------
The selfdual space has dimension 2n and is laid out as two copies of C^n:
components 0..n-1 form copy A (gauge phase e^{+is}), components n..2n-1 copy
B (phase e^{-is}).  The antiunitary involution C swaps the copies and
conjugates componentwise.  The generating field is

    B(f) = sum_p (fA_p c_p^+ + fB_p c_p)  +  sum_q (fA_q c_q + fB_q c_q^+),

p over particle modes, q over antiparticle modes, and satisfies B(f)^* = B(Cf)
and {B(f), B(g)} = <Cf, g> exactly.  Copy A of a particle mode creates, copy A
of an antiparticle mode annihilates: charge is raised by +1 either way, which
is what makes cospinors B(f (+) 0) pure charge raisers and spinors B(0 (+) f)
pure charge lowerers.

The Fock state of this representation is the quasifree state whose two-point
operator is the basis projection S = Pi_plus (+) Pi_minus (particle slots of
copy A plus antiparticle slots of copy B).

Boosts act diagonally with one frequency per mode; on the doubled space the
one-particle boost is diag(e^{i t w}) on the charge-raising components and the
conjugate on the lowering ones, so the two copies are mutual adjoints.

Fields by bit arithmetic
------------------------
c_j maps an occupied basis state i to i with bit n-1-j cleared, with the
Jordan-Wigner sign (-1)^(number of occupied modes below j); every other entry
is zero, and no two modes share an entry.  field_B and the annihilators
therefore scatter the coefficients of f straight into a zero matrix, using
the flip rows, signs and occupied states of all modes, which are tabulated
once per mode count n (_mode_flips, cached like occupation_table).  The
entries equal those of the Kronecker-product tower exactly; the tests keep
that tower as the oracle.

Diagonal operators
------------------
Boost, gauge, charge projectors, the grading Y and the twist Z are diagonal
in the occupation basis, with eigenvalues read off model.phases,
model.charges and model.parities.  The dense FockOperator builders stay, but
the verification paths use the diagonals as vectors (boost_phases,
gauge_phases, twist_phases) and conjugate entrywise with
conjugate_by_diagonal.

Mask words
----------
A field B(f) whose f lives on a single mode j flips one occupation bit: it
has the form D P_S with S = 1 << (n-1-j), where P_S maps basis state i to
i ^ S and D is diagonal.  Products of such operators keep that form (the
masks XOR), and so do the adjoint and entrywise phases such as warp and
diagonal conjugation.  MaskWord stores D P_S as (S, vector of the d nonzero
entries), so a product is a gather in O(d) and the operator norm is the
largest absolute entry.  The wedge generators on the W0 and W0p bases are
such fields.

Implementers
------------
The reflection, the rotation and the Bogolyubov maps are number-conserving
second quantizations Gamma(w) of n x n mode-space unitaries w (second_quantize),
with Gamma(w) c_a^+ Gamma(w)^* = sum_b w[b, a] c_b^+ and Gamma(w) Omega = Omega.
The basis state occupying S = {a_1 < ... < a_k} is c_{a_1}^+ ... c_{a_k}^+ Omega
with sign +1: the Jordan-Wigner string of c_{a_i}^+ counts only lower modes,
which are empty when the product is applied from the right.  Expanding
Gamma(w) of that product and sorting each term into ascending order gives the
minor formula

    Gamma(w)[T, S] = det w[T, S]   if |T| = |S|,   0 otherwise,

rows T and columns S both listed ascending.  Gamma is built one particle
number k at a time, as a batch of k x k determinants (the 0 x 0 one is 1), so
nothing is exponentiated at Fock size.  For a permutation w every minor is
exactly 0 or +-1.

Norms
-----
operator_norm gives the exact largest singular value of a Fock-size matrix
m by cutting it along the charge.  Let S be the set of charge shifts
q_i - q_j over the nonzero entries m[i, j], s0 one of them, and g the gcd
of the differences s - s0 over S (g = 0 when S holds one shift).  Every
nonzero entry then has q_i = q_j + s0 mod g, so m maps the columns of
charge class r (charge mod g, or the charge itself for g = 0) only into
the rows of class r + s0, and distinct r give disjoint row sets.  Up to a
permutation of rows and columns, m is the direct sum of these blocks, and
its norm is the largest block norm: an identity, not a bound.  Fields are
odd and anticommutators even, so both split into two d/2 x d/2 parity
blocks; gauge-invariant operators split into their charge sectors; a dense
matrix has g = 1 and takes one plain SVD.  S is read from the sums of |m|
over pairs of charges, one pass over m, and the block positions are
tabulated once per model and (g, s0 mod g).  A non-finite entry makes
those sums non-finite, and the norm is then NaN.

Per-model caches
----------------
OneParticleModel.cached builds a value once per model and freezes its arrays
(read-only).  It holds the wedge generators per tag (wedge_generators), the
reflection implementer (reflection_fock), the charge indicator and block
positions of operator_norm and, in the deformation module, the angle matrix
and the warp phases of the last few kappas.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import block_diag, expm

# Largest accepted n_modes: the dense Fock dimension 2^n stays at or below 1024.
MAX_MODES = 10


class ModelError(ValueError):
    """Inconsistent one-particle model data."""


@lru_cache(maxsize=8)
def occupation_table(n: int) -> np.ndarray:
    """(2^n, n) array: occ[i, j] = 1 iff basis state i occupies mode j."""
    idx = np.arange(2 ** n)[:, None]
    shifts = (n - 1 - np.arange(n))[None, :]
    occ = (idx >> shifts) & 1
    occ.flags.writeable = False
    return occ


@lru_cache(maxsize=8)
def _mode_flips(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero entries of c_0..c_{n-1} as flat arrays (mode, src, dst, sign).

    Entry e belongs to c_{mode[e]}: it maps the occupied state src[e] to
    dst[e] = src[e] with bit n-1-mode[e] cleared, with the Jordan-Wigner sign
    (-1)^(occupied modes below mode[e]).
    """
    occ = occupation_table(n)
    below = np.cumsum(occ, axis=1) - occ
    mode, src = np.nonzero(occ.T)
    dst = src ^ (1 << (n - 1 - mode))
    sign = 1.0 - 2.0 * (below[src, mode] % 2)
    tables = (mode, src, dst, sign)
    for a in tables:
        a.flags.writeable = False
    return tables


@lru_cache(maxsize=8)
def annihilation_ops(n: int) -> tuple[np.ndarray, ...]:
    """Read-only annihilation matrices c_0..c_{n-1} on the 2^n Fock space."""
    mode, src, dst, sign = _mode_flips(n)
    ops = []
    for j in range(n):
        sel = mode == j
        c = np.zeros((2 ** n, 2 ** n), dtype=complex)
        c[dst[sel], src[sel]] = sign[sel]
        c.flags.writeable = False
        ops.append(c)
    return tuple(ops)


def _mode_indices(values, name: str) -> tuple[int, ...]:
    """values as a tuple of ints; a non-sequence or a non-integer entry is refused."""
    try:
        return tuple(operator.index(j) for j in values)
    except TypeError:
        raise ModelError(f"{name} must be a list of integer mode indices, "
                         f"got {values!r}") from None


class OneParticleModel:
    """Doubled one-particle space with boost, gauge, localization, reflection.

    Parameters mirror the JSON model config; see the module docstring for the
    layout.  localized_modes and reflection_pairing use global mode indices.
    """

    def __init__(self, d_plus: int, d_minus: int,
                 boost_freqs_plus, boost_freqs_minus,
                 localized_modes, reflection_pairing=None,
                 rotation_angle: float | None = None,
                 seed: int = 0, validate: bool = True):
        self.d_plus = int(d_plus)
        self.d_minus = int(d_minus)
        self.n_modes = self.d_plus + self.d_minus
        self.seed = int(seed)
        self.boost_freqs_plus = np.asarray(boost_freqs_plus, dtype=float)
        self.boost_freqs_minus = np.asarray(boost_freqs_minus, dtype=float)
        self.localized_modes = tuple(sorted(_mode_indices(localized_modes, "localized_modes")))
        self.reflection_pairing = (None if reflection_pairing is None
                                   else _mode_indices(reflection_pairing, "reflection_pairing"))
        self.rotation_angle = None if rotation_angle is None else float(rotation_angle)

        if validate:
            self._validate()

        n = self.n_modes
        self.dim = 2 ** n
        self.mode_freqs = np.concatenate([self.boost_freqs_plus, self.boost_freqs_minus])
        self.mode_charges = np.concatenate([np.ones(self.d_plus, dtype=int),
                                            -np.ones(self.d_minus, dtype=int)])
        occ = occupation_table(n)
        self.charges = occ @ self.mode_charges              # Q eigenvalue per basis state
        self.phases = occ @ self.mode_freqs                 # boost generator eigenvalue
        self.parities = 1 - 2 * (occ.sum(axis=1) % 2)       # (-1)^N per basis state
        self._cache: dict = {}

    def cached(self, key, build):
        """The value stored under key, built by build() on first use.

        An array result, or each array of a tuple result, is made read-only,
        since every later caller shares it.
        """
        try:
            return self._cache[key]
        except KeyError:
            pass
        value = build()
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        self._cache[key] = value
        return value

    # -- validation ---------------------------------------------------------
    def _validate(self):
        if self.d_plus < 0 or self.d_minus < 0 or self.n_modes < 1:
            raise ModelError("need at least one mode")
        if self.n_modes > MAX_MODES:
            raise ModelError(f"{self.n_modes} modes exceed the dense-matrix cap {MAX_MODES}")
        if len(self.boost_freqs_plus) != self.d_plus:
            raise ModelError("boost_freqs_plus length must equal d_plus")
        if len(self.boost_freqs_minus) != self.d_minus:
            raise ModelError("boost_freqs_minus length must equal d_minus")
        modes = set(range(self.n_modes))
        locs = set(self.localized_modes)
        if not locs or not locs <= modes:
            raise ModelError("localized_modes must be a nonempty subset of mode indices")
        if locs == modes:
            raise ModelError("localized_modes must be a proper subset (the complement "
                             "carries the reflected wedge)")
        tau = self.reflection_pairing
        if tau is not None:
            if sorted(tau) != list(range(self.n_modes)):
                raise ModelError("reflection_pairing must be a permutation of all modes")
            freqs = np.concatenate([self.boost_freqs_plus, self.boost_freqs_minus])
            species = [j < self.d_plus for j in range(self.n_modes)]
            for j in range(self.n_modes):
                if tau[tau[j]] != j:
                    raise ModelError("reflection_pairing must be an involution")
                if species[tau[j]] != species[j]:
                    raise ModelError("reflection_pairing must preserve particle/antiparticle type")
                if abs(freqs[tau[j]] + freqs[j]) > 1e-12:
                    raise ModelError("reflection_pairing must negate boost frequencies")
            if locs & {tau[j] for j in locs}:
                raise ModelError("reflection_pairing must map localized modes into the complement")

    # -- doubled one-particle operators --------------------------------------
    @property
    def doubled_dim(self) -> int:
        return 2 * self.n_modes

    def conjugation_matrix(self) -> np.ndarray:
        """Matrix part of C, read-only; the full map is v -> Cmat @ conj(v)."""
        n = self.n_modes
        return self.cached("conjugation_matrix", lambda: np.block(
            [[np.zeros((n, n)), np.eye(n)], [np.eye(n), np.zeros((n, n))]]))

    def apply_conjugation(self, f: np.ndarray) -> np.ndarray:
        """C f: the two copies swapped, componentwise conjugated."""
        f = np.asarray(f, dtype=complex)
        n = self.n_modes
        return np.conj(np.concatenate([f[n:], f[:n]]))

    def basis_projection(self) -> np.ndarray:
        """Two-point operator of the Fock state: Pi+ (+) Pi-."""
        n, dp = self.n_modes, self.d_plus
        diag = np.zeros(2 * n)
        diag[:dp] = 1.0              # copy A, particle slots
        diag[n + dp:] = 1.0          # copy B, antiparticle slots
        return np.diag(diag).astype(complex)

    def gauge_one_particle(self, s: float) -> np.ndarray:
        n = self.n_modes
        diag = np.concatenate([np.full(n, np.exp(1j * s)), np.full(n, np.exp(-1j * s))])
        return np.diag(diag)

    def boost_one_particle(self, t: float) -> np.ndarray:
        """u_xi(t) on the doubled space: copies are mutual adjoints."""
        raise_phase = np.exp(1j * t * self.mode_freqs * self.mode_charges)
        # copy A carries e^{i t w} on particle slots and e^{-i t w} on antiparticle
        # slots (both charge-raising directions); copy B is the conjugate.
        diag = np.concatenate([raise_phase, np.conj(raise_phase)])
        return np.diag(diag)

    def reflection_modes(self) -> np.ndarray:
        """The n x n permutation of reflection_pairing: mode j goes to tau(j)."""
        if self.reflection_pairing is None:
            raise ModelError("model has no reflection_pairing")
        n = self.n_modes
        perm = np.zeros((n, n))
        perm[list(self.reflection_pairing), range(n)] = 1.0
        return perm

    def rotation_mode_generator(self) -> np.ndarray:
        """Real antisymmetric generator mixing the first two modes per species."""
        g = np.zeros((self.n_modes, self.n_modes))
        placed = False
        if self.d_plus >= 2:
            g[0, 1], g[1, 0] = -1.0, 1.0
            placed = True
        if self.d_minus >= 2:
            a = self.d_plus
            g[a, a + 1], g[a + 1, a] = -1.0, 1.0
            placed = True
        if not placed:
            raise ModelError("rotation needs at least two modes in some species block")
        return g

    # -- Fock-space data ------------------------------------------------------
    def annihilators(self) -> tuple[np.ndarray, ...]:
        return annihilation_ops(self.n_modes)

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v

    def charge_values(self) -> list[int]:
        return sorted(set(int(c) for c in self.charges))


def default_model(seed: int = 7) -> OneParticleModel:
    """The 2+2-mode reference model used by the verification suites."""
    return OneParticleModel(
        d_plus=2, d_minus=2,
        boost_freqs_plus=[1.0, -1.0],
        boost_freqs_minus=[1.0, -1.0],
        localized_modes=[0, 2],
        reflection_pairing=[1, 0, 3, 2],
        rotation_angle=np.pi / 4,
        seed=seed,
    )


# -- operators --------------------------------------------------------------

@dataclass(frozen=True)
class FockOperator:
    """Dense operator on the Fock space, tagged with its model."""

    matrix: np.ndarray
    model: OneParticleModel

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.model.dim, self.model.dim):
            raise ValueError(f"operator shape {m.shape} does not match Fock dim {self.model.dim}")
        object.__setattr__(self, "matrix", m)

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        return FockOperator(self.matrix @ other.matrix, self.model)

    def __add__(self, other: "FockOperator") -> "FockOperator":
        return FockOperator(self.matrix + other.matrix, self.model)

    def __sub__(self, other: "FockOperator") -> "FockOperator":
        return FockOperator(self.matrix - other.matrix, self.model)

    def __mul__(self, scalar) -> "FockOperator":
        return FockOperator(self.matrix * scalar, self.model)

    __rmul__ = __mul__

    def __neg__(self) -> "FockOperator":
        return FockOperator(-self.matrix, self.model)

    @property
    def H(self) -> "FockOperator":
        return FockOperator(self.matrix.conj().T, self.model)

    def norm(self) -> float:
        """Operator norm (largest singular value), NaN if an entry is not finite."""
        return operator_norm(self.model, self.matrix)

    def dist(self, other: "FockOperator") -> float:
        return operator_norm(self.model, self.matrix - other.matrix)

    def charge_shift(self, m: int) -> np.ndarray:
        """Component sum_n E(n+m) F E(n)."""
        q = self.model.charges
        mask = (q[:, None] - q[None, :]) == m
        return np.where(mask, self.matrix, 0.0)

    def charge_shifts(self, tol: float = 0.0) -> dict[int, np.ndarray]:
        """Nonzero charge-shift components, keyed by the shift."""
        q = self.model.charges
        diffs = q[:, None] - q[None, :]
        out = {}
        for m in np.unique(diffs):
            block = np.where(diffs == m, self.matrix, 0.0)
            if np.max(np.abs(block)) > tol:
                out[int(m)] = block
        return out

    def is_gauge_invariant(self, tol: float = 1e-10) -> bool:
        return float(np.max(np.abs(self.matrix - self.charge_shift(0)))) <= tol


@dataclass(frozen=True)
class MaskWord:
    """The operator M with M[i ^ mask, i] = vec[i] and zeros elsewhere (D P_S).

    Products, adjoints and diagonal conjugations stay in this form; the
    operator norm is max |vec|, since M is a permutation times a diagonal.
    """

    mask: int
    vec: np.ndarray

    def rows(self) -> np.ndarray:
        """Row index i ^ mask of each entry vec[i]."""
        return np.arange(len(self.vec)) ^ self.mask

    def __matmul__(self, other: "MaskWord") -> "MaskWord":
        return MaskWord(self.mask ^ other.mask, self.vec[other.rows()] * other.vec)

    def __sub__(self, other: "MaskWord") -> "MaskWord":
        if other.mask != self.mask:
            raise ValueError(f"masks {self.mask} and {other.mask} differ: "
                             "the difference is not a single-mask word")
        return MaskWord(self.mask, self.vec - other.vec)

    @property
    def H(self) -> "MaskWord":
        return MaskWord(self.mask, np.conj(self.vec[self.rows()]))

    def conjugated_by(self, u: np.ndarray) -> "MaskWord":
        """u M u^* for the diagonal unitary with diagonal u."""
        return MaskWord(self.mask, u[self.rows()] * self.vec * u.conj())

    def norm(self) -> float:
        """Operator norm: the largest absolute entry."""
        return float(np.max(np.abs(self.vec)))


# -- operator norms -----------------------------------------------------------

def _charge_indicator(model: OneParticleModel) -> np.ndarray:
    """(d, n+1) 0/1 matrix: entry [i, c] is 1 iff basis state i has charge index c.

    The charge index of a state is its charge plus d_minus, so index
    differences are charge differences.
    """
    return model.cached("charge_indicator", lambda: (
        (model.charges + model.d_minus)[:, None] == np.arange(model.n_modes + 1)[None, :]
    ).astype(float))


def _norm_blocks(model: OneParticleModel, g: int,
                 offset: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Blocks of a matrix that maps column class r into row class r + offset.

    A state's class is its charge index mod g, or the index itself for g = 0.
    Blocks of one shape are stacked: each item is (labels, flat), where
    labels[b] is the column class of block b and flat[b] holds the row-major
    flat positions of its entries, so m.take(flat) gathers every block at once.
    Built once per model and (g, offset).
    """
    def build():
        index = model.charges + model.d_minus
        classes = index % g if g else index
        shapes: dict[tuple[int, int], tuple[list, list]] = {}
        for r in range(g or model.n_modes + 1):
            cols = np.nonzero(classes == r)[0]
            rows = np.nonzero(classes == ((r + offset) % g if g else r + offset))[0]
            if len(rows) and len(cols):
                labels, flats = shapes.setdefault((len(rows), len(cols)), ([], []))
                labels.append(r)
                flats.append(rows[:, None] * model.dim + cols[None, :])
        out = tuple((np.array(labels), np.stack(flats)) for labels, flats in shapes.values())
        for pair in out:
            for a in pair:
                a.flags.writeable = False
        return out

    return model.cached(("norm_blocks", g, offset), build)


def operator_norm(model: OneParticleModel, m: np.ndarray) -> float:
    """Largest singular value of the d x d matrix m, NaN if an entry is not finite.

    m is cut into the charge-class blocks of which it is a direct sum, and
    the result is the largest block norm; see "Norms" in the module docstring.
    """
    m = np.asarray(m)
    if m.shape != (model.dim, model.dim):
        raise ValueError(f"matrix shape {m.shape} does not match Fock dim {model.dim}")
    indicator = _charge_indicator(model)
    # weight[a, c]: sum of |m| over rows of charge index a and columns of index c
    with np.errstate(invalid="ignore", over="ignore"):
        weight = indicator.T @ np.abs(m) @ indicator
    if not np.isfinite(weight).all():
        if not np.isfinite(m).all():
            return math.nan
        return float(np.linalg.svd(m, compute_uv=False)[0])    # the sums overflowed
    rows, cols = np.nonzero(weight)
    if not len(rows):
        return 0.0
    shifts = (rows - cols).tolist()
    s0 = shifts[0]
    g = math.gcd(*(s - s0 for s in shifts))
    if g == 1:
        return float(np.linalg.svd(m, compute_uv=False)[0])
    present = np.zeros(g or len(weight), dtype=bool)
    present[cols % g if g else cols] = True
    top = 0.0
    for labels, flat in _norm_blocks(model, g, s0 % g if g else s0):
        hit = present[labels]
        if hit.any():
            blocks = m.take(flat if hit.all() else flat[hit])
            top = max(top, float(np.linalg.svd(blocks, compute_uv=False)[:, 0].max()))
    return top


def identity_op(model: OneParticleModel) -> FockOperator:
    return FockOperator(np.eye(model.dim, dtype=complex), model)


def field_B(model: OneParticleModel, f) -> FockOperator:
    """The selfdual generator B(f), f in the doubled space C^{2n}."""
    f = np.asarray(f, dtype=complex)
    if f.shape != (model.doubled_dim,):
        raise ValueError(f"field vector must have {model.doubled_dim} components, "
                         f"got shape {f.shape}")
    n, d = model.n_modes, model.dim
    mode, src, dst, sign = _mode_flips(n)
    particle = model.mode_charges > 0
    # a particle mode is raised by copy A and lowered by copy B; an
    # antiparticle mode the other way round
    lower_coef = np.where(particle, f[n:], f[:n])
    raise_coef = np.where(particle, f[:n], f[n:])
    out = np.zeros((d, d), dtype=complex)
    out[dst, src] = lower_coef[mode] * sign
    out[src, dst] = raise_coef[mode] * sign
    return FockOperator(out, model)


def field_word(model: OneParticleModel, f) -> MaskWord:
    """B(f) as a MaskWord; f must be supported on a single mode (either copy)."""
    f = np.asarray(f, dtype=complex)
    n = model.n_modes
    if f.shape != (model.doubled_dim,):
        raise ValueError(f"field vector must have {model.doubled_dim} components, "
                         f"got shape {f.shape}")
    modes = np.unique(np.nonzero(f)[0] % n)
    if len(modes) != 1:
        raise ValueError(f"B(f) is a single-mask word only for f on one mode; "
                         f"f lives on modes {modes.tolist()}")
    j = int(modes[0])
    mode, src, dst, sign = _mode_flips(n)
    sel = mode == j
    lower, raise_ = (f[n + j], f[j]) if model.mode_charges[j] > 0 else (f[j], f[n + j])
    vec = np.zeros(model.dim, dtype=complex)
    vec[src[sel]] = lower * sign[sel]
    vec[dst[sel]] = raise_ * sign[sel]
    return MaskWord(1 << (n - 1 - j), vec)


def cospinor(model: OneParticleModel, f_plus) -> FockOperator:
    """Charge-raising field B(f (+) 0)."""
    f_plus = np.asarray(f_plus, dtype=complex)
    if f_plus.shape != (model.n_modes,):
        raise ValueError(f"cospinor argument must have {model.n_modes} components")
    return field_B(model, np.concatenate([f_plus, np.zeros(model.n_modes, dtype=complex)]))


def spinor(model: OneParticleModel, f_minus) -> FockOperator:
    """Charge-lowering field B(0 (+) f)."""
    f_minus = np.asarray(f_minus, dtype=complex)
    if f_minus.shape != (model.n_modes,):
        raise ValueError(f"spinor argument must have {model.n_modes} components")
    return field_B(model, np.concatenate([np.zeros(model.n_modes, dtype=complex), f_minus]))


def gauge_phases(model: OneParticleModel, s: float) -> np.ndarray:
    """Diagonal of gauge_unitary(model, s)."""
    return np.exp(1j * s * model.charges)


def boost_phases(model: OneParticleModel, t: float) -> np.ndarray:
    """Diagonal of boost_unitary(model, t)."""
    return np.exp(1j * t * model.phases)


def twist_phases(model: OneParticleModel) -> np.ndarray:
    """Diagonal of twist_Z(model)."""
    return (1.0 - 1j * model.parities) / np.sqrt(2.0)


def conjugate_by_diagonal(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    """u m u^* for the diagonal unitary with diagonal u, entrywise."""
    return u[:, None] * m * u.conj()[None, :]


def gauge_unitary(model: OneParticleModel, s: float) -> FockOperator:
    """V(s) = exp(isQ), diagonal in the occupation basis."""
    return FockOperator(np.diag(gauge_phases(model, s)), model)


def charge_projector(model: OneParticleModel, n: int) -> FockOperator:
    return FockOperator(np.diag((model.charges == n).astype(complex)), model)


def charge_operator(model: OneParticleModel) -> FockOperator:
    return FockOperator(np.diag(model.charges.astype(complex)), model)


def boost_unitary(model: OneParticleModel, t: float) -> FockOperator:
    """Second-quantized boost: phase e^{it * (sum of occupied frequencies)}."""
    return FockOperator(np.diag(boost_phases(model, t)), model)


def grading_Y(model: OneParticleModel) -> FockOperator:
    """Y = (-1)^N, the Bose/Fermi grading."""
    return FockOperator(np.diag(model.parities.astype(complex)), model)


def twist_Z(model: OneParticleModel) -> FockOperator:
    """Z = (1 - iY)/sqrt(2)."""
    return FockOperator(np.diag(twist_phases(model)), model)


def second_quantize(model: OneParticleModel, w: np.ndarray) -> FockOperator:
    """Gamma(w) of a mode-space map w: the entry at (T, S) is det w[T, S].

    T and S are occupied-mode sets in ascending order, and the entry is zero
    unless |T| = |S|; see "Implementers" in the module docstring.
    """
    w = np.asarray(w)
    n = model.n_modes
    if w.shape != (n, n):
        raise ValueError(f"mode-space operator must be {n}x{n}")
    occ = occupation_table(n)
    number = occ.sum(axis=1)
    out = np.zeros((model.dim, model.dim), dtype=complex)
    for k in range(n + 1):
        states = np.nonzero(number == k)[0]
        modes = np.nonzero(occ[states])[1].reshape(len(states), k)
        out[np.ix_(states, states)] = np.linalg.det(
            w[modes[:, None, :, None], modes[None, :, None, :]])
    return FockOperator(out, model)


def reflection_fock(model: OneParticleModel) -> FockOperator:
    """Implementer Gamma(tau) of the wedge reflection, built once per model."""
    return FockOperator(model.cached(
        "reflection_fock", lambda: second_quantize(model, model.reflection_modes()).matrix),
        model)


def rotation_fock(model: OneParticleModel, angle: float | None = None) -> FockOperator:
    """Implementer Gamma(exp(angle g)) of the rotation (charge-commuting, real
    orthogonal); angle defaults to the model's rotation_angle."""
    phi = model.rotation_angle if angle is None else float(angle)
    if phi is None:
        raise ModelError("model has no rotation")
    return second_quantize(model, expm(phi * model.rotation_mode_generator()))


def bogolyubov_fock(model: OneParticleModel, h_plus: np.ndarray,
                    h_minus: np.ndarray) -> tuple[FockOperator, np.ndarray]:
    """Implementer for u = (e^{ih+} (+) e^{ih-}) (+) conj on the doubled space.

    h_plus and h_minus are Hermitian blocks on the particle and antiparticle
    mode spaces.  Returns (U, u) with U the Fock unitary and u the 2n x 2n
    one-particle map; u commutes with C and with the basis projection.
    """
    dp, dm = model.d_plus, model.d_minus
    h_plus = np.asarray(h_plus, dtype=complex)
    h_minus = np.asarray(h_minus, dtype=complex)
    if h_plus.shape != (dp, dp) or h_minus.shape != (dm, dm):
        raise ValueError("Bogolyubov generator blocks have wrong shapes")
    w_plus, w_minus = expm(1j * h_plus), expm(1j * h_minus)
    w = block_diag(w_plus, w_minus)
    # antiparticle modes are raised by copy B, so Gamma takes the conjugate block
    big_u = second_quantize(model, block_diag(w_plus, np.conj(w_minus)))
    return big_u, block_diag(w, np.conj(w))


# -- quasifree states -------------------------------------------------------

def validate_quasifree(model: OneParticleModel, s: np.ndarray, tol: float = 1e-10):
    """Check S = S^*, 0 <= S <= 1, C S C = 1 - S."""
    s = np.asarray(s, dtype=complex)
    d = model.doubled_dim
    if s.shape != (d, d):
        raise ValueError(f"two-point operator must be {d}x{d}")
    if np.max(np.abs(s - s.conj().T)) > tol:
        raise ValueError("two-point operator is not selfadjoint")
    eigs = np.linalg.eigvalsh(s)
    if eigs.min() < -tol or eigs.max() > 1.0 + tol:
        raise ValueError("two-point operator spectrum is not within [0, 1]")
    cmat = model.conjugation_matrix()
    flipped = cmat @ np.conj(s) @ cmat
    if np.max(np.abs(flipped - (np.eye(d) - s))) > tol:
        raise ValueError("two-point operator fails C S C = 1 - S")
    return s


def _matchings(indices: list[int]):
    """Perfect matchings as pair lists, smallest-open-index-first."""
    if not indices:
        yield []
        return
    first, rest = indices[0], indices[1:]
    for pos in range(len(rest)):
        partner = rest[pos]
        remaining = rest[:pos] + rest[pos + 1:]
        for sub in _matchings(remaining):
            yield [(first, partner)] + sub


def _permutation_sign(perm: list[int]) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def quasifree_npoint(model: OneParticleModel, s: np.ndarray, fs) -> complex:
    """n-point function of the quasifree state with two-point operator S.

    Odd length gives 0; even length 2n is the signed sum over the restricted
    permutations (equivalently perfect matchings) of products of two-point
    values <Cf_a, S f_b>, with the overall (-1)^{n(n-1)/2} prefactor.
    """
    s = validate_quasifree(model, s)
    vectors = [np.asarray(f, dtype=complex) for f in fs]
    k = len(vectors)
    if k % 2 == 1:
        return 0.0 + 0.0j
    if k == 0:
        return 1.0 + 0.0j
    half = k // 2
    pair_value = np.empty((k, k), dtype=complex)
    for a in range(k):
        ca = model.apply_conjugation(vectors[a])
        for b in range(k):
            pair_value[a, b] = np.vdot(ca, s @ vectors[b])
    prefactor = (-1.0) ** (half * (half - 1) // 2)
    total = 0.0 + 0.0j
    for pairs in _matchings(list(range(k))):
        one_line = [p[0] for p in pairs] + [p[1] for p in pairs]
        sign = _permutation_sign(one_line)
        term = 1.0 + 0.0j
        for a, b in pairs:
            term *= pair_value[a, b]
        total += sign * term
    return prefactor * total


def fock_npoint(model: OneParticleModel, fs) -> complex:
    """Vacuum expectation <Omega, B(f_1)...B(f_k) Omega> by matrix products."""
    omega = model.vacuum()
    vec = omega
    for f in reversed(list(fs)):
        vec = field_B(model, f).matrix @ vec
    return complex(np.vdot(omega, vec))


def car_norm_bound(model: OneParticleModel, f) -> float:
    """The unique C*-norm of B(f)."""
    f = np.asarray(f, dtype=complex)
    norm2 = float(np.real(np.vdot(f, f)))
    pairing = abs(np.vdot(f, model.apply_conjugation(f)))
    inner = max(norm2 ** 2 - pairing ** 2, 0.0)
    return float(np.sqrt(0.5 * (norm2 + np.sqrt(inner))))


# -- wedge subalgebra data ----------------------------------------------------

def wedge_subalgebra_basis(model: OneParticleModel, tag: str) -> list[np.ndarray]:
    """Orthonormal doubled-space basis of the tagged wedge subspace.

    W0 spans the localized modes in both copies; W0' is its reflection image.
    """
    n = model.n_modes
    base = []
    for j in model.localized_modes:
        for offset in (0, n):
            v = np.zeros(2 * n, dtype=complex)
            v[offset + j] = 1.0
            base.append(v)
    if tag == "W0":
        return base
    if tag == "W0p":
        perm = model.reflection_modes()
        return [np.concatenate([perm @ v[:n], perm @ v[n:]]) for v in base]
    raise ValueError(f"unknown wedge tag {tag!r}; expected W0 or W0p")


def wedge_generators(model: OneParticleModel, tag: str) -> tuple[MaskWord, ...]:
    """Fields B(f) over the tagged wedge basis as mask words, built once per model.

    Their vectors are read-only.
    """
    def build() -> tuple[MaskWord, ...]:
        words = tuple(field_word(model, f) for f in wedge_subalgebra_basis(model, tag))
        for w in words:
            w.vec.flags.writeable = False
        return words

    return model.cached(("wedge_generators", tag), build)
