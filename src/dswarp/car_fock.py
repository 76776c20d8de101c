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
is zero, and no two modes share an entry.  field_words therefore scatters the
coefficients of f straight into one mask word per mode, using the flip rows,
signs and occupied states of all modes, which are tabulated once per mode
count n (_mode_flips, cached like occupation_table; index tables only, no
Fock-size matrix).  A single ladder operator is the field of a unit vector:
c_j^+ is B(e) with e on the copy that raises mode j (copy A for a particle
mode, copy B for an antiparticle mode), and c_j is B(e) on the other copy.
The entries equal those of the Kronecker-product tower exactly; the tests
keep that tower as the oracle.  _apply_fields applies a batch of fields
B(f_b), one to each of a batch of vectors, with the same tables in O(n d)
per field and no field matrix; fock_npoint and field_norms act through it.
field_B scatters the same coefficients into a d x d matrix.  No command
calls it; it is the dense reference kept for the benchmark's self-test.

Diagonal operators
------------------
Boost, gauge, charge projectors, the grading Y = (-1)^N and the twist
Z = (1 - iY)/sqrt(2) are diagonal in the occupation basis, with eigenvalues
read off model.phases, model.charges and model.parities.  The unitaries are
kept as their diagonals (boost_phases, gauge_phases, twist_phases), and
conjugation by one is entrywise (MaskWord.conjugated_by); the dense matrix,
where a test wants one, is np.diag of the vector.  charge_projector gives
E(n) as the mask word of mask 0, since the fixed-point checks deform it.

Mask words
----------
A field B(f) whose f lives on a single mode j flips one occupation bit: it
has the form D P_S with S = 1 << (n-1-j), where P_S maps basis state i to
i ^ S and D is diagonal.  Products of such operators keep that form (the
masks XOR), and so do the adjoint and entrywise phases such as warp and
diagonal conjugation.  MaskWord stores D P_S as (S, vector of the d nonzero
entries), so a product is a gather in O(d) and the operator norm is the
largest absolute entry.  The wedge generators on the W0 and W0p bases are
such fields, and so are the 2n unit fields field_word(e_a) whose
anticommutators the car suite checks.

A MaskWord may also be a stack of m words, mask of shape (m,) and vec of
shape (m, d): rows() is arange(d) ^ mask[..., None], products and adjoints
gather each row by its own rows (np.take_along_axis), and the norm is the
largest absolute entry of each row.  Every entry is the same elementwise
float operation as for the row's word alone, so a stack gives its rows'
results bit for bit, and the suites check their random draws as one stack
per kappa.

Implementers
------------
The reflection, the rotation and the Bogolyubov maps are number-conserving
second quantizations Gamma(w) of n x n mode-space unitaries w, with
Gamma(w) c_a^+ Gamma(w)^* = sum_b w[b, a] c_b^+ and Gamma(w) Omega = Omega.
The basis state occupying S = {a_1 < ... < a_k} is c_{a_1}^+ ... c_{a_k}^+ Omega
with sign +1: the Jordan-Wigner string of c_{a_i}^+ counts only lower modes,
which are empty when the product is applied from the right.  Expanding
Gamma(w) of that product and sorting each term into ascending order gives the
minor formula (the quasifree calculus of Araki, "On quasifree states of CAR
and Bogoliubov automorphisms", Publ. RIMS 6 (1970))

    Gamma(w)[T, S] = det w[T, S]   if |T| = |S|,   0 otherwise,

rows T and columns S both listed ascending.  For a permutation w every minor
is exactly 0 or +-1.

Gamma(w) is never formed as a d x d matrix.  It maps the number-k states to
themselves, so second_quantize_blocks keeps it as its number blocks G_k, rows
and columns in ascending state order (number_states).  Every implementer the
checks need keeps the particle and the antiparticle modes apart, w = w+ (+)
w-, and then a minor of w is the product of a minor of w+ and one of w-
(particle modes come first, so no sign is picked up).  Gamma(w) is therefore
Gamma(w+) (x) Gamma(w-), and G_k gathers its entries from the two species
factors, 2^{d_plus} and 2^{d_minus} wide, each built from its k x k minors.

Each G_k is unitary for a unitary w: minors of a product are sums of
products of minors (Cauchy-Binet), so Gamma(w) Gamma(w)^* = Gamma(w w^*) = 1.
Gamma moves a vector one number block at a time (apply_number_blocks), and
one_particle_map is the map it implements on the fields.  The block L_k of
c_j, from the number-k to the number-(k-1) states, maps R + {j} to R with
the Jordan-Wigner sign: lowering_entries tabulates those entries by row, so
G_{k-1} L_k(c_j) is a signed column gather of G_{k-1} and L_k(c_j) G_k a
signed row gather of G_k.

The reflection is such a permutation, so Gamma(tau) is a signed permutation
of the basis states, and reflection_table builds it from the occupation bits
alone: state S goes to tau(S), with the sign (-1)^(pairs a < b in S with
tau(a) > tau(b)) of that minor.  tau permutes bits, so it maps a mask word's
mask S to tau(S), and reflect_word conjugates a mask word (or each row of
a stack) in O(d).
reflection_automorphism computes the same conjugate from the algebra side,
B(f) -> B(tau f), with no use of those signs; the deformation suite's
reflection covariance puts one on each side.

Norms
-----
Every single-mode operator a command builds stays a MaskWord, whose operator
norm is its largest absolute entry.

field_norms gives the norms of fields B(f) from their action, with no
Fock-size matrix or SVD (Golub and Van Loan, Matrix Computations, the
Lanczos chapter).  Under the CAR, X = B(f)^* B(f) = B(Cf) B(f) obeys
X^2 - c X + |s|^2 = 0 with the scalars c = {B(f)^*, B(f)} and s = B(f)^2,
so the Krylov space {v, X v} of any v is invariant.  From a random start v,
two Lanczos steps give T = [[alpha0, beta1], [beta1, alpha1]] and the last
residual beta2, and the norm is the square root of T's larger eigenvalue.
If beta1 <= 1e-10 |alpha0|, X v = alpha0 v and the run stops after one
step (X is the scalar |f|^2 / 2 when f = e^{i theta} C f).  The result is
accepted only if the last residual is at most LANCZOS_CERTIFICATE = 1e-10
times the Ritz value (the norm of T); a random v meets every eigenspace,
so it is then the exact norm up to rounding.  A field that fails the
certificate gets NaN, so a check that reads its norm fails.  For a
correctly built field the two-step space is invariant, so only non-finite
arithmetic fails the certificate (a NaN entry, or an f near 1e200 whose X
overflows), which a fresh start vector would not repair.  A Ritz value never
exceeds the largest eigenvalue, so a missed eigenspace can only lower a
norm; a wrongly built field (a dropped Jordan-Wigner sign gives X more
eigenvalues) fails the certificate and so fails cstar-norm-formula.

Per-model caches
----------------
OneParticleModel.cached builds a value once per model and freezes its arrays
(read-only).  It holds the conjugation matrix, the wedge generators per tag
(wedge_generators), the signed-permutation table of the reflection
(reflection_table) and the Majorana words, no array of more than d entries;
the per-mode-count caches (occupation_table, _mode_flips, _number_layout)
hold index tables of size n 2^n.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Largest accepted n_modes, the Fock-dimension guard of cli.validate_config (2^n <= 1024).
MAX_MODES = 10

# Largest relative Lanczos residual at which field_norms accepts a Ritz value.
LANCZOS_CERTIFICATE = 1e-10
# Fields per Lanczos batch: _apply_fields holds n d complex terms per field.
LANCZOS_BATCH = 32


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
            raise ModelError(f"{self.n_modes} modes exceed the Fock-dimension guard "
                             f"({MAX_MODES} modes)")
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
        """C f: the two copies swapped, componentwise conjugated; for a stack
        of vectors, C of each row."""
        f = np.asarray(f, dtype=complex)
        n = self.n_modes
        return np.conj(np.concatenate([f[..., n:], f[..., :n]], axis=-1))

    def basis_projection(self) -> np.ndarray:
        """Two-point operator of the Fock state: Pi+ (+) Pi-."""
        n, dp = self.n_modes, self.d_plus
        diag = np.zeros(2 * n)
        diag[:dp] = 1.0              # copy A, particle slots
        diag[n + dp:] = 1.0          # copy B, antiparticle slots
        return np.diag(diag).astype(complex)

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
    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v


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

def _gather(vec: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """out[..., k] = vec[..., rows[..., k]]: each row of a stack gathered by its
    own rows; a single vector, or a single row of indices, serves every row."""
    if vec.ndim == 1:
        return vec[rows]
    return np.take_along_axis(vec, np.atleast_2d(rows), axis=-1)


@dataclass(frozen=True)
class MaskWord:
    """The operator M with M[i ^ mask, i] = vec[i] and zeros elsewhere (D P_S).

    Products, adjoints and diagonal conjugations stay in this form; the
    operator norm is max |vec|, since M is a permutation times a diagonal.

    A stack of m words has mask of shape (m,) and vec of shape (m, d), row b
    the word (mask[b], vec[b]); a single word has an int mask and a vector.
    Every operation acts row by row, gathering with np.take_along_axis, and
    a single word broadcasts against a stack, so each entry is computed as
    for the word on its own.
    """

    mask: int | np.ndarray
    vec: np.ndarray

    @classmethod
    def stack(cls, words) -> "MaskWord":
        """The words as one stack, in order."""
        return cls(np.array([w.mask for w in words]), np.stack([w.vec for w in words]))

    def __getitem__(self, index) -> "MaskWord":
        """Row index of a stack as a word, or the rows of an index array as a
        stack; iterating a stack yields its words."""
        return MaskWord(self.mask[index], self.vec[index])

    def rows(self) -> np.ndarray:
        """Row index i ^ mask of each entry vec[i], per row of a stack."""
        return np.arange(self.vec.shape[-1]) ^ np.asarray(self.mask)[..., None]

    def __matmul__(self, other: "MaskWord") -> "MaskWord":
        return MaskWord(self.mask ^ other.mask, _gather(self.vec, other.rows()) * other.vec)

    def __sub__(self, other: "MaskWord") -> "MaskWord":
        if np.any(other.mask != self.mask):
            raise ValueError(f"masks {self.mask} and {other.mask} differ: "
                             "the difference is not a single-mask word")
        return MaskWord(self.mask, self.vec - other.vec)

    @property
    def H(self) -> "MaskWord":
        return MaskWord(self.mask, np.conj(_gather(self.vec, self.rows())))

    def conjugated_by(self, u: np.ndarray) -> "MaskWord":
        """u M u^* for the diagonal unitary with diagonal u."""
        return MaskWord(self.mask, u[self.rows()] * self.vec * u.conj())

    def apply(self, v: np.ndarray) -> np.ndarray:
        """M v: entry i of v times vec[i], moved to row i ^ mask.  The XOR is an
        involution, so that is the product gathered by the rows."""
        return _gather(self.vec * v, self.rows())

    def norm(self) -> float | np.ndarray:
        """Operator norm: the largest absolute entry, per row of a stack."""
        return np.max(np.abs(self.vec), axis=-1)


def _field_vector(model: OneParticleModel, f) -> np.ndarray:
    """f as a complex doubled-space vector; any other shape is refused."""
    f = np.asarray(f, dtype=complex)
    if f.shape != (model.doubled_dim,):
        raise ValueError(f"field vector must have {model.doubled_dim} components, "
                         f"got shape {f.shape}")
    return f


def _ladder_coefficients(model: OneParticleModel, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lower, raise): per mode j, the coefficients of c_j and of c_j^+ in B(f);
    for a stack of vectors f, one row of each per vector.

    A particle mode is raised by copy A and lowered by copy B; an
    antiparticle mode the other way round.
    """
    n = model.n_modes
    particle = model.mode_charges > 0
    return (np.where(particle, f[..., n:], f[..., :n]),
            np.where(particle, f[..., :n], f[..., n:]))


def field_B(model: OneParticleModel, f) -> np.ndarray:
    """The selfdual generator B(f), f in the doubled space C^{2n}, as a d x d
    matrix: the dense reference kept for the benchmark's self-test, which no
    command calls."""
    f = _field_vector(model, f)
    d = model.dim
    mode, src, dst, sign = _mode_flips(model.n_modes)
    lower_coef, raise_coef = _ladder_coefficients(model, f)
    out = np.zeros((d, d), dtype=complex)
    out[dst, src] = lower_coef[mode] * sign
    out[src, dst] = raise_coef[mode] * sign
    return out


def field_words(model: OneParticleModel, f) -> list[MaskWord]:
    """B(f) as the sum of its single-mode fields: one mask word per mode on
    which f has a nonzero component, in mode order."""
    f = _field_vector(model, f)
    n = model.n_modes
    mode, src, dst, sign = _mode_flips(n)
    lower_coef, raise_coef = _ladder_coefficients(model, f)
    words = []
    for j in np.nonzero((lower_coef != 0) | (raise_coef != 0))[0]:
        sel = mode == j
        vec = np.zeros(model.dim, dtype=complex)
        vec[src[sel]] = lower_coef[j] * sign[sel]
        vec[dst[sel]] = raise_coef[j] * sign[sel]
        words.append(MaskWord(1 << (n - 1 - int(j)), vec))
    return words


def field_word(model: OneParticleModel, f) -> MaskWord:
    """B(f) as a MaskWord; f must be supported on a single mode (either copy)."""
    words = field_words(model, f)
    if len(words) != 1:
        modes = [model.n_modes - w.mask.bit_length() for w in words]
        raise ValueError(f"B(f) is a single-mask word only for f on one mode; "
                         f"f lives on modes {modes}")
    return words[0]


def gauge_phases(model: OneParticleModel, s: float) -> np.ndarray:
    """Diagonal of the gauge unitary V(s) = exp(isQ)."""
    return np.exp(1j * s * model.charges)


def boost_phases(model: OneParticleModel, t: float) -> np.ndarray:
    """Diagonal of the second-quantized boost: e^{it * (sum of occupied frequencies)}."""
    return np.exp(1j * t * model.phases)


def twist_phases(model: OneParticleModel) -> np.ndarray:
    """Diagonal of the twist Z = (1 - iY)/sqrt(2), Y = (-1)^N the grading."""
    return (1.0 - 1j * model.parities) / np.sqrt(2.0)


def charge_projector(model: OneParticleModel, n: int) -> MaskWord:
    """E(n) as the diagonal mask word: 1 on the charge-n states, 0 elsewhere."""
    return MaskWord(0, (model.charges == n).astype(complex))


@lru_cache(maxsize=8)
def _number_layout(n: int):
    """Per particle number k, the basis states with k occupied modes (ascending)
    and the modes each occupies; and where c_0..c_{n-1} have their entries in
    the lowering blocks.

    Returns (states, modes, lowering): modes[k] is the (len(states[k]), k)
    table of occupied modes, ascending, and lowering[k-1] (k = 1..n) the
    (mode, col, sign) tables of lowering_entries.
    """
    occ = occupation_table(n)
    number = occ.sum(axis=1)
    states = tuple(np.nonzero(number == k)[0] for k in range(n + 1))
    modes = tuple(np.nonzero(occ[s])[1].reshape(len(s), k) for k, s in enumerate(states))
    position = np.empty(2 ** n, dtype=int)            # rank of a state among its number
    for s in states:
        position[s] = np.arange(len(s))
    mode, src, dst, sign = _mode_flips(n)
    lowering = []
    for k in range(1, n + 1):
        e = np.nonzero(number[src] == k)[0]
        e = e[np.lexsort((mode[e], position[dst[e]]))]          # by row, then by mode
        lowering.append(tuple(a[e].reshape(len(states[k - 1]), n - k + 1)
                              for a in (mode, position[src], sign)))
    for a in (*states, *modes, *itertools.chain(*lowering)):
        a.flags.writeable = False
    return states, modes, tuple(lowering)


def number_states(model: OneParticleModel) -> tuple[np.ndarray, ...]:
    """The basis states of particle number k = 0..n, each in ascending order:
    the rows and columns of the number blocks."""
    return _number_layout(model.n_modes)[0]


def _species_gamma(w: np.ndarray) -> np.ndarray:
    """Gamma(w) on the 2^m states of m modes of one species, for a (..., m, m)
    stack: entry (T, S) is det w[T, S], one batch of k x k minors per k."""
    m = w.shape[-1]
    out = np.zeros(w.shape[:-2] + (2 ** m, 2 ** m), dtype=np.result_type(w, float))
    for states, modes in zip(*_number_layout(m)[:2]):
        out[..., states[:, None], states] = np.linalg.det(
            w[..., modes[:, None, :, None], modes[None, :, None, :]])
    return out


def second_quantize_blocks(model: OneParticleModel, w) -> tuple[np.ndarray, ...]:
    """Gamma(w) as its number blocks G_0..G_n, for a mode-space map w (or a
    stack of them) that keeps the particle and the antiparticle modes apart.

    G_k is indexed by number_states(model)[k] and equals det w[T, S] there;
    it is gathered from the species factors Gamma(w+) and Gamma(w-).  See
    "Implementers" in the module docstring.
    """
    w = np.asarray(w)
    n, dp, dm = model.n_modes, model.d_plus, model.d_minus
    if w.shape[-2:] != (n, n):
        raise ValueError(f"mode-space operator must be {n}x{n}")
    if w[..., :dp, dp:].any() or w[..., dp:, :dp].any():
        raise ValueError("mode-space operator mixes particle and antiparticle modes")
    plus, minus = _species_gamma(w[..., :dp, :dp]), _species_gamma(w[..., dp:, dp:])
    low = (1 << dm) - 1
    blocks = []
    for states in number_states(model):
        p, q = states >> dm, states & low            # the particle and antiparticle bits
        blocks.append(plus[..., p[:, None], p] * minus[..., q[:, None], q])
    return tuple(blocks)


def apply_number_blocks(model: OneParticleModel, blocks, v: np.ndarray,
                        adjoint: bool = False) -> np.ndarray:
    """The operator with number blocks G_k (G_k^* with adjoint) applied to the
    vector v, one number block at a time."""
    out = np.zeros(model.dim, dtype=complex)
    for states, g in zip(number_states(model), blocks):
        out[states] = (g.conj().T if adjoint else g) @ v[states]
    return out


def lowering_entries(model: OneParticleModel) -> tuple[tuple[np.ndarray, ...], ...]:
    """Where the unit fields c_0..c_{n-1} have their entries in the lowering
    blocks, the number blocks from the number-k to the number-(k-1) states.

    Entry k-1 (k = 1..n) is (mode, col, sign), each of shape
    (len(number_states(model)[k-1]), n-k+1): row r of block k-1 meets the
    n-k+1 modes empty in its state, ascending, and c_{mode[r, i]} maps the
    number-k state at position col[r, i] to it with the sign sign[r, i].
    """
    return _number_layout(model.n_modes)[2]


def reflection_table(model: OneParticleModel) -> tuple[np.ndarray, np.ndarray]:
    """Gamma(tau) as a signed permutation (perm, sign), built once per model.

    Gamma(tau)[perm[i], i] = sign[i]: perm[i] occupies tau(j) for every mode j
    that i occupies, and sign[i] is the minor of "Implementers", (-1) to the
    number of mode pairs a < b occupied in i with tau(a) > tau(b).  Both come
    from the occupation bits, with no Fock-size matrix.
    """
    def build():
        if model.reflection_pairing is None:
            raise ModelError("model has no reflection_pairing")
        n = model.n_modes
        tau = np.array(model.reflection_pairing)
        occ = occupation_table(n)
        perm = occ @ (1 << (n - 1 - tau))
        inversions = np.zeros(model.dim, dtype=int)
        for a, b in itertools.combinations(range(n), 2):
            if tau[a] > tau[b]:
                inversions += occ[:, a] & occ[:, b]
        return perm, 1.0 - 2.0 * (inversions % 2)

    return model.cached("reflection_table", build)


def reflect_word(model: OneParticleModel, word: MaskWord) -> MaskWord:
    """Gamma(tau) M Gamma(tau)^* by the reflection table, in O(d) per row.

    tau permutes the occupation bits, so perm is linear in XOR and the mask
    S goes to perm[S].
    """
    perm, sign = reflection_table(model)
    vec = np.empty_like(word.vec)
    vec[..., perm] = sign[word.rows()] * sign * word.vec
    return MaskWord(perm[word.mask], vec)


def _majorana_words(model: OneParticleModel) -> tuple[MaskWord, ...]:
    """u_j = B(e_j + e_{n+j}) = c_j + c_j^+ per mode j, as mask words with entries
    +-1; built once per model, with read-only vectors."""
    def build() -> tuple[MaskWord, ...]:
        n = model.n_modes
        words = tuple(field_word(model, e) for e in np.hstack([np.eye(n), np.eye(n)]))
        for w in words:
            w.vec.flags.writeable = False
        return words

    return model.cached("majorana_words", build)


def reflection_automorphism(model: OneParticleModel, word: MaskWord) -> MaskWord:
    """alpha_tau(M) from the fields, B(f) -> B(tau f); of the reflection table it
    reads only the permutation, never the signs.

    M = U diag(x), with U the product of the Majorana words u_j over the modes
    j of M's mask in ascending order; U has entries +-1, so x = U.vec M.vec.
    alpha_tau maps U to the product of the u_tau(j) in the same order, and the
    occupation projector of state i to that of perm[i], so diag(x) goes to
    diag(y) with y[perm[i]] = x[i].  Each row of a stack tests its own mask
    bits: a row without mode j takes the identity in place of u_j, and
    multiplying by entries 1 and +-1 is exact either way.
    """
    perm, _ = reflection_table(model)
    n, tau = model.n_modes, model.reflection_pairing
    majorana = _majorana_words(model)

    def factor(u: MaskWord, bit) -> MaskWord:       # u where bit is 1, else 1
        return MaskWord(u.mask * bit, np.where(np.asarray(bit)[..., None] == 1, u.vec, 1.0))

    string = image = MaskWord(0, np.ones(model.dim))
    for j in range(n):
        bit = word.mask >> (n - 1 - j) & 1
        string, image = string @ factor(majorana[j], bit), image @ factor(majorana[tau[j]], bit)
    y = np.empty_like(word.vec)
    y[..., perm] = string.vec.real * word.vec
    return image @ MaskWord(0, y)


def rotation_modes(model: OneParticleModel, angle: float | None = None) -> np.ndarray:
    """The mode-space rotation exp(angle g) (real orthogonal, charge-commuting);
    angle defaults to the model's rotation_angle.

    g is made of 2x2 rotation blocks, so g^3 = -g and
    exp(angle g) = 1 + sin(angle) g + (1 - cos(angle)) g^2.
    """
    phi = model.rotation_angle if angle is None else float(angle)
    if phi is None:
        raise ModelError("model has no rotation")
    g = model.rotation_mode_generator()
    return np.eye(model.n_modes) + math.sin(phi) * g + (1.0 - math.cos(phi)) * (g @ g)


def _expi_hermitian(h: np.ndarray) -> np.ndarray:
    """e^{ih} of a Hermitian h (or a stack), as V diag(e^{i lambda}) V^* from its
    eigenbasis."""
    lam, v = np.linalg.eigh(h)
    return (v * np.exp(1j * lam)[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def _block_diag(*blocks: np.ndarray) -> np.ndarray:
    """The square blocks (or stacks of them) along the diagonal of one matrix,
    zero elsewhere."""
    size = sum(b.shape[-1] for b in blocks)
    batch = np.broadcast_shapes(*(b.shape[:-2] for b in blocks))
    out = np.zeros(batch + (size, size), dtype=np.result_type(*blocks))
    start = 0
    for b in blocks:
        stop = start + b.shape[-1]
        out[..., start:stop, start:stop] = b
        start = stop
    return out


def one_particle_map(model: OneParticleModel, w: np.ndarray) -> np.ndarray:
    """The 2n x 2n doubled-space map u with Gamma(w) B(f) Gamma(w)^* = B(u f),
    for a mode-space map w (or a stack) that keeps the species apart.

    Copy A raises the particle modes and lowers the antiparticle modes, so on
    copy A u is a = w+ (+) conj(w-); copy B carries conj(a).
    """
    dp = model.d_plus
    a = _block_diag(w[..., :dp, :dp], np.conj(w[..., dp:, dp:]))
    return _block_diag(a, np.conj(a))


def bogolyubov_modes(model: OneParticleModel, h_plus: np.ndarray,
                     h_minus: np.ndarray) -> np.ndarray:
    """The mode-space map w whose Gamma(w) implements the Bogolyubov map
    u = (e^{ih+} (+) e^{ih-}) (+) conj on the doubled space.

    h_plus and h_minus are Hermitian blocks on the particle and antiparticle
    mode spaces, or stacks of them.  Antiparticle modes are raised by copy B,
    so w = e^{ih+} (+) conj(e^{ih-}), and one_particle_map(model, w) is u; u
    commutes with C and with the basis projection.
    """
    dp, dm = model.d_plus, model.d_minus
    h_plus = np.asarray(h_plus, dtype=complex)
    h_minus = np.asarray(h_minus, dtype=complex)
    if h_plus.shape[-2:] != (dp, dp) or h_minus.shape[-2:] != (dm, dm):
        raise ValueError("Bogolyubov generator blocks have wrong shapes")
    return _block_diag(_expi_hermitian(h_plus), np.conj(_expi_hermitian(h_minus)))


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


def _field_draws(model: OneParticleModel, fs) -> tuple[np.ndarray, bool]:
    """(draws, single): fs as an (m, k, 2n) stack of m draws of k doubled-space
    vectors, and whether fs was one sequence of k vectors (an empty sequence
    is one draw of length 0).  Any other shape is refused."""
    fs = np.asarray(fs, dtype=complex)
    if fs.size == 0 and fs.ndim == 1:
        fs = fs.reshape(0, model.doubled_dim)
    if fs.ndim not in (2, 3) or fs.shape[-1] != model.doubled_dim:
        raise ValueError(f"field vectors must have {model.doubled_dim} components, "
                         f"got shape {fs.shape}")
    single = fs.ndim == 2
    return (fs[None] if single else fs), single


def quasifree_npoint(model: OneParticleModel, s: np.ndarray, fs) -> complex | np.ndarray:
    """n-point function of the quasifree state with two-point operator S.

    fs is a sequence of k doubled-space vectors, or an (m, k, 2n) stack of m
    such draws, with one value per draw; S is validated once per call.  Odd
    length gives 0; even length 2n is the signed sum over the restricted
    permutations (equivalently perfect matchings) of products of two-point
    values <Cf_a, S f_b>, with the overall (-1)^{n(n-1)/2} prefactor.
    """
    s = validate_quasifree(model, s)
    draws, single = _field_draws(model, fs)
    k = draws.shape[1]
    values = np.zeros(len(draws), dtype=complex)
    if k % 2 == 1:
        return values[0] if single else values
    half = k // 2
    prefactor = (-1.0) ** (half * (half - 1) // 2)
    matchings = [(_permutation_sign([p[0] for p in pairs] + [p[1] for p in pairs]), pairs)
                 for pairs in _matchings(list(range(k)))]
    for i, vectors in enumerate(draws):
        images = [s @ f for f in vectors]
        pair_value = np.array([[np.vdot(ca, sf) for sf in images]
                               for ca in model.apply_conjugation(vectors)])
        total = 0.0 + 0.0j
        for sign, pairs in matchings:
            term = 1.0 + 0.0j
            for a, b in pairs:
                term *= pair_value[a, b]
            total += sign * term
        values[i] = prefactor * total
    return values[0] if single else values


def _apply_fields(model: OneParticleModel, fs: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """B(fs[b]) vecs[b] for every row b, through the _mode_flips tables in O(n d).

    terms[b, j] holds what mode j sends to each basis state; the sum over j
    is the field's action.
    """
    mode, src, dst, sign = _mode_flips(model.n_modes)
    lower_coef, raise_coef = _ladder_coefficients(model, fs)
    terms = np.zeros((len(vecs), model.n_modes, model.dim), dtype=complex)
    terms[:, mode, dst] = lower_coef[:, mode] * sign * vecs[:, src]
    terms[:, mode, src] = raise_coef[:, mode] * sign * vecs[:, dst]
    return terms.sum(axis=1)


def fock_npoint(model: OneParticleModel, fs) -> complex | np.ndarray:
    """Vacuum expectation <Omega, B(f_1)...B(f_k) Omega>, each B(f) applied to
    the vector by _apply_fields, with no field matrix.  fs is a sequence of k
    doubled-space vectors, or an (m, k, 2n) stack of m draws, which go
    through _apply_fields as one batch, with one value per draw."""
    draws, single = _field_draws(model, fs)
    omega = model.vacuum()
    vecs = np.broadcast_to(omega, (len(draws), model.dim))
    for j in reversed(range(draws.shape[1])):
        vecs = _apply_fields(model, draws[:, j], vecs)
    values = vecs @ omega.conj()
    return values[0] if single else values


def _lanczos(model: OneParticleModel, fs: np.ndarray,
             starts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two Lanczos steps on X = B(f)^* B(f) = B(Cf) B(f) for each row f of fs,
    from the matching row of starts; see "Norms".

    Returns (ritz, residual, one_step) per row: the larger Ritz value, the
    Lanczos residual after the last step taken relative to it, and whether
    the run stopped after one step (X v = alpha0 v).  A row whose numbers
    are not finite gets a NaN residual.
    """
    adjoints = model.apply_conjugation(fs)

    def gram(x: np.ndarray) -> np.ndarray:
        return _apply_fields(model, adjoints, _apply_fields(model, fs, x))

    def inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.einsum("bi,bi->b", a.conj(), b).real

    with np.errstate(all="ignore"):
        v = starts / np.linalg.norm(starts, axis=1, keepdims=True)
        w = gram(v)
        alpha0 = inner(v, w)
        r = w - alpha0[:, None] * v
        beta1 = np.linalg.norm(r, axis=1)
        one_step = beta1 <= LANCZOS_CERTIFICATE * np.abs(alpha0)
        q = r / np.where(one_step, 1.0, beta1)[:, None]
        u = gram(q)
        alpha1 = inner(q, u)
        beta2 = np.linalg.norm(u - alpha1[:, None] * q - beta1[:, None] * v, axis=1)
        ritz = np.where(one_step, alpha0,
                        0.5 * (alpha0 + alpha1) + np.hypot(0.5 * (alpha0 - alpha1), beta1))
        residual = np.where(one_step, beta1, beta2) / np.abs(ritz)
    residual[one_step & (ritz == 0.0)] = 0.0        # X = 0, so B(f) = 0
    residual[~np.isfinite(ritz)] = math.nan
    return ritz, residual, one_step


def field_norms(model: OneParticleModel, fs, rng: np.random.Generator) -> np.ndarray:
    """The operator norms of B(f) for the rows f of fs, with no field matrix.

    Each norm is the square root of a certified Lanczos Ritz value of
    B(f)^* B(f) from a random start drawn from rng; a row that the
    certificate rejects gets NaN.  See "Norms".
    """
    fs = np.asarray(fs, dtype=complex)
    if fs.ndim != 2 or fs.shape[1] != model.doubled_dim:
        raise ValueError(f"field vectors must be rows of {model.doubled_dim} components, "
                         f"got shape {fs.shape}")
    shape = (len(fs), model.dim)
    starts = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ritz, residual = np.empty(len(fs)), np.empty(len(fs))
    for rows in range(0, len(fs), LANCZOS_BATCH):
        batch = slice(rows, rows + LANCZOS_BATCH)
        ritz[batch], residual[batch], _ = _lanczos(model, fs[batch], starts[batch])
    norms = np.sqrt(np.maximum(ritz, 0.0))
    norms[~(residual <= LANCZOS_CERTIFICATE)] = math.nan
    return norms


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
