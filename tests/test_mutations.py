"""Mutation matrix: each check of the default report shown able to fail.

A mutant is a named replacement of one program function.  It is patched in
every dswarp module that holds the function under its name (a module that
imported it by name keeps its own reference).  Each mutant declares the
check IDs that must FAIL on the default config, and runs only the suites
those checks belong to, each with the generator the default run gives it.
An open mutant fails no check yet and names the ROADMAP item that will kill
it; it is a strict xfail, so the change that kills it must move it to
MUTANTS.

Mutation testing: DeMillo, Lipton and Sayward, "Hints on test data
selection", IEEE Computer 11 (1978).
"""

import sys

import numpy as np
import pytest

from dswarp import car_fock, cli, deformation, geometry, verification
from dswarp import spin_group as sg
from dswarp import wedges as wd


def _membership(reduce):
    """A wedge_contains that gates reduce(y) in place of y1 - |y0|, y = frame^-1 x."""
    def contains(w, x):
        y = np.einsum("ij,...j->...i", np.linalg.inv(w.frame)[:2], np.asarray(x, dtype=float))
        inside = reduce(y[..., 0], y[..., 1]) > wd.MEMBERSHIP_MARGIN
        return bool(inside) if inside.ndim == 0 else inside
    return contains


_SECOND_QUANTIZE_BLOCKS = car_fock.second_quantize_blocks


def _gamma_of_the_transpose(model, w):
    """Number blocks of Gamma(w^T) in place of Gamma(w)."""
    return _SECOND_QUANTIZE_BLOCKS(model, np.swapaxes(w, -1, -2))


_WARP_ANGLES = deformation.warp_angles
_QUASIFREE_NPOINT = car_fock.quasifree_npoint
_STRUCTURE_RHS = sg.structure_rhs
_BOOST_COVER = sg.boost_cover
_EXTRACT_POINT = geometry.extract_point


def _extract_point_x2_negated(m, tol=1e-8):
    """extract_point with the x2 coordinate of every point negated."""
    return _EXTRACT_POINT(m, tol) * np.array([1.0, 1.0, -1.0, 1.0, 1.0])


def _quasifree_npoint_sign_flipped(model, s, fs):
    """quasifree_npoint with its sign flipped for the lengths 2 mod 4."""
    value = _QUASIFREE_NPOINT(model, s, fs)
    return -value if len(fs) % 4 == 2 else value


def _reflect_word_unsigned(model, word):
    """reflect_word with the permutation of the reflection table and none of
    its signs."""
    perm, _ = car_fock.reflection_table(model)
    vec = np.empty_like(word.vec)
    vec[perm] = word.vec
    return car_fock.MaskWord(int(perm[word.mask]), vec)


def _car_norm_bound_minus(model, f):
    """car_norm_bound with the square root of the pairing term subtracted."""
    f = np.asarray(f, dtype=complex)
    norm2 = float(np.real(np.vdot(f, f)))
    pairing = abs(np.vdot(f, model.apply_conjugation(f)))
    inner = max(norm2 ** 2 - pairing ** 2, 0.0)
    return float(np.sqrt(0.5 * (norm2 - np.sqrt(inner))))


# name -> (module, function name, replacement, suites, check IDs that must FAIL)
MUTANTS = {
    # e^{ih} of a complex Hermitian h is not symmetric, so Gamma(w^T) does not
    # implement u; the block residual is 3.7 on the default config
    "second_quantize_blocks-of-the-transpose": (
        car_fock, "second_quantize_blocks", _gamma_of_the_transpose, ["car"],
        {"bogolyubov-implementation"}),
    # with the identity as the rotation's implementer the rotated warp is the
    # straight one, so the Fock witness is 0 at every kappa
    "rotation_modes-identity": (
        car_fock, "rotation_modes", lambda model, angle=None: np.eye(model.n_modes),
        ["inequivalence"], {"witness-nonzero"}),
    "wedge_contains-y0-y1-swapped": (
        wd, "wedge_contains", _membership(lambda y0, y1: y0 - np.abs(y1)), ["wedges"],
        {"boost-preserves-reference-wedge", "reflection-maps-to-complement",
         "rigidity-witness-200-pairs"}),
    "wedge_contains-abs-y0-dropped": (
        wd, "wedge_contains", _membership(lambda y0, y1: y1 - y0), ["wedges"],
        {"rigidity-witness-200-pairs"}),
    # no deformation: the derivative is 0 at every sector entry and on the
    # mover, so the derivative-commutator residual is exactly 1
    "angle_matrix-zero": (
        deformation, "warp_angles",
        lambda model, rows, cols: np.zeros_like(_WARP_ANGLES(model, rows, cols)),
        ["fixed_point"], {"derivative-commutator-equivalence",
                          "cross-frequency-observable-moves"}),
    # a doubled angle doubles the derivative: residual 1.0
    "angle_matrix-doubled": (
        deformation, "warp_angles",
        lambda model, rows, cols: 2.0 * _WARP_ANGLES(model, rows, cols),
        ["fixed_point"], {"derivative-commutator-equivalence"}),
    # the charge-free angle phi_i - phi_j drops the factor n: residual 2.0
    "angle_matrix-phi-only": (
        deformation, "warp_angles",
        lambda model, rows, cols: model.phases[rows] - model.phases[cols],
        ["fixed_point"], {"derivative-commutator-equivalence"}),
    # kappa's sign flipped in the closed form only: the oscillatory integral
    # keeps the true sign, so both cutoffs end at residual 1.68
    "angle_matrix-negated": (
        deformation, "warp_angles", lambda model, rows, cols: -_WARP_ANGLES(model, rows, cols),
        ["oracle"],
        {"oracle-gaussian-final-residual", "oracle-gaussian-monotone-decay",
         "oracle-cosine-final-residual", "oracle-cosine-monotone-decay"}),
    # the twist Z = 1 leaves a plain commutator, which two odd fields on
    # opposite wedges miss by 2.0: residual 2.0
    "twist_phases-ones": (
        car_fock, "twist_phases", lambda model: np.ones(model.dim, dtype=complex),
        ["locality", "deformation"], {"twisted-locality", "deformed-twisted-commutant"}),
    # the matching prefactor wrong on the lengths 2 and 6: residual 17.55
    "quasifree_npoint-sign-flipped-2-mod-4": (
        car_fock, "quasifree_npoint", _quasifree_npoint_sign_flipped, ["car"],
        {"quasifree-matches-fock"}),
    # Gamma(tau) as the bare permutation of the states: its conjugation no
    # longer matches the reflection on the fields, residual 6.79
    "reflect_word-unsigned": (
        car_fock, "reflect_word", _reflect_word_unsigned, ["deformation"],
        {"covariance-identities"}),
    # the smaller root of the C*-norm formula: the worst field is off by 4.90
    "car_norm_bound-minus-sqrt": (
        car_fock, "car_norm_bound", _car_norm_bound_minus, ["car"], {"cstar-norm-formula"}),
    # the complement left unreflected is the wedge itself
    "causal_complement-unreflected": (
        wd, "causal_complement", lambda w: w, ["wedges"],
        {"reflection-maps-to-complement", "complement-spacelike"}),
    # every structure constant with its sign flipped: residual 2.0
    "structure_rhs-negated": (
        sg, "structure_rhs", lambda mu, nu, rho, sig: -_STRUCTURE_RHS(mu, nu, rho, sig),
        ["lie"], {"structure-constants-100-brackets"}),
    # the lift at rapidity 2 pi t covers the boost at 2t: residual 1.43e5
    "boost_cover-doubled-rapidity": (
        sg, "boost_cover", lambda t: _BOOST_COVER(2.0 * np.asarray(t)), ["covering"],
        {"boost-cover-matches-base"}),
    # the roundtrip returns each point with x2 negated: residual 6.66
    "extract_point-x2-negated": (
        geometry, "extract_point", _extract_point_x2_negated, ["geometry"],
        {"embed-extract-roundtrip"}),
}

# Open mutants: nothing fails yet, and a named ROADMAP item will kill them.
# name -> (module, function name, replacement, suites, item)
OPEN_MUTANTS = {
    # kappa's sign flipped in the closed form: the deformation identities hold
    # for any real antisymmetric angle, since rieffel_word is built from
    # warp_word itself
    "angle_matrix-negated-deformation": (
        deformation, "warp_angles", lambda model, rows, cols: -_WARP_ANGLES(model, rows, cols),
        ["deformation"],
        "ROADMAP item 2: the Rieffel product from the charge grading"),
}


def _patch_everywhere(monkeypatch, module, name, replacement):
    original = getattr(module, name)
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").split(".")[0] == "dswarp"
                and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, replacement)


def _failing_checks(suites) -> dict[str, float]:
    """Residuals of the failing checks of the given suites on the default config."""
    cfg = cli.validate_config(cli.load_config(None))
    model = cli.model_from_config(cfg)
    failing = {}
    for name in suites:
        rng = np.random.default_rng([model.seed, cfg["suites"].index(name)])
        for check in verification.SUITES[name](model, cfg, rng):
            if not check.passed:
                failing[check.name] = check.max_residual
    return failing


@pytest.mark.parametrize("suites", sorted({tuple(m[3]) for m in [*MUTANTS.values(),
                                                                  *OPEN_MUTANTS.values()]}),
                         ids="-".join)
def test_unmutated_suites_pass(suites):
    assert _failing_checks(suites) == {}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_killed(monkeypatch, name):
    module, attr, replacement, suites, killed_by = MUTANTS[name]
    _patch_everywhere(monkeypatch, module, attr, replacement)
    assert set(_failing_checks(suites)) == killed_by


def test_zero_angle_fails_every_dense_fixed_point_draw(monkeypatch):
    """With no deformation the derivative is 0 at every sector entry, so the
    residual is the largest |n (phi_i - phi_j)| over the scale: exactly 1."""
    module, attr, replacement, suites, _ = MUTANTS["angle_matrix-zero"]
    _patch_everywhere(monkeypatch, module, attr, replacement)
    assert _failing_checks(suites)["derivative-commutator-equivalence"] == 1.0


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=f"open: {item}"))
    for name, (*_, item) in sorted(OPEN_MUTANTS.items())])
def test_open_mutant_fails_a_check(monkeypatch, name):
    """Open mutants fail no check today; a change that kills one moves it to MUTANTS."""
    module, attr, replacement, suites, _ = OPEN_MUTANTS[name]
    _patch_everywhere(monkeypatch, module, attr, replacement)
    assert _failing_checks(suites)
