"""Output checks on `dswarp verify` reports and `dswarp deform` matrices.

Nothing here is copied from a recorded run.  The checks re-derive every
verdict from `max_residual` and `tolerance`, derive the expected check names
from the config, check the margins the negative control and the witnesses
must keep, and rebuild the warped field matrix from the documented
conventions.  Each function returns a list of problems; empty means correct.
"""

from __future__ import annotations

import json
import math

import numpy as np

CHECK_NAMES = {
    "geometry": ["clifford-relations", "pseudoscalar-is-minus-one", "eta-identity",
                 "embed-extract-roundtrip"],
    "covering": ["kernel-plus-minus-one", "boost-cover-matches-base",
                 "homomorphism-100-words", "two-to-one-sign",
                 "stabilizer-commutes-with-boost"],
    "lie": ["structure-constants-100-brackets", "table-subgroups-commute",
            "rotation-flow-periodicity", "reflection-obstruction-grid"],
    "wedges": ["boost-preserves-reference-wedge", "reflection-maps-to-complement",
               "complement-spacelike", "rigidity-witness-200-pairs"],
    "car": ["car-anticommutators", "cstar-norm-formula", "quasifree-matches-fock",
            "bogolyubov-implementation", "vacuum-invariance"],
    "deformation": ["warp-at-zero-is-identity", "warp-fixes-unit", "adjoint-compatibility",
                    "rieffel-homomorphism", "rieffel-associativity", "warp-inverse",
                    "vacuum-invariance", "deformed-commutant",
                    "deformed-twisted-commutant", "covariance-identities"],
    "oracle": ["oracle-gaussian-final-residual", "oracle-gaussian-monotone-decay",
               "oracle-cosine-final-residual", "oracle-cosine-monotone-decay"],
    "fixed_point": ["derivative-commutator-equivalence", "sector-projector-is-fixed",
                    "cross-frequency-observable-moves"],
    "inequivalence": ["witness-vanishes-without-deformation", "witness-nonzero",
                      "witness-monotone-in-kappa"],
}

ORACLE_FINAL_MAX = 1e-3
MOVES_MIN = 1e-6
DEFORM_ATOL = 1e-12


def expected_check_names(suite: str, cfg: dict) -> list[str]:
    """Check names, in order, that a suite reports for this config."""
    if suite == "locality":
        return (["twisted-locality"] * len(cfg["deformation"]["kappa"])
                + ["negative-control-missing-flip", "boost-stabilizer-invariance",
                   "reflected-in-twisted-commutant", "gauge-invariance",
                   "net-well-defined"])
    return CHECK_NAMES[suite]


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON token {token}")


def parse_report(text: str):
    """The report as JSON, refusing NaN and Infinity tokens."""
    return json.loads(text, parse_constant=_reject_constant)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def check_report(text: str, cfg: dict, exit_code: int, schema: dict) -> list[str]:
    """Every problem with one verify report written for config `cfg`."""
    import jsonschema

    problems = []
    if exit_code != 0:
        problems.append(f"dswarp verify exited with code {exit_code}")
    try:
        report = parse_report(text)
        jsonschema.validate(report, schema)
    except (ValueError, jsonschema.ValidationError) as exc:
        return problems + [f"report is not valid: {str(exc).splitlines()[0]}"]

    if report["seed"] != cfg["model"]["seed"]:
        problems.append(f"report seed {report['seed']} != {cfg['model']['seed']}")
    for section in ("model", "deformation", "tolerances"):
        for key, value in cfg[section].items():
            if report["config"].get(section, {}).get(key) != value:
                problems.append(f"report config {section}.{key} differs from the input")

    suites = [s["name"] for s in report["suites"]]
    if suites != cfg["suites"]:
        problems.append(f"suites {suites} != requested {cfg['suites']}")
    verdicts = []
    for suite in report["suites"]:
        checks = suite["checks"]
        names = [c["name"] for c in checks]
        if suite["name"] in cfg["suites"]:
            expected = expected_check_names(suite["name"], cfg)
            if names != expected:
                problems.append(f"[{suite['name']}] checks {names} != expected {expected}")
        if suite["name"] == "locality":
            kappas = [c["metadata"].get("kappa") for c in checks
                      if c["name"] == "twisted-locality"]
            if kappas != [float(k) for k in cfg["deformation"]["kappa"]]:
                problems.append(f"[locality] twisted-locality kappas {kappas} != config")
        for c in checks:
            where = f"[{suite['name']}] {c['name']}"
            if not (_finite(c["max_residual"]) and _finite(c["tolerance"])):
                problems.append(f"{where}: non-finite residual or tolerance")
                verdicts.append(False)
                continue
            derived = c["max_residual"] <= c["tolerance"]
            if c["pass"] != derived:
                problems.append(f"{where}: verdict {c['pass']} but residual "
                                f"{c['max_residual']!r} vs tolerance {c['tolerance']!r}")
            if not derived:
                problems.append(f"{where}: FAIL, residual {c['max_residual']!r} > "
                                f"tolerance {c['tolerance']!r}")
            verdicts.append(derived)
        problems += _margin_problems(suite["name"], {c["name"]: c for c in checks})
    if report["all_pass"] != all(verdicts):
        problems.append(f"all_pass {report['all_pass']} but derived {all(verdicts)}")
    return problems


def _margin_problems(suite: str, checks: dict) -> list[str]:
    """Margins of the negative control, the witnesses and the oracle."""
    problems = []

    def meta(name):
        return checks[name].get("metadata", {}) if name in checks else {}

    def above(value, floor, what, strict=True):
        if not (_finite(value) and _finite(floor)
                and (value > floor if strict else value >= floor)):
            relation = "exceed" if strict else "reach"
            problems.append(f"[{suite}] {what}: {value!r} does not {relation} {floor!r}")

    if suite == "locality":
        m = meta("negative-control-missing-flip")
        above(m.get("must_exceed"), 0.0, "negative-control must_exceed")
        above(m.get("observed"), m.get("must_exceed"), "negative-control observed",
              strict=False)
    elif suite == "inequivalence":
        m = meta("witness-nonzero")
        above(m.get("must_exceed"), 0.0, "witness must_exceed")
        for key in ("group_residual", "fock_residual"):
            above(m.get(key), m.get("must_exceed"), f"witness {key}", strict=False)
        m = meta("witness-monotone-in-kappa")
        above(m.get("fock_large"), m.get("fock_small"), "fock_large over fock_small")
    elif suite == "fixed_point":
        m = meta("cross-frequency-observable-moves")
        above(m.get("derivative"), MOVES_MIN, "cross-frequency derivative")
        above(m.get("moved"), MOVES_MIN, "cross-frequency moved")
    elif suite == "oracle":
        for cutoff in ("gaussian", "cosine"):
            final = checks.get(f"oracle-{cutoff}-final-residual")
            if final is None:
                continue
            eps = final["metadata"].get("epsilons", [])
            res = final["metadata"].get("residuals", [])
            if len(eps) != len(res) or len(res) < 2 or not all(map(_finite, eps + res)):
                problems.append(f"[{suite}] {cutoff}: bad eps/residual sequences")
                continue
            if not all(a > b for a, b in zip(eps, eps[1:])):
                problems.append(f"[{suite}] {cutoff}: epsilons not decreasing")
            if not all(a > b for a, b in zip(res, res[1:])):
                problems.append(f"[{suite}] {cutoff}: residuals {res} not strictly "
                                f"decreasing in eps")
            if not res[-1] <= ORACLE_FINAL_MAX or final["max_residual"] != res[-1]:
                problems.append(f"[{suite}] {cutoff}: final residual {res[-1]!r} "
                                f"(reported {final['max_residual']!r}) above {ORACLE_FINAL_MAX}")
    return problems


def warped_field(model: dict, mode: int, kappa: float) -> np.ndarray:
    """warp_kappa(B(e_mode)) built from the documented Fock conventions.

    Basis state i occupies mode j iff bit n-1-j of i is set.  c_j carries the
    Jordan-Wigner sign (-1)^(occupied modes below j).  Doubled-space component
    `mode` < n is copy A of mode j = mode, which creates a particle (j < d_plus)
    or annihilates an antiparticle; copy B (mode >= n) does the opposite.  The
    warp multiplies entry (i, k) by exp(i kappa (phi_i q_k - q_i phi_k)).
    """
    dp, dm = int(model["d_plus"]), int(model["d_minus"])
    n = dp + dm
    freqs = np.array(list(model["boost_freqs_plus"]) + list(model["boost_freqs_minus"]),
                     dtype=float)
    charges = np.array([1] * dp + [-1] * dm)
    states = np.arange(2 ** n)
    occ = (states[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1
    phi, q = occ @ freqs, occ @ charges

    j = mode % n
    lower = np.zeros((2 ** n, 2 ** n))
    occupied = states[occ[:, j] == 1]
    signs = (-1.0) ** occ[occupied, :j].sum(axis=1)
    lower[occupied ^ (1 << (n - 1 - j)), occupied] = signs
    creates = (mode < n) == (j < dp)
    field = lower.T if creates else lower
    return field * np.exp(1j * kappa * (np.outer(phi, q) - np.outer(q, phi)))


def check_deform(text: str, exit_code: int, model: dict, mode: int,
                 kappa: float) -> list[str]:
    """Compare `dswarp deform --generator b` output entry by entry."""
    if exit_code != 0:
        return [f"dswarp deform exited with code {exit_code}"]
    try:
        payload = parse_report(text)
        flat = np.array(payload["matrix_row_major"], dtype=float)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"deform output is not valid: {exc}"]
    expected = warped_field(model, mode, kappa)
    problems = []
    if (payload.get("generator"), payload.get("mode"), payload.get("kappa"),
            payload.get("dim")) != ("b", mode, kappa, expected.shape[0]):
        problems.append("deform header does not echo generator/mode/kappa/dim")
    if flat.shape != (expected.size, 2):
        return problems + [f"deform matrix has shape {flat.shape}, "
                           f"expected {(expected.size, 2)}"]
    got = (flat[:, 0] + 1j * flat[:, 1]).reshape(expected.shape)
    if not np.all(np.isfinite(got)):
        return problems + ["deform matrix has non-finite entries"]
    diff = np.abs(got - expected)
    if diff.max() > DEFORM_ATOL:
        r, c = np.unravel_index(int(diff.argmax()), diff.shape)
        problems.append(f"deform entry ({r}, {c}) = {got[r, c]} differs from the "
                        f"reference {expected[r, c]} by {diff[r, c]:.3e}")
    return problems
