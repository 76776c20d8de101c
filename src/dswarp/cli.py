"""Batch entry point: JSON config in, machine-readable verification reports out.

Subcommands: verify (run suites), group (covering/Lie computations), wedges
(region probes), deform (warp a named generator), oracle (regularized integral
sweep), report (render a report JSON as a table).  Exit codes: 0 all checks
pass, 1 check failure, 2 config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from . import geometry
from . import spin_group as sg
from . import wedges as wd
from .car_fock import (MAX_MODES, FockOperator, ModelError, OneParticleModel,
                       bogolyubov_fock, boost_phases, car_norm_bound, charge_projector,
                       cospinor, field_B, fock_npoint, gauge_phases, identity_op,
                       quasifree_npoint, spinor, twist_phases)
from .deformation import (DeformationContext, covariance_transform, oracle_residuals,
                          rieffel_product, warp, warp_inverse_check, warp_word)
from .verification import (CheckReport, causal_borchers_axioms, check_twisted_locality,
                           fixed_point_residual, inequivalence_witness,
                           net_well_defined_residual, random_monomial, worst)

DEFAULT_KAPPA_GRID = [-1.0, -0.5, -0.1, 0.0, 0.1, 0.5, 1.0]

DEFAULT_CONFIG = {
    "model": {
        "d_plus": 2,
        "d_minus": 2,
        "boost_freqs_plus": [1.0, -1.0],
        "boost_freqs_minus": [1.0, -1.0],
        "localized_modes": [0, 2],
        "reflection_pairing": [1, 0, 3, 2],
        "rotation_angle": 0.7853981633974483,
        "seed": 7,
    },
    "deformation": {"kappa": DEFAULT_KAPPA_GRID},
    "tolerances": {"exact": 1e-12, "composed": 1e-10, "oracle": 1e-3},
    "suites": ["geometry", "covering", "lie", "wedges", "car", "deformation",
               "oracle", "locality", "fixed_point", "inequivalence"],
    "output": "out",
}

class ConfigError(ValueError):
    """Invalid run configuration."""


def load_config(path: str | None) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        for key, value in user.items():
            if key not in cfg:
                raise ConfigError(f"unknown config section {key!r}")
            if isinstance(cfg[key], dict):
                if not isinstance(value, dict):
                    raise ConfigError(f"config section {key!r} must be an object")
                cfg[key].update(value)
            else:
                cfg[key] = value
    return cfg


def validate_config(cfg: dict) -> dict:
    m = cfg["model"]
    try:
        d_plus, d_minus = int(m["d_plus"]), int(m["d_minus"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad mode counts: {exc}") from exc
    if d_plus + d_minus > MAX_MODES:
        raise ConfigError(f"d_plus + d_minus = {d_plus + d_minus} exceeds the "
                          f"Fock-dimension guard ({MAX_MODES} modes)")
    seed = m.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"model.seed must be a non-negative integer, got {seed!r}")
    kappas = cfg["deformation"].get("kappa", DEFAULT_KAPPA_GRID)
    if not isinstance(kappas, list) or not kappas:
        raise ConfigError("deformation.kappa must be a nonempty list")
    for k in kappas:
        if not _finite_real(k):
            raise ConfigError(f"deformation parameter {k!r} is not a finite real")
    suites = cfg["suites"]
    if not isinstance(suites, list) or not suites:
        raise ConfigError("suites must be a nonempty list")
    unknown = [s for s in suites if s not in SUITES]
    if unknown:
        raise ConfigError(f"unknown suites {unknown}; available: {list(SUITES)}")
    if len(set(suites)) != len(suites):
        raise ConfigError("each suite may be requested at most once")
    for name, value in cfg["tolerances"].items():
        if not _finite_real(value) or value <= 0:
            raise ConfigError(f"tolerance {name!r} must be a positive finite number")
    return cfg


def _finite_real(value) -> bool:
    """A finite int or float; bool is refused although it is an int subclass."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def model_from_config(cfg: dict) -> OneParticleModel:
    m = cfg["model"]
    try:
        return OneParticleModel(
            d_plus=m["d_plus"], d_minus=m["d_minus"],
            boost_freqs_plus=m["boost_freqs_plus"],
            boost_freqs_minus=m["boost_freqs_minus"],
            localized_modes=m["localized_modes"],
            reflection_pairing=m.get("reflection_pairing"),
            rotation_angle=m.get("rotation_angle"),
            seed=m.get("seed", 0),
        )
    except (KeyError, ModelError, ValueError) as exc:
        raise ConfigError(f"invalid model: {exc}") from exc


def _rng(cfg: dict, suite_index: int) -> np.random.Generator:
    return np.random.default_rng([int(cfg["model"].get("seed", 0)), suite_index])


def _random_operator(model: OneParticleModel, rng: np.random.Generator) -> FockOperator:
    m = rng.standard_normal((model.dim, model.dim)) + 1j * rng.standard_normal((model.dim, model.dim))
    return FockOperator(m, model)


def _random_doubled_vector(model: OneParticleModel, rng: np.random.Generator) -> np.ndarray:
    d = model.doubled_dim
    return rng.standard_normal(d) + 1j * rng.standard_normal(d)


# -- suites ---------------------------------------------------------------------

def suite_geometry(model: OneParticleModel, cfg: dict, rng) -> list[CheckReport]:
    tol = cfg["tolerances"]
    points = geometry.sample_hyperboloid(1000, rng)
    eta_res = worst(geometry.eta_identity_residual(points))
    round_res = worst(np.max(np.abs(geometry.extract_point(geometry.embed_point(points))
                                    - points), axis=1))
    pseudo = float(np.max(np.abs(geometry.pseudoscalar() + np.eye(4))))
    return [
        CheckReport("clifford-relations", geometry.clifford_residual(), tol["exact"]),
        CheckReport("pseudoscalar-is-minus-one", pseudo, tol["exact"]),
        CheckReport("eta-identity", eta_res, tol["exact"], {"points": 1000}),
        CheckReport("embed-extract-roundtrip", round_res, 1e-10, {"points": 1000}),
    ]


def _max_abs_per_matrix(a: np.ndarray) -> np.ndarray:
    return np.max(np.abs(a), axis=(-2, -1))


def suite_covering(model: OneParticleModel, cfg: dict, rng) -> list[CheckReport]:
    tol = cfg["tolerances"]
    ident = sg.spin_identity()
    kernel_res = worst([
        np.max(np.abs(sg.covering_hom(ident) - np.eye(5))),
        np.max(np.abs(sg.covering_hom(-ident) - np.eye(5))),
    ])
    ts = np.array([0.1, 0.5, 1.0])
    boost_res = worst(_max_abs_per_matrix(sg.covering_hom(sg.boost_cover(ts))
                                          - np.stack([sg.boost_base(t) for t in ts])))
    words = sg.random_spin_words(rng, 200)      # drawn as g, h, g, h, ...
    g, h = words[0::2], words[1::2]
    hom = _max_abs_per_matrix(sg.covering_hom(g @ h)
                              - sg.covering_hom(g) @ sg.covering_hom(h))
    g = sg.random_spin_words(rng, 20)
    sign = _max_abs_per_matrix(sg.covering_hom(g) - sg.covering_hom(-g))
    commute = []
    for t in (0.3, -0.6):
        lam = sg.boost_base(t)
        for _ in range(5):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            if np.linalg.det(q) < 0:
                q[:, 0] = -q[:, 0]
            stab = np.eye(5)
            rapidity = float(rng.uniform(-1, 1))
            stab[:2, :2] = [[np.cosh(rapidity), np.sinh(rapidity)],
                            [np.sinh(rapidity), np.cosh(rapidity)]]
            stab[2:, 2:] = q
            commute.append(np.max(np.abs(stab @ lam - lam @ stab)))
    return [
        CheckReport("kernel-plus-minus-one", kernel_res, tol["exact"]),
        CheckReport("boost-cover-matches-base", boost_res, tol["composed"]),
        CheckReport("homomorphism-100-words", worst(hom), tol["composed"]),
        CheckReport("two-to-one-sign", worst(sign), tol["exact"]),
        CheckReport("stabilizer-commutes-with-boost", worst(commute), tol["composed"]),
    ]


def suite_lie(model: OneParticleModel, cfg: dict, rng) -> list[CheckReport]:
    tol = cfg["tolerances"]
    basis = sg.lie_basis()
    bracket_res = worst(np.max(np.abs(sg.lie_bracket(a, b) - sg.structure_rhs(mu, nu, rho, sig)))
                        for mu, nu, a in basis for rho, sig, b in basis)
    abelian = []
    for tag in sorted(sg.ABELIAN_SUBGROUPS):
        for _ in range(5):
            t, s = rng.uniform(-1.5, 1.5, size=2)
            abelian.append(sg.abelian_commutation_residual(tag, t, s))
    period_res = float(np.max(np.abs(sg.abelian_flow("L1", 2 * np.pi, 2 * np.pi) - np.eye(5))))
    obstruction = sg.reflection_obstruction_check()
    return [
        CheckReport("structure-constants-100-brackets", bracket_res, tol["exact"]),
        CheckReport("table-subgroups-commute", worst(abelian), tol["composed"]),
        CheckReport("rotation-flow-periodicity", period_res, tol["composed"]),
        CheckReport("reflection-obstruction-grid", obstruction["max_residual"],
                    tol["composed"], {"grid": obstruction["grid"]}),
    ]


def suite_wedges(model: OneParticleModel, cfg: dict, rng) -> list[CheckReport]:
    w0 = wd.Wedge.reference()
    seed = int(cfg["model"].get("seed", 0))
    sample = wd.sample_wedge_points(w0, 500, seed=seed + 11)
    boost = sg.boost_base(0.4)
    boosted = (boost @ sample.points.T).T
    boost_mismatch = int(np.sum(~wd.wedge_contains(w0, boosted)))
    comp = wd.causal_complement(w0)
    reflected = (sg.reflection_base() @ sample.points.T).T
    refl_mismatch = int(np.sum(~wd.wedge_contains(comp, reflected)))

    comp_sample = wd.sample_wedge_points(comp, 60, seed=seed + 13)
    causal_violations = int(np.sum(~wd.spacelike_separated(
        sample.points[:60, None, :], comp_sample.points[None, :, :])))

    inconclusive = 0
    for pair_idx in range(200):
        g1 = sg.random_proper_lorentz(rng)
        g2 = sg.random_proper_lorentz(rng)
        w1, w2 = wd.Wedge(g1), wd.Wedge(g2)
        if wd.wedges_equal(w1, w2):
            continue
        result = wd.inclusion_rigidity_probe(w1, w2, n=100_000, seed=seed + pair_idx)
        if result.verdict != "WITNESS":
            inconclusive += 1
    return [
        CheckReport("boost-preserves-reference-wedge", float(boost_mismatch), 0.0,
                    {"points": 500}),
        CheckReport("reflection-maps-to-complement", float(refl_mismatch), 0.0),
        CheckReport("complement-spacelike", float(causal_violations), 0.0,
                    {"pairs": 60 * 60}),
        CheckReport("rigidity-witness-200-pairs", float(inconclusive), 0.0,
                    {"pairs": 200, "trials_cap": 100_000}),
    ]


def suite_car(model: OneParticleModel, cfg: dict, rng) -> list[CheckReport]:
    tol = cfg["tolerances"]
    car, norm = [], []
    for _ in range(200):
        f = _random_doubled_vector(model, rng)
        g = _random_doubled_vector(model, rng)
        bf, bg = field_B(model, f), field_B(model, g)
        anti = bf @ bg + bg @ bf
        target = complex(np.vdot(model.apply_conjugation(f), g)) * identity_op(model)
        car.append(anti.dist(target))
        norm.append(abs(bf.norm() - car_norm_bound(model, f)))

    s_fock = model.basis_projection()
    quasi = []
    for length in range(1, 7):
        for _ in range(12):
            fs = [_random_doubled_vector(model, rng) / 2.0 for _ in range(length)]
            lhs = quasifree_npoint(model, s_fock, fs)
            rhs = fock_npoint(model, fs)
            quasi.append(abs(lhs - rhs))

    bogo = []
    for _ in range(6):
        hp = rng.standard_normal((model.d_plus, model.d_plus))
        hm = rng.standard_normal((model.d_minus, model.d_minus))
        hp = hp + hp.T
        hm = hm + hm.T
        big_u, u_one = bogolyubov_fock(model, hp, hm)
        f = _random_doubled_vector(model, rng)
        lhs = big_u @ field_B(model, f) @ big_u.H
        rhs = field_B(model, u_one @ f)
        bogo.append(lhs.dist(rhs))
        bogo.append(np.linalg.norm(big_u.matrix @ model.vacuum() - model.vacuum()))

    omega = model.vacuum()
    vac_res = worst([
        np.linalg.norm(gauge_phases(model, 1.7) * omega - omega),
        np.linalg.norm(boost_phases(model, -2.3) * omega - omega),
    ])
    return [
        CheckReport("car-anticommutators", worst(car), tol["exact"], {"pairs": 200}),
        CheckReport("cstar-norm-formula", worst(norm), 1e-9, {"samples": 200}),
        CheckReport("quasifree-matches-fock", worst(quasi), tol["composed"],
                    {"max_length": 6}),
        CheckReport("bogolyubov-implementation", worst(bogo), tol["composed"]),
        CheckReport("vacuum-invariance", vac_res, tol["exact"]),
    ]


def suite_deformation(model: OneParticleModel, cfg: dict, rng) -> list[CheckReport]:
    tol = cfg["tolerances"]
    kappas = [float(k) for k in cfg["deformation"]["kappa"]]
    ctx0 = DeformationContext(model, 0.0)
    zero = []
    for _ in range(10):
        op = _random_operator(model, rng)
        zero.append(np.max(np.abs(warp(ctx0, op).matrix - op.matrix)))

    adjoint, homo, assoc, inverse, vacuum, unit = [], [], [], [], [], []
    omega = model.vacuum()
    for kappa in kappas:
        ctx = DeformationContext(model, kappa)
        for _ in range(12):
            f, g, h = (_random_operator(model, rng) for _ in range(3))
            adjoint.append(warp(ctx, f).H.dist(warp(ctx, f.H)))
            homo.append((warp(ctx, f) @ warp(ctx, g)).dist(
                warp(ctx, rieffel_product(ctx, f, g))))
            assoc.append(rieffel_product(ctx, rieffel_product(ctx, f, g), h).dist(
                rieffel_product(ctx, f, rieffel_product(ctx, g, h))))
            inverse.append(warp_inverse_check(ctx, f))
            vacuum.append(np.linalg.norm((warp(ctx, f).matrix - f.matrix) @ omega))
        unit.append(warp(ctx, identity_op(model)).dist(identity_op(model)))

    commutant, twisted, covariance = [], [], []
    z = twist_phases(model)
    for kappa in (0.5, 1.0, -0.7):
        ctx = DeformationContext(model, kappa)
        ctx_neg = ctx.with_kappa(-kappa)
        for _ in range(8):
            f_even = random_monomial(model, "W0", 1, rng)
            f_even = f_even @ f_even.H   # even element of the localized algebra
            g_even = random_monomial(model, "W0p", 1, rng)
            g_even = g_even @ g_even.H
            wf, wg = warp_word(ctx, f_even), warp_word(ctx_neg, g_even)
            commutant.append((wf @ wg - wg @ wf).norm())
            f_odd = random_monomial(model, "W0", 1, rng)
            g_odd = random_monomial(model, "W0p", 1, rng)
            zf = warp_word(ctx, f_odd).conjugated_by(z)
            wg_odd = warp_word(ctx_neg, g_odd)
            twisted.append((zf @ wg_odd - wg_odd @ zf).norm())
        for kind, param in (("gauge", 0.9), ("boost", 0.45), ("reflection", None),
                            ("rotation", 0.6)):
            op = _random_operator(model, rng)
            lhs, rhs = covariance_transform(ctx, op, kind, param)
            covariance.append(lhs.dist(rhs))

    return [
        CheckReport("warp-at-zero-is-identity", worst(zero), 0.0),
        CheckReport("warp-fixes-unit", worst(unit), tol["exact"]),
        CheckReport("adjoint-compatibility", worst(adjoint), tol["exact"]),
        CheckReport("rieffel-homomorphism", worst(homo), tol["composed"]),
        CheckReport("rieffel-associativity", worst(assoc), tol["composed"]),
        CheckReport("warp-inverse", worst(inverse), tol["exact"]),
        CheckReport("vacuum-invariance", worst(vacuum), tol["exact"]),
        CheckReport("deformed-commutant", worst(commutant), tol["composed"]),
        CheckReport("deformed-twisted-commutant", worst(twisted), tol["composed"]),
        CheckReport("covariance-identities", worst(covariance), tol["composed"]),
    ]


def oracle_sweep(model: OneParticleModel, kappa: float, epsilons: list[float]) -> dict:
    """Regularized-integral residuals of the first negative-charge spinor.

    Returns {cutoff: (residuals, strictly_decreasing)} for the gaussian and
    cosine cutoffs, one residual per regulator in epsilons.
    """
    ctx = DeformationContext(model, kappa)
    f_minus = np.zeros(model.n_modes)
    f_minus[model.d_plus if model.d_minus else 0] = 1.0
    op = spinor(model, f_minus)
    sweep = {}
    for cutoff in ("gaussian", "cosine"):
        residuals = oracle_residuals(ctx, op, epsilons, cutoff)
        sweep[cutoff] = (residuals, all(residuals[i] > residuals[i + 1]
                                        for i in range(len(residuals) - 1)))
    return sweep


def suite_oracle(model: OneParticleModel, cfg: dict, rng) -> list[CheckReport]:
    tol = cfg["tolerances"]
    epsilons = [0.1, 0.05, 0.025]
    kappa = 0.5
    checks = []
    for cutoff, (residuals, monotone) in oracle_sweep(model, kappa, epsilons).items():
        checks.append(CheckReport(
            f"oracle-{cutoff}-final-residual", residuals[-1], tol["oracle"],
            {"epsilons": epsilons, "residuals": residuals, "kappa": kappa}))
        checks.append(CheckReport(
            f"oracle-{cutoff}-monotone-decay", 0.0 if monotone else 1.0, 0.0,
            {"residuals": residuals}))
    return checks


def suite_locality(model: OneParticleModel, cfg: dict, rng) -> list[CheckReport]:
    tol = cfg["tolerances"]
    seed = int(cfg["model"].get("seed", 0))
    kappas = [k for k in cfg["deformation"]["kappa"]]
    checks = []
    for kappa in kappas:
        checks.append(check_twisted_locality(model, float(kappa), degree=4, seed=seed,
                                             n_samples=16, tolerance=tol["composed"]))
    neg = check_twisted_locality(model, 0.5, degree=2, seed=seed, n_samples=16,
                                 flip_kappa=False)
    threshold = 1e-2
    checks.append(CheckReport("negative-control-missing-flip",
                              worst([0.0, threshold - neg.max_residual]), 0.0,
                              {"observed": neg.max_residual, "must_exceed": threshold}))
    for rep in causal_borchers_axioms(model, 0.5, degree=2, seed=seed,
                                      tolerance=tol["composed"]):
        checks.append(rep)
    checks.append(CheckReport("net-well-defined", net_well_defined_residual(model, 0.5),
                              1e-8))
    return checks


def suite_fixed_point(model: OneParticleModel, cfg: dict, rng) -> list[CheckReport]:
    low, high = 1e-8, 1e-6
    inconsistent = 0
    for idx in range(100):
        if idx % 2 == 0:
            mat = np.diag(rng.standard_normal(model.dim)
                          + 1j * rng.standard_normal(model.dim))
            op = FockOperator(mat, model)
        else:
            op = _random_operator(model, rng)
            op = FockOperator(op.charge_shift(0), model)
        sectors, derivative = fixed_point_residual(model, op)
        charged = worst(r for n, r in sectors.items() if n != 0)
        both_zero = charged < low and derivative < low
        both_moving = charged > high and derivative > high
        if not (both_zero or both_moving):
            inconsistent += 1

    e1 = charge_projector(model, 1)
    sectors, derivative = fixed_point_residual(model, e1)
    e1_res = worst([*sectors.values(), derivative])
    ctx = DeformationContext(model, 0.3)
    e1_fixed = warp(ctx, e1).dist(e1)

    ops = model.annihilators()
    mover = FockOperator(ops[0].conj().T @ ops[1], model)  # distinct frequencies
    _, mover_derivative = fixed_point_residual(model, mover)
    mover_moved = warp(ctx, mover).dist(mover)
    return [
        CheckReport("derivative-commutator-equivalence", float(inconsistent), 0.0,
                    {"samples": 100, "low": low, "high": high}),
        CheckReport("sector-projector-is-fixed", worst([e1_res, e1_fixed]), 1e-8,
                    {"note": "non-scalar fixed point at finite dimension"}),
        CheckReport("cross-frequency-observable-moves",
                    worst([0.0, high - mover_derivative, high - mover_moved]), 0.0,
                    {"derivative": mover_derivative, "moved": mover_moved}),
    ]


def suite_inequivalence(model: OneParticleModel, cfg: dict, rng) -> list[CheckReport]:
    tol = cfg["tolerances"]
    zeros = []
    for kappa, phi in ((0.0, 0.8), (0.7, 0.0), (0.0, 0.0)):
        zeros.extend(inequivalence_witness(model, kappa, phi))
    group_res, fock_res = inequivalence_witness(model, 1.0, np.pi / 4)
    threshold = 0.1
    _, fock_small = inequivalence_witness(model, 0.1, np.pi / 4)
    return [
        CheckReport("witness-vanishes-without-deformation", worst(zeros), tol["exact"]),
        CheckReport("witness-nonzero",
                    worst([0.0, threshold - group_res, threshold - fock_res]), 0.0,
                    {"group_residual": group_res, "fock_residual": fock_res,
                     "must_exceed": threshold}),
        CheckReport("witness-monotone-in-kappa",
                    worst([0.0, fock_small - fock_res]), 0.0,
                    {"kappa_small": 0.1, "kappa_large": 1.0,
                     "fock_small": fock_small, "fock_large": fock_res}),
    ]


SUITES = {
    "geometry": suite_geometry,
    "covering": suite_covering,
    "lie": suite_lie,
    "wedges": suite_wedges,
    "car": suite_car,
    "deformation": suite_deformation,
    "oracle": suite_oracle,
    "locality": suite_locality,
    "fixed_point": suite_fixed_point,
    "inequivalence": suite_inequivalence,
}


# -- runner ----------------------------------------------------------------------

def run(cfg: dict) -> dict:
    """Execute the configured suites and assemble the run report."""
    validate_config(cfg)
    model = model_from_config(cfg)
    suites_out = []
    timings = {}
    all_pass = True
    for index, name in enumerate(cfg["suites"]):
        started = time.perf_counter()
        checks = SUITES[name](model, cfg, _rng(cfg, index))
        timings[name] = round(time.perf_counter() - started, 6)
        suites_out.append({"name": name, "checks": [c.as_dict() for c in checks]})
        all_pass = all_pass and all(c.passed for c in checks)
    return {
        "artifact": {"name": "dswarp", "version": __version__},
        "config": cfg,
        "seed": int(cfg["model"].get("seed", 0)),
        "suites": suites_out,
        "all_pass": bool(all_pass),
        "timings": timings,
    }


def report_payload_without_timings(report: dict) -> dict:
    out = dict(report)
    out.pop("timings", None)
    return out


def write_report(report: dict, out_dir: str, fmt: str = "json") -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "report.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    if fmt == "csv":
        csv_path = out / "sweep.csv"
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["suite", "kappa", "residual", "tolerance", "pass"])
            for suite in report["suites"]:
                for check in suite["checks"]:
                    kappa = check["metadata"].get("kappa", "")
                    writer.writerow([suite["name"], kappa, check["max_residual"],
                                     check["tolerance"], check["pass"]])
    return path


def validate_report_schema(report: dict):
    import jsonschema

    schema = json.loads(resources.files("dswarp").joinpath("report_schema.json")
                        .read_text(encoding="utf-8"))
    jsonschema.validate(report_payload_without_timings(report), schema)


def render_report_table(report: dict) -> str:
    lines = [f"dswarp {report['artifact']['version']}  seed={report['seed']}  "
             f"all_pass={report['all_pass']}"]
    for suite in report["suites"]:
        lines.append(f"\n[{suite['name']}]")
        for check in suite["checks"]:
            flag = "PASS" if check["pass"] else "FAIL"
            residual = check["max_residual"]
            residual = "non-finite" if residual is None else f"{residual:.3e}"
            lines.append(f"  {flag:4s}  {check['name']:42s} "
                         f"residual={residual}  "
                         f"tol={check['tolerance']:.1e}")
    return "\n".join(lines)


# -- subcommands -------------------------------------------------------------------

def _cmd_verify(args) -> int:
    cfg = load_config(args.config)
    if args.suite:
        cfg["suites"] = args.suite
    if args.kappa:
        cfg["deformation"]["kappa"] = [_parse_float(k, "--kappa") for k in args.kappa]
    if args.seed is not None:
        cfg["model"]["seed"] = args.seed
    if args.out:
        cfg["output"] = args.out
    report = run(cfg)
    validate_report_schema(report)
    path = write_report(report, cfg["output"], args.format)
    print(render_report_table(report))
    print(f"\nreport written to {path}")
    return 0 if report["all_pass"] else 1


def _cmd_group(args) -> int:
    t = args.t
    lam_cover = sg.boost_cover(t)
    pi_lam = sg.covering_hom(lam_cover)
    lam_base = sg.boost_base(t)
    payload = {
        "t": t,
        "covering_of_boost": pi_lam.tolist(),
        "base_boost": lam_base.tolist(),
        "boost_match_residual": float(np.max(np.abs(pi_lam - lam_base))),
        "kernel_residual": float(np.max(np.abs(sg.covering_hom(-sg.spin_identity())
                                               - np.eye(5)))),
        "obstruction": sg.reflection_obstruction_check(),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_wedges(args) -> int:
    rng = np.random.default_rng(args.seed)
    w0 = wd.Wedge.reference()
    g = sg.random_proper_lorentz(rng)
    moved = wd.Wedge(g)
    probe = wd.inclusion_rigidity_probe(w0, moved, seed=args.seed)
    payload = {
        "seed": args.seed,
        "reference_contains_e1": wd.wedge_contains(w0, [0.0, 1.0, 0.0, 0.0, 0.0]),
        "complement_contains_minus_e1": wd.wedge_contains(
            wd.causal_complement(w0), [0.0, -1.0, 0.0, 0.0, 0.0]),
        "random_pair_verdict": probe.verdict,
        "random_pair_trials": probe.trials,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _parse_float(text: str, option: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{option} value {text!r} is not a number") from None


def _require_finite(value: float, option: str) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"{option} must be finite, got {value!r}")
    return value


def _generator_by_name(model: OneParticleModel, name: str, mode: int) -> FockOperator:
    size = model.doubled_dim if name == "b" else model.n_modes
    if not 0 <= mode < size:
        raise ConfigError(f"--mode {mode} is out of range for generator {name!r}: "
                          f"expected 0..{size - 1}")
    if name == "psi":
        vec = np.zeros(model.n_modes)
        vec[mode] = 1.0
        return spinor(model, vec)
    if name == "psidag":
        vec = np.zeros(model.n_modes)
        vec[mode] = 1.0
        return cospinor(model, vec)
    if name == "b":
        vec = np.zeros(model.doubled_dim)
        vec[mode] = 1.0
        return field_B(model, vec)
    raise ConfigError(f"unknown generator {name!r}; expected psi, psidag or b")


def _cmd_deform(args) -> int:
    cfg = load_config(args.config)
    validate_config(cfg)
    model = model_from_config(cfg)
    op = _generator_by_name(model, args.generator, args.mode)
    ctx = DeformationContext(model, _require_finite(args.kappa, "--kappa"))
    warped = warp(ctx, op)
    flat = [[float(z.real), float(z.imag)] for z in warped.matrix.ravel()]
    payload = {
        "generator": args.generator,
        "mode": args.mode,
        "kappa": args.kappa,
        "dim": model.dim,
        "matrix_row_major": flat,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_oracle(args) -> int:
    cfg = load_config(args.config)
    validate_config(cfg)
    model = model_from_config(cfg)
    kappa = _require_finite(args.kappa, "--kappa")
    epsilons = [_require_finite(_parse_float(e, "--eps"), "--eps") for e in args.eps]
    if any(e <= 0 for e in epsilons):
        raise ConfigError(f"--eps values must be positive, got {epsilons}")
    payload = {"kappa": args.kappa, "epsilons": epsilons}
    for cutoff, (residuals, decreasing) in oracle_sweep(model, kappa, epsilons).items():
        payload[cutoff] = {"residuals": residuals, "decreasing": decreasing}
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_report(args) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            table = render_report_table(json.load(fh))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read report {args.input}: {exc}") from exc
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"{args.input} is not a dswarp report: {exc!r}") from exc
    print(table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dswarp",
                                     description="deformation workbench verification harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--config", default=None, help="JSON config path")
    p_verify.add_argument("--suite", action="append", default=None,
                          help="suite name (repeatable; default: all)")
    p_verify.add_argument("--kappa", nargs="+", default=None,
                          help="deformation parameters")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--out", default=None, help="output directory")
    p_verify.add_argument("--format", choices=["json", "csv"], default="json")
    p_verify.set_defaults(func=_cmd_verify)

    p_group = sub.add_parser("group", help="print covering and Lie computations")
    p_group.add_argument("--t", type=float, default=0.5, help="boost parameter")
    p_group.set_defaults(func=_cmd_group)

    p_wedges = sub.add_parser("wedges", help="wedge region probes")
    p_wedges.add_argument("--seed", type=int, default=0)
    p_wedges.set_defaults(func=_cmd_wedges)

    p_deform = sub.add_parser("deform", help="print the warped matrix of a generator")
    p_deform.add_argument("--config", default=None)
    p_deform.add_argument("--generator", choices=["psi", "psidag", "b"], default="psi")
    p_deform.add_argument("--mode", type=int, default=0)
    p_deform.add_argument("--kappa", type=float, default=0.5)
    p_deform.set_defaults(func=_cmd_deform)

    p_oracle = sub.add_parser("oracle", help="regularized-integral convergence sweep")
    p_oracle.add_argument("--config", default=None)
    p_oracle.add_argument("--kappa", type=float, default=0.5)
    p_oracle.add_argument("--eps", nargs="+", default=[0.1, 0.05, 0.025])
    p_oracle.set_defaults(func=_cmd_oracle)

    p_report = sub.add_parser("report", help="render a report JSON as a table")
    p_report.add_argument("--input", required=True)
    p_report.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
