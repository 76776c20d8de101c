"""Batch entry point: JSON config in, machine-readable verification reports out.

Subcommands: verify (run suites), group (covering/Lie computations), wedges
(membership and a rigidity witness), deform (warp a named generator), oracle
(regularized integral sweep), report (render a report JSON as a table).  Exit
codes: 0 all checks pass, 1 check failure, 2 config error.

This module loads and validates configs, builds the model, and reads and
writes reports; the suites and their checks live in dswarp.verification.
"""

from __future__ import annotations

import argparse
import csv
import json
import locale   # argparse loads it on first use; loaded here, a run loads no module
import math
import sys
from pathlib import Path

import numpy as np
import numpy.random   # numpy 2 loads it on first use; loaded here, a run loads no module

from . import __version__
from . import spin_group as sg
from . import wedges as wd
from .car_fock import MAX_MODES, MaskWord, ModelError, OneParticleModel, field_word
from .deformation import oracle_sweep, warp_word
from .verification import SUITES, _finite_or_none, covering_summary, run_suites, unrunnable

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
                unknown = sorted(set(value) - set(cfg[key]))
                if unknown:
                    raise ConfigError(f"unknown key {unknown[0]!r} in config section {key!r}")
                cfg[key].update(value)
            else:
                cfg[key] = value
    return cfg


def validate_config(cfg: dict) -> dict:
    m = cfg["model"]
    for key in ("d_plus", "d_minus"):
        if not _integer(m.get(key)):
            raise ConfigError(f"model.{key} must be an integer mode count, got {m.get(key)!r}")
    if m["d_plus"] + m["d_minus"] > MAX_MODES:
        raise ConfigError(f"d_plus + d_minus = {m['d_plus'] + m['d_minus']} exceeds the "
                          f"Fock-dimension guard ({MAX_MODES} modes)")
    for key in ("boost_freqs_plus", "boost_freqs_minus"):
        freqs = m.get(key)
        if not isinstance(freqs, list) or not all(_finite_real(w) for w in freqs):
            raise ConfigError(f"model.{key} must be a list of finite reals, got {freqs!r}")
    for key in ("localized_modes", "reflection_pairing"):
        modes = m[key]
        if key == "reflection_pairing" and modes is None:
            continue
        if not isinstance(modes, list) or not all(_integer(j) for j in modes):
            raise ConfigError(f"model.{key} must be a list of integer mode indices, "
                              f"got {modes!r}")
    seed = m["seed"]
    if not _integer(seed) or seed < 0:
        raise ConfigError(f"model.seed must be a non-negative integer, got {seed!r}")
    angle = m["rotation_angle"]
    if angle is not None and not _finite_real(angle):
        raise ConfigError(f"model.rotation_angle must be null or a finite real, got {angle!r}")
    kappas = cfg["deformation"].get("kappa", DEFAULT_KAPPA_GRID)
    if not isinstance(kappas, list) or not kappas:
        raise ConfigError("deformation.kappa must be a nonempty list")
    for k in kappas:
        if not _finite_real(k):
            raise ConfigError(f"deformation parameter {k!r} is not a finite real")
    suites = cfg["suites"]
    if not isinstance(suites, list) or not suites:
        raise ConfigError("suites must be a nonempty list")
    unknown = [s for s in suites if not isinstance(s, str) or s not in SUITES]
    if unknown:
        raise ConfigError(f"unknown suites {unknown}; available: {list(SUITES)}")
    if len(set(suites)) != len(suites):
        raise ConfigError("each suite may be requested at most once")
    for name, value in cfg["tolerances"].items():
        if not _finite_real(value) or value <= 0:
            raise ConfigError(f"tolerance {name!r} must be a positive finite number")
    if not isinstance(cfg["output"], str):
        raise ConfigError(f"output must be a directory path string, got {cfg['output']!r}")
    return cfg


def _integer(value) -> bool:
    """An int; bool is refused although it is an int subclass."""
    return isinstance(value, int) and not isinstance(value, bool)


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
            seed=m["seed"],
        )
    except (KeyError, ModelError, ValueError) as exc:
        raise ConfigError(f"invalid model: {exc}") from exc


# -- runner ----------------------------------------------------------------------

def run(cfg: dict) -> dict:
    """Execute the configured suites and assemble the run report; a config
    that a requested suite cannot run is refused before any suite starts."""
    validate_config(cfg)
    model = model_from_config(cfg)
    refusals = unrunnable(model, cfg["suites"])
    if refusals:
        raise ConfigError("; ".join(refusals))
    checks, timings = run_suites(model, cfg)
    return {
        "artifact": {"name": "dswarp", "version": __version__},
        "config": cfg,
        "seed": model.seed,
        "suites": [{"name": name, "checks": [c.as_dict() for c in suite]}
                   for name, suite in checks.items()],
        "all_pass": all(c.passed for suite in checks.values() for c in suite),
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
    path = write_report(report, cfg["output"], args.format)
    print(render_report_table(report))
    print(f"\nreport written to {path}")
    return 0 if report["all_pass"] else 1


def _print_json(payload: dict) -> int:
    """Print payload as strict JSON; a non-finite number is written as null
    and makes the exit code 1."""
    try:
        text, code = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False), 0
    except ValueError:                                   # a non-finite number
        text, code = json.dumps(_finite_or_none(payload), indent=2, sort_keys=True,
                                allow_nan=False), 1
    print(text)
    return code


def _cmd_group(args) -> int:
    t = _require_finite(args.t, "--t")
    try:
        summary = covering_summary(t)
    except sg.NotInSpinGroupError as exc:
        raise ConfigError(f"--t {t!r} is outside the checkable range: {exc}") from None
    return _print_json(summary)


def _cmd_wedges(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    w0 = wd.Wedge.reference()
    g = sg.random_proper_lorentz(rng)
    moved = wd.Wedge(g)
    if wd.wedges_equal(w0, moved):
        verdict, witness = "EQUAL", None
    else:
        # a point of W0 outside the moved wedge, confirmed by wedge_contains;
        # a missing one is NaN, written as nulls with exit code 1
        witness = wd.rigidity_witnesses(w0.frame, moved.frame)[0]
        confirmed = (not np.isnan(witness).any() and wd.wedge_contains(w0, witness)
                     and not wd.wedge_contains(moved, witness))
        verdict, witness = ("WITNESS" if confirmed else "MISSING"), witness.tolist()
    payload = {
        "seed": args.seed,
        "reference_contains_e1": wd.wedge_contains(w0, [0.0, 1.0, 0.0, 0.0, 0.0]),
        "complement_contains_minus_e1": wd.wedge_contains(
            wd.causal_complement(w0), [0.0, -1.0, 0.0, 0.0, 0.0]),
        "random_pair_verdict": verdict,
        "random_pair_witness": witness,
    }
    return _print_json(payload)


def _parse_float(text: str, option: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{option} value {text!r} is not a number") from None


def _require_finite(value: float, option: str) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"{option} must be finite, got {value!r}")
    return value


def _generator_by_name(model: OneParticleModel, name: str, mode: int) -> MaskWord:
    """The named single-mode generator as a mask word: psi = B(0 (+) e_mode),
    psidag = B(e_mode (+) 0) and b = B(e_mode) on the doubled space."""
    size = model.doubled_dim if name == "b" else model.n_modes
    if not 0 <= mode < size:
        raise ConfigError(f"--mode {mode} is out of range for generator {name!r}: "
                          f"expected 0..{size - 1}")
    if name not in ("psi", "psidag", "b"):
        raise ConfigError(f"unknown generator {name!r}; expected psi, psidag or b")
    f = np.zeros(model.doubled_dim)
    f[model.n_modes + mode if name == "psi" else mode] = 1.0
    return field_word(model, f)


def _cmd_deform(args) -> int:
    cfg = load_config(args.config)
    validate_config(cfg)
    model = model_from_config(cfg)
    word = _generator_by_name(model, args.generator, args.mode)
    warped = warp_word(model, _require_finite(args.kappa, "--kappa"), word)
    matrix = np.zeros((model.dim, model.dim), dtype=complex)
    matrix[warped.rows(), np.arange(model.dim)] = warped.vec
    flat = [[float(z.real), float(z.imag)] for z in matrix.ravel()]
    payload = {
        "generator": args.generator,
        "mode": args.mode,
        "kappa": args.kappa,
        "dim": model.dim,
        "matrix_row_major": flat,
    }
    return _print_json(payload)


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
    return _print_json(payload)


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

    p_wedges = sub.add_parser("wedges", help="wedge membership and a rigidity witness")
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
        # Every number a subcommand prints is checked: a non-finite one fails
        # its check or is written as null with exit 1, so numpy's
        # floating-point warnings would only repeat that on stderr.
        with np.errstate(all="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
