"""Fast self-test of the benchmark's checks and tracing (about 10 s).

    python3 verify_bench/selftest.py

Runs one untraced and one traced `dswarp verify` on the default workload and
one `dswarp deform`, then shows that the output checks accept them and reject
each tampered copy: a NaN residual, a flipped verdict, a missing check, a
zeroed negative-control margin, broken witness and oracle margins, and one
altered entry of the warped matrix.  It also checks that the traced report
equals the untraced one apart from `timings`, and that tracing a layer set
without the names a metric needs reports them as absent instead of failing.
Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys

import numpy as np

import checks
import run as bench
import tracing

FAILURES: list[str] = []


def expect(label: str, problems: list[str], should_pass: bool) -> None:
    ok = (not problems) == should_pass
    verdict = "accepted" if not problems else f"rejected ({problems[0][:90]})"
    print(f"{'ok  ' if ok else 'FAIL'}  {label}: {verdict}")
    if not ok:
        FAILURES.append(label)


def find(report: dict, suite: str, name: str) -> dict:
    entry = next(s for s in report["suites"] if s["name"] == suite)
    return next(c for c in entry["checks"] if c["name"] == name)


# (label, suite, check, field path, new value): each must be rejected.
TAMPERED_FIELDS = [
    ("NaN residual", "car", "car-anticommutators", ["max_residual"], float("nan")),
    ("flipped verdict", "geometry", "eta-identity", ["pass"], False),
    ("zeroed negative-control margin", "locality", "negative-control-missing-flip",
     ["metadata", "observed"], 0.0),
    ("zeroed negative-control threshold", "locality", "negative-control-missing-flip",
     ["metadata", "must_exceed"], 0.0),
    ("witness below its threshold", "inequivalence", "witness-nonzero",
     ["metadata", "fock_residual"], 0.01),
    ("witness not monotone in kappa", "inequivalence", "witness-monotone-in-kappa",
     ["metadata", "fock_large"], 0.0),
    ("cross-frequency observable does not move", "fixed_point",
     "cross-frequency-observable-moves", ["metadata", "moved"], 0.0),
    ("oracle residuals not decreasing", "oracle", "oracle-cosine-final-residual",
     ["metadata", "residuals"], [1e-4, 2e-4, 1e-4]),
    ("oracle final residual too large", "oracle", "oracle-gaussian-final-residual",
     ["metadata", "residuals"], [3e-2, 2e-2, 1e-2]),
]


def tampered_reports(good: dict):
    """(label, report) pairs that the report checks must reject."""
    for label, suite, name, path, value in TAMPERED_FIELDS:
        r = copy.deepcopy(good)
        target = find(r, suite, name)
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        yield label, r
    r = copy.deepcopy(good)
    next(s for s in r["suites"] if s["name"] == "locality")["checks"].pop(0)
    yield "missing check", r
    r = copy.deepcopy(good)
    r["all_pass"] = False
    yield "all_pass contradicts the verdicts", r
    r = copy.deepcopy(good)
    r["seed"] += 1
    yield "seed not echoed", r


def check_tracer_absent_names() -> None:
    """A layer set without the wrapped names: absent, zero, no crash.

    The last field_B call passes f by keyword, a call shape the unique share
    must still read.
    """
    sys.path.insert(0, str(bench.ROOT / "src"))
    tracing.MODULES = ("car_fock", "no_such_module")
    tracer = tracing.Tracer()
    tracer.install()
    from dswarp import car_fock

    model = car_fock.default_model()
    basis = np.eye(model.doubled_dim)
    car_fock.field_B(model, basis[0])
    car_fock.field_B(model, basis[1])
    car_fock.field_B(model, f=basis[1])
    path = bench.BENCH_DIR / "runs" / "selftest" / "spans.npz"
    tracer.dump(path)
    layers = tracing.summarize(tracing.load(path))
    problems = []
    if "quaternion.QuatMatrix2.__matmul__" not in tracer.absent:
        problems.append("QuatMatrix2.__matmul__ not reported absent")
    if layers["quaternion.qmatmul_calls"] != 0 or layers["car_fock.field_B_calls"] != 3:
        problems.append(f"unexpected counts {layers}")
    if abs(layers["car_fock.field_B_unique_share"] - 2 / 3) > 1e-12:
        problems.append("field_B unique share is not 2/3")
    expect("tracing with absent names", problems, True)


def check_self_time() -> None:
    """Self time is duration minus the direct children's durations."""
    spans = {"names": np.array(["car_fock.field_B", "deformation.warp"]),
             "name": np.array([1, 0, 0]), "start": np.array([0.0, 1.0, 5.0]),
             "end": np.array([10.0, 3.0, 6.0]), "parent": np.array([-1, 0, 0]),
             "attr": np.array([-1, 7, 7])}
    layers = tracing.summarize(spans)
    problems = []
    if (abs(layers["deformation.self_s"] - 7.0) > 1e-12
            or abs(layers["car_fock.self_s"] - 3.0) > 1e-12):
        problems.append(f"self times {layers['deformation.self_s']}, "
                        f"{layers['car_fock.self_s']}")
    if layers["deformation.warp_s"] != 10.0 or layers["car_fock.field_B_unique_share"] != 0.5:
        problems.append("inclusive time or unique share wrong")
    expect("self time arithmetic", problems, True)


def main() -> int:
    run = bench.Run("verify-default", bench.DEFAULT_SEED, "selftest")
    plain = run.sample()
    traced = run.sample(trace=True)
    if not (plain and traced and plain["report"] and traced["report"]):
        print("FAIL  verify samples did not complete cleanly:", run.problems)
        return 1
    expect("untraced and traced verify samples", run.problems, True)
    good = plain["report"]
    payloads = [{k: v for k, v in r.items() if k != "timings"}
                for r in (good, traced["report"])]
    expect("traced payload equals untraced apart from timings",
           [] if payloads[0] == payloads[1] else ["payloads differ"], True)

    schema, cfg = run.schema, run.cfg
    expect("good report", checks.check_report(json.dumps(good), cfg, 0, schema), True)
    expect("nonzero exit code", checks.check_report(json.dumps(good), cfg, 1, schema), False)
    expect("Infinity token", checks.check_report(
        json.dumps(good).replace('"max_residual": 0.0', '"max_residual": Infinity', 1),
        cfg, 0, schema), False)
    for label, report in tampered_reports(good):
        expect(label, checks.check_report(json.dumps(report), cfg, 0, schema), False)

    mode, kappa = bench.deform_probe(cfg, run.seed)
    done = run._child([sys.executable, "-m", "dswarp.cli", "deform", "--config",
                       str(run.cfg_path), "--generator", "b", "--mode", str(mode),
                       "--kappa", repr(kappa)])
    text = done.stdout if done else ""
    expect("deform matrix", checks.check_deform(text, 0, cfg["model"], mode, kappa), True)
    payload = json.loads(text)
    nonzero = next(i for i, (re, im) in enumerate(payload["matrix_row_major"]) if re or im)
    payload["matrix_row_major"][nonzero][1] += 1e-9
    expect("one altered warped entry", checks.check_deform(
        json.dumps(payload), 0, cfg["model"], mode, kappa), False)
    payload = json.loads(text)
    payload["kappa"] = -kappa
    expect("warped matrix of the opposite kappa", checks.check_deform(
        json.dumps(payload), 0, cfg["model"], mode, -kappa), False)

    check_self_time()
    check_tracer_absent_names()
    shutil.rmtree(run.dir, ignore_errors=True)
    print(f"\n{len(FAILURES)} self-test case(s) failed" if FAILURES
          else "\nall self-test cases ok")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
