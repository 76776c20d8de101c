"""Benchmark of `dswarp verify`, one fresh process per sample.

    python3 verify_bench/run.py --workload verify-default --seed 7 --seconds 56 --trace 0

Run from the root of a dswarp checkout; the program is imported from `src/`.
With --trace 0 the run reports the end-to-end metrics: verify time, set-up
time and peak resident memory, each the median over the samples of the run.
The two times are scaled to reference seconds by a speed probe run between
the samples (calibrate.py), so that the machine's drifting speed cancels.
With --trace 1 it alternates untraced and traced samples and reports the
per-layer metrics from the traced ones (see tracing.py).  Every sample's
report is checked (checks.py) outside the timed region, and once per run the
`dswarp deform` output is compared with an independently built matrix.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See README.md for workloads and figures.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, for this process's speed probes and for every child: at
# dim 128 it is faster than two on a 2-core box (README.md).
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import calibrate  # noqa: E402  (numpy must see the thread setting above)
import checks  # noqa: E402
import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# The suites of `dswarp verify`, in the order of the shipped default config.
SUITES = ["geometry", "covering", "lie", "wedges", "car", "deformation", "oracle",
          "locality", "fixed_point", "inequivalence"]
KAPPA_GRID = [-1.0, -0.5, -0.1, 0.0, 0.1, 0.5, 1.0]
TOLERANCES = {"exact": 1e-12, "composed": 1e-10, "oracle": 1e-3}

# Full configs; --seed sets model.seed.  verify-default equals the shipped
# default config: 2+2 modes, Fock dimension 16, every suite.
WORKLOADS = {
    "verify-default": {
        "model": {"d_plus": 2, "d_minus": 2,
                  "boost_freqs_plus": [1.0, -1.0], "boost_freqs_minus": [1.0, -1.0],
                  "localized_modes": [0, 2], "reflection_pairing": [1, 0, 3, 2],
                  "rotation_angle": 0.7853981633974483},
        "deformation": {"kappa": KAPPA_GRID},
        "tolerances": TOLERANCES,
        "suites": SUITES,
    },
    # 4+3 modes, Fock dimension 128: the suites that do dense Fock work only.
    "verify-fock128": {
        "model": {"d_plus": 4, "d_minus": 3,
                  "boost_freqs_plus": [1.0, -1.0, 2.0, -2.0],
                  "boost_freqs_minus": [1.0, -1.0, 0.0],
                  "localized_modes": [0, 2, 4], "reflection_pairing": [1, 0, 3, 2, 5, 4, 6],
                  "rotation_angle": 0.7853981633974483},
        "deformation": {"kappa": KAPPA_GRID},
        "tolerances": TOLERANCES,
        "suites": ["car", "deformation", "oracle", "locality", "fixed_point",
                   "inequivalence"],
    },
}

DEFAULT_SEED = 7
SETUP_ONLY_SAMPLES = 3
CHILD_TIMEOUT_S = 150


def workload_config(name: str, seed: int) -> dict:
    cfg = copy.deepcopy(WORKLOADS[name])
    cfg["model"]["seed"] = seed
    return cfg


def deform_probe(cfg: dict, seed: int) -> tuple[int, float]:
    """The doubled-space mode and nonzero kappa of the run's deform check."""
    m = cfg["model"]
    modes = 2 * (m["d_plus"] + m["d_minus"])
    kappas = [k for k in cfg["deformation"]["kappa"] if k != 0]
    return seed % modes, kappas[seed % len(kappas)]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Run:
    """One benchmark run: its working directory, children and operation counts."""

    def __init__(self, workload: str, seed: int, label: str):
        self.cfg = workload_config(workload, seed)
        self.seed = seed
        self.dir = BENCH_DIR / "runs" / label
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.cfg_path = self.dir / "config.json"
        self.cfg_path.write_text(json.dumps(self.cfg, indent=2), encoding="utf-8")
        self.schema = json.loads((ROOT / "src" / "dswarp" / "report_schema.json")
                                 .read_text(encoding="utf-8"))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.count = 0

    def _child(self, argv: list[str]) -> subprocess.CompletedProcess | None:
        """Run one child to its end; None if it timed out or could not start."""
        self.attempted += 1
        try:
            done = subprocess.run(argv, env=self.env, cwd=self.dir, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except (subprocess.TimeoutExpired, OSError) as exc:
            print(f"operation failed: {exc}", file=sys.stderr)
            self.failed += 1
            return None
        return done

    def deform_check(self) -> None:
        mode, kappa = deform_probe(self.cfg, self.seed)
        done = self._child([sys.executable, "-m", "dswarp.cli", "deform",
                            "--config", str(self.cfg_path), "--generator", "b",
                            "--mode", str(mode), "--kappa", repr(kappa)])
        if done is None:
            return
        if done.returncode != 0:
            print(done.stderr[-2000:], file=sys.stderr)
            self.failed += 1
            return
        self.problems += checks.check_deform(done.stdout, done.returncode,
                                             self.cfg["model"], mode, kappa)

    def sample(self, verify: bool = True, trace: bool = False) -> dict | None:
        """One fresh process; with verify, one checked `dswarp verify`."""
        self.count += 1
        k = self.count
        result = self.dir / f"sample-{k}.json"
        argv = [sys.executable, str(BENCH_DIR / "sample.py"), "--result", str(result)]
        if verify:
            argv += ["--config", str(self.cfg_path), "--out", str(self.dir / "out")]
        if trace:
            argv += ["--trace", str(self.dir / "spans.npz")]
        done = self._child(argv + ["--spawned", repr(time.monotonic())])
        if done is None:
            return None
        if done.returncode != 0 or not result.is_file():
            print(done.stderr[-2000:], file=sys.stderr)
            self.failed += 1
            return None
        out = json.loads(result.read_text(encoding="utf-8"))
        if verify:
            report_path = self.dir / "out" / "report.json"
            text = report_path.read_text(encoding="utf-8") if report_path.is_file() else ""
            report_path.unlink(missing_ok=True)
            found = checks.check_report(text, self.cfg, out["exit_code"], self.schema)
            self.problems += [f"sample {k}: {p}" for p in found]
            out["report"] = checks.parse_report(text) if not found else None
            out["report_timings"] = out["report"]["timings"] if out["report"] else {}
        if trace:
            out["layers"] = tracing.summarize(tracing.load(self.dir / "spans.npz"))
        return out


def until_overrun(started: float, seconds: float, step) -> None:
    """Call step() at least once, then until the next call would end after `seconds`."""
    longest = 0.0
    while True:
        t0 = time.monotonic()
        step()
        longest = max(longest, time.monotonic() - t0)
        if time.monotonic() - started + longest > seconds:
            return


def run_timed(run: Run, seconds: float) -> dict:
    """Set-up probes, verify samples, then set-up probes in the time left.

    A speed probe (calibrate.py) runs before the first sample and after every
    sample; each sample's times are scaled by REFERENCE_S over the mean of the
    probes on either side of it.
    """
    started = time.monotonic()
    setups, verifies, rss, raw_setups, raw_verifies = [], [], [], [], []
    probes = [calibrate.probe_s()]

    def step(verify: bool):
        s = run.sample(verify=verify)
        probes.append(calibrate.probe_s())
        if not s:
            return
        scale = calibrate.REFERENCE_S / statistics.fmean(probes[-2:])
        setups.append(s["setup_s"] * scale)
        raw_setups.append(s["setup_s"])
        if verify:
            verifies.append(s["verify_s"] * scale)
            raw_verifies.append(s["verify_s"])
            rss.append(s["peak_rss_mb"])

    for _ in range(SETUP_ONLY_SAMPLES):
        step(verify=False)
    until_overrun(started, seconds, lambda: step(verify=True))
    if time.monotonic() - started < seconds:
        until_overrun(started, seconds, lambda: step(verify=False))
    if not verifies:
        return {}
    print(f"{len(verifies)} verify samples, {len(setups)} set-up samples; times in "
          f"reference seconds (calibrate.py, REFERENCE_S = {calibrate.REFERENCE_S})")
    for name, values in (("verify_s", verifies), ("setup_s", setups), ("peak_rss_mb", rss),
                         ("raw verify_s", raw_verifies), ("raw setup_s", raw_setups),
                         ("probe_s", probes)):
        q1, med, q3 = quartiles(values)
        print(f"  {name:12s} median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  (n={len(values)}): "
              + " ".join(f"{v:.4f}" for v in values))
    return {
        "verify_s": (statistics.median(verifies), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


def run_traced(run: Run, seconds: float) -> dict:
    """Untraced and traced samples in pairs; per-layer metrics from the traced."""
    plain, traced = [], []
    absent: set[str] = set()

    def pair():
        u = run.sample()
        t = run.sample(trace=True)
        if not (u and t):
            return
        plain.append(u)
        traced.append(t)
        absent.update(t.get("absent", []))
        if u["report"] is not None and t["report"] is not None:
            u["report"].pop("timings", None)
            t["report"].pop("timings", None)
            if u["report"] != t["report"]:
                run.problems.append("traced report payload differs from untraced")

    until_overrun(time.monotonic(), seconds, pair)
    if not traced:
        return {}
    print(f"{len(traced)} traced and {len(plain)} untraced verify samples")
    for name in sorted(absent):
        print(f"  absent: {name} (no longer defined; its metrics read 0)")
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    metrics = {}
    for name, unit in ((m["name"], m["unit"]) for m in per_layer):
        if name.startswith("cli.suite_s."):
            suite = name.split(".")[-1]
            values = [s["report_timings"].get(suite, 0.0) for s in plain]
        elif name == "trace.overhead_s":
            values = [statistics.median(s["verify_s"] for s in traced)
                      - statistics.median(s["verify_s"] for s in plain)]
        else:
            values = [s["layers"][name] for s in traced]
        metrics[name] = (statistics.median(values), unit)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=56.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through the exception path, so subprocess.run kills and waits for
    # the running child when the benchmark itself is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "dswarp" / "cli.py").is_file():
        print(f"error: no dswarp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, f"{args.workload}-trace{args.trace}")
    mode, kappa = deform_probe(run.cfg, args.seed)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}; "
          f"deform check: generator b, mode {mode}, kappa {kappa}")
    run.deform_check()
    metrics = (run_traced if args.trace else run_timed)(run, args.seconds)
    if not metrics:
        print("error: no verify sample completed", file=sys.stderr)
        return 1
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"operations attempted {run.attempted}, failed {run.failed}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
