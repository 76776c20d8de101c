"""One benchmark sample: a fresh interpreter that imports dswarp and runs verify.

    python3 sample.py --result R.json --spawned T [--config C --out DIR [--trace SPANS]]

T is the parent's `time.monotonic()` just before it started this process, so
set-up time covers interpreter start and the imports, up to the point where
verify can start.  Without --config the sample stops after set-up.  With
--trace the dswarp layers are wrapped after set-up and the spans are written
to SPANS when verify returns.  The result file holds set-up time, verify time,
exit code and this process's peak resident memory.
"""

import time

import argparse
import contextlib
import io
import json
import resource
import sys


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--config")
    parser.add_argument("--out")
    parser.add_argument("--trace")
    args = parser.parse_args()

    import dswarp.cli

    setup_s = time.monotonic() - args.spawned
    result = {"setup_s": setup_s}
    if args.config is not None:
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        table = io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(table):
            code = dswarp.cli.main(["verify", "--config", args.config, "--out", args.out])
        result["verify_s"] = time.perf_counter() - started
        result["exit_code"] = code
        if tracer is not None:
            tracer.dump(args.trace)
            result["absent"] = tracer.absent
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
