"""One benchmark job in a fresh interpreter, the way a CLI user runs it.

    python -I job.py ROOT WORKLOAD SEED JOB_DIR [--setup-only] [--spans PATH]

Prints "ready" once lpoly.cli is imported from ROOT/src and the job's fields
are built with make_field; run.py times setup up to that line.  Then it
calls the workload's driver once, writes the output as canonical JSON (sorted
keys, no whitespace, as the CLI prints it) to JOB_DIR/output.json, and
prints one JSON line of measurements.  With --spans it traces the job and
writes the spans to PATH.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("root")
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("job_dir")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    src = os.path.join(args.root, "src")
    sys.path[:0] = [src, os.path.dirname(os.path.abspath(__file__))]
    from lpoly import cli
    from lpoly.finite_field import make_field

    from workloads import WORKLOADS

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"job: imported lpoly from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    for p, n in wl.fields:
        make_field(p, n)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.spans:
        from tracer import Tracer, install, summarize
        tracer = Tracer()
        install(tracer)
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    cache_dir = os.path.join(args.job_dir, "cache")
    t0 = time.perf_counter()
    with span("cli.driver"):
        report = wl.call(cli, args.seed, cache_dir)
    with span("cli.emit"):
        text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
        with open(os.path.join(args.job_dir, "output.json"), "w") as fh:
            fh.write(text)
    wall_s = time.perf_counter() - t0

    result = {
        "wall_s": wall_s,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "output_bytes": len(text.encode()),
        "sweep_cache_bytes": sum(e.stat().st_size for e in os.scandir(cache_dir))
        if os.path.isdir(cache_dir) else 0,
    }
    if tracer is not None:
        layers, rows_ms = summarize(tracer.spans)
        result["layers"] = layers
        result["rows_ms"] = rows_ms
        result["spans"] = len(tracer.spans)
        with open(args.spans, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": [s[:4] for s in tracer.spans]}, fh, separators=(",", ":"))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
