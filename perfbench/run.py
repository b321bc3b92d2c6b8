"""lpoly benchmark: exact jobs run as fresh single-threaded processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each job is one call of a public driver in
lpoly.cli (see workloads.py), in its own interpreter with a fresh sweep
cache directory.  Jobs run back to back; the next starts only while half a
job of median length still fits in S seconds.

Untraced (--trace 0) the last stdout line reports, per workload:
  wall_s        median time of the job call plus writing its canonical JSON
  lfun_per_s    median over jobs of exact L-functions certified per second
  setup_s       median time from interpreter start until lpoly.cli is imported
                and the job's fields are built; the run sets up several times
  peak_rss_mib  median ru_maxrss of the job processes
Traced (--trace 1) each job runs twice with the same inputs, untraced and
traced; the last line reports the per-layer table (tracer.py), each figure
the median over the traced jobs, plus the tracing overhead.  The spans of
each traced job are written to perfbench/out/spans/.

Every job's output is checked: the verdicts of every row and of the job,
each row's sha256 against golden.json (recorded for every row the
workloads can draw), and for the default seed 0 the sha256 of the whole
output.  A report line before the last one gives the machine fingerprint,
sample counts, the wall-time tail and failed_frac.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

from tracer import LAYER_UNITS
from workloads import WORKLOADS, job_seed, row_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 15
HARD_LIMIT_S = 170.0
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class JobFailed(Exception):
    pass


def _spawn(workload, seed, job_dir, deadline, setup_only=False, spans=None):
    """Run job.py; returns (setup_s, result dict or None)."""
    cmd = [sys.executable, "-I", str(HERE / "job.py"), str(ROOT), workload, str(seed),
           str(job_dir)]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, **SINGLE_THREAD)
    t0 = time.perf_counter()
    # unbuffered, so readline takes no bytes past the ready line
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0, cwd=ROOT, env=env)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0))
        line = proc.stdout.readline() if ready else b""
        setup_s = time.perf_counter() - t0
        if line != b"ready\n":
            raise JobFailed(f"{workload} seed {seed}: no ready line")
        rest, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0))
    except subprocess.TimeoutExpired:
        raise JobFailed(f"{workload} seed {seed}: timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise JobFailed(f"{workload} seed {seed}: exit code {proc.returncode}")
    return setup_s, (None if setup_only else json.loads(rest.decode().strip().splitlines()[-1]))


def _check(wl, seed, text, golden):
    """Count of failed instances in one job's output (0 when all is right)."""
    out = json.loads(text)
    rows = out[wl.rows_key]
    rows_golden = golden["rows"][wl.name]
    failed = sum(
        1 for r in rows
        if not wl.row_ok(r)
        or rows_golden.get(row_key(r)) != hashlib.sha256(
            json.dumps(r, sort_keys=True, separators=(",", ":")).encode()).hexdigest())
    jobs_golden = golden["jobs"][wl.name]
    want = jobs_golden.get("any", jobs_golden.get(str(seed)))
    if (len(rows) != wl.instances or not wl.job_ok(out, wl.instances)
            or (want is not None
                and want != hashlib.sha256(text.rstrip("\n").encode()).hexdigest())):
        return wl.instances
    return failed


class Run:
    def __init__(self, wl, seed, golden, deadline):
        self.wl = wl
        self.seed = seed
        self.golden = golden
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def job(self, index, spans=None):
        """One checked job: (setup_s, result), or None when the process failed.
        A job whose output fails the check still returns its timings."""
        seed = job_seed(self.seed, index)
        job_dir = OUT / f"{self.wl.name}-{seed}{'-traced' if spans else ''}"
        shutil.rmtree(job_dir, ignore_errors=True)
        job_dir.mkdir(parents=True)
        self.attempted += self.wl.instances
        try:
            setup_s, res = _spawn(self.wl.name, seed, job_dir, self.deadline, spans=spans)
            bad = _check(self.wl, seed, (job_dir / "output.json").read_text(), self.golden)
        except (JobFailed, OSError, ValueError, KeyError, TypeError) as exc:
            self.errors.append(str(exc))
            self.failed += self.wl.instances
            return None
        finally:
            shutil.rmtree(job_dir, ignore_errors=True)
        if bad:
            self.errors.append(f"{self.wl.name} seed {seed}: {bad} instances failed the check")
            self.failed += bad
        return setup_s, res


def _rounds(seconds, start):
    """Job indices of one run.  A round starts only while half a round of
    median length still fits in the run's seconds; the first always runs."""
    took = []
    index = 0
    while index == 0 or time.monotonic() - start + statistics.median(took) / 2 <= seconds:
        t0 = time.monotonic()
        yield index
        took.append(time.monotonic() - t0)
        index += 1


def _tail(values):
    """Highest nearest-rank percentile with at least ten samples above it;
    None unless that percentile lies above the median."""
    n = len(values)
    if n < 21:
        return None
    return {"percentile": round(100 * (n - 10) / n, 1), "value": sorted(values)[n - 11]}


def _nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def _fingerprint():
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(), "loadavg_at_start": os.getloadavg()}


def run_untraced(run, seconds, start):
    setups = []
    _spawn(run.wl.name, 0, OUT, run.deadline, setup_only=True)  # warm the file cache
    for _ in range(SETUP_SAMPLES):
        setups.append(_spawn(run.wl.name, 0, OUT, run.deadline, setup_only=True)[0])
    walls, rates, rss = [], [], []
    for index in _rounds(seconds, start):
        got = run.job(index)
        if got is None:
            continue
        setup_s, res = got
        setups.append(setup_s)
        walls.append(res["wall_s"])
        rates.append(run.wl.instances * run.wl.lfuns / res["wall_s"])
        rss.append(res["rss_mib"])
    if not walls:
        raise JobFailed("no job completed")
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "lfun_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (statistics.median(rss), "MiB"),
    }
    extra = {"jobs": len(walls), "setup_samples": len(setups), "wall_s_samples": walls,
             "wall_s_tail": _tail(walls)}
    return metrics, extra


def run_traced(run, seconds, start):
    spans_dir = OUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    untraced, traced, layers, rows_ms, spans = [], [], [], [], []
    for index in _rounds(seconds, start):
        plain = run.job(index)
        got = run.job(index, spans=spans_dir / f"{run.wl.name}-{job_seed(run.seed, index)}.json")
        if plain is None or got is None:
            continue
        res = got[1]
        untraced.append(plain[1]["wall_s"])
        traced.append(res["wall_s"])
        layers.append(dict(res["layers"], **{"cli.sweep_cache_bytes": res["sweep_cache_bytes"],
                                             "cli.output_bytes": res["output_bytes"]}))
        rows_ms.extend(res["rows_ms"])
        spans.append(res["spans"])
    if not layers:
        raise JobFailed("no traced job completed")
    metrics = {name: (statistics.median(layer[name] for layer in layers), unit)
               for name, unit in LAYER_UNITS.items()}
    metrics["cli.row_p50_ms"] = (_nearest_rank(rows_ms, 0.5), "ms")
    metrics["cli.row_p90_ms"] = (_nearest_rank(rows_ms, 0.9), "ms")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    extra = {"jobs": len(layers), "rows_traced": len(rows_ms), "spans_per_job": spans,
             "traced_wall_s": statistics.median(traced),
             "untraced_wall_s": statistics.median(untraced),
             "computed": ["char_sums.trace_table_bytes", "char_sums.elements"]}
    return metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "lpoly" / "cli.py").is_file():
        print(f"run.py: no lpoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # on SIGTERM, unwind so the running job process is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    start = time.monotonic()
    fingerprint = _fingerprint()
    golden = json.loads((HERE / "golden.json").read_text())
    run = Run(WORKLOADS[args.workload], args.seed, golden, start + HARD_LIMIT_S)
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics, extra = run_traced(run, args.seconds, start)
        else:
            metrics, extra = run_untraced(run, args.seconds, start)
    except JobFailed as exc:
        print(f"run.py: {exc}; errors: {run.errors}", file=sys.stderr)
        return 1
    for err in run.errors:
        print(f"run.py: {err}", file=sys.stderr)
    print(json.dumps({"report": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "fingerprint": fingerprint, "failed_frac": run.failed / run.attempted,
        "errors": run.errors, **extra}}))
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
