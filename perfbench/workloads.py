"""The benchmark's four workloads: what one job calls in lpoly.cli and how its
output is checked.

Each job is one call of a public driver, made the way a CLI user makes it:
a fresh single-threaded process, a fresh sweep cache directory, threads=1.
The job seed picks the sampled polynomials; the same seed gives the same
inputs.  Sizes keep one job at a few seconds on a 2-core machine, so a run
holds several jobs and reports medians.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# job times on a 2-core x86_64 VM, Python 3.11, numpy 2.4
F169_ROWS = 5        # rows per sweep-f169 job: about 2.3 s, 13^6 table included
P113_ROWS = 10       # rows per split-p113 job: about 2.2 s
PROP41_COUNT = 2     # instances per prop41-f17 job: about 7 s, 17^6 tables included
MAX_ENUM_F17 = 1 << 25


def _sweep_f13(cli, seed, cache_dir):
    # exhaustive over the 169 monic cubics, so the seed changes nothing
    return cli.run_twisted_sweep(13, 1, 2, 3, 1, threads=1, cache_dir=cache_dir)


def _sweep_f169(cli, seed, cache_dir):
    return cli.run_twisted_sweep(13, 2, 3, 2, 1, threads=1, cache_dir=cache_dir,
                                 sample=F169_ROWS, seed=seed)


def _prop41_f17(cli, seed, cache_dir):
    return cli.verify_prop41(17, 1, 3, 2, count=PROP41_COUNT, seed=seed,
                             max_enum=MAX_ENUM_F17)


def _split_p113(cli, seed, cache_dir):
    return cli.verify_prop31(113, 1, 2, 2, 1, threads=1, cache_dir=cache_dir,
                             sample=P113_ROWS, seed=seed)


def _sweep_row_ok(row):
    return bool(row["above_hs"] and row["consistent"])


def _split_sweep_row_ok(row):
    return bool(row["hs_equal"] and row["above_hs"] and row["consistent"])


def _sweep_job_ok(out, n):
    s = out["summary"]
    return s["total"] == n and s["above_hs"] == n and s["consistent"] == n


def _split_sweep_job_ok(out, n):
    return _sweep_job_ok(out, n) and out["summary"]["hs_equal"] == n


def _verify_job_ok(out, n):
    return out["pass"] is True and out["counts"] == {"total": n, "passed": n}


@dataclass(frozen=True)
class Workload:
    """One job shape.

    fields: (p, n) pairs the driver builds with make_field (part of setup);
    instances: rows or verified instances per job; lfuns: exact L-functions
    certified per instance; rows_key: where the instances sit in the output.
    """

    name: str
    call: Callable
    fields: tuple
    instances: int
    lfuns: int
    rows_key: str
    row_ok: Callable
    job_ok: Callable


WORKLOADS = {w.name: w for w in (
    Workload("sweep-f13", _sweep_f13, ((13, 1),), 169, 1, "rows",
             _split_sweep_row_ok, _split_sweep_job_ok),
    Workload("sweep-f169", _sweep_f169, ((13, 2),), F169_ROWS, 1, "rows",
             _sweep_row_ok, _sweep_job_ok),
    Workload("prop41-f17", _prop41_f17, ((17, 1), (17, 2)), PROP41_COUNT, 3, "instances",
             lambda row: bool(row["ok"]), _verify_job_ok),
    Workload("split-p113", _split_p113, ((113, 1),), P113_ROWS, 1, "instances",
             _split_sweep_row_ok, _verify_job_ok),
)}


def job_seed(run_seed: int, index: int) -> int:
    """Seed of the index-th job of a run; distinct runs get disjoint seeds."""
    return run_seed * 1000 + index


def row_key(row) -> str:
    return ",".join(str(c) for c in row["coeffs"])
