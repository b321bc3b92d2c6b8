"""Record golden.json: the sha256 of every row the workloads can draw, and of
the whole output of the first jobs of the default seed.

    python3 perfbench/record_golden.py

Run it from the root of a checkout whose outputs are trusted; it takes a few
minutes.  Outputs are deterministic and independent of cache state, so the
seeded jobs are replayed in this process after the exhaustive runs filled
lpoly's in-process sum cache.
"""

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from lpoly import ENGINE_VERSION, cli  # noqa: E402
from workloads import MAX_ENUM_F17, WORKLOADS, job_seed, row_key  # noqa: E402

JOBS_RECORDED = 16   # job indices 0..15 of run seed 0
PROP41_DRAWS = 400   # enough seeded draws to meet all 17 polynomials over F_17


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _exhaustive(name):
    if name == "sweep-f13":
        return cli.run_twisted_sweep(13, 1, 2, 3, 1)["rows"]
    if name == "sweep-f169":
        return cli.run_twisted_sweep(13, 2, 3, 2, 1)["rows"]
    if name == "split-p113":
        return cli.verify_prop31(113, 1, 2, 2, 1)["instances"]
    rows = cli.verify_prop41(17, 1, 3, 2, count=PROP41_DRAWS, seed=0,
                             max_enum=MAX_ENUM_F17)["instances"]
    if len({row_key(r) for r in rows}) != 17:
        raise SystemExit("prop41 draws missed a polynomial; raise PROP41_DRAWS")
    return rows


def main() -> int:
    golden = {"engine": ENGINE_VERSION, "rows": {}, "jobs": {}}
    for name, wl in WORKLOADS.items():
        rows = {}
        for r in _exhaustive(name):
            if not wl.row_ok(r):
                raise SystemExit(f"{name}: row {r['coeffs']} fails its verdict")
            rows[row_key(r)] = _digest(r)
        golden["rows"][name] = rows
        seeds = ["any"] if name == "sweep-f13" else [job_seed(0, i) for i in range(JOBS_RECORDED)]
        jobs = {}
        for s in seeds:
            out = wl.call(cli, 0 if s == "any" else s, None)
            if not wl.job_ok(out, wl.instances):
                raise SystemExit(f"{name}: job {s} fails its verdict")
            jobs[str(s)] = _digest(out)
        golden["jobs"][name] = jobs
        print(f"{name}: {len(rows)} rows, {len(jobs)} jobs", file=sys.stderr)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
