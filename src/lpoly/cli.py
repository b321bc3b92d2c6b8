"""Command line frontend: polygons, L-functions, verification sweeps.

Subcommands: polygon | lfunction | verify | sweep | gauss | orbits.
Exit codes: 0 success, 1 a verification verdict failed, 2 parameter or
usage error, 3 resource bound exceeded, 4 internal inconsistency.

Field elements are passed and printed as integers: the element
c_0 + c_1 x + ... of F_{p^n} is encoded as c_0 + c_1 p + c_2 p^2 + ....
A polynomial argument lists the coefficients a_1,...,a_{e-1} of the
monic P = X^e + a_{e-1} X^{e-1} + ... + a_1 X with zero constant term.

Sweep results are cached as JSON lines in content-addressed files under
--cache-dir (or $LPOLY_CACHE); the cache key includes the engine version
so stale entries are never reused.  All output is canonical JSON (sorted
keys, no whitespace) so identical jobs produce byte-identical bytes
regardless of thread count or cache state.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import os
import pathlib
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import gcd

from . import ENGINE_VERSION
from .char_sums import (
    MAX_ENUM_DEFAULT,
    PolySpec,
    TwistSpec,
    additive_series,
    embed_poly,
    gauss_sum,
    l_polynomial,
    lpoly_inflate,
    lpoly_map_ring,
    lpoly_mul,
    poly_from_ints,
    power_series,
    twisted_series,
)
from .cyclotomic import make_ring
from .errors import BadParameters, InternalError, ParameterError, ResourceBound
from .finite_field import make_field
from .local_valuation import (
    aligned_context,
    default_precision,
    make_context,
    q_newton_polygon,
    valuation,
)
from .polygon import NewtonPolygon, fraction_str
from .stratification import (
    SIGMA_CAP_DEFAULT,
    TwistCombinatorics,
    gnp_power,
    gnp_twisted,
    hasse_full_eval,
    hasse_twisted_eval,
    hs_power,
    hs_twisted,
    orbit_decomposition,
)

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
    47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)

# (p, m) pairs giving the prime power grid for the Gauss sum check
_GAUSS_FIELDS = ((3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4), (5, 2))


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _order(t: int, d: int) -> int:
    if d == 1:
        return 1
    k, cur = 1, t % d
    while cur != 1:
        cur = cur * t % d
        k += 1
    return k


def _hodge(n: int) -> NewtonPolygon:
    if n < 2:
        raise BadParameters(f"need total degree at least 2, got {n}")
    return NewtonPolygon.from_slopes([(Fraction(i, n), 1) for i in range(1, n)])


# ---------------------------------------------------------------------------
# L-function and polygon drivers (also used directly by the test suite)


def twisted_l_function(P: PolySpec, twist: TwistSpec, max_enum: int = MAX_ENUM_DEFAULT):
    # e+1 sums so the recurrence certifies the degree
    return l_polynomial(twisted_series(P, twist, P.e + 1, max_enum), P.e)


def additive_l_function(P: PolySpec, max_enum: int = MAX_ENUM_DEFAULT):
    return l_polynomial(additive_series(P, P.e, max_enum), P.e - 1)


def power_l_function(P: PolySpec, d: int, max_enum: int = MAX_ENUM_DEFAULT):
    de = d * P.e
    return l_polynomial(power_series(P, d, de, max_enum), de - 1)


def twisted_newton_polygon(L, qspec, d: int, precision=None) -> NewtonPolygon:
    """q-adic polygon of a twisted L-function, at the place aligned with
    the pinned character of the base field."""
    ctx = aligned_context(qspec, d, precision or default_precision(qspec.n, L.degree))
    return q_newton_polygon(L, qspec.n, ctx)


def padic_newton_polygon(L, m: int, precision=None) -> NewtonPolygon:
    """q-adic polygon for an L-function with coefficients in Z[zeta_p]."""
    ctx = make_context(L.ring.p, L.ring.d, precision or default_precision(m, max(L.degree, 1)))
    return q_newton_polygon(L, m, ctx)


def _map_ordered(fn, items, threads: int):
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items))


# ---------------------------------------------------------------------------
# Sweep cache: one JSON record per polynomial, content-addressed file per job


def _cache_path(cache_dir, key: dict) -> pathlib.Path:
    digest = hashlib.sha256(_canon(key).encode()).hexdigest()
    return pathlib.Path(cache_dir) / f"{digest}.jsonl"


def _cache_read(cache_dir, key: dict) -> dict:
    """Cached rows by coefficient tuple.  A line that does not parse as a
    row (a truncated write, say) is a miss, and its row is recomputed."""
    if not cache_dir:
        return {}
    path = _cache_path(cache_dir, key)
    if not path.exists():
        return {}
    out = {}
    for line in path.read_text(errors="replace").splitlines():
        try:
            rec = json.loads(line)
            out[tuple(rec["coeffs"])] = rec
        except (ValueError, KeyError, TypeError):
            continue
    return out


def _cache_write(cache_dir, key: dict, table: dict) -> None:
    """Write the whole table to a temp file private to this process and
    thread, then rename it over the cache file in one step."""
    if not cache_dir:
        return
    path = _cache_path(cache_dir, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    tmp.write_text("".join(_canon(table[k]) + "\n" for k in sorted(table)))
    tmp.replace(path)


def _coeff_tuples(q: int, e: int, sample, seed: int):
    if sample is None:
        return list(itertools.product(range(q), repeat=e - 1))
    rng = random.Random(seed)
    return [tuple(rng.randrange(q) for _ in range(e - 1)) for _ in range(sample)]


# ---------------------------------------------------------------------------
# Sweeps


def run_twisted_sweep(p, m, d, e, kappa, *, max_enum=MAX_ENUM_DEFAULT, precision=None,
                      threads=1, cache_dir=None, sample=None, seed=0,
                      hasse_cap=SIGMA_CAP_DEFAULT) -> dict:
    """One row per monic P over F_{p^m}: q-adic polygon of the twisted
    L-function, comparisons against the two predicted polygons, and the
    product of the block coefficient polynomial values."""
    qspec = make_field(p, m)
    q = qspec.order
    tw = TwistSpec(d, kappa)
    hs = hs_twisted(d, e, p, kappa)
    gnp = gnp_twisted(p, d, e, kappa)
    ctx = aligned_context(qspec, d, precision or default_precision(m, e))
    tuples = _coeff_tuples(q, e, sample, seed)
    key = {"sweep": "twisted", "p": p, "m": m, "d": d, "e": e, "kappa": kappa,
           "engine": ENGINE_VERSION}
    table = _cache_read(cache_dir, key)

    def work(ct):
        P = poly_from_ints(qspec, e, list(ct))
        L = twisted_l_function(P, tw, max_enum)
        npoly = q_newton_polygon(L, m, ctx)
        hval = qspec.one()
        for n in range(1, e + 1):
            hval = hval * hasse_twisted_eval(P, n, tw, hasse_cap)
        attains = npoly == gnp
        return {
            "coeffs": list(ct),
            "np": npoly.to_json_dict(),
            "hs_equal": npoly == hs,
            "above_hs": npoly.lies_above(hs),
            "gnp_equal": attains,
            "hasse": hval.to_int(),
            "consistent": attains == (hval.to_int() != 0),
        }

    missing = [ct for ct in tuples if ct not in table]
    for ct, row in zip(missing, _map_ordered(work, missing, threads)):
        table[ct] = row
    if missing:
        _cache_write(cache_dir, key, table)
    rows = [table[ct] for ct in tuples]
    summary = {
        "total": len(rows),
        "hs_equal": sum(r["hs_equal"] for r in rows),
        "above_hs": sum(r["above_hs"] for r in rows),
        "gnp_matches": sum(r["gnp_equal"] for r in rows),
        "hasse_nonzero": sum(r["hasse"] != 0 for r in rows),
        "consistent": sum(r["consistent"] for r in rows),
    }
    return {"command": "sweep", "kind": "twisted",
            "params": {"p": p, "m": m, "d": d, "e": e, "kappa": kappa},
            "engine": ENGINE_VERSION,
            "hs": hs.to_json_dict(), "gnp": gnp.to_json_dict(),
            "rows": rows, "summary": summary}


def run_power_sweep(p, m, d, e, *, max_enum=MAX_ENUM_DEFAULT, precision=None,
                    threads=1, cache_dir=None, sample=None, seed=0,
                    hasse_cap=SIGMA_CAP_DEFAULT) -> dict:
    """Same layout for sums of P(x^d) over the whole field; the full
    stratification product decides generic membership."""
    qspec = make_field(p, m)
    q = qspec.order
    hs = hs_power(d, e, p)
    gnp = gnp_power(p, d, e)
    tuples = _coeff_tuples(q, e, sample, seed)
    key = {"sweep": "power", "p": p, "m": m, "d": d, "e": e, "engine": ENGINE_VERSION}
    table = _cache_read(cache_dir, key)

    def work(ct):
        P = poly_from_ints(qspec, e, list(ct))
        L = power_l_function(P, d, max_enum)
        npoly = padic_newton_polygon(L, m, precision)
        hval = hasse_full_eval(P, d, hasse_cap)
        attains = npoly == gnp
        return {
            "coeffs": list(ct),
            "np": npoly.to_json_dict(),
            "hs_equal": npoly == hs,
            "above_hs": npoly.lies_above(hs),
            "gnp_equal": attains,
            "hasse": hval.to_int(),
            "consistent": attains == (hval.to_int() != 0),
        }

    missing = [ct for ct in tuples if ct not in table]
    for ct, row in zip(missing, _map_ordered(work, missing, threads)):
        table[ct] = row
    if missing:
        _cache_write(cache_dir, key, table)
    rows = [table[ct] for ct in tuples]
    summary = {
        "total": len(rows),
        "hs_equal": sum(r["hs_equal"] for r in rows),
        "above_hs": sum(r["above_hs"] for r in rows),
        "gnp_matches": sum(r["gnp_equal"] for r in rows),
        "hasse_nonzero": sum(r["hasse"] != 0 for r in rows),
        "consistent": sum(r["consistent"] for r in rows),
    }
    return {"command": "sweep", "kind": "power",
            "params": {"p": p, "m": m, "d": d, "e": e},
            "engine": ENGINE_VERSION,
            "hs": hs.to_json_dict(), "gnp": gnp.to_json_dict(),
            "rows": rows, "summary": summary}


# ---------------------------------------------------------------------------
# Verification drivers


def _regime(force: bool, msg: str) -> None:
    if force:
        print(f"lpoly: warning: {msg}", file=sys.stderr)
    else:
        raise BadParameters(msg)


def verify_prop31(p, m, d, e, kappa, *, force=False, **sweep_kw) -> dict:
    """Split case: every twisted polygon must equal the lower-bound polygon."""
    q = p**m
    if (q - 1) % (d * e):
        _regime(force, f"split case needs de | q - 1, got q={q} de={d * e}")
    sweep = run_twisted_sweep(p, m, d, e, kappa, **sweep_kw)
    checks = [bool(r["hs_equal"]) for r in sweep["rows"]]
    return {"verify": "prop31", "params": sweep["params"], "engine": ENGINE_VERSION,
            "hs": sweep["hs"], "instances": sweep["rows"],
            "counts": {"total": len(checks), "passed": sum(checks)},
            "pass": bool(checks) and all(checks)}


def verify_thm31(p, m, d, e, kappa, *, force=False, **sweep_kw) -> dict:
    """Twisted stratification: polygon above the bound everywhere, and equal
    to the generic polygon exactly where the coefficient product is nonzero."""
    if p < 2 * d * e:
        _regime(force, f"stratification regime needs p >= 2de, got p={p} de={d * e}")
    if d < 3:
        _regime(force, f"stratification statement assumes d >= 3, got d={d}")
    sweep = run_twisted_sweep(p, m, d, e, kappa, **sweep_kw)
    checks = [bool(r["above_hs"] and r["consistent"]) for r in sweep["rows"]]
    return {"verify": "thm31", "params": sweep["params"], "engine": ENGINE_VERSION,
            "hs": sweep["hs"], "gnp": sweep["gnp"], "instances": sweep["rows"],
            "counts": {"total": len(checks), "passed": sum(checks)},
            "pass": bool(checks) and all(checks)}


def verify_prop42(p, m, d, e, *, force=False, **sweep_kw) -> dict:
    """Split power case: every polygon equals the equidistributed polygon."""
    q = p**m
    if (q - 1) % (d * e):
        _regime(force, f"split case needs de | q - 1, got q={q} de={d * e}")
    sweep = run_power_sweep(p, m, d, e, **sweep_kw)
    checks = [bool(r["hs_equal"] and r["gnp_equal"]) for r in sweep["rows"]]
    return {"verify": "prop42", "params": sweep["params"], "engine": ENGINE_VERSION,
            "hs": sweep["hs"], "instances": sweep["rows"],
            "counts": {"total": len(checks), "passed": sum(checks)},
            "pass": bool(checks) and all(checks)}


def verify_thm41(p, m, d, e, *, force=False, **sweep_kw) -> dict:
    """Power stratification via the full coefficient product."""
    if p < 2 * d * e:
        _regime(force, f"stratification regime needs p >= 2de, got p={p} de={d * e}")
    if d < 3:
        _regime(force, f"stratification statement assumes d >= 3, got d={d}")
    sweep = run_power_sweep(p, m, d, e, **sweep_kw)
    checks = [bool(r["above_hs"] and r["consistent"]) for r in sweep["rows"]]
    return {"verify": "thm41", "params": sweep["params"], "engine": ENGINE_VERSION,
            "hs": sweep["hs"], "gnp": sweep["gnp"], "instances": sweep["rows"],
            "counts": {"total": len(checks), "passed": sum(checks)},
            "pass": bool(checks) and all(checks)}


def verify_prop41(p, m, d, e, *, count=50, seed=0, max_enum=MAX_ENUM_DEFAULT) -> dict:
    """Exact factorization of the power L-function into the additive part
    and inflated twisted parts, one per orbit of multiplication by q mod d."""
    qspec = make_field(p, m)
    q = qspec.order
    ringd = make_ring(p, d)
    dec = orbit_decomposition(d, q)
    rng = random.Random(seed)
    tuples = [tuple(rng.randrange(q) for _ in range(e - 1)) for _ in range(count)]
    exts = {}
    rows = []
    for ct in tuples:
        P = poly_from_ints(qspec, e, list(ct))
        lhs = lpoly_map_ring(power_l_function(P, d, max_enum), ringd)
        ladd = additive_l_function(P, max_enum)
        rhs = lpoly_map_ring(ladd, ringd)
        twisted_degrees = []
        for rep in dec.nonzero_reps():
            orb = dec.orbit_of(rep)
            ext = exts.setdefault(orb.size, make_field(p, m * orb.size))
            Li = twisted_l_function(embed_poly(P, ext), TwistSpec(d, rep), max_enum)
            twisted_degrees.append(Li.degree)
            rhs = lpoly_mul(rhs, lpoly_inflate(Li, orb.size))
        ok = (lhs == rhs and lhs.degree == d * e - 1 and ladd.degree == e - 1
              and all(t == e for t in twisted_degrees))
        rows.append({"coeffs": list(ct), "factorization_exact": lhs == rhs,
                     "power_degree": lhs.degree, "additive_degree": ladd.degree,
                     "twisted_degrees": twisted_degrees, "ok": ok})
    checks = [r["ok"] for r in rows]
    return {"verify": "prop41",
            "params": {"p": p, "m": m, "d": d, "e": e, "count": count, "seed": seed},
            "engine": ENGINE_VERSION, "instances": rows,
            "counts": {"total": len(checks), "passed": sum(checks)},
            "pass": bool(checks) and all(checks)}


def verify_stickelberger(*, dmax=12, precision=None) -> dict:
    """Aligned valuation of every Gauss sum on the prime power grid against
    the orbit mean of the complementary class."""
    rows = []
    for p, m in _GAUSS_FIELDS:
        qspec = make_field(p, m)
        q = qspec.order
        for d in range(2, dmax + 1):
            if (q - 1) % d:
                continue
            ctx = aligned_context(qspec, d, precision or default_precision(m, 1))
            dec = orbit_decomposition(d, p)
            for kappa in range(1, d):
                g = gauss_sum(qspec, d, kappa)
                vq = valuation(g, ctx) / m
                mu = dec.mu_of(d - kappa)
                rows.append({"q": q, "d": d, "kappa": kappa,
                             "valuation": fraction_str(vq), "mu": fraction_str(mu),
                             "ok": vq == mu})
    checks = [r["ok"] for r in rows]
    return {"verify": "stickelberger", "params": {"dmax": dmax},
            "engine": ENGINE_VERSION, "instances": rows,
            "counts": {"total": len(checks), "passed": sum(checks)},
            "pass": bool(checks) and all(checks)}


def _brute_block_min(tc: TwistCombinatorics, n: int, s: int):
    best, argmin = None, []
    for perm in itertools.permutations(range(1, n + 1)):
        tot = sum(tc.nu(k, perm[k - 1], s) for k in range(1, n + 1))
        if best is None or tot < best:
            best, argmin = tot, [perm]
        elif tot == best:
            argmin.append(perm)
    return best, set(argmin)


def verify_lemma22(draws=200, seed=0) -> dict:
    """Closed-form block minima against exhaustive permutation search."""
    rng = random.Random(seed)
    rows = []
    for _ in range(draws):
        d = rng.randrange(2, 8)
        e = rng.randrange(1, 7)
        pool = [p for p in _SMALL_PRIMES if p >= 2 * d * e and gcd(p, d * e) == 1]
        p = rng.choice(pool)
        kappa = rng.randrange(1, d)
        tc = TwistCombinatorics(p, d, kappa, _order(p, d), e=e)
        n = rng.randrange(1, min(e, 6) + 1)
        s = rng.randrange(tc.m)
        brute, argmin = _brute_block_min(tc, n, s)
        ok = tc.Y_n_s(n, s) == brute and set(tc.sigma_set(n, s)) == argmin
        rows.append({"p": p, "d": d, "e": e, "kappa": kappa, "n": n, "s": s,
                     "Y": tc.Y_n_s(n, s), "brute": brute, "ok": ok})
    checks = [r["ok"] for r in rows]
    return {"verify": "lemma22", "params": {"draws": draws, "seed": seed},
            "engine": ENGINE_VERSION, "instances": rows,
            "counts": {"total": len(checks), "passed": sum(checks)},
            "pass": bool(checks) and all(checks)}


# ---------------------------------------------------------------------------
# Command handlers


def _emit(args, obj, csv_rows=None, header=None) -> None:
    if getattr(args, "csv", False) and csv_rows is not None:
        w = csv.writer(sys.stdout, lineterminator="\n")
        if header:
            w.writerow(header)
        w.writerows(csv_rows)
    else:
        print(_canon(obj))


def _require(args, *names) -> None:
    for nm in names:
        if getattr(args, nm, None) is None:
            raise BadParameters(f"--{nm.replace('_', '-')} is required for this command")


def _parse_coeffs(text) -> list:
    text = (text or "").strip()
    if not text:
        return []
    try:
        return [int(tok) for tok in text.replace(" ", "").split(",") if tok != ""]
    except ValueError as exc:
        raise BadParameters(f"bad coefficient list {text!r}") from exc


def cmd_polygon(args) -> int:
    kind = args.kind
    if kind == "hodge":
        _require(args, "de")
        poly = _hodge(args.de)
    elif kind == "hs-twisted":
        _require(args, "d", "e", "r", "kappa")
        poly = hs_twisted(args.d, args.e, args.r, args.kappa)
    elif kind == "gnp-twisted":
        _require(args, "p", "d", "e", "kappa")
        poly = gnp_twisted(args.p, args.d, args.e, args.kappa, m=args.m)
    elif kind == "hs-power":
        _require(args, "d", "e", "r")
        poly = hs_power(args.d, args.e, args.r)
    else:
        _require(args, "p", "d", "e")
        poly = gnp_power(args.p, args.d, args.e)
    out = poly.to_json_dict()
    out["kind"] = kind
    if args.dump_tables and kind == "gnp-twisted":
        mm = args.m if args.m is not None else _order(args.p, args.d)
        out["tables"] = TwistCombinatorics(args.p, args.d, args.kappa, mm, e=args.e).to_json_dict()
    _emit(args, out, poly.to_csv_rows(), ("n", "ordinate"))
    return 0


def cmd_lfunction(args) -> int:
    _require(args, "p", "e")
    qspec = make_field(args.p, args.m)
    P = poly_from_ints(qspec, args.e, _parse_coeffs(args.coeffs))
    if args.kind == "twisted":
        _require(args, "d", "kappa")
        L = twisted_l_function(P, TwistSpec(args.d, args.kappa), args.max_enum)
        poly = twisted_newton_polygon(L, qspec, args.d, args.precision)
    elif args.kind == "additive":
        L = additive_l_function(P, args.max_enum)
        poly = padic_newton_polygon(L, args.m, args.precision)
    else:
        _require(args, "d")
        L = power_l_function(P, args.d, args.max_enum)
        poly = padic_newton_polygon(L, args.m, args.precision)
    out = {"kind": args.kind, "q": qspec.order, "degree": L.degree,
           "l_coeffs": [c.to_json_dict() for c in L.coeffs],
           "np": poly.to_json_dict()}
    _emit(args, out, poly.to_csv_rows(), ("n", "ordinate"))
    return 0


def _sweep_csv(report):
    rows = []
    for r in report["rows"]:
        slopes = "+".join(f"{s}x{length}" for s, length in r["np"]["slopes"])
        rows.append([" ".join(map(str, r["coeffs"])), slopes, r["hasse"],
                     int(r["gnp_equal"]), int(r["above_hs"]), int(r["consistent"])])
    return rows, ("coeffs", "np_slopes", "hasse", "gnp_equal", "above_hs", "consistent")


def cmd_sweep(args) -> int:
    _require(args, "p", "d", "e")
    common = dict(max_enum=args.max_enum, precision=args.precision,
                  threads=args.threads, cache_dir=args.cache_dir,
                  sample=args.random, seed=args.seed)
    if args.kind == "twisted":
        _require(args, "kappa")
        report = run_twisted_sweep(args.p, args.m, args.d, args.e, args.kappa, **common)
    else:
        report = run_power_sweep(args.p, args.m, args.d, args.e, **common)
    csv_rows, header = _sweep_csv(report)
    _emit(args, report, csv_rows, header)
    return 0


def cmd_verify(args) -> int:
    t = args.theorem
    if t == "stickelberger":
        report = verify_stickelberger(precision=args.precision)
    elif t == "lemma22":
        report = verify_lemma22(args.draws, args.seed)
    elif t == "prop41":
        _require(args, "p", "d", "e")
        count = args.random if args.random is not None else 50
        report = verify_prop41(args.p, args.m, args.d, args.e, count=count,
                               seed=args.seed, max_enum=args.max_enum)
    else:
        _require(args, "p", "d", "e")
        sweep_kw = dict(max_enum=args.max_enum, precision=args.precision,
                        threads=args.threads, cache_dir=args.cache_dir,
                        sample=args.random, seed=args.seed, force=args.force)
        if t == "prop31":
            _require(args, "kappa")
            report = verify_prop31(args.p, args.m, args.d, args.e, args.kappa, **sweep_kw)
        elif t == "thm31":
            _require(args, "kappa")
            report = verify_thm31(args.p, args.m, args.d, args.e, args.kappa, **sweep_kw)
        elif t == "prop42":
            report = verify_prop42(args.p, args.m, args.d, args.e, **sweep_kw)
        else:
            report = verify_thm41(args.p, args.m, args.d, args.e, **sweep_kw)
    _emit(args, report)
    return 0 if report["pass"] else 1


def cmd_gauss(args) -> int:
    _require(args, "p", "d", "kappa")
    qspec = make_field(args.p, args.m)
    g = gauss_sum(qspec, args.d, args.kappa, args.max_enum)
    ctx = aligned_context(qspec, args.d, args.precision or default_precision(args.m, 1))
    vq = valuation(g, ctx) / args.m
    mu = orbit_decomposition(args.d, args.p).mu_of(args.d - args.kappa)
    out = {"q": qspec.order, "d": args.d, "kappa": args.kappa,
           "element": g.to_json_dict(), "valuation_q": fraction_str(vq),
           "mu_complement": fraction_str(mu), "stickelberger_match": vq == mu}
    _emit(args, out)
    return 0


def cmd_orbits(args) -> int:
    _require(args, "d", "t")
    dec = orbit_decomposition(args.d, args.t)
    out = {"modulus": dec.modulus, "multiplier": dec.multiplier,
           "orbits": [{"rep": o.rep, "members": sorted(o.members), "size": o.size,
                       "mu": fraction_str(o.mu)} for o in dec.orbits]}
    _emit(args, out)
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lpoly",
        description="Exact L-functions of character sums over small finite fields, "
                    "their q-adic Newton polygons, and the predicted polygon bounds.",
        epilog="Element encoding: c_0 + c_1 x + ... in F_{p^n} is the integer "
               "c_0 + c_1 p + c_2 p^2 + ...; --coeffs lists a_1,...,a_{e-1} of "
               "the monic zero-constant P.")
    ap.add_argument("--json", action="store_true", help="emit canonical JSON (default)")
    ap.add_argument("--csv", action="store_true", help="emit CSV where a row layout exists")
    ap.add_argument("--cache-dir", default=os.environ.get("LPOLY_CACHE"),
                    help="sweep cache directory (env LPOLY_CACHE)")
    ap.add_argument("--threads", type=int, default=1, help="worker threads for sweeps")
    ap.add_argument("--precision", type=int, default=None,
                    help="initial p-adic working precision override")
    ap.add_argument("--max-enum", type=int, default=MAX_ENUM_DEFAULT, dest="max_enum",
                    help="largest field enumeration allowed (default 2^24)")
    sub = ap.add_subparsers(dest="command", required=True)

    pol = sub.add_parser("polygon", help="print a predicted polygon")
    pol.add_argument("kind", choices=["hs-twisted", "gnp-twisted", "hs-power", "gnp-power", "hodge"])
    for nm in ("p", "m", "d", "e", "r", "kappa", "de"):
        pol.add_argument(f"--{nm}", type=int, default=None)
    pol.add_argument("--dump-tables", action="store_true",
                     help="include the digit and block tables in the output")
    pol.set_defaults(func=cmd_polygon)

    lf = sub.add_parser("lfunction", help="compute one exact L-function and its polygon")
    lf.add_argument("kind", choices=["twisted", "additive", "power"])
    lf.add_argument("--p", type=int, default=None)
    lf.add_argument("--m", type=int, default=1)
    lf.add_argument("--d", type=int, default=None)
    lf.add_argument("--kappa", type=int, default=None)
    lf.add_argument("--e", type=int, default=None)
    lf.add_argument("--coeffs", default="")
    lf.set_defaults(func=cmd_lfunction)

    ver = sub.add_parser("verify", help="run a verification suite; exit 1 on any failed verdict")
    ver.add_argument("theorem", choices=["prop31", "thm31", "prop41", "prop42", "thm41",
                                         "stickelberger", "lemma22"])
    ver.add_argument("--p", type=int, default=None)
    ver.add_argument("--m", type=int, default=1)
    ver.add_argument("--d", type=int, default=None)
    ver.add_argument("--e", type=int, default=None)
    ver.add_argument("--kappa", type=int, default=None)
    ver.add_argument("--all", action="store_true", help="exhaustive sweep (default)")
    ver.add_argument("--random", type=int, default=None, metavar="N",
                     help="sample N pseudorandom polynomials instead")
    ver.add_argument("--draws", type=int, default=200)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--force", action="store_true",
                     help="warn instead of failing outside the stated parameter regime")
    ver.set_defaults(func=cmd_verify)

    sw = sub.add_parser("sweep", help="stratification table over monic polynomials")
    sw.add_argument("kind", choices=["twisted", "power"])
    sw.add_argument("--p", type=int, default=None)
    sw.add_argument("--m", type=int, default=1)
    sw.add_argument("--d", type=int, default=None)
    sw.add_argument("--e", type=int, default=None)
    sw.add_argument("--kappa", type=int, default=None)
    sw.add_argument("--random", type=int, default=None, metavar="N")
    sw.add_argument("--seed", type=int, default=0)
    sw.set_defaults(func=cmd_sweep)

    ga = sub.add_parser("gauss", help="one Gauss sum, exactly, with its aligned valuation")
    ga.add_argument("--p", type=int, default=None)
    ga.add_argument("--m", type=int, default=1)
    ga.add_argument("--d", type=int, default=None)
    ga.add_argument("--kappa", type=int, default=None)
    ga.set_defaults(func=cmd_gauss)

    orb = sub.add_parser("orbits", help="orbit decomposition of Z/dZ under a multiplier")
    orb.add_argument("--d", type=int, default=None)
    orb.add_argument("--t", type=int, default=None)
    orb.set_defaults(func=cmd_orbits)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceBound as exc:
        print(f"lpoly: resource bound exceeded: {exc}", file=sys.stderr)
        return 3
    except ParameterError as exc:
        print(f"lpoly: parameter error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"lpoly: internal inconsistency: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
