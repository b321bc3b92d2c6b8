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
regardless of cache state.
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
from math import gcd

from . import ENGINE_VERSION
from .char_sums import (
    MAX_ENUM_DEFAULT,
    TwistSpec,
    additive_l_function,
    check_enum,
    embed_poly,
    enumerable_field,
    gauss_sum,
    lpoly_inflate,
    lpoly_map_ring,
    lpoly_mul,
    poly_from_ints,
    power_l_function,
    twisted_l_function,
)
from .cyclotomic import make_ring
from .errors import InternalError, ParameterError, ResourceBound
from .finite_field import _is_prime, check_field_params, make_field, primitive_root
from .local_valuation import aligned_context, newton_polygon, q_newton_polygon, valuation
from .polygon import fraction_str
from .stratification import (
    Orbit,
    TwistCombinatorics,
    blocks_gnp,
    class_gnp,
    gnp_power,
    hasse_full_eval,
    hasse_weight,
    hs_power,
    hs_twisted,
    orbit_decomposition,
    power_blocks,
)

# (p, m) pairs giving the prime power grid for the Gauss sum check
_GAUSS_FIELDS = ((3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4), (5, 2))
# the Gauss sum check takes every order d = 2..12 that divides q - 1
_GAUSS_DMAX = 12


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Sweep cache: one JSON record per polynomial, content-addressed file per job


def _cache_path(cache_dir, key: dict) -> pathlib.Path:
    digest = hashlib.sha256(_canon(key).encode()).hexdigest()
    return pathlib.Path(cache_dir) / f"{digest}.jsonl"


# the fields of a sweep row, as _sweep builds them, and their JSON types
_ROW_TYPES = {"coeffs": list, "np": dict, "hs_equal": bool, "above_hs": bool,
              "gnp_equal": bool, "hasse": int, "consistent": bool}


def _cache_read(cache_dir, key: dict) -> dict:
    """Cached rows by coefficient tuple.  Only a line with exactly a row's
    fields, of their JSON types, is taken; any other line (a truncated
    write, say) is a miss, and its row is recomputed."""
    if not cache_dir:
        return {}
    try:
        text = _cache_path(cache_dir, key).read_text(errors="replace")
    except FileNotFoundError:
        return {}
    except OSError as exc:
        raise ParameterError(f"cannot read cache directory {cache_dir}: {exc.strerror}") from exc
    out = {}
    for line in text.splitlines():
        try:
            rec = json.loads(line)
        except ValueError:
            continue
        if (isinstance(rec, dict) and {k: type(v) for k, v in rec.items()} == _ROW_TYPES
                and all(type(c) is int for c in rec["coeffs"])):
            out[tuple(rec["coeffs"])] = rec
    return out


def _cache_write(cache_dir, key: dict, table: dict) -> None:
    """Write the whole table to a temp file private to this process and
    thread, then rename it over the cache file in one step."""
    if not cache_dir:
        return
    path = _cache_path(cache_dir, key)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text("".join(_canon(table[k]) + "\n" for k in sorted(table)))
        tmp.replace(path)
    except OSError as exc:
        raise ParameterError(f"cannot write cache directory {cache_dir}: {exc.strerror}") from exc


def _coeff_tuples(q: int, e: int, sample, seed: int, max_enum: int):
    """Every coefficient tuple, or sample seeded pseudorandom ones; a
    sample past max_enum is refused before any is drawn."""
    if sample is None:
        return list(itertools.product(range(q), repeat=e - 1))
    if sample < 1:
        raise ParameterError(f"need at least one sampled polynomial, got {sample}")
    if sample > max_enum:
        raise ResourceBound(f"{sample} sampled polynomials exceed the cap {max_enum}")
    rng = random.Random(seed)
    return [tuple(rng.randrange(q) for _ in range(e - 1)) for _ in range(sample)]


# ---------------------------------------------------------------------------
# Sweeps


def run_twisted_sweep(p, m, d, e, kappa, *, max_enum=MAX_ENUM_DEFAULT,
                      threads=1, cache_dir=None, sample=None, seed=0) -> dict:
    """One row per monic P over F_{p^m}: q-adic polygon of the twisted
    L-function, comparisons against the two predicted polygons, and the
    product of the block coefficient polynomial values."""
    # threads stays only because perfbench/workloads.py passes threads=1
    if threads != 1:
        raise ParameterError(f"sweeps run on one thread, got threads={threads}")
    qspec = enumerable_field(p, m, max_enum)
    tw = TwistSpec(d, kappa)
    hs = hs_twisted(d, e, p, kappa)
    tc = TwistCombinatorics(p, d, kappa, e=e)
    gnp = class_gnp(tc)
    # every row sums over F_{q^e}: refuse before the rows are listed
    check_enum(p, m * e, max_enum)
    ctx = aligned_context(qspec, d)
    return _sweep("twisted", {"p": p, "m": m, "d": d, "e": e, "kappa": kappa}, qspec, ctx,
                  hs, gnp, lambda P: twisted_l_function(P, tw, max_enum), [tc],
                  _coeff_tuples(qspec.order, e, sample, seed, max_enum), cache_dir)


def run_power_sweep(p, m, d, e, *, max_enum=MAX_ENUM_DEFAULT,
                    cache_dir=None, sample=None, seed=0) -> dict:
    """Same layout for sums of P(x^d) over the whole field; the full
    stratification product decides generic membership."""
    qspec = enumerable_field(p, m, max_enum)
    hs = hs_power(d, e, p)
    tcs = power_blocks(p, d, e)
    gnp = blocks_gnp(tcs)
    # every row sums over F_{q^(de-1)} (F_q when de = 1): refuse before
    # the rows are listed
    check_enum(p, m * max(d * e - 1, 1), max_enum)
    # power L-functions have coefficients in Z[zeta_p], the ring with d = 1
    ctx = aligned_context(qspec, 1)
    return _sweep("power", {"p": p, "m": m, "d": d, "e": e}, qspec, ctx, hs, gnp,
                  lambda P: power_l_function(P, d, max_enum), tcs,
                  _coeff_tuples(qspec.order, e, sample, seed, max_enum), cache_dir)


def _symmetry_classes(qspec, e: int, weight: int, tuples):
    """The tuples grouped into symmetry classes of P = X^e + ... + a_1 X.

    (j, lambda) in Gal(F_q/F_p) x mu_h(F_q), h = gcd(e(p - 1), q - 1),
    sends P to c P^(p^j)(lambda X) with c = lambda^(-e), which lies in
    F_p^*: a_i goes to a_i^(p^j) lambda^(i - e).  Such a P' has the polygon
    of P: P(lambda X) scales the roots of each L-function by a root of
    unity, c acts on the sums as sigma_c (zeta_p -> zeta_p^c), which lies in
    the inertia group at p of Q(zeta_p, zeta_d)/Q(zeta_d), and Frobenius on
    the coefficients acts as tau_p; both fix the aligned place.  Its Hasse
    value is lambda^weight hasse(P)^(p^j), weight = W - e Y from _sweep.  With
    mu = [zeta^0, .., zeta^(h-1)], lambda = zeta^k has lambda^t = mu[k t mod h].
    Yields (rep, {member: (j, lambda^weight)}) over the members among
    tuples, in order of first appearance; rep is a member with (0, 1)."""
    q, p = qspec.order, qspec.p
    h = gcd(e * (p - 1), q - 1)
    zeta = primitive_root(qspec) ** ((q - 1) // h)
    mu = [qspec.one()]
    for _ in range(h - 1):
        mu.append(mu[-1] * zeta)
    left = dict.fromkeys(tuples)
    for rep in tuples:
        if rep not in left:
            continue
        frob = [qspec.element_from_int(c) for c in rep]
        members = {}
        for j in range(qspec.n):
            if j:
                frob = [a ** p for a in frob]
            for k in range(h):
                ct = tuple((a * mu[k * (i - e) % h]).to_int() for i, a in enumerate(frob, 1))
                if ct in left:
                    del left[ct]
                    members[ct] = (j, mu[k * weight % h])
        yield rep, members


def _sweep(kind, params, qspec, ctx, hs, gnp, lfun, tcs, tuples, cache_dir) -> dict:
    """Rows and summary of a sweep, through the disk cache: one row per
    entry of tuples.  Each symmetry class of the missing tuples takes the
    L-function lfun(P), its polygon at the place ctx and the Hasse value
    hasse_full_eval(P, tcs) once, at its first tuple; every member shares
    the polygon and its comparisons and takes lambda^weight hval^(p^j)
    as its Hasse value.  The same twist classes tcs fix the weight, so the
    blocks multiplied and the blocks weighed are one list."""
    e = params["e"]
    # W from the entries' degrees (hasse_weight), -e Y from their powers nu
    weight = sum(hasse_weight(tc, n) - e * tc.Y(n)
                 for tc in tcs for n in range(1, tc.rows + 1))
    key = {"sweep": kind, **params, "engine": ENGINE_VERSION}
    table = _cache_read(cache_dir, key)

    missing = [ct for ct in tuples if ct not in table]
    for rep, members in _symmetry_classes(qspec, e, weight, missing):
        P = poly_from_ints(qspec, e, list(rep))
        L, hval = lfun(P), hasse_full_eval(P, tcs)
        npoly = q_newton_polygon(L, qspec.n, ctx)
        attains = npoly == gnp
        shared = {"np": npoly.to_json_dict(), "hs_equal": npoly == hs,
                  "above_hs": npoly.lies_above(hs), "gnp_equal": attains}
        frobs = [hval]  # hval^(p^j), j < n
        for _ in range(qspec.n - 1):
            frobs.append(frobs[-1] ** qspec.p)
        for ct, (j, scale) in members.items():
            hasse = (scale * frobs[j]).to_int()
            table[ct] = {"coeffs": list(ct), **shared, "hasse": hasse,
                         "consistent": attains == (hasse != 0)}
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
    return {"command": "sweep", "kind": kind, "params": params, "engine": ENGINE_VERSION,
            "hs": hs.to_json_dict(), "gnp": gnp.to_json_dict(),
            "rows": rows, "summary": summary}


# ---------------------------------------------------------------------------
# Verification drivers


def _verdict(theorem: str, params: dict, instances: list, checks: list, **extra) -> dict:
    """The report of one verify theorem: its instances, any extra keys, the
    counts of its checks and its verdict; pass needs at least one check."""
    return {"verify": theorem, "params": params, "engine": ENGINE_VERSION,
            "instances": instances, **extra,
            "counts": {"total": len(checks), "passed": sum(checks)},
            "pass": bool(checks) and all(checks)}


def _regime(force: bool, msg: str) -> None:
    if force:
        print(f"lpoly: warning: {msg}", file=sys.stderr)
    else:
        raise ParameterError(msg)


def _split_regime(p, d, e, force) -> None:
    if (p - 1) % (d * e):
        _regime(force, f"split case needs p = 1 mod de, got p={p} de={d * e}")


def _stratified_regime(p, d, e, force) -> None:
    if p < 2 * d * e:
        _regime(force, f"stratification regime needs p >= 2de, got p={p} de={d * e}")
    if d < 3:
        _regime(force, f"stratification statement assumes d >= 3, got d={d}")


# theorem -> (sweep kind, regime check, row fields that must all hold,
# whether the report carries the generic polygon); a twisted sweep takes
# kappa after p, m, d, e
_SWEEP_THEOREMS = {
    "prop31": ("twisted", _split_regime, ("hs_equal",), False),
    "thm31": ("twisted", _stratified_regime, ("above_hs", "consistent"), True),
    "prop42": ("power", _split_regime, ("hs_equal", "gnp_equal"), False),
    "thm41": ("power", _stratified_regime, ("above_hs", "consistent"), True),
}


def _verify_sweep(theorem: str, args: tuple, force: bool, sweep_kw: dict) -> dict:
    """Regime check, sweep and per-row verdicts for one sweep theorem;
    args are the sweep's positional arguments (p, m, d, e[, kappa])."""
    kind, regime, fields, with_gnp = _SWEEP_THEOREMS[theorem]
    p, m, d, e = args[:4]
    check_field_params(p, m)
    if d < 1 or e < 1:
        raise ParameterError(f"d and e must be positive, got d={d} e={e}")
    regime(p, d, e, force)
    sweep = (run_twisted_sweep if kind == "twisted" else run_power_sweep)(*args, **sweep_kw)
    rows = sweep["rows"]
    extra = {"gnp": sweep["gnp"]} if with_gnp else {}
    return _verdict(theorem, sweep["params"], rows, [all(r[f] for f in fields) for r in rows],
                    hs=sweep["hs"], **extra)


def verify_prop31(p, m, d, e, kappa, *, force=False, **sweep_kw) -> dict:
    """Split case: every twisted polygon must equal the lower-bound polygon."""
    return _verify_sweep("prop31", (p, m, d, e, kappa), force, sweep_kw)


def verify_prop41(p, m, d, e, *, count=50, seed=0, max_enum=MAX_ENUM_DEFAULT) -> dict:
    """Exact factorization of the power L-function into the additive part
    and inflated twisted parts, one per orbit of multiplication by q mod d."""
    qspec = enumerable_field(p, m, max_enum)
    q = qspec.order
    ringd = make_ring(p, d)
    orbits = [orb for orb in orbit_decomposition(d, q) if orb.rep]
    exts = {1: qspec}  # F_{q^s} by orbit size s, each built once
    tuples = _coeff_tuples(q, e, count, seed, max_enum)
    rows = {}
    for ct in dict.fromkeys(tuples):
        P = poly_from_ints(qspec, e, list(ct))
        lhs = lpoly_map_ring(power_l_function(P, d, max_enum), ringd)
        ladd = additive_l_function(P, max_enum)
        rhs = lpoly_map_ring(ladd, ringd)
        twisted_degrees = []
        for orb in orbits:
            if orb.size not in exts:
                exts[orb.size] = enumerable_field(p, m * orb.size, max_enum)
            # chi^rep has exact order d / g, which divides q^|orbit| - 1
            g = gcd(orb.rep, d)
            Li = lpoly_map_ring(twisted_l_function(embed_poly(P, exts[orb.size]),
                                                   TwistSpec(d // g, orb.rep // g), max_enum), ringd)
            twisted_degrees.append(Li.degree)
            rhs = lpoly_mul(rhs, lpoly_inflate(Li, orb.size))
        ok = (lhs == rhs and lhs.degree == d * e - 1 and ladd.degree == e - 1
              and all(t == e for t in twisted_degrees))
        rows[ct] = {"coeffs": list(ct), "factorization_exact": lhs == rhs,
                    "power_degree": lhs.degree, "additive_degree": ladd.degree,
                    "twisted_degrees": twisted_degrees, "ok": ok}
    instances = [rows[ct] for ct in tuples]
    return _verdict("prop41", {"p": p, "m": m, "d": d, "e": e, "count": count, "seed": seed},
                    instances, [r["ok"] for r in instances])


def verify_stickelberger() -> dict:
    """Aligned valuation of every Gauss sum on the prime power grid against
    the orbit mean of the complementary class."""
    rows = []
    for p, m in _GAUSS_FIELDS:
        qspec = make_field(p, m)
        q = qspec.order
        for d in range(2, _GAUSS_DMAX + 1):
            if (q - 1) % d:
                continue
            ctx = aligned_context(qspec, d)
            for kappa in range(1, d):
                g = gauss_sum(qspec, d, kappa)
                vq = valuation(g, ctx) / m
                mu = Orbit(d, p, d - kappa).mu
                rows.append({"q": q, "d": d, "kappa": kappa,
                             "valuation": fraction_str(vq), "mu": fraction_str(mu),
                             "ok": vq == mu})
    return _verdict("stickelberger", {"dmax": _GAUSS_DMAX}, rows, [r["ok"] for r in rows])


def _brute_block_min(tc: TwistCombinatorics, n: int, s: int):
    """Least sum of nu(k, sigma(k), s) over the permutations sigma of [1, n],
    the set attaining it, and the set with sigma(i) >= j_i on B_n."""
    jt, bn = tc.j_and_B(n, s)
    best, argmin, masked = None, [], set()
    for perm in itertools.permutations(range(1, n + 1)):
        if all(perm[i - 1] >= jt[i - 1] for i in bn):
            masked.add(perm)
        tot = sum(tc.nu(k, perm[k - 1], s) for k in range(1, n + 1))
        if best is None or tot < best:
            best, argmin = tot, [perm]
        elif tot == best:
            argmin.append(perm)
    return best, set(argmin), masked


def verify_lemma22(draws=200, seed=0) -> dict:
    """Closed-form block minima against exhaustive permutation search."""
    if draws < 1:
        raise ParameterError(f"need at least one draw, got {draws}")
    rng = random.Random(seed)
    rows = []
    for _ in range(draws):
        d = rng.randrange(2, 8)
        e = rng.randrange(1, 7)
        pool = [p for p in range(2 * d * e, 100) if _is_prime(p) and gcd(p, d * e) == 1]
        p = rng.choice(pool)
        kappa = rng.randrange(1, d)
        tc = TwistCombinatorics(p, d, kappa, e=e)
        n = rng.randrange(1, min(e, 6) + 1)
        s = rng.randrange(tc.m)
        brute, argmin, masked = _brute_block_min(tc, n, s)
        ok = tc.Y_n_s(n, s) == brute and masked == argmin
        rows.append({"p": p, "d": d, "e": e, "kappa": kappa, "n": n, "s": s,
                     "Y": tc.Y_n_s(n, s), "brute": brute, "ok": ok})
    return _verdict("lemma22", {"draws": draws, "seed": seed}, rows, [r["ok"] for r in rows])


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
            raise ParameterError(f"--{nm.replace('_', '-')} is required for this command")


def _parse_coeffs(text) -> list:
    text = (text or "").strip()
    if not text:
        return []
    try:
        return [int(tok) for tok in text.replace(" ", "").split(",") if tok != ""]
    except ValueError as exc:
        raise ParameterError(f"bad coefficient list {text!r}") from exc


def cmd_polygon(args) -> int:
    kind = args.kind
    if kind == "hodge":
        _require(args, "de")
        # the zero orbit of d = 1 gives the slopes i/de, i = 1..de-1
        poly = hs_power(1, args.de, 1)
    elif kind == "hs-twisted":
        _require(args, "d", "e", "r", "kappa")
        poly = hs_twisted(args.d, args.e, args.r, args.kappa)
    elif kind == "gnp-twisted":
        _require(args, "p", "d", "e", "kappa")
        TwistSpec(args.d, args.kappa)  # TwistCombinatorics also takes the zero twist (1, 0)
        tc = TwistCombinatorics(args.p, args.d, args.kappa, args.m, e=args.e)
        poly = class_gnp(tc)
    elif kind == "hs-power":
        _require(args, "d", "e", "r")
        poly = hs_power(args.d, args.e, args.r)
    else:
        _require(args, "p", "d", "e")
        poly = gnp_power(args.p, args.d, args.e)
    out = poly.to_json_dict()
    out["kind"] = kind
    if args.dump_tables and kind == "gnp-twisted":
        out["tables"] = tc.to_json_dict()
    _emit(args, out, poly.to_csv_rows(), ("n", "ordinate"))
    return 0


def cmd_lfunction(args) -> int:
    _require(args, "p", "e")
    qspec = enumerable_field(args.p, args.m, args.max_enum)
    P = poly_from_ints(qspec, args.e, _parse_coeffs(args.coeffs))
    if args.kind == "twisted":
        _require(args, "d", "kappa")
        L = twisted_l_function(P, TwistSpec(args.d, args.kappa), args.max_enum)
    elif args.kind == "additive":
        L = additive_l_function(P, args.max_enum)
    else:
        _require(args, "d")
        L = power_l_function(P, args.d, args.max_enum)
    poly = newton_polygon(L, qspec)
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


def _sweep_args(args, kind: str):
    """Positional and keyword sweep arguments from the parsed flags."""
    _require(args, "p", "d", "e")
    pos = (args.p, args.m, args.d, args.e)
    if kind == "twisted":
        _require(args, "kappa")
        pos += (args.kappa,)
    return pos, dict(max_enum=args.max_enum, cache_dir=args.cache_dir, sample=args.random,
                     seed=args.seed)


def cmd_sweep(args) -> int:
    pos, kw = _sweep_args(args, args.kind)
    report = (run_twisted_sweep if args.kind == "twisted" else run_power_sweep)(*pos, **kw)
    csv_rows, header = _sweep_csv(report)
    _emit(args, report, csv_rows, header)
    return 0


def cmd_verify(args) -> int:
    t = args.theorem
    if t == "stickelberger":
        report = verify_stickelberger()
    elif t == "lemma22":
        report = verify_lemma22(args.draws, args.seed)
    elif t == "prop41":
        _require(args, "p", "d", "e")
        count = args.random if args.random is not None else 50
        report = verify_prop41(args.p, args.m, args.d, args.e, count=count,
                               seed=args.seed, max_enum=args.max_enum)
    else:
        pos, kw = _sweep_args(args, _SWEEP_THEOREMS[t][0])
        report = _verify_sweep(t, pos, args.force, kw)
    _emit(args, report)
    return 0 if report["pass"] else 1


def cmd_gauss(args) -> int:
    _require(args, "p", "d", "kappa")
    qspec = enumerable_field(args.p, args.m, args.max_enum)
    g = gauss_sum(qspec, args.d, args.kappa, args.max_enum)
    ctx = aligned_context(qspec, args.d)
    vq = valuation(g, ctx) / args.m
    mu = Orbit(args.d, args.p, args.d - args.kappa).mu
    out = {"q": qspec.order, "d": args.d, "kappa": args.kappa,
           "element": g.to_json_dict(), "valuation_q": fraction_str(vq),
           "mu_complement": fraction_str(mu), "stickelberger_match": vq == mu}
    _emit(args, out)
    return 0


def cmd_orbits(args) -> int:
    _require(args, "d", "t")
    orbits = orbit_decomposition(args.d, args.t)  # checks d before t % d
    out = {"modulus": args.d, "multiplier": args.t % args.d,
           "orbits": [{"rep": o.rep, "members": sorted(o.members), "size": o.size,
                       "mu": fraction_str(o.mu)} for o in orbits]}
    _emit(args, out)
    return 0


# ---------------------------------------------------------------------------


def _int_flags(parser, *names) -> None:
    """Integer flags --name; the field degree --m defaults to 1, the rest to None."""
    for nm in names:
        parser.add_argument(f"--{nm}", type=int, default=1 if nm == "m" else None)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lpoly",
        description="Exact L-functions of character sums over small finite fields, "
                    "their q-adic Newton polygons, and the predicted polygon bounds.",
        epilog="Element encoding: c_0 + c_1 x + ... in F_{p^n} is the integer "
               "c_0 + c_1 p + c_2 p^2 + ...; --coeffs lists a_1,...,a_{e-1} of "
               "the monic zero-constant P.")
    ap.add_argument("--csv", action="store_true", help="emit CSV where a row layout exists")
    ap.add_argument("--cache-dir", default=os.environ.get("LPOLY_CACHE"),
                    help="sweep cache directory (env LPOLY_CACHE)")
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
    _int_flags(lf, "p", "m", "d", "kappa", "e")
    lf.add_argument("--coeffs", default="")
    lf.set_defaults(func=cmd_lfunction)

    ver = sub.add_parser("verify", help="run a verification suite; exit 1 on any failed verdict")
    ver.add_argument("theorem", choices=["prop31", "thm31", "prop41", "prop42", "thm41",
                                         "stickelberger", "lemma22"])
    _int_flags(ver, "p", "m", "d", "e", "kappa")
    ver.add_argument("--random", type=int, default=None, metavar="N",
                     help="sample N pseudorandom polynomials instead")
    ver.add_argument("--draws", type=int, default=200)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--force", action="store_true",
                     help="warn instead of failing outside the stated parameter regime")
    ver.set_defaults(func=cmd_verify)

    sw = sub.add_parser("sweep", help="stratification table over monic polynomials")
    sw.add_argument("kind", choices=["twisted", "power"])
    _int_flags(sw, "p", "m", "d", "e", "kappa")
    sw.add_argument("--random", type=int, default=None, metavar="N")
    sw.add_argument("--seed", type=int, default=0)
    sw.set_defaults(func=cmd_sweep)

    ga = sub.add_parser("gauss", help="one Gauss sum, exactly, with its aligned valuation")
    _int_flags(ga, "p", "m", "d", "kappa")
    ga.set_defaults(func=cmd_gauss)

    orb = sub.add_parser("orbits", help="orbit decomposition of Z/dZ under a multiplier")
    _int_flags(orb, "d", "t")
    orb.set_defaults(func=cmd_orbits)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early: exit as a SIGPIPE death would, with
        # stdout on devnull so the interpreter's last flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
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
