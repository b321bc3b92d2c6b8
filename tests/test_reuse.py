"""Where work is reused: a sweep, sampled or exhaustive, computes one
L-function per symmetry class of its distinct coefficient tuples, a job
builds each of its twist classes once, and the trace-table cache holds a
bounded number of tables."""

import pytest

from lpoly import cli
from lpoly.char_sums import MAX_ENUM_DEFAULT, _trace_table
from lpoly.finite_field import _is_prime
from lpoly.stratification import TwistCombinatorics


def _counting(monkeypatch, name):
    """Count the calls cli makes to name, which takes P first."""
    calls = []
    fn = getattr(cli, name)

    def counted(P, *args):
        calls.append(P.key())
        return fn(P, *args)

    monkeypatch.setattr(cli, name, counted)
    return calls


@pytest.mark.parametrize("driver, args, name", [
    (cli.run_twisted_sweep, (5, 1, 2, 2, 1), "twisted_l_function"),
    (cli.run_power_sweep, (7, 1, 3, 2), "power_l_function"),
])
def test_sampled_sweep_computes_each_distinct_tuple_once(monkeypatch, driver, args, name):
    sample = 8
    tuples = cli._coeff_tuples(args[0] ** args[1], args[3], sample, 0, MAX_ENUM_DEFAULT)
    assert len(set(tuples)) < sample  # the draw repeats a tuple
    calls = _counting(monkeypatch, name)
    report = driver(*args, sample=sample, seed=0)
    # one L-function per symmetry class of the distinct draws: over a prime
    # field, (a_i) -> (lambda^(i - e) a_i) with lambda^(e(p - 1)) = 1
    p, e = args[0], args[3]
    lams = [lam for lam in range(1, p) if pow(lam, e * (p - 1), p) == 1]
    classes = {min(tuple(a * pow(lam, i - e, p) % p for i, a in enumerate(ct, 1)) for lam in lams)
               for ct in tuples}
    assert len(calls) == len(set(calls)) == len(classes)
    assert [tuple(r["coeffs"]) for r in report["rows"]] == tuples


@pytest.mark.parametrize("driver, args, name, rows, classes", [
    # criterion 01: lambda in mu_12(F_13) sends (a_1, a_2) to
    # (lambda^-2 a_1, lambda^-1 a_2)
    (cli.run_twisted_sweep, (13, 1, 2, 3, 1), "twisted_l_function", 169, 16),
    # mu_8 x Gal(F_25/F_5) acting on a_1 alone: 0, mu_8, the other 16
    (cli.run_twisted_sweep, (5, 2, 3, 2, 1), "twisted_l_function", 25, 3),
    # h = gcd(4 * 4, 4) = g = 4: every lambda has lambda^e = 1
    (cli.run_power_sweep, (5, 1, 2, 4), "power_l_function", 125, 33),
    # the in-regime e = 3 sweep over F_43: mu_42 acts on (a_1, a_2)
    (cli.run_twisted_sweep, (43, 1, 3, 3, 1), "twisted_l_function", 1849, 46),
])
def test_exhaustive_sweep_computes_one_l_function_per_symmetry_class(
        monkeypatch, driver, args, name, rows, classes):
    calls = _counting(monkeypatch, name)
    # one Hasse product per class, over every block the sweep weighs
    hasse = _counting(monkeypatch, "hasse_full_eval")
    report = driver(*args)
    assert report["summary"]["total"] == rows
    assert len(calls) == len(set(calls)) == classes
    assert hasse == calls


def test_prop41_computes_each_distinct_instance_once(monkeypatch):
    count = 3
    tuples = cli._coeff_tuples(5, 2, count, 0, MAX_ENUM_DEFAULT)
    assert len(set(tuples)) < count
    power = _counting(monkeypatch, "power_l_function")
    additive = _counting(monkeypatch, "additive_l_function")
    report = cli.verify_prop41(5, 1, 2, 2, count=count, seed=0)
    assert len(power) == len(additive) == len(set(tuples))
    assert [tuple(r["coeffs"]) for r in report["instances"]] == tuples
    assert report["counts"] == {"total": count, "passed": count}


def test_prop41_builds_each_extension_field_once(monkeypatch):
    built = []
    fn = cli.enumerable_field

    def counted(p, m, max_enum):
        built.append((p, m))
        return fn(p, m, max_enum)

    monkeypatch.setattr(cli, "enumerable_field", counted)
    # q = 3, d = 8: the orbits of multiplication by 3 mod 8 have sizes 1 and 2
    report = cli.verify_prop41(3, 1, 8, 1, count=3, seed=0)
    assert report["counts"] == {"total": 3, "passed": 3}
    assert sorted(built) == [(3, 1), (3, 2)]


@pytest.mark.parametrize("job, classes", [
    (lambda: cli.run_twisted_sweep(7, 1, 3, 2, 1), 1),
    # 7 = 1 mod 3: the zero twist and the classes kappa = 1 and 2
    (lambda: cli.run_power_sweep(7, 1, 3, 2), 3),
    (lambda: cli.main("polygon gnp-twisted --p 17 --d 3 --e 2 --kappa 1 --dump-tables".split()), 1),
])
def test_each_job_builds_each_twist_class_once(monkeypatch, job, classes):
    # the generic polygon, the Hasse blocks and the dumped tables all read
    # the classes the job built
    built = []
    init = TwistCombinatorics.__init__

    def counted(self, *args, **kwargs):
        built.append((args, sorted(kwargs.items())))
        init(self, *args, **kwargs)

    monkeypatch.setattr(TwistCombinatorics, "__init__", counted)
    job()
    assert len(built) == classes
    assert len({repr(b) for b in built}) == classes


def test_trace_table_cache_is_bounded():
    _trace_table.cache_clear()
    bound = _trace_table.cache_info().maxsize
    assert bound == 32
    primes = [p for p in range(2, 200) if _is_prime(p)][: bound + 4]
    for p in primes:
        _trace_table(p, 1)
    info = _trace_table.cache_info()
    assert info.currsize == bound
    assert info.misses == bound + 4
    # the least recently used tables went first
    _trace_table(primes[-1], 1)
    _trace_table(primes[0], 1)
    assert _trace_table.cache_info().misses == bound + 5
    # the tables of one characteristic add up to under p/(p - 1) times the largest
    for p, top in ((2, 10), (3, 6), (5, 4)):
        sizes = [_trace_table(p, n).traces.nbytes for n in range(1, top + 1)]
        assert sum(sizes) * (p - 1) < p * max(sizes)
    _trace_table.cache_clear()


def test_every_lru_cache_in_lpoly_is_bounded():
    import importlib
    import inspect
    import pkgutil

    import lpoly

    caches = {}
    for info in pkgutil.iter_modules(lpoly.__path__):
        mod = importlib.import_module(f"lpoly.{info.name}")
        for owner in [mod] + [c for _, c in inspect.getmembers(mod, inspect.isclass)
                              if c.__module__ == mod.__name__]:
            for name, obj in vars(owner).items():
                obj = getattr(obj, "__func__", obj)
                if hasattr(obj, "cache_info"):
                    caches[f"{mod.__name__}.{name}"] = obj.cache_info().maxsize
    assert "lpoly.finite_field.make_field" in caches
    assert [name for name, bound in caches.items() if bound is None] == []
