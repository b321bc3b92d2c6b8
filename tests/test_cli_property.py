"""Every command line over small integer flags ends in a documented way.

One derandomized property over all subcommands, run in-process: the
status is 0-4 and nothing raises; exit 0 or 1 prints one canonical JSON
line, and exit 2, 3 or 4 prints nothing on stdout and ends stderr with
one typed `lpoly: ` line (after any regime warnings).  An exit-0
`lfunction` of degree D over F_q with q^(D+1) <= 10^4 is recomputed from
brute-force sums S_1 .. S_(D+1), the last of which the program never
computes: the recurrence tail c_(D+1) must vanish and c_0 .. c_D must be
the printed ones.
"""

import contextlib
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpoly.char_sums import poly_from_ints
from lpoly.cli import main
from lpoly.cyclotomic import from_json_dict
from lpoly.finite_field import make_field

from oracles import brute_additive_sum, brute_power_sum, brute_twisted_sum, l_coeffs_by_tail

ORACLE_LIMIT = 10**4  # elements of F_(q^(D+1)), the largest brute-force sum


def _mostly(good, full):
    """Three draws in four from good, so that most jobs get past
    validation, and the rest from full."""
    return st.sampled_from((good, good, good, full)).flatmap(lambda s: s)


def _flag(lo, hi, good_lo=1, good_hi=None):
    """Values in lo..hi, mostly in good_lo..good_hi (default hi)."""
    return _mostly(st.integers(good_lo, good_hi or hi), st.integers(lo, hi))


FLAGS = {
    "p": _mostly(st.sampled_from((2, 3, 5, 7, 11, 13)), st.integers(-2, 300)),
    "m": _flag(-1, 3, 1, 2),
    "d": _flag(-1, 8, 2, 6),
    "e": _flag(-1, 5, 1, 3),
    "kappa": _flag(-1, 8, 1, 3),
    "r": _flag(-1, 4),
    "de": _flag(-1, 8),
    "t": _flag(-2, 12),
    "random": _flag(-1, 3),
    "draws": _flag(-1, 3),
    "seed": st.integers(0, 3),
}

# subcommand -> (positional choices, integer flags, boolean flags)
COMMANDS = {
    "polygon": (("hs-twisted", "gnp-twisted", "hs-power", "gnp-power", "hodge"),
                ("p", "m", "d", "e", "r", "kappa", "de"), ("--dump-tables",)),
    "lfunction": (("twisted", "additive", "power"), ("p", "m", "d", "kappa", "e"), ()),
    "verify": (("prop31", "thm31", "prop41", "prop42", "thm41", "stickelberger", "lemma22"),
               ("p", "m", "d", "e", "kappa", "random", "draws", "seed"), ("--force",)),
    "sweep": (("twisted", "power"), ("p", "m", "d", "e", "kappa", "random", "seed"), ()),
    "gauss": ((), ("p", "m", "d", "kappa"), ()),
    "orbits": ((), ("d", "t"), ()),
}

ERROR_PREFIX = {2: "lpoly: parameter error: ", 3: "lpoly: resource bound exceeded: ",
                4: "lpoly: internal inconsistency: "}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    choices, ints, bools = COMMANDS[command]
    max_enum = draw(_mostly(st.integers(2000, 20000), st.integers(0, 2000)))
    argv = ["--cache-dir", "", f"--max-enum={max_enum}", command]
    if choices:
        argv.append(draw(st.sampled_from(choices)))
    # a flag left out is the usual "missing parameter" case
    values = {name: draw(FLAGS[name]) for name in ints if draw(st.sampled_from((True,) * 9 + (False,)))}
    argv += [f"--{name}={value}" for name, value in values.items()]
    argv += [flag for flag in bools if draw(st.booleans())]
    if command == "lfunction":
        # mostly the e - 1 coefficients a degree-e polynomial takes
        size = max(values.get("e", 1) - 1, 0) if draw(st.integers(0, 4)) else draw(st.integers(0, 4))
        coeffs = draw(st.lists(st.integers(-1, 30), min_size=size, max_size=size))
        argv.append("--coeffs=" + ",".join(map(str, coeffs)))
    return argv


def _check_tail(argv, doc):
    """The printed c_0 .. c_D must be the oracle's: brute-force sums
    S_1 .. S_(D+1), the recurrence, and c_(D+1) = 0."""
    degree, q = doc["degree"], doc["q"]
    if q ** (degree + 1) > ORACLE_LIMIT:
        return
    flags = dict(a[2:].split("=", 1) for a in argv if "=" in a)
    coeffs = [int(c) for c in flags["coeffs"].split(",") if c]
    P = poly_from_ints(make_field(int(flags["p"]), int(flags.get("m", 1))), int(flags["e"]), coeffs)
    kind = argv[4]
    if kind == "twisted":
        sum_r = lambda r: brute_twisted_sum(P, int(flags["d"]), int(flags["kappa"]), r)
    elif kind == "power":
        sum_r = lambda r: brute_power_sum(P, int(flags["d"]), r)
    else:
        sum_r = lambda r: brute_additive_sum(P, r)
    assert tuple(map(from_json_dict, doc["l_coeffs"])) == l_coeffs_by_tail(sum_r, degree), argv


def _lfunction(*flags):
    return ["--cache-dir", "", "--max-enum=20000", "lfunction", *flags]


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(command_lines())
# valid L-functions of every kind, whose tails the oracle recomputes: the
# twisted one with P = X^2 has c_1 = 0, the last additive one degree 0
@example(_lfunction("twisted", "--p=7", "--d=3", "--kappa=1", "--e=2", "--coeffs=1"))
@example(_lfunction("twisted", "--p=7", "--d=2", "--kappa=1", "--e=2", "--coeffs=0"))
@example(_lfunction("twisted", "--p=2", "--m=2", "--d=3", "--kappa=2", "--e=3", "--coeffs=1,2"))
@example(_lfunction("power", "--p=5", "--d=2", "--e=2", "--coeffs=3"))
@example(_lfunction("additive", "--p=5", "--e=4", "--coeffs=1,2,3"))
@example(_lfunction("additive", "--p=5", "--e=1", "--coeffs="))
def test_every_command_line_ends_in_a_documented_way(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stdout, lines = out.getvalue(), err.getvalue().splitlines()
    assert code in (0, 1, 2, 3, 4), argv
    if code <= 1:
        doc = json.loads(stdout)
        assert stdout == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        if argv[3] == "lfunction" and code == 0:
            _check_tail(argv, doc)
        warnings = lines
    else:
        assert stdout == "", argv
        assert lines and lines[-1].startswith(ERROR_PREFIX[code]), (argv, lines)
        warnings = lines[:-1]
    assert all(line.startswith("lpoly: warning: ") for line in warnings), (argv, lines)
