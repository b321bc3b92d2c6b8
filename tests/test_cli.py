"""End-to-end checks of the command line surface.

Frozen outputs first, then cache and determinism behaviour, then the
exit-code contract.
"""

import json
import os
import subprocess
import sys
import threading
import time

import pytest

import lpoly
from lpoly import char_sums
from lpoly.char_sums import TwistSpec, gauss_sum
from lpoly.cli import _cache_read, _cache_write, main, run_twisted_sweep
from lpoly.errors import InternalError, ParameterError, ResourceBound
from lpoly.finite_field import make_field


def run_cli(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def run_json(capsys, argv):
    rc, out = run_cli(capsys, argv)
    return rc, json.loads(out)


def assert_usage_error(capsys, argv):
    """argparse rejects argv before any work: exit 2, usage on stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: lpoly")


class TestPolygonCommand:
    def test_hs_twisted_example(self, capsys):
        rc, doc = run_json(capsys, ["polygon", "hs-twisted", "--d", "2", "--e", "2",
                                    "--r", "1", "--kappa", "1"])
        assert rc == 0
        assert doc["vertices"] == [[0, "0/1"], [1, "1/4"], [2, "1/1"]]
        assert doc["slopes"] == [["1/4", 1], ["3/4", 1]]

    def test_hodge_example(self, capsys):
        rc, doc = run_json(capsys, ["polygon", "hodge", "--de", "4"])
        assert rc == 0
        assert doc["slopes"] == [["1/4", 1], ["1/2", 1], ["3/4", 1]]

    def test_gnp_matches_hs_in_split_case(self, capsys):
        rc1, gnp = run_json(capsys, ["polygon", "gnp-twisted", "--p", "13", "--d", "2",
                                     "--e", "3", "--kappa", "1"])
        rc2, hs = run_json(capsys, ["polygon", "hs-twisted", "--d", "2", "--e", "3",
                                    "--r", "1", "--kappa", "1"])
        assert rc1 == rc2 == 0
        assert gnp["vertices"] == hs["vertices"]
        assert gnp["slopes"] == hs["slopes"]

    def test_csv_rows(self, capsys):
        rc, out = run_cli(capsys, ["--csv", "polygon", "hodge", "--de", "2"])
        assert rc == 0
        assert out.splitlines() == ["n,ordinate", "0,0/1", "1,1/2"]

    def test_dump_tables(self, capsys):
        rc, doc = run_json(capsys, ["polygon", "gnp-twisted", "--p", "17", "--d", "3",
                                    "--e", "2", "--kappa", "1", "--dump-tables"])
        assert rc == 0
        assert doc["tables"]["K"] == [11, 5]
        assert doc["tables"]["Y"] == [9, 32]
        assert doc["slopes"] == [["9/32", 1], ["23/32", 1]]

    def test_missing_parameter_exits_2(self, capsys):
        rc = main(["polygon", "hs-twisted", "--e", "2", "--r", "1", "--kappa", "1"])
        assert rc == 2


class TestLFunctionCommand:
    def test_gauss_sum_l_function(self, capsys):
        # P = X over F_3 with the order-2 character: L = 1 + G T, slope 1/2
        rc, doc = run_json(capsys, ["lfunction", "twisted", "--p", "3", "--d", "2",
                                    "--kappa", "1", "--e", "1"])
        assert rc == 0
        assert doc["degree"] == 1
        g = gauss_sum(make_field(3, 1), 2, 1)
        assert doc["l_coeffs"][1] == g.to_json_dict()
        assert doc["np"]["slopes"] == [["1/2", 1]]

    def test_power_degree(self, capsys):
        rc, doc = run_json(capsys, ["lfunction", "power", "--p", "5", "--d", "2",
                                    "--e", "2", "--coeffs", "3"])
        assert rc == 0
        assert doc["degree"] == 3
        assert len(doc["l_coeffs"]) == 4

    def test_additive_degree(self, capsys):
        rc, doc = run_json(capsys, ["lfunction", "additive", "--p", "5", "--e", "2",
                                    "--coeffs", "2"])
        assert rc == 0
        assert doc["degree"] == 1

    def test_enumeration_bound_exits_3(self, capsys):
        rc = main(["--max-enum", "10", "lfunction", "power", "--p", "5", "--d", "2",
                   "--e", "2", "--coeffs", "3"])
        assert rc == 3


class TestVerifyCommand:
    def test_verify_split_twisted_sample(self, capsys):
        rc, doc = run_json(capsys, ["verify", "prop31", "--p", "13", "--d", "2",
                                    "--e", "3", "--kappa", "1", "--random", "20"])
        assert rc == 0
        assert doc["counts"] == {"total": 20, "passed": 20}
        assert doc["pass"] is True

    def test_verify_regime_violation_exits_2(self, capsys):
        rc = main(["verify", "prop31", "--p", "5", "--d", "2", "--e", "3",
                   "--kappa", "1"])
        assert rc == 2

    def test_verify_stratification_small_field(self, capsys):
        rc, doc = run_json(capsys, ["verify", "thm31", "--p", "13", "--d", "3",
                                    "--e", "2", "--kappa", "1"])
        assert rc == 0
        assert doc["counts"]["total"] == 13
        assert doc["counts"]["passed"] == 13

    def test_verify_factorization_sample(self, capsys):
        rc, doc = run_json(capsys, ["verify", "prop41", "--p", "5", "--d", "2",
                                    "--e", "2", "--random", "5"])
        assert rc == 0
        assert doc["counts"] == {"total": 5, "passed": 5}
        for row in doc["instances"]:
            assert row["power_degree"] == 3
            assert row["additive_degree"] == 1
            assert row["twisted_degrees"] == [2]

    @pytest.mark.parametrize("p", [3, 7])
    def test_verify_factorization_twists_of_smaller_order(self, capsys, p):
        # kappa = 2 of d = 4 has order 2: its twist lives over F_q although
        # 4 does not divide q - 1
        rc, doc = run_json(capsys, ["verify", "prop41", "--p", str(p), "--d", "4",
                                    "--e", "2", "--random", "2"])
        assert rc == 0
        assert doc["counts"] == {"total": 2, "passed": 2}
        assert all(row["ok"] for row in doc["instances"])

    def test_verify_block_minima(self, capsys):
        rc, doc = run_json(capsys, ["verify", "lemma22", "--draws", "40", "--seed", "7"])
        assert rc == 0
        assert doc["counts"] == {"total": 40, "passed": 40}

    def test_stickelberger_grid(self, capsys):
        rc, doc = run_json(capsys, ["verify", "stickelberger"])
        assert rc == 0
        # sum of (d - 1) over d | q - 1, 2 <= d <= 12, q in the grid
        assert doc["counts"]["total"] == 103
        assert doc["counts"]["passed"] == 103


class TestSweepCommand:
    def test_rows_and_split_equality(self, capsys):
        rc, doc = run_json(capsys, ["sweep", "twisted", "--p", "7", "--d", "3",
                                    "--e", "2", "--kappa", "1"])
        assert rc == 0
        assert doc["summary"]["total"] == 7
        assert doc["summary"]["hs_equal"] == 7
        assert doc["summary"]["consistent"] == 7

    def test_power_sweep_split(self, capsys):
        rc, doc = run_json(capsys, ["sweep", "power", "--p", "5", "--d", "2", "--e", "2"])
        assert rc == 0
        assert doc["summary"]["total"] == 5
        assert doc["summary"]["hs_equal"] == 5

    def test_cache_reruns_are_byte_identical(self, capsys, tmp_path):
        argv = ["--cache-dir", str(tmp_path), "sweep", "twisted", "--p", "7",
                "--d", "3", "--e", "2", "--kappa", "1"]
        rc1, out1 = run_cli(capsys, argv)
        files = list(tmp_path.glob("*.jsonl"))
        assert rc1 == 0 and len(files) == 1
        rc2, out2 = run_cli(capsys, argv)
        assert rc2 == 0 and out2 == out1

    def test_cached_rows_are_actually_used(self, capsys, tmp_path):
        argv = ["--cache-dir", str(tmp_path), "sweep", "twisted", "--p", "7",
                "--d", "3", "--e", "2", "--kappa", "1"]
        run_cli(capsys, argv)
        path = next(tmp_path.glob("*.jsonl"))
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        lines[0]["hasse"] = 999
        path.write_text("".join(json.dumps(l, sort_keys=True, separators=(",", ":")) + "\n"
                                for l in lines))
        _, doc = run_json(capsys, argv)
        assert any(r["hasse"] == 999 for r in doc["rows"])

    def test_truncated_cache_file_is_a_partial_miss(self, capsys, tmp_path):
        argv = ["--cache-dir", str(tmp_path), "sweep", "twisted", "--p", "7",
                "--d", "3", "--e", "2", "--kappa", "1"]
        _, fresh = run_cli(capsys, argv[2:])
        run_cli(capsys, argv)
        path = next(tmp_path.glob("*.jsonl"))
        with open(path, "r+b") as fh:
            fh.truncate(250)  # one whole row of 173 bytes, then half a row
        rc, out = run_cli(capsys, argv)
        assert rc == 0 and out == fresh
        assert len(path.read_text().splitlines()) == 7

    @pytest.mark.parametrize("bad_row", [
        lambda row: {"coeffs": row["coeffs"]},
        lambda row: {**row, "coeffs": ["a"]},
        lambda row: {**row, "hs_equal": "yes"},
        lambda row: {**row, "extra": 1},
    ], ids=["missing-fields", "string-coeffs", "string-flag", "extra-field"])
    def test_cache_line_that_is_not_a_row_is_a_miss(self, capsys, tmp_path, bad_row):
        # a line that parses as JSON but lacks the row's fields, or carries
        # a wrong type, is recomputed like a truncated one
        argv = ["--cache-dir", str(tmp_path), "sweep", "twisted", "--p", "7",
                "--d", "3", "--e", "2", "--kappa", "1"]
        _, fresh = run_cli(capsys, argv[2:])
        run_cli(capsys, argv)
        path = next(tmp_path.glob("*.jsonl"))
        row = json.loads(path.read_text().splitlines()[0])
        path.write_text(json.dumps(bad_row(row)) + "\n")
        rc, out = run_cli(capsys, argv)
        assert rc == 0 and out == fresh
        assert len(path.read_text().splitlines()) == 7

    def test_concurrent_cache_writers_use_private_temp_files(self, tmp_path, monkeypatch):
        # writer A stalls between writing its temp file and the rename while
        # writer B writes and renames in full; A must still rename its own
        # complete table
        key = {"sweep": "test"}

        def row(c):
            return {"coeffs": [c], "np": {}, "hs_equal": True, "above_hs": True,
                    "gnp_equal": True, "hasse": c, "consistent": True}

        table_a = {(1,): row(1)}
        table_b = {(2,): row(2)}
        real_replace = os.replace
        a_waiting, b_done = threading.Event(), threading.Event()
        errors = []

        def replace(src, dst):
            if threading.current_thread() is not threading.main_thread():
                a_waiting.set()
                b_done.wait(10)
            real_replace(src, dst)

        def writer_a():
            try:
                _cache_write(tmp_path, key, table_a)
            except Exception as exc:  # reported below, in the test thread
                errors.append(exc)

        monkeypatch.setattr(os, "replace", replace)
        thread = threading.Thread(target=writer_a)
        thread.start()
        assert a_waiting.wait(10)
        _cache_write(tmp_path, key, table_b)
        b_done.set()
        thread.join(10)
        assert not thread.is_alive() and errors == []
        assert _cache_read(tmp_path, key) == table_a
        assert [f.suffix for f in tmp_path.iterdir()] == [".jsonl"]

    def test_env_cache_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("LPOLY_CACHE", str(tmp_path))
        rc, _ = run_cli(capsys, ["sweep", "power", "--p", "5", "--d", "2", "--e", "2"])
        assert rc == 0
        assert len(list(tmp_path.glob("*.jsonl"))) == 1

    @pytest.mark.parametrize("command", [
        ["sweep", "twisted", "--p", "5", "--d", "2", "--e", "2", "--kappa", "1"],
        ["verify", "prop31", "--p", "5", "--d", "2", "--e", "2", "--kappa", "1"],
    ], ids=["sweep", "verify"])
    def test_file_as_cache_dir_exits_2(self, capsys, tmp_path, command):
        # exit 1 would read as a failed verdict
        cache = tmp_path / "cache"
        cache.write_text("")
        rc = main(["--cache-dir", str(cache), *command])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == f"lpoly: parameter error: cannot read cache directory {cache}: Not a directory\n"

    def test_directory_as_cache_file_exits_2(self, capsys, tmp_path):
        argv = ["--cache-dir", str(tmp_path), "sweep", "twisted", "--p", "5",
                "--d", "2", "--e", "2", "--kappa", "1"]
        run_cli(capsys, argv)
        path = next(tmp_path.glob("*.jsonl"))
        path.unlink()
        path.mkdir()
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith(f"lpoly: parameter error: cannot read cache directory {tmp_path}")
        assert len(captured.err.splitlines()) == 1

    def test_unwritable_cache_dir_is_a_parameter_error(self, tmp_path):
        cache = tmp_path / "cache"
        cache.write_text("")
        with pytest.raises(ParameterError, match="cannot write cache directory"):
            _cache_write(cache, {"sweep": "test"}, {})

    def test_sampled_sweep_builds_each_trace_table_once(self, capsys):
        char_sums._trace_table.cache_clear()
        run_cli(capsys, ["--cache-dir", "", "sweep", "twisted", "--p", "7", "--m", "2",
                         "--d", "3", "--e", "2", "--kappa", "1", "--random", "6"])
        assert char_sums._trace_table.cache_info().misses == 2  # F_49 and F_49^2

    def test_library_sweep_runs_on_one_thread(self):
        args = (7, 1, 3, 2, 1)
        with pytest.raises(ParameterError, match="threads=2"):
            run_twisted_sweep(*args, threads=2)
        assert run_twisted_sweep(*args, threads=1) == run_twisted_sweep(*args)

    def test_csv_layout(self, capsys):
        rc, out = run_cli(capsys, ["--csv", "sweep", "twisted", "--p", "7", "--d", "3",
                                   "--e", "2", "--kappa", "1"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "coeffs,np_slopes,hasse,gnp_equal,above_hs,consistent"
        assert len(lines) == 8


class TestSmallCommands:
    def test_gauss(self, capsys):
        rc, doc = run_json(capsys, ["gauss", "--p", "5", "--d", "4", "--kappa", "1"])
        assert rc == 0
        assert doc["valuation_q"] == "3/4"
        assert doc["stickelberger_match"] is True

    def test_gauss_past_signed_byte_traces(self, capsys):
        # at p = 131 traces above 127 once wrapped, giving valuation 1/130
        rc, doc = run_json(capsys, ["gauss", "--p", "131", "--d", "2", "--kappa", "1"])
        assert rc == 0
        assert doc["valuation_q"] == "1/2"
        assert doc["stickelberger_match"] is True

    def test_orbits(self, capsys):
        rc, doc = run_json(capsys, ["orbits", "--d", "5", "--t", "2"])
        assert rc == 0
        assert doc["orbits"][0] == {"rep": 0, "members": [0], "size": 1, "mu": "0/1"}
        assert doc["orbits"][1]["members"] == [1, 2, 3, 4]
        assert doc["orbits"][1]["mu"] == "1/2"

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2

    def test_closed_stdout_exits_141_silently(self):
        # a reader that exits before the output is written (`lpoly ... | true`)
        # is a SIGPIPE, not a failed verdict and not a traceback
        src = os.path.dirname(os.path.dirname(lpoly.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen(
            [sys.executable, "-m", "lpoly.cli", "gauss", "--p", "5", "--d", "4", "--kappa", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert err == b""


SPLIT_OVER_F9 = [["verify", "prop42", "--p", "3", "--m", "2", "--d", "2", "--e", "2"],
                 ["verify", "prop31", "--p", "3", "--m", "2", "--d", "2", "--e", "2", "--kappa", "1"]]


class TestPowerVerifyCommands:
    def test_split_power_case_passes(self, capsys):
        rc, doc = run_json(capsys, ["verify", "prop42", "--p", "7", "--d", "3", "--e", "2"])
        assert rc == 0 and doc["pass"] is True
        assert doc["counts"] == {"total": 7, "passed": 7}
        assert "gnp" not in doc

    def test_power_stratification_passes(self, capsys):
        rc, doc = run_json(capsys, ["verify", "thm41", "--p", "13", "--d", "3", "--e", "2",
                                    "--random", "3"])
        assert rc == 0 and doc["pass"] is True
        assert doc["counts"] == {"total": 3, "passed": 3}
        assert doc["gnp"]["slopes"]
        # 11 = 2 mod 3: a stratified case that is not split
        rc, doc = run_json(capsys, ["verify", "thm41", "--p", "11", "--d", "3", "--e", "1"])
        assert rc == 0 and doc["counts"] == {"total": 1, "passed": 1}

    @pytest.mark.parametrize("argv", [
        ["verify", "prop42", "--p", "5", "--d", "2", "--e", "3"],
        ["verify", "thm41", "--p", "11", "--d", "3", "--e", "2"],
        ["verify", "thm41", "--p", "13", "--d", "2", "--e", "3"],
        # parameters the regime check would divide by or raise to a power
        ["verify", "prop31", "--p", "13", "--d", "0", "--e", "3", "--kappa", "1"],
        ["verify", "prop31", "--p", "13", "--d", "2", "--e", "0", "--kappa", "1"],
        ["verify", "prop31", "--p", "13", "--d", "0", "--e", "3", "--kappa", "1", "--force"],
        ["verify", "prop42", "--p", "0", "--m", "-3", "--d", "2", "--e", "2"],
        # de | q - 1 = 8, but the split case needs p = 1 mod de
        SPLIT_OVER_F9[0],
        SPLIT_OVER_F9[1],
    ])
    def test_regime_violation_exits_2(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("lpoly: parameter error:")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", SPLIT_OVER_F9)
    def test_forced_split_case_runs_with_a_warning(self, capsys, argv):
        rc = main([*argv, "--force"])
        captured = capsys.readouterr()
        assert rc in (0, 1) and json.loads(captured.out)["counts"]["total"] == 9
        assert captured.err == "lpoly: warning: split case needs p = 1 mod de, got p=3 de=4\n"


class TestEmptyAndCompositeInputs:
    @pytest.mark.parametrize("argv", [
        ["verify", "lemma22", "--draws", "0"],
        ["verify", "prop31", "--p", "13", "--d", "2", "--e", "3", "--kappa", "1", "--random", "0"],
        ["verify", "prop41", "--p", "5", "--d", "2", "--e", "2", "--random", "0"],
        ["sweep", "twisted", "--p", "7", "--d", "3", "--e", "2", "--kappa", "1", "--random", "0"],
        ["sweep", "power", "--p", "5", "--d", "2", "--e", "2", "--random", "-1"],
    ])
    def test_empty_verification_is_a_usage_error(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("lpoly: parameter error:")

    @pytest.mark.parametrize("argv", [
        ["polygon", "gnp-twisted", "--p", "9", "--d", "2", "--e", "1", "--kappa", "1"],
        ["polygon", "gnp-power", "--p", "9", "--d", "2", "--e", "2"],
    ])
    def test_composite_characteristic_exits_2(self, capsys, argv):
        assert main(argv) == 2
        assert capsys.readouterr().err == "lpoly: parameter error: 9 is not prime\n"


    @pytest.mark.parametrize("argv,message", [
        (["sweep", "power", "--p", "7", "--d", "7", "--e", "2"],
         "multiplier 7 shares a factor with modulus 7"),
        (["orbits", "--d", "5", "--t", "10"],
         "multiplier 10 shares a factor with modulus 5"),
    ])
    def test_non_coprime_multiplier_is_named_as_given(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"lpoly: parameter error: {message}\n"


class TestRefusedBeforeWork:
    """Inputs that once ran for minutes: a field past --max-enum (its
    irreducible search) and a huge p (trial division to sqrt(p))."""

    @pytest.mark.parametrize("argv,code,message", [
        (["gauss", "--p", "3", "--m", "131", "--d", "2", "--kappa", "1"], 3,
         "resource bound exceeded: enumeration of 3^131 field elements exceeds the cap 16777216"),
        (["lfunction", "additive", "--p", "3", "--m", "131", "--e", "2", "--coeffs", "1"], 3,
         "resource bound exceeded: enumeration of 3^131 field elements exceeds the cap 16777216"),
        (["sweep", "twisted", "--p", "3", "--m", "131", "--d", "2", "--e", "1", "--kappa", "1"], 3,
         "resource bound exceeded: enumeration of 3^131 field elements exceeds the cap 16777216"),
        (["verify", "prop41", "--p", "3", "--m", "131", "--d", "2", "--e", "2"], 3,
         "resource bound exceeded: enumeration of 3^131 field elements exceeds the cap 16777216"),
        # an exhaustive sweep is refused before its q^(e-1) rows are listed:
        # its rows sum over F_(13^12)
        (["sweep", "twisted", "--p", "13", "--d", "2", "--e", "12", "--kappa", "1"], 3,
         "resource bound exceeded: enumeration of 23298085122481 field elements exceeds the cap 16777216"),
        (["gauss", "--p", "9", "--m", "131", "--d", "2", "--kappa", "1"], 2,
         "parameter error: 9 is not prime"),
        (["polygon", "gnp-twisted", "--p", str(2**89 - 1), "--d", "3", "--e", "2", "--kappa", "1"], 3,
         f"resource bound exceeded: primality of {2**89 - 1} is only decided below 3317044064679887385961981"),
    ])
    def test_refused_at_once(self, capsys, argv, code, message):
        start = time.perf_counter()
        assert main(argv) == code
        assert time.perf_counter() - start < 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"lpoly: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["sweep", "twisted", "--p", "7", "--d", "3", "--e", "2", "--kappa", "1"],
        ["verify", "prop31", "--p", "7", "--d", "3", "--e", "2", "--kappa", "1"],
        ["verify", "prop41", "--p", "5", "--d", "2", "--e", "2"],
    ])
    def test_sample_past_max_enum_is_refused_before_it_is_drawn(self, capsys, argv):
        # --random N draws N tuples: N past --max-enum exits 3 at once, as a
        # field past it does; N at the cap runs
        assert main(["--max-enum", "1000", *argv, "--random", "1001"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("lpoly: resource bound exceeded: "
                                "1001 sampled polynomials exceed the cap 1000\n")
        assert main(["--cache-dir", "", "--max-enum", "1000", *argv, "--random", "1000"]) == 0
        assert json.loads(capsys.readouterr().out)

    def test_large_prime_is_decided_at_once(self, capsys):
        start = time.perf_counter()
        rc, doc = run_json(capsys, ["polygon", "gnp-twisted", "--p", str(2**61 - 1), "--d", "3",
                                    "--e", "2", "--kappa", "1"])
        assert time.perf_counter() - start < 3
        assert rc == 0 and doc["slopes"] == [["1/3", 1], ["5/6", 1]]


class TestExitCodes:
    """Each error family has one exit code and one stderr line, with no traceback."""

    @pytest.mark.parametrize("family,code,prefix", [
        (ParameterError, 2, "parameter error"),
        (ResourceBound, 3, "resource bound exceeded"),
        (InternalError, 4, "internal inconsistency"),
    ])
    def test_family_maps_to_its_exit_code(self, capsys, monkeypatch, family, code, prefix):
        def refuse(args):
            raise family("refused on purpose")

        monkeypatch.setattr("lpoly.cli.cmd_orbits", refuse)
        assert main(["orbits", "--d", "5", "--t", "2"]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"lpoly: {prefix}: refused on purpose\n"

    @pytest.mark.parametrize("argv,message", [
        (["gauss", "--p", "5", "--d", "1", "--kappa", "0"],
         "a twist needs character order d >= 2, got d = 1"),
        (["gauss", "--p", "5", "--d", "3", "--kappa", "1"],
         "character order 3 does not divide q - 1 = 4"),
        (["verify", "prop31", "--p", "7", "--d", "3", "--e", "2", "--kappa", "3"],
         "kappa must lie in [1, 2]"),
        (["lfunction", "twisted", "--p", "7", "--d", "3", "--kappa", "0", "--e", "2", "--coeffs", "1"],
         "kappa must lie in [1, 2]"),
    ])
    def test_twist_parameters_are_checked_once(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"lpoly: parameter error: {message}\n"

    @pytest.mark.parametrize("d,kappa", [(3, 0), (3, 3), (1, 0)])
    @pytest.mark.parametrize("command", [
        "sweep twisted --p 7 --d {d} --e 2 --kappa {kappa}",
        "verify prop31 --p 7 --d {d} --e 2 --kappa {kappa}",
        "lfunction twisted --p 7 --d {d} --kappa {kappa} --e 2 --coeffs 1",
        "gauss --p 7 --d {d} --kappa {kappa}",
        "polygon hs-twisted --d {d} --e 2 --r 7 --kappa {kappa}",
        "polygon gnp-twisted --p 7 --d {d} --e 2 --kappa {kappa}",
    ])
    def test_bad_twist_gets_one_message_from_every_command(self, capsys, command, d, kappa):
        with pytest.raises(ParameterError) as want:
            TwistSpec(d, kappa)
        assert main(command.format(d=d, kappa=kappa).split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"lpoly: parameter error: {want.value}\n"

    @pytest.mark.parametrize("command,message", [
        ("polygon hodge --de 1", "length would be zero"),
        ("polygon gnp-power --p 5 --d 1 --e 1", "length would be zero"),
        ("polygon hs-power --d 0 --e 2 --r 1", "bad polygon parameters d=0 e=2"),
        ("sweep power --p 3 --d 1 --e 1", "length would be zero"),
        ("orbits --d 0 --t 1", "modulus must be positive, got 0"),
        ("orbits --d 6 --t 0", "multiplier 0 shares a factor with modulus 6"),
        ("polygon hs-twisted --d 6 --e 3 --r 3 --kappa 1", "multiplier 3 shares a factor with modulus 6"),
        ("polygon hs-twisted --d 3 --e 0 --r 1 --kappa 1", "degree must be positive, got 0"),
        ("lfunction power --p 5 --d 5 --e 2 --coeffs 1", "d = 5 shares a factor with p = 5"),
        ("lfunction additive --p 5 --e 3 --coeffs 1,x", "bad coefficient list '1,x'"),
    ])
    def test_bad_polygon_and_orbit_shapes_exit_2(self, capsys, command, message):
        assert main(command.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"lpoly: parameter error: {message}\n"


class TestOutOfRangeFlags:
    @pytest.mark.parametrize("argv", [
        ["gauss", "--p", "5", "--d", "4", "--kappa", "1"],
        ["lfunction", "twisted", "--p", "3", "--d", "2", "--kappa", "1", "--e", "1"],
        ["lfunction", "power", "--p", "7", "--d", "3", "--e", "2", "--coeffs", "1"],
        ["sweep", "twisted", "--p", "7", "--d", "3", "--e", "2", "--kappa", "1"],
        ["verify", "stickelberger"],
    ])
    def test_zero_precision_is_a_usage_error(self, capsys, argv):
        # the working precision is read off each element, so there is no
        # --precision flag: the parser rejects it before any work
        assert_usage_error(capsys, ["--precision", "0", *argv])

    @pytest.mark.parametrize("argv", [
        # sweeps run on one thread: no --threads, whatever its value
        ["--threads", "2", "sweep", "twisted", "--p", "7", "--d", "3", "--e", "2", "--kappa", "1"],
        ["--threads", "0", "sweep", "power", "--p", "5", "--d", "2", "--e", "2"],
        ["--threads", "1", "orbits", "--d", "5", "--t", "2"],
        # JSON is the output unless --csv is given, and verify is exhaustive
        # unless --random is given
        ["--json", "orbits", "--d", "5", "--t", "2"],
        ["verify", "prop31", "--p", "13", "--d", "2", "--e", "3", "--kappa", "1", "--all"],
    ])
    def test_removed_flags_are_usage_errors(self, capsys, argv):
        assert_usage_error(capsys, argv)

    @pytest.mark.parametrize("d", ["0", "-1"])
    def test_power_d_below_one_is_a_usage_error(self, capsys, d):
        argv = ["lfunction", "power", "--p", "5", "--e", "2", "--d", d, "--coeffs", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"lpoly: parameter error: d must be at least 1, got {d}\n"
