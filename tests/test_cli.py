"""End-to-end checks of the command line surface.

Frozen outputs first, then cache and determinism behaviour, then the
exit-code contract.
"""

import json
import os
import threading

import pytest

from lpoly.char_sums import gauss_sum
from lpoly.cli import _cache_read, _cache_write, main
from lpoly.finite_field import make_field


def run_cli(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def run_json(capsys, argv):
    rc, out = run_cli(capsys, argv)
    return rc, json.loads(out)


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

    def test_concurrent_cache_writers_use_private_temp_files(self, tmp_path, monkeypatch):
        # writer A stalls between writing its temp file and the rename while
        # writer B writes and renames in full; A must still rename its own
        # complete table
        key = {"sweep": "test"}
        table_a = {(1,): {"coeffs": [1], "w": "a"}}
        table_b = {(2,): {"coeffs": [2], "w": "b"}}
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

    def test_thread_count_does_not_change_output(self, capsys):
        argv_t1 = ["--threads", "1", "sweep", "twisted", "--p", "7", "--d", "3",
                   "--e", "2", "--kappa", "1"]
        argv_t4 = ["--threads", "4", "sweep", "twisted", "--p", "7", "--d", "3",
                   "--e", "2", "--kappa", "1"]
        _, out1 = run_cli(capsys, argv_t1)
        _, out4 = run_cli(capsys, argv_t4)
        assert out1 == out4

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
