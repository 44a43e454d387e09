import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orbitlab import bridge, cli, orbits, words

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOrbits:
    def test_bfs_count(self, capsys):
        code, out, err = run(capsys, "orbits", "--p", "2", "--n", "2", "--method", "bfs")
        assert (code, out, err) == (0, "5\n", "")

    def test_formula_n0(self, capsys):
        code, out, _ = run(capsys, "orbits", "--p", "2", "--n", "0", "--method", "formula")
        assert (code, out) == (0, "1\n")

    def test_burnside_p3(self, capsys):
        code, out, _ = run(capsys, "orbits", "--p", "3", "--n", "2", "--method", "burnside")
        assert (code, out) == (0, "7\n")

    def test_each_answer_sweeps_the_states_at_most_once(self, capsys, monkeypatch):
        # _index_moves is built once per BFS visited sweep and nowhere else
        sweeps = []
        real = orbits._index_moves
        monkeypatch.setattr(orbits, "_index_moves",
                            lambda spec: sweeps.append(spec) or real(spec))
        code, out, _ = run(capsys, "orbits", "--p", "2", "--n", "3", "--list")
        assert (code, len(out.splitlines()), len(sweeps)) == (0, 15, 1)
        sweeps.clear()
        report = bridge.verify_bridge(4)
        assert report.is_injective_on_orbits and report.is_surjective_on_orbits
        assert sweeps == []

    def test_canonical_engine_memory(self):
        # row reduction holds O(n) values per state and no per-matrix table
        code = ("import resource, sys\n"
                "from orbitlab import cli\n"
                "cli.main(['orbits', '--p', '31', '--n', '1', '--method', 'canonical'])\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n")
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        assert (result.returncode, result.stdout) == (0, "2\n")
        assert int(result.stderr) < 128 * 1024  # ru_maxrss is in KiB on Linux

    def test_canonical_large_prime_finishes(self):
        # 1,018,081 states, each decided by row reduction, not by 1e9 matrices
        result = subprocess.run(
            [sys.executable, "-m", "orbitlab", "orbits",
             "--p", "1009", "--n", "1", "--method", "canonical"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        assert (result.returncode, result.stdout) == (0, "2\n")

    def test_burnside_large_prime_finishes(self):
        # O(p^2) diagonals: about a million steps here
        result = subprocess.run(
            [sys.executable, "-m", "orbitlab", "orbits",
             "--p", "1009", "--n", "1", "--method", "burnside"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        assert (result.returncode, result.stdout) == (0, "2\n")

    def test_list_count_mismatch_fails(self, capsys, monkeypatch):
        # the listing is no census of its own: a short one must not pass
        real = orbits.orbit_summaries
        monkeypatch.setattr(orbits, "orbit_summaries", lambda *a: real(*a)[:-1])
        code, out, err = run(capsys, "orbits", "--p", "2", "--n", "2", "--list",
                             "--method", "canonical")
        assert (code, out) == (1, "")
        assert err == "orbits: canonical counts 5 orbits, the listing has 4\n"

    def test_list_text(self, capsys):
        code, out, _ = run(capsys, "orbits", "--p", "2", "--n", "1", "--list")
        assert code == 0
        assert out.splitlines() == ["00 1 6", "01 3 2"]

    def test_list_csv(self, capsys):
        code, out, _ = run(capsys, "orbits", "--p", "2", "--n", "2",
                           "--list", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["representative", "size", "stabilizer_order"]
        assert len(rows) == 6
        assert sorted(int(r[1]) for r in rows[1:]) == [1, 3, 3, 3, 6]

    def test_json_counts_are_strings(self, capsys):
        code, out, _ = run(capsys, "orbits", "--p", "2", "--n", "2", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["orbit_count"] == "5"

    def test_csv_round_trip(self, capsys):
        code, out, _ = run(capsys, "orbits", "--p", "2", "--n", "6",
                           "--method", "formula", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows == [["p", "n", "method", "orbit_count"], ["2", "6", "formula", "715"]]

    def test_non_prime_rejected_for_field_methods(self, capsys):
        # every method needs Z_p^n with p prime, the BFS and n = 0 included
        for p in ("1", "4", "6"):
            for n in ("0", "2"):
                for method in ("bfs", "canonical", "burnside", "formula"):
                    for listing in ([], ["--list"]):
                        code, out, err = run(capsys, "orbits", "--p", p, "--n", n,
                                             "--method", method, *listing)
                        assert (code, out) == (2, ""), (p, n, method, listing)
                        assert "p must be prime" in err

    def test_non_prime_refused_for_bfs(self, capsys):
        # the BFS once accepted Z_6; it now gets the same refusal as every method
        code, out, err = run(capsys, "orbits", "--p", "6", "--n", "1", "--method", "bfs")
        assert (code, out) == (2, "")
        assert "p must be prime" in err

    def test_budget_exit_code(self, capsys):
        code, out, err = run(capsys, "orbits", "--p", "2", "--n", "8",
                             "--budget", "100")
        assert code == 3
        assert out == "" and "100" in err

    def test_list_needs_prime(self, capsys):
        code, _, err = run(capsys, "orbits", "--p", "6", "--n", "1", "--list")
        assert code == 2 and "error" in err

    def test_list_trivial_group(self, capsys):
        code, out, _ = run(capsys, "orbits", "--p", "2", "--n", "0", "--list")
        assert (code, out) == (0, "- 1 -\n")


class TestWords:
    def test_count(self, capsys):
        assert run(capsys, "words", "--m", "3")[:2] == (0, "15\n")
        assert run(capsys, "words", "--m", "0")[:2] == (0, "1\n")

    def test_list(self, capsys):
        code, out, _ = run(capsys, "words", "--m", "2", "--list")
        assert code == 0
        assert out.splitlines() == ["11", "12", "21", "22", "23"]

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "words", "--m", "2", "--format", "csv")
        assert code == 0
        assert out == "m,count\n2,5\n"

    def test_json_list(self, capsys):
        code, out, _ = run(capsys, "words", "--m", "1", "--list", "--format", "json")
        payload = json.loads(out)
        assert payload == {"m": 1, "count": "2", "words": ["1", "2"]}

    def test_csv_list(self, capsys):
        code, out, _ = run(capsys, "words", "--m", "1", "--list", "--format", "csv")
        assert (code, out) == (0, "word\n1\n2\n")

    def test_negative_m(self, capsys):
        assert run(capsys, "words", "--m", "-1")[0] == 2


class TestEncode:
    def test_example_234(self, capsys):
        code, out, _ = run(capsys, "encode", "234")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "rows: 10 11 01"
        assert lines[1].startswith("canonical: ")

    def test_zero_word(self, capsys):
        code, out, _ = run(capsys, "encode", "11")
        assert code == 0
        assert out.splitlines()[0] == "rows: 00 00"

    def test_invalid_word_names_constraint(self, capsys):
        code, out, err = run(capsys, "encode", "13")
        assert code == 2
        assert out == ""
        assert "growth bound" in err

    def test_empty_word(self, capsys):
        code, out, err = run(capsys, "encode", "")
        assert (code, out) == (2, "")
        assert "empty word" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "encode", "234", "--format", "json")
        payload = json.loads(out)
        assert payload["word"] == "234"
        assert payload["rows"] == ["10", "11", "01"]
        assert len(payload["canonical"]) == 3

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "encode", "11", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["word", "rows", "canonical"]
        assert rows[1] == ["11", "00 00", "00 00"]


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--m-max", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["m", "methods", "formula", "words", "bridge", "result", "r"]
        assert [line.split()[-1] for line in lines[1:]] == ["2", "5", "15", "51"]
        assert all("FAIL" not in line for line in lines)

    def test_m1(self, capsys):
        code, out, _ = run(capsys, "verify", "--m-max", "1")
        assert code == 0
        assert "PASS" in out

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--m-max", "2", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["m", "methods", "formula", "words", "bridge", "result", "r"]
        assert rows[1] == ["1", "PASS", "PASS", "PASS", "PASS", "PASS", "2"]
        assert rows[2][-1] == "5"

    def test_failure_exit_code(self, capsys, monkeypatch):
        # simulate a broken count to exercise the failure path
        monkeypatch.setattr(cli.words, "count_words", lambda m: 0)
        code, out, err = run(capsys, "verify", "--m-max", "2")
        assert code == 1
        assert "FAIL" in out
        assert "words=0" in err

    def test_m_max_validation(self, capsys):
        assert run(capsys, "verify", "--m-max", "0")[0] == 2

    def test_budget_refused_before_any_m(self, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("verify_bridge ran on an over-budget m-max")
        monkeypatch.setattr(cli.bridge, "verify_bridge", unreachable)
        code, out, err = run(capsys, "verify", "--m-max", "10", "--budget", "262144")
        assert (code, out) == (3, "")
        assert "262144" in err


class TestSequence:
    def test_csv_ends_with_715(self, capsys):
        code, out, _ = run(capsys, "sequence", "--p", "2", "--n-max", "6",
                           "--format", "csv")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "n,r"
        assert lines[-1] == "6,715"

    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "sequence", "--p", "2", "--n-max", "0")
        assert (code, out) == (0, "0 1\n")

    def test_p3_values(self, capsys):
        code, out, _ = run(capsys, "sequence", "--p", "3", "--n-max", "3")
        assert code == 0
        assert [line.split()[1] for line in out.splitlines()] == ["1", "2", "7", "40"]

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "sequence", "--p", "2", "--n-max", "20",
                           "--format", "json")
        payload = json.loads(out)
        assert payload[-1] == {"n": 20, "r": str((2 ** 20 + 1) * (2 ** 19 + 1) // 3)}

    def test_non_prime(self, capsys):
        assert run(capsys, "sequence", "--p", "9", "--n-max", "3")[0] == 2

    def test_large_prime_finishes(self):
        # 2^61 - 1: trial division would need ~1.5e9 steps per primality test
        result = subprocess.run(
            [sys.executable, "-m", "orbitlab", "sequence",
             "--p", "2305843009213693951", "--n-max", "1"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        assert (result.returncode, result.stdout) == (0, "0 1\n1 2\n")

    def test_prime_beyond_exact_range(self, capsys):
        code, out, err = run(capsys, "sequence", "--p",
                             "3317044064679887385961991", "--n-max", "1")
        assert (code, out) == (2, "")
        assert "exact only below" in err


class TestContract:
    def test_usage_error_exit_2(self, capsys):
        assert run(capsys, "orbits", "--p", "2")[0] == 2
        assert run(capsys, "nonsense")[0] == 2

    @pytest.mark.parametrize("argv", [
        "orbits --p 1009 --n 20000 --method burnside",
        "orbits --p 2 --n 1000000 --method formula",
        "sequence --p 2 --n-max 20000",
        "words --m 50000",
    ])
    def test_count_too_long_to_print_fails_fast(self, argv):
        # refused before the count is computed, which would take seconds to hours
        result = subprocess.run(
            [sys.executable, "-m", "orbitlab", *argv.split()],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        assert (result.returncode, result.stdout) == (2, "")
        assert "the count has" in result.stderr
        assert f"more than the {sys.get_int_max_str_digits()}" in result.stderr

    def test_digit_limit_is_exact(self, capsys):
        # count_words(m) crosses the limit inside this window; nothing that
        # prints is refused and every refusal is the early one
        limit = sys.get_int_max_str_digits()
        for m in range(7138, 7150):
            code, out, err = run(capsys, "words", "--m", str(m))
            if words.count_words(m) < 10 ** limit:
                assert (code, out, err) == (0, f"{words.count_words(m)}\n", ""), m
            else:
                assert (code, out) == (2, ""), m
                assert f"more than the {limit}" in err

    def test_long_counts_under_the_limit_print(self, capsys):
        code, out, _ = run(capsys, "sequence", "--p", "2", "--n-max", "7000")
        assert code == 0 and len(out.splitlines()[-1].split()[1]) == 4214
        code, out, _ = run(capsys, "words", "--m", "7000")
        assert code == 0 and len(out.strip()) == 4214

    def test_budget_still_comes_first(self, capsys):
        # the last three have state counts too long to print: still exit 3
        for argv in ("orbits --p 2 --n 3000", "orbits --p 1009 --n 700 --list --method burnside",
                     "words --m 5000 --list", "orbits --p 2 --n 20000",
                     "words --m 50000 --list", "verify --m-max 20000"):
            assert run(capsys, *argv.split())[:2] == (3, ""), argv

    def test_deterministic_output(self, capsys):
        first = run(capsys, "verify", "--m-max", "3", "--format", "json")
        second = run(capsys, "verify", "--m-max", "3", "--format", "json")
        assert first == second

    def test_csv_uses_lf(self, capsys):
        _, out, _ = run(capsys, "sequence", "--p", "2", "--n-max", "2",
                        "--format", "csv")
        assert "\r" not in out


# Exact stdout of every subcommand in every format, recorded from the CLI
# before its emitters were merged; any byte of drift fails here.
GOLDEN = {
    ("orbits --p 3 --n 2 --method bfs", "text"): '7\n',
    ("orbits --p 3 --n 2 --method bfs", "csv"): (
        'p,n,method,orbit_count\n'
        '3,2,bfs,7\n'
    ),
    ("orbits --p 3 --n 2 --method bfs", "json"): (
        '{\n'
        '  "p": 3,\n'
        '  "n": 2,\n'
        '  "method": "bfs",\n'
        '  "orbit_count": "7"\n'
        '}\n'
    ),
    ("orbits --p 3 --n 2 --method canonical", "text"): '7\n',
    ("orbits --p 3 --n 2 --method canonical", "csv"): (
        'p,n,method,orbit_count\n'
        '3,2,canonical,7\n'
    ),
    ("orbits --p 3 --n 2 --method canonical", "json"): (
        '{\n'
        '  "p": 3,\n'
        '  "n": 2,\n'
        '  "method": "canonical",\n'
        '  "orbit_count": "7"\n'
        '}\n'
    ),
    ("orbits --p 3 --n 2 --method burnside", "text"): '7\n',
    ("orbits --p 3 --n 2 --method burnside", "csv"): (
        'p,n,method,orbit_count\n'
        '3,2,burnside,7\n'
    ),
    ("orbits --p 3 --n 2 --method burnside", "json"): (
        '{\n'
        '  "p": 3,\n'
        '  "n": 2,\n'
        '  "method": "burnside",\n'
        '  "orbit_count": "7"\n'
        '}\n'
    ),
    ("orbits --p 3 --n 2 --method formula", "text"): '7\n',
    ("orbits --p 3 --n 2 --method formula", "csv"): (
        'p,n,method,orbit_count\n'
        '3,2,formula,7\n'
    ),
    ("orbits --p 3 --n 2 --method formula", "json"): (
        '{\n'
        '  "p": 3,\n'
        '  "n": 2,\n'
        '  "method": "formula",\n'
        '  "orbit_count": "7"\n'
        '}\n'
    ),
    ("orbits --p 2 --n 2 --list", "text"): (
        '00 00 1 6\n'
        '00 01 3 2\n'
        '01 00 3 2\n'
        '01 01 3 2\n'
        '01 10 6 1\n'
    ),
    ("orbits --p 2 --n 2 --list", "csv"): (
        'representative,size,stabilizer_order\n'
        '00 00,1,6\n'
        '00 01,3,2\n'
        '01 00,3,2\n'
        '01 01,3,2\n'
        '01 10,6,1\n'
    ),
    ("orbits --p 2 --n 2 --list", "json"): (
        '{\n'
        '  "p": 2,\n'
        '  "n": 2,\n'
        '  "method": "bfs",\n'
        '  "orbit_count": "5",\n'
        '  "orbits": [\n'
        '    {\n'
        '      "representative": "00 00",\n'
        '      "size": "1",\n'
        '      "stabilizer_order": "6"\n'
        '    },\n'
        '    {\n'
        '      "representative": "00 01",\n'
        '      "size": "3",\n'
        '      "stabilizer_order": "2"\n'
        '    },\n'
        '    {\n'
        '      "representative": "01 00",\n'
        '      "size": "3",\n'
        '      "stabilizer_order": "2"\n'
        '    },\n'
        '    {\n'
        '      "representative": "01 01",\n'
        '      "size": "3",\n'
        '      "stabilizer_order": "2"\n'
        '    },\n'
        '    {\n'
        '      "representative": "01 10",\n'
        '      "size": "6",\n'
        '      "stabilizer_order": "1"\n'
        '    }\n'
        '  ]\n'
        '}\n'
    ),
    ("orbits --p 11 --n 1 --list", "text"): (
        '0:0 1 1320\n'
        '0:1 120 11\n'
    ),
    ("orbits --p 11 --n 1 --list", "csv"): (
        'representative,size,stabilizer_order\n'
        '0:0,1,1320\n'
        '0:1,120,11\n'
    ),
    ("orbits --p 11 --n 1 --list", "json"): (
        '{\n'
        '  "p": 11,\n'
        '  "n": 1,\n'
        '  "method": "bfs",\n'
        '  "orbit_count": "2",\n'
        '  "orbits": [\n'
        '    {\n'
        '      "representative": "0:0",\n'
        '      "size": "1",\n'
        '      "stabilizer_order": "1320"\n'
        '    },\n'
        '    {\n'
        '      "representative": "0:1",\n'
        '      "size": "120",\n'
        '      "stabilizer_order": "11"\n'
        '    }\n'
        '  ]\n'
        '}\n'
    ),
    ("orbits --p 2 --n 0 --list", "text"): '- 1 -\n',
    ("orbits --p 2 --n 0 --list", "csv"): (
        'representative,size,stabilizer_order\n'
        '-,1,-\n'
    ),
    ("orbits --p 2 --n 0 --list", "json"): (
        '{\n'
        '  "p": 2,\n'
        '  "n": 0,\n'
        '  "method": "bfs",\n'
        '  "orbit_count": "1",\n'
        '  "orbits": [\n'
        '    {\n'
        '      "representative": "-",\n'
        '      "size": "1",\n'
        '      "stabilizer_order": "-"\n'
        '    }\n'
        '  ]\n'
        '}\n'
    ),
    ("words --m 3", "text"): '15\n',
    ("words --m 3", "csv"): (
        'm,count\n'
        '3,15\n'
    ),
    ("words --m 3", "json"): (
        '{\n'
        '  "m": 3,\n'
        '  "count": "15"\n'
        '}\n'
    ),
    ("words --m 2 --list", "text"): (
        '11\n'
        '12\n'
        '21\n'
        '22\n'
        '23\n'
    ),
    ("words --m 2 --list", "csv"): (
        'word\n'
        '11\n'
        '12\n'
        '21\n'
        '22\n'
        '23\n'
    ),
    ("words --m 2 --list", "json"): (
        '{\n'
        '  "m": 2,\n'
        '  "count": "5",\n'
        '  "words": [\n'
        '    "11",\n'
        '    "12",\n'
        '    "21",\n'
        '    "22",\n'
        '    "23"\n'
        '  ]\n'
        '}\n'
    ),
    ("encode 234", "text"): (
        'rows: 10 11 01\n'
        'canonical: 01 10 11\n'
    ),
    ("encode 234", "csv"): (
        'word,rows,canonical\n'
        '234,10 11 01,01 10 11\n'
    ),
    ("encode 234", "json"): (
        '{\n'
        '  "word": "234",\n'
        '  "rows": [\n'
        '    "10",\n'
        '    "11",\n'
        '    "01"\n'
        '  ],\n'
        '  "canonical": [\n'
        '    "01",\n'
        '    "10",\n'
        '    "11"\n'
        '  ]\n'
        '}\n'
    ),
    ("verify --m-max 3", "text"): (
        'm methods formula words bridge result r\n'
        '1 PASS PASS PASS PASS PASS 2\n'
        '2 PASS PASS PASS PASS PASS 5\n'
        '3 PASS PASS PASS PASS PASS 15\n'
    ),
    ("verify --m-max 3", "csv"): (
        'm,methods,formula,words,bridge,result,r\n'
        '1,PASS,PASS,PASS,PASS,PASS,2\n'
        '2,PASS,PASS,PASS,PASS,PASS,5\n'
        '3,PASS,PASS,PASS,PASS,PASS,15\n'
    ),
    ("verify --m-max 3", "json"): (
        '[\n'
        '  {\n'
        '    "m": "1",\n'
        '    "methods": "PASS",\n'
        '    "formula": "PASS",\n'
        '    "words": "PASS",\n'
        '    "bridge": "PASS",\n'
        '    "result": "PASS",\n'
        '    "r": "2"\n'
        '  },\n'
        '  {\n'
        '    "m": "2",\n'
        '    "methods": "PASS",\n'
        '    "formula": "PASS",\n'
        '    "words": "PASS",\n'
        '    "bridge": "PASS",\n'
        '    "result": "PASS",\n'
        '    "r": "5"\n'
        '  },\n'
        '  {\n'
        '    "m": "3",\n'
        '    "methods": "PASS",\n'
        '    "formula": "PASS",\n'
        '    "words": "PASS",\n'
        '    "bridge": "PASS",\n'
        '    "result": "PASS",\n'
        '    "r": "15"\n'
        '  }\n'
        ']\n'
    ),
    ("sequence --p 3 --n-max 3", "text"): (
        '0 1\n'
        '1 2\n'
        '2 7\n'
        '3 40\n'
    ),
    ("sequence --p 3 --n-max 3", "csv"): (
        'n,r\n'
        '0,1\n'
        '1,2\n'
        '2,7\n'
        '3,40\n'
    ),
    ("sequence --p 3 --n-max 3", "json"): (
        '[\n'
        '  {\n'
        '    "n": 0,\n'
        '    "r": "1"\n'
        '  },\n'
        '  {\n'
        '    "n": 1,\n'
        '    "r": "2"\n'
        '  },\n'
        '  {\n'
        '    "n": 2,\n'
        '    "r": "7"\n'
        '  },\n'
        '  {\n'
        '    "n": 3,\n'
        '    "r": "40"\n'
        '  }\n'
        ']\n'
    ),
}


@pytest.mark.parametrize("command,fmt", list(GOLDEN), ids=lambda v: v)
def test_golden_stdout(capsys, command, fmt):
    code, out, err = run(capsys, *command.split(), "--format", fmt)
    assert (code, out, err) == (0, GOLDEN[command, fmt], "")
