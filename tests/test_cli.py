import csv
import io
import json
import math
import os
import random

import pytest

from oracles import blocks_of, python_head, python_peak, python_run
from orbitlab import bridge, cli, formulas, orbits, residues, words
from orbitlab.budget import PRINT_DIGITS, BudgetExceeded, check_budget
from orbitlab.orbits import CensusReport
from orbitlab.residues import GroupSpec, state_from_index


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def format_state(i, spec):
    """The rows of the state with packed index i, one digit step at a time:
    the oracle of cli.state_formatter."""
    p, sep = spec.p, "" if spec.p <= 10 else ":"
    g, k = divmod(i, spec.group_order)
    rows = []
    for _ in range(spec.n):  # the last row first
        rows.append(f"{g % p}{sep}{k % p}")
        g, k = g // p, k // p
    return " ".join(reversed(rows)) or "-"


def listing_rows(p, n):
    """The rows of `orbits --p p --n n --list`, built from the summaries."""
    fmt = cli.state_formatter(GroupSpec(p, n))
    return [[fmt(s.index), str(s.size),
             "-" if s.stabilizer_order is None else str(s.stabilizer_order)]
            for s in orbits.orbit_summaries(GroupSpec(p, n))]


LISTED = [(2, 0), (2, 3), (3, 2), (11, 1)]


def run_measured(*argv, stdout=None):
    """python_peak of the CLI: its exit code, stdout and peak RSS in KiB."""
    return python_peak(f"from orbitlab import cli\nraise SystemExit(cli.main({list(argv)!r}))",
                       timeout=30, stdout=stdout)


class TestOrbits:
    def test_bfs_count(self, capsys):
        code, out, err = run(capsys, "orbits", "--p", "2", "--n", "2", "--method", "bfs")
        assert (code, out, err) == (0, "5\n", "")

    def test_formula_n0(self, capsys):
        assert run(capsys, *"orbits --p 2 --n 0 --method formula".split())[:2] == (0, "1\n")

    def test_burnside_p3(self, capsys):
        assert run(capsys, *"orbits --p 3 --n 2 --method burnside".split())[:2] == (0, "7\n")

    def test_each_answer_sweeps_the_states_at_most_once(self, capsys, monkeypatch):
        # _row_moves is built once per BFS visited sweep and nowhere else
        sweeps = []
        real = orbits._row_moves
        monkeypatch.setattr(orbits, "_row_moves",
                            lambda p, n: sweeps.append((p, n)) or real(p, n))
        code, out, _ = run(capsys, "orbits", "--p", "2", "--n", "3", "--list")
        assert (code, len(out.splitlines()), len(sweeps)) == (0, 15, 1)
        sweeps.clear()
        report = bridge.verify_bridge(4)
        assert report.is_injective_on_orbits and report.is_surjective_on_orbits
        assert sweeps == []

    def test_canonical_engine_memory(self):
        # row reduction holds O(n) values per state and no per-matrix table
        code, out, peak = run_measured("orbits", "--p", "31", "--n", "1",
                                       "--method", "canonical")
        assert (code, out) == (0, "2\n")
        assert peak < 128 * 1024

    def test_bfs_memory_at_n1(self):
        # the one row splits between its digits into p-entry tables: a
        # p^2-entry one would be as long as the state count and lift the
        # peak past 50 MiB
        code, out, peak = run_measured("orbits", "--p", "1021", "--n", "1",
                                       "--method", "bfs")
        assert (code, out) == (0, "2\n")
        assert peak < 32 * 1024

    def test_bfs_memory_at_n0(self):
        # one state and no row: move tables built over all p^2 row digits
        # anyway took 7.9 s and peaked at 705 MiB
        code, out, peak = run_measured("orbits", "--p", "3001", "--n", "0",
                                       "--method", "bfs")
        assert (code, out) == (0, "1\n")
        assert peak < 32 * 1024

    def test_bfs_memory_at_n2(self):
        # orbits of 29,760 states beside a 923,521-byte visited map: the
        # sweep's peak stays near the interpreter's own, about 16 MiB
        code, out, peak = run_measured("orbits", "--p", "31", "--n", "2",
                                       "--method", "bfs")
        assert (code, out) == (0, "63\n")
        assert peak < 32 * 1024

    def test_bfs_memory_at_n11(self):
        # 700,075 orbits, most of them yielded in bulk above free head
        # orbits, beside a 4 MiB visited map: held as a list of pairs they
        # would lift the peak past 80 MiB
        code, out, peak = run_measured("orbits", "--p", "2", "--n", "11",
                                       "--method", "bfs")
        assert (code, out) == (0, "700075\n")
        assert peak < 32 * 1024

    def test_canonical_large_prime_finishes(self):
        # 1,018,081 states, each decided by row reduction, not by 1e9 matrices
        result = python_run("-m", "orbitlab", "orbits", "--p", "1009", "--n", "1",
                            "--method", "canonical", timeout=10)
        assert (result.returncode, result.stdout) == (0, "2\n")

    def test_burnside_large_prime_finishes(self):
        # O(p^2) diagonals: about a million steps here
        result = python_run("-m", "orbitlab", "orbits", "--p", "1009", "--n", "1",
                            "--method", "burnside", timeout=10)
        assert (result.returncode, result.stdout) == (0, "2\n")

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_burnside_diagonals_are_budgeted(self, n):
        # 100003^2 diagonals would take about an hour; refused at once
        result = python_run("-m", "orbitlab", "orbits", "--p", "100003", "--n", n,
                            "--method", "burnside", timeout=10)
        assert (result.returncode, result.stdout) == (3, "")
        assert "268435456" in result.stderr
        assert "diagonals" in result.stderr and "states" not in result.stderr

    def test_list_large_prime_finishes(self):
        # two orbits at n = 1: the listing must not build all p vectors
        result = python_run(*("-m orbitlab orbits --p 1000000007 --n 1 --list --method formula "
                              "--budget 10000000000000000000").split(), timeout=10)
        assert result.returncode == 0
        assert [line.split()[1:] for line in result.stdout.splitlines()] == [
            ["1", "1000000021000000146000000336"], ["1000000014000000048", "1000000007"]]

    def test_list_builds_no_state(self, capsys, monkeypatch):
        # every row is read off a packed index: neither the summaries nor the
        # CLI build a PairState or a ResidueVector per orbit
        argv = ["orbits", "--p", "2", "--n", "6", "--list", "--format"]
        expected = {fmt: run(capsys, *argv, fmt) for fmt in ("text", "csv", "json")}

        def unbuildable(*args, **kwargs):
            raise AssertionError("a state was built")

        for module in (orbits, residues):
            for name in ("PairState", "ResidueVector"):
                monkeypatch.setattr(module, name, unbuildable, raising=False)
        assert len(orbits.orbit_summaries(GroupSpec(2, 6))) == 715
        for fmt, result in expected.items():
            assert result[0] == 0 and run(capsys, *argv, fmt) == result, fmt

    @pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (11, 1), (2, 0)])
    def test_format_state_reads_the_index(self, p, n):
        # against the rows of the unpacked state, on every state
        spec = GroupSpec(p, n)
        sep = "" if p <= 10 else ":"
        for i in range(spec.state_count):
            rows = state_from_index(i, spec).rows()
            expected = " ".join(f"{g}{sep}{k}" for g, k in rows) if n else "-"
            assert format_state(i, spec) == expected, i

    # c rows per lookup: c = 6 at p = 2, 3 at p = 3, 2 at p = 5 and 1 from
    # p = 11 on, so n mod c is 0 at (2, 0), (2, 6), (11, n), (13, 2), (67, 1)
    # and not elsewhere; at p = 67 p^2 is too large for a table.  From
    # (2, 1000) on a state has more than HALVING_CHUNKS chunks, so fmt cuts
    # it by halves first; those are checked on seeded random states.
    @pytest.mark.parametrize("p,n", [(2, 0), (2, 1), (2, 3), (2, 6), (2, 7), (3, 2), (3, 4),
                                     (5, 3), (11, 1), (11, 2), (13, 2), (67, 1),
                                     (2, 1000), (3, 400), (67, 50)])
    def test_state_formatter_matches_the_oracle(self, p, n):
        spec = GroupSpec(p, n)
        fmt = cli.state_formatter(spec)
        indices = range(spec.state_count)
        if n >= 50:
            rng = random.Random(n)
            indices = [0, 1, spec.group_order - 1, spec.state_count - 1,
                       *(rng.randrange(spec.state_count) for _ in range(20))]
        for i in indices:
            assert fmt(i) == format_state(i, spec), i

    def test_list_count_mismatch_fails(self, capsys, monkeypatch):
        # the listing is no census of its own: a short one must not pass
        real = orbits._echelon_minima
        monkeypatch.setattr(orbits, "_echelon_minima", lambda spec: list(real(spec))[:-1])
        code, out, err = run(capsys, "orbits", "--p", "2", "--n", "2", "--list",
                             "--method", "canonical")
        assert (code, out) == (1, "")
        assert err == "orbits: canonical counts 5 orbits, the listing has 4\n"

    def test_list_sizes_must_cover_the_states(self, capsys, monkeypatch):
        # as many orbits as the count, but one with a wrong size
        real = orbits._echelon_minima
        monkeypatch.setattr(orbits, "_echelon_minima",
                            lambda spec: [*list(real(spec))[:-1], (9, 3)])
        code, out, err = run(capsys, "orbits", "--p", "2", "--n", "2", "--list")
        assert (code, out) == (1, "")
        assert err == "orbits: the listing's sizes sum to 13, not to the 16 states\n"

    def test_list_sizes_must_divide_the_group(self, capsys, monkeypatch):
        # as many orbits, covering the 16 states, but sizes 4 and 5 do not divide 6
        real = orbits._echelon_minima
        monkeypatch.setattr(orbits, "_echelon_minima", lambda spec: [
            *(minima := list(real(spec)))[:3], (minima[3][0], 4), (minima[4][0], 5)])
        code, out, err = run(capsys, "orbits", "--p", "2", "--n", "2", "--list")
        assert (code, out) == (1, "")
        assert err == "orbits: the listing has an orbit of size 4, which does not divide 6\n"

    def test_list_text(self, capsys):
        code, out, _ = run(capsys, "orbits", "--p", "2", "--n", "1", "--list")
        assert code == 0
        assert out.splitlines() == ["00 1 6", "01 3 2"]
        for p, n in LISTED:
            code, out, _ = run(capsys, "orbits", "--p", str(p), "--n", str(n), "--list")
            assert (code, out) == (0, "".join(f"{' '.join(row)}\n"
                                              for row in listing_rows(p, n))), (p, n)

    def test_list_csv(self, capsys):
        code, out, _ = run(capsys, "orbits", "--p", "2", "--n", "2",
                           "--list", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["representative", "size", "stabilizer_order"]
        assert len(rows) == 6
        assert sorted(int(r[1]) for r in rows[1:]) == [1, 3, 3, 3, 6]
        for p, n in LISTED:
            code, out, _ = run(capsys, "orbits", "--p", str(p), "--n", str(n),
                               "--list", "--format", "csv")
            assert code == 0 and "\r" not in out
            assert list(csv.reader(io.StringIO(out))) == [
                ["representative", "size", "stabilizer_order"], *listing_rows(p, n)], (p, n)

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_list_streams(self, fmt):
        # rows stream from the summaries as they are made: the peak holds
        # no summaries list and no copy of the text
        code, out, peak = run_measured("orbits", "--p", "2", "--n", "10", "--list",
                                       "--method", "formula", "--format", fmt)
        assert code == 0 and len(out.splitlines()) == 175275 + (fmt == "csv")
        assert peak < 64 * 1024

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_list_memory_is_flat(self, fmt):
        # 245 times the orbits of n = 6 (175,275 against 715), the same peak
        peaks = [run_measured("orbits", "--p", "2", "--n", n, "--list",
                              "--method", "formula", "--format", fmt)[2]
                 for n in ("6", "10")]
        assert peaks[1] - peaks[0] < 4 * 1024

    @pytest.mark.parametrize("argv", ["orbits --p 2 --n 11 --list --method formula",
                                      "words --m 11 --list"])
    def test_json_list_memory(self, argv, tmp_path):
        # the rows go out as they are made, each from one row template, so
        # no row list and no copy of the document is held: the text
        # listing's cap holds.  The output goes to a file, not to this process.
        with open(tmp_path / "out.json", "wb+") as out:
            code, _, peak = run_measured(*argv.split(), "--format", "json", stdout=out)
            out.seek(-4, os.SEEK_END)
            assert code == 0 and out.read() == b"]\n}\n"
        assert peak < 32 * 1024

    def test_list_closed_pipe_ends_quietly(self):
        # as in `orbitlab orbits --p 2 --n 9 --list | head -1`
        first, code, err = python_head("-m", "orbitlab", "orbits", "--p", "2", "--n", "9",
                                       "--list", "--method", "formula", timeout=30)
        assert first == "00 00 00 00 00 00 00 00 00 1 6\n"
        assert (code, err) == (0, "")

    def test_json_list_closed_pipe_ends_quietly(self):
        # json goes out in chunks too, so the reader may be gone mid-document
        first, code, err = python_head("-m", "orbitlab", "orbits", "--p", "2", "--n", "9",
                                       "--list", "--format", "json", timeout=30)
        assert first == "{\n"
        assert (code, err) == (0, "")

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
        # Burnside's p^2 = 49 diagonals are charged to --budget
        code, out, err = run(capsys, "orbits", "--p", "7", "--n", "1",
                             "--method", "burnside", "--budget", "48")
        assert (code, out) == (3, "") and "48" in err
        assert run(capsys, "orbits", "--p", "7", "--n", "1", "--method", "burnside",
                   "--budget", "49")[:2] == (0, "2\n")

    def test_list_needs_prime(self, capsys):
        code, _, err = run(capsys, "orbits", "--p", "6", "--n", "1", "--list")
        assert code == 2 and "error" in err

    def test_list_trivial_group(self, capsys):
        assert run(capsys, "orbits", "--p", "2", "--n", "0", "--list")[:2] == (0, "- 1 -\n")


class TestWords:
    def test_count(self, capsys):
        assert run(capsys, "words", "--m", "3")[:2] == (0, "15\n")
        assert run(capsys, "words", "--m", "0")[:2] == (0, "1\n")

    def test_list(self, capsys):
        code, out, _ = run(capsys, "words", "--m", "2", "--list")
        assert code == 0
        assert out.splitlines() == ["11", "12", "21", "22", "23"]

    def test_csv(self, capsys):
        assert run(capsys, *"words --m 2 --format csv".split())[:2] == (0, "m,count\n2,5\n")

    def test_json_list(self, capsys):
        out = run(capsys, "words", "--m", "1", "--list", "--format", "json")[1]
        assert json.loads(out) == {"m": 1, "count": "2", "words": ["1", "2"]}

    def test_csv_list(self, capsys):
        assert run(capsys, *"words --m 1 --list --format csv".split())[:2] == (0, "word\n1\n2\n")

    def test_csv_quotes_the_empty_word(self, capsys):
        # a row of one empty field is quoted, or it would read as no row
        assert run(capsys, *"words --m 0 --list --format csv".split())[:2] == (0, 'word\n""\n')

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    @pytest.mark.parametrize("extra", [[], ["--list"], ["--list", "--budget", "0"]])
    def test_negative_m(self, capsys, extra, fmt):
        # m is refused before the budget is charged: 4^-1 is no state count
        code, out, err = run(capsys, "words", "--m", "-1", *extra, "--format", fmt)
        assert (code, out, err) == (2, "", "error: m must be >= 0, got -1\n")

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_list_streams(self, fmt):
        # the words go out as the walk yields them: no word list is held
        code, out, peak = run_measured("words", "--m", "10", "--list", "--format", fmt)
        assert code == 0 and len(out.splitlines()) == 175275 + (fmt == "csv")
        assert peak < 32 * 1024

    def test_list_long_words_closed_pipe(self):
        # as in `orbitlab words --m 1100 --list --budget <4^1100> | head -1`,
        # far deeper than Python's recursion limit
        first, code, err = python_head("-m", "orbitlab", "words", "--m", "1100", "--list",
                                       "--budget", str(4 ** 1100), timeout=30)
        assert first == "1" * 1100 + "\n"
        assert (code, err) == (0, "")

    def test_listing_parser_and_word_spell_alike(self, capsys):
        # the listing, RGWord and word_from_string read one spelling table
        for m in range(8):
            code, out, _ = run(capsys, "words", "--m", str(m), "--list")
            lines = out.split("\n")[:-1]
            assert code == 0 and len(lines) == words.count_words(m), m
            for line, letters in zip(lines, words._words(m)):
                assert line == str(words.RGWord(letters))
                assert words.word_from_string(line).letters == letters


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

    def test_long_word_is_linear(self):
        # 100,001 letters: the state and its orbit minimum are read off packed
        # indices, where the unpacked states and digit loops took 20 s
        word = "1234" * 25000 + "1"
        result = python_run("-m", "orbitlab", "encode", word, timeout=10)
        m, bits = len(word), {"1": "00", "2": "10", "3": "11", "4": "01"}
        rows = " ".join(map(bits.get, word))
        g = int(word.translate(str.maketrans("1234", "0110")), 2)
        k = int(word.translate(str.maketrans("1234", "0011")), 2)
        low, mid, _ = sorted((g, k, g ^ k))  # the minimum at p = 2
        canon = " ".join(map(str.__add__, format(low, f"0{m}b"), format(mid, f"0{m}b")))
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == f"rows: {rows}\ncanonical: {canon}\n"

    def test_json(self, capsys):
        payload = json.loads(run(capsys, "encode", "234", "--format", "json")[1])
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

    @pytest.mark.parametrize("change,evidence", [
        (lambda ws: ws + ws[17:18],
         "bridge_words=52 collisions=1 first_collision=2113/2113 "
         "missed=0 first_missed=- listed=51 covered=256"),
        (lambda ws: ws[:17] + ws[18:],
         "bridge_words=50 collisions=0 first_collision=- "
         "missed=1 first_missed=01,00,00,10 listed=51 covered=256"),
    ], ids=["duplicate", "drop"])
    def test_bridge_failure_evidence(self, capsys, monkeypatch, change, evidence):
        # word 17 at m = 4 is 2113, whose orbit minimum has rows 01 00 00 10
        real = cli.bridge._blocks
        monkeypatch.setattr(
            cli.bridge, "_blocks",
            lambda m: blocks_of(change(list(words._words(m))), m) if m == 4 else real(m))
        code, out, err = run(capsys, "verify", "--m-max", "4")
        assert code == 1
        assert out.splitlines()[-1] == "4 PASS PASS FAIL FAIL FAIL 51"
        assert err == ("verify: m=4 FAIL bfs=51 canonical=51 burnside=51 formula=51 "
                       f"words=51 {evidence}\n")

    @pytest.mark.parametrize("m,change,row,evidence", [
        (4, lambda minima: minima[:-1], "4 FAIL PASS PASS PASS FAIL 51",
         "bfs=51 canonical=51 burnside=51 formula=51 words=51 bridge_words=51 "
         "collisions=0 first_collision=- missed=0 first_missed=- listed=50 covered=250"),
        # as many orbits, covering the 16 states, but sizes 4 and 5 do not divide 6
        (2, lambda minima: minima[:3] + [(minima[3][0], 4), (minima[4][0], 5)],
         "2 FAIL PASS PASS PASS FAIL 5",
         "bfs=5 canonical=5 burnside=5 formula=5 words=5 bridge_words=5 "
         "collisions=0 first_collision=- missed=0 first_missed=- listed=5 covered=16"),
    ], ids=["drop", "sizes"])
    def test_listing_failure_evidence(self, capsys, monkeypatch, m, change, row, evidence):
        # verify checks the orbit listing with the routes: a listing that is
        # not a census fails the methods column, and the evidence counts it
        real = orbits._echelon_minima
        monkeypatch.setattr(orbits, "_echelon_minima",
                            lambda spec: change(list(real(spec))) if spec.n == m else real(spec))
        code, out, err = run(capsys, "verify", "--m-max", str(m))
        assert code == 1
        assert out.splitlines()[-1] == row and out.count("FAIL") == 2  # only at m
        assert err == f"verify: m={m} FAIL {evidence}\n"

    def test_bridge_memory_is_bounded(self):
        # the bridge streams its words and holds no word list or image map:
        # at m = 10 that list and map alone lifted the peak past 70 MiB, and
        # one record per listed orbit to 41 MiB; both walked, it is 16 MiB
        code, out, peak = run_measured("verify", "--m-max", "10")
        assert (code, out) == (0, "".join(
            ["m methods formula words bridge result r\n"]
            + [f"{m} PASS PASS PASS PASS PASS {r}\n" for m, r in enumerate(
                [2, 5, 15, 51, 187, 715, 2795, 11051, 43947, 175275], 1)]))
        assert peak < 24 * 1024

    def test_m_max_validation(self, capsys):
        assert run(capsys, "verify", "--m-max", "0") == (
            2, "", "error: m-max must be >= 1, got 0\n")

    @pytest.mark.parametrize("argv,err", [
        ("--p 4 --m-max 2", "p must be prime, got 4"),
        ("--p 4 --m-max 0", "m-max must be >= 1, got 0"),  # m-max is checked first,
        ("--p 1 --m-max 2 --budget 0", "p must be prime, got 1"),  # then p, then the budget
    ])
    def test_p_validation(self, capsys, argv, err):
        assert run(capsys, "verify", *argv.split()) == (2, "", f"error: {err}\n")

    @pytest.mark.parametrize("p,m_max", [(3, 5), (5, 3), (7, 2), (11, 2), (13, 2)])
    def test_every_prime_passes(self, capsys, p, m_max):
        # off p = 2 there are no words and no bridge: those columns read "-"
        code, out, err = run(capsys, "verify", "--p", str(p), "--m-max", str(m_max))
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == [f"{m} PASS PASS - - PASS {formulas.r_formula(p, m)}"
                                        for m in range(1, m_max + 1)]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_cells_without_a_bridge_pass_with_none(self, p, n):
        # verify starts at m = 1; the n = 0 cells pass all the same, and the
        # words and bridge verdicts are None wherever no bridge ran
        spec = GroupSpec(p, n)
        values = cli.check_cell(spec)
        verdict, evidence = cli.judge(spec, values)
        assert evidence is None and values["formula"] == formulas.r_formula(p, n)
        bridged = "bridge" in values
        assert bridged == (p == 2 and n >= 1)
        ran = True if bridged else None
        assert verdict == {"methods": True, "formula": True, "words": ran, "bridge": ran}

    def test_closed_pipe_ends_quietly(self):
        # as in `verify --p 3 --m-max 5 | head -1`; unbuffered, so rows are
        # still written after the close
        first, code, err = python_head("-m", "orbitlab", "verify", "--p", "3", "--m-max", "5",
                                       timeout=60, env={"PYTHONUNBUFFERED": "1"})
        assert first == "m methods formula words bridge result r\n"
        assert (code, err) == (0, "")

    def test_mismatch_evidence_off_p2(self, capsys, monkeypatch):
        # one route wrong at one cell: its evidence goes to stderr, without
        # the word keys, and only that row fails
        real = orbits.count_orbits_canonical
        monkeypatch.setattr(orbits, "count_orbits_canonical", lambda spec: CensusReport(8)
                            if (spec.p, spec.n) == (3, 2) else real(spec))
        code, out, err = run(capsys, "verify", "--p", "3", "--m-max", "3")
        assert code == 1
        assert out.splitlines()[1:] == ["1 PASS PASS - - PASS 2", "2 FAIL PASS - - FAIL 7",
                                        "3 PASS PASS - - PASS 40"]
        assert err == ("verify: m=2 FAIL bfs=7 canonical=8 burnside=7 formula=7 "
                       "listed=7 covered=81\n")


class TestSequence:
    def test_csv_ends_with_715(self, capsys):
        code, out, _ = run(capsys, "sequence", "--p", "2", "--n-max", "6",
                           "--format", "csv")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "n,r"
        assert lines[-1] == "6,715"

    def test_single_row(self, capsys):
        assert run(capsys, "sequence", "--p", "2", "--n-max", "0")[:2] == (0, "0 1\n")

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
        result = python_run("-m", "orbitlab", "sequence", "--p", "2305843009213693951",
                            "--n-max", "1", timeout=10)
        assert (result.returncode, result.stdout) == (0, "0 1\n1 2\n")

    def test_prime_beyond_exact_range(self, capsys):
        code, out, err = run(capsys, "sequence", "--p",
                             "3317044064679887385961991", "--n-max", "1")
        assert (code, out) == (2, "")
        assert "exact only below" in err


# inputs whose state count or printed count is far too large: argv -> exit code
HUGE = {
    "orbits --p 3 --n 100000000 --method bfs": 3,
    "orbits --p 3 --n 100000000 --method canonical": 3,
    "orbits --p 3 --n 100000000 --list": 3,
    "orbits --p 1000003 --n 10000000": 3,
    "verify --m-max 20000": 3,
    "words --m 50000 --list": 3,
    "orbits --p 3 --n 7000 --list": 3,  # 3^14000 is computed, and too long to print
    "words --m 100000000": 2,
    "orbits --p 2 --n 1000000000 --method formula": 2,
    "orbits --p 2 --n 100000000 --method burnside": 2,
    "sequence --p 2 --n-max 20000": 2,
}


class TestContract:
    def test_usage_error_exit_2(self, capsys):
        assert run(capsys, "orbits", "--p", "2")[0] == 2
        assert run(capsys, "nonsense")[0] == 2

    @pytest.mark.parametrize("argv", [
        "encode 234 --budget 5",
        "sequence --p 2 --n-max 3 --budget 5",
    ])
    def test_budget_only_where_states_are_visited(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --budget 5" in err

    @pytest.mark.parametrize("argv", [
        "orbits --p 1009 --n 20000 --method burnside",
        "orbits --p 2 --n 1000000 --method formula",
        "sequence --p 2 --n-max 20000",
        "words --m 50000",
    ])
    def test_count_too_long_to_print_fails_fast(self, argv):
        # refused before the count is computed, which would take seconds to hours
        result = python_run("-m", "orbitlab", *argv.split(), timeout=10)
        assert (result.returncode, result.stdout) == (2, "")
        assert "the count has" in result.stderr
        assert f"more than the {PRINT_DIGITS}" in result.stderr

    def test_digit_limit_is_exact(self, capsys):
        # count_words(m) crosses the limit inside this window; nothing that
        # prints is refused and every refusal is the early one
        for m in range(7138, 7150):
            code, out, err = run(capsys, "words", "--m", str(m))
            if words.count_words(m) < 10 ** PRINT_DIGITS:
                assert (code, out, err) == (0, f"{words.count_words(m)}\n", ""), m
            else:
                assert (code, out) == (2, ""), m
                assert f"more than the {PRINT_DIGITS}" in err

    def test_long_counts_under_the_limit_print(self, capsys):
        code, out, _ = run(capsys, "sequence", "--p", "2", "--n-max", "7000")
        assert code == 0 and len(out.splitlines()[-1].split()[1]) == 4214
        code, out, _ = run(capsys, "words", "--m", "7000")
        assert code == 0 and len(out.strip()) == 4214

    @pytest.mark.parametrize("argv", [
        "orbits --p 2 --n 3 --budget -1",
        "words --m 3 --budget -5",
        "verify --m-max 3 --budget -1",
    ])
    def test_negative_budget_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert f"budget must be >= 0, got {argv.split()[-1]}" in err

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_budget_refused_before_any_engine(self, capsys, monkeypatch, fmt):
        # each command charges its budget once, up front; the engines only compute
        def unreachable(*args):
            raise AssertionError("an engine ran on an over-budget command")
        for module, name in [(orbits, "count_orbits_bfs"), (orbits, "count_orbits_canonical"),
                             (orbits, "count_orbits_burnside"), (orbits, "_echelon_minima"),
                             (words, "_blocks"), (bridge, "verify_bridge")]:
            monkeypatch.setattr(module, name, unreachable)
        states = "error: 262144 states exceed the budget of 10\n"
        refusals = {f"orbits --p 2 --n 9 --method {method}{listed} --budget 10": states
                    for method in ("bfs", "canonical", "burnside", "formula")
                    for listed in ("", " --list")}
        # counts that visit no state: 4 diagonals, and the closed form
        del refusals["orbits --p 2 --n 9 --method burnside --budget 10"]
        del refusals["orbits --p 2 --n 9 --method formula --budget 10"]
        refusals.update({
            "orbits --p 7 --n 1 --method burnside --budget 48":
                "error: 49 diagonals exceed the budget of 48\n",
            "orbits --p 2 --n 20000 --method canonical":
                "error: at least 2^40000 states exceed the budget of 268435456\n",
            "words --m 9 --list --budget 10": states,
            "verify --m-max 9 --budget 10": states,
            "verify --m-max 10 --budget 262144":
                "error: 1048576 states exceed the budget of 262144\n",
            # 2^30 states at m = 15: the rows below it would take minutes
            "verify --m-max 15": "error: 1073741824 states exceed the budget of 268435456\n"})
        for argv, err in refusals.items():
            assert run(capsys, *argv.split(), "--format", fmt) == (3, "", err), argv

    @pytest.mark.parametrize("argv,err", [
        ("orbits --p 2 --n 3 --budget 10", "64 states exceed the budget of 10"),
        ("orbits --p 2 --n 3 --list --method formula --budget 63",
         "64 states exceed the budget of 63"),
        ("words --m 5 --list --budget 100", "1024 states exceed the budget of 100"),
        ("verify --m-max 6 --budget 100", "4096 states exceed the budget of 100"),
        ("verify --p 3 --m-max 5 --budget 59048", "59049 states exceed the budget of 59048"),
        ("verify --p 1021 --m-max 2", "1086683238481 states exceed the budget of 268435456"),
    ])
    def test_budget_error_names_limit(self, capsys, argv, err):
        assert run(capsys, *argv.split()) == (3, "", f"error: {err}\n")

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_burnside_budget_counts_diagonals(self, capsys, n):
        # p^2 = 25 diagonals at every n, the trivial group included
        argv = ["orbits", "--p", "5", "--n", str(n), "--method", "burnside", "--budget"]
        assert run(capsys, *argv, "25") == (0, f"{formulas.r_formula(5, n)}\n", "")
        assert run(capsys, *argv, "24") == (
            3, "", "error: 25 diagonals exceed the budget of 24\n")

    def test_budget_still_comes_first(self, capsys):
        # the last three have state counts too long to print: still exit 3
        for argv in ("orbits --p 2 --n 3000", "orbits --p 1009 --n 700 --list --method burnside",
                     "orbits --p 2 --n 3000 --list --format csv",
                     "orbits --p 2 --n 3000 --list --format json",
                     "words --m 5000 --list", "words --m 5000 --list --format csv",
                     "orbits --p 2 --n 20000",
                     "words --m 50000 --list", "verify --m-max 20000"):
            assert run(capsys, *argv.split())[:2] == (3, ""), argv

    @pytest.mark.parametrize("argv,code,digits", [
        pytest.param(argv, code, digits, id=argv if digits is None
                     else f"{argv} PYTHONINTMAXSTRDIGITS={digits}")
        for argv, code in HUGE.items() for digits in (None, "0", "640", "100000")])
    def test_huge_state_counts_are_refused_fast(self, argv, code, digits):
        # exit 3 is refused from a lower bound on the state count, exit 2 from
        # one on the printed count: neither is computed, and neither refusal
        # depends on the interpreter's digit setting (None: not set)
        result = python_run("-m", "orbitlab", *argv.split(), timeout=10,
                            env={"PYTHONINTMAXSTRDIGITS": digits})
        assert (result.returncode, result.stdout) == (code, "")
        if code == 3:
            bound = (result.stderr.removeprefix("error: at least 2^")
                     .removesuffix(" states exceed the budget of 268435456\n"))
            assert bound.isdigit(), result.stderr
        else:
            assert result.stderr.startswith("error: the count has ")
            assert result.stderr.endswith(f" more than the {PRINT_DIGITS} that orbitlab prints\n")

    @pytest.mark.parametrize("base,exponent,budget,shown", [
        (100003, 2, None, "10000600009"),  # printed in full
        (2, 60, 10, "1152921504606846976"),
        (1009, 1400, None, None),  # 4207 digits: printed in full
        (3, 10000, None, "at least 2^15849"),  # 4772 digits: the exact floor of log2
        (2, 40000, None, "at least 2^40000"),
        (3, 200000000, None, "at least 2^200000000"),  # a bound, never computed
        (1000003, 20000000, 2 ** 40, "at least 2^380000000"),
    ])
    def test_budget_message(self, base, exponent, budget, shown):
        with pytest.raises(BudgetExceeded) as refused:
            check_budget(base, exponent, budget, "units")
        count, _, rest = str(refused.value).rpartition(" units ")
        assert rest == f"exceed the budget of {budget or 268435456}"
        assert count == (shown or str(base ** exponent))
        if count.startswith("at least 2^"):  # a true lower bound
            assert int(count.removeprefix("at least 2^")) <= exponent * math.log2(base)

    def test_deterministic_output(self, capsys):
        first = run(capsys, "verify", "--m-max", "3", "--format", "json")
        second = run(capsys, "verify", "--m-max", "3", "--format", "json")
        assert first == second

    @pytest.mark.parametrize("p,n", [(2, 0), (2, 3), (3, 2), (11, 1), (67, 1)])
    def test_json_orbit_listing_is_the_whole_document(self, capsys, p, n):
        # the streamed rows against the document built whole, dumped at once
        header = ["representative", "size", "stabilizer_order"]
        doc = {"p": p, "n": n, "method": "bfs", "orbit_count": str(formulas.r_formula(p, n)),
               "orbits": [dict(zip(header, row)) for row in listing_rows(p, n)]}
        code, out, _ = run(capsys, "orbits", "--p", str(p), "--n", str(n),
                           "--list", "--format", "json")
        assert (code, out) == (0, json.dumps(doc, indent=2) + "\n")

    @pytest.mark.parametrize("m", [0, 1, 5])
    def test_json_word_listing_is_the_whole_document(self, capsys, m):
        listed = ["".join(map(str, letters)) for letters in words._words(m)]
        doc = {"m": m, "count": str(words.count_words(m)), "words": listed}
        code, out, _ = run(capsys, "words", "--m", str(m), "--list", "--format", "json")
        assert (code, out) == (0, json.dumps(doc, indent=2) + "\n")
        assert doc["count"] == str(len(listed))  # the count known before the walk

    def test_edge_inputs_exit_cleanly(self, capsys):
        # every command at and past the ends of its domain, in every format:
        # an answer or a refusal (exit 0 to 3), never a traceback
        argvs = [["orbits", "--p", str(p), "--n", str(n), "--method", method, *listed]
                 for p in (-1, 0, 1, 2, 4) for n in (-1, 0, 2)
                 for method in ("bfs", "canonical", "burnside", "formula")
                 for listed in ([], ["--list"])]
        argvs += [["words", "--m", str(m), *listed]
                  for m in (-1, 0, 2) for listed in ([], ["--list"])]
        argvs += [["verify", "--m-max", str(m)] for m in (-1, 0, 2)]
        argvs += [["verify", "--p", str(p), "--m-max", str(m)]
                  for p in (-1, 0, 1, 4, 1021) for m in (0, 2)]
        argvs = [[*argv, *budget] for argv in argvs for budget in ([], ["--budget", "0"])]
        argvs += [["sequence", "--p", str(p), "--n-max", str(n)]
                     for p in (-1, 2, 4) for n in (-1, 0, 2)]
        argvs += [["encode", word]  # the last an Arabic-Indic digit one
                  for word in ("", "1", "0", "13", "x", "\u0661")]
        runs = [[*argv, "--format", fmt] for argv in argvs for fmt in ("text", "csv", "json")]
        assert len(runs) == 879
        failed = []
        for argv in runs:
            try:
                code = run(capsys, *argv)[0]
            except Exception as exc:  # a traceback: what this sweep looks for
                code = repr(exc)
            if code not in range(4):
                failed.append((argv, code))
        assert failed == []

    def test_cold_import_loads_only_what_runs(self):
        # dataclasses would pull in inspect, dis, ast and tokenize, and json
        # and csv load only where those formats are written.  Sets, not the
        # module list, as site may have loaded typing before orbitlab
        program = ("import sys\n"
                   "before = set(sys.modules)\n"
                   "from orbitlab import cli\n"
                   "print(*sorted(set(sys.modules) - before))\n"
                   "cli.main(['sequence', '--p', '2', '--n-max', '3'])\n"
                   "print(*sorted(set(sys.modules) - before))\n")
        result = python_run("-c", program, timeout=30)
        imported, *table, after = result.stdout.splitlines()
        assert (result.returncode, table) == (0, ["0 1", "1 2", "2 5", "3 15"])
        heavy = {"dataclasses", "inspect", "dis", "ast", "tokenize", "typing", "json", "csv"}
        assert "orbitlab.cli" in imported.split()
        assert heavy & set(imported.split()) == set()
        assert {"json", "csv"} & set(after.split()) == set()

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


CSV_LISTINGS = ["orbits --p 2 --n 0 --list", "orbits --p 2 --n 6 --list",
                "orbits --p 3 --n 3 --list", "orbits --p 11 --n 2 --list",
                "orbits --p 13 --n 3 --list --method formula",
                "words --m 0 --list", "words --m 7 --list"]


@pytest.mark.parametrize("command", [c for c, fmt in GOLDEN if fmt == "csv"] + CSV_LISTINGS)
def test_csv_is_what_csv_writer_writes(capsys, command):
    # the emitter joins the fields itself: csv's reader and writer must
    # give back the same bytes
    code, out, _ = run(capsys, *command.split(), "--format", "csv")
    written = io.StringIO()
    csv.writer(written, lineterminator="\n").writerows(csv.reader(io.StringIO(out)))
    assert (code, written.getvalue()) == (0, out)
