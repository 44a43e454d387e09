import csv
import io
import json
import math
import os
import random
import shlex
from pathlib import Path

import pytest

import cli_corpus
from oracles import (
    PARITY_GRID,
    blocks_of,
    minima_of,
    python_head,
    python_peak,
    python_run,
    runs_of,
)
from orbitlab import bridge, cli, formulas, orbits, residues, words
from orbitlab.budget import PRINT_DIGITS, BudgetExceeded, check_budget
from orbitlab.orbits import CensusReport
from orbitlab.residues import GroupSpec, state_from_index


ROOT = Path(__file__).resolve().parent.parent


def run(*argv):
    return cli_corpus.replay(argv)


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
    def test_each_answer_sweeps_the_states_at_most_once(self, monkeypatch):
        # _row_moves is built once per BFS visited sweep and nowhere else
        sweeps = []
        real = orbits._row_moves
        monkeypatch.setattr(orbits, "_row_moves",
                            lambda p, n: sweeps.append((p, n)) or real(p, n))
        code, out, _ = run("orbits", "--p", "2", "--n", "3", "--list")
        assert (code, len(out.splitlines()), len(sweeps)) == (0, 15, 1)
        sweeps.clear()
        report = bridge.verify_bridge(4)
        assert report.is_injective_on_orbits and report.is_surjective_on_orbits
        assert sweeps == []

    def test_list_builds_no_state(self, monkeypatch):
        # every row is read off a packed index: neither the summaries nor the
        # CLI build a PairState or a ResidueVector per orbit
        argv = ["orbits", "--p", "2", "--n", "6", "--list", "--format"]
        expected = {fmt: run(*argv, fmt) for fmt in ("text", "csv", "json")}

        def unbuildable(*args, **kwargs):
            raise AssertionError("a state was built")

        for module in (orbits, residues):
            for name in ("PairState", "ResidueVector"):
                monkeypatch.setattr(module, name, unbuildable, raising=False)
        assert len(orbits.orbit_summaries(GroupSpec(2, 6))) == 715
        for fmt, result in expected.items():
            assert result[0] == 0 and run(*argv, fmt) == result, fmt

    @pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (11, 1), (2, 0)])
    def test_format_state_reads_the_index(self, p, n):
        # against the rows of the unpacked state, on every state
        spec = GroupSpec(p, n)
        sep = "" if p <= 10 else ":"
        for i in range(spec.state_count):
            rows = state_from_index(i, spec).rows()
            expected = " ".join(f"{g}{sep}{k}" for g, k in rows) if n else "-"
            assert format_state(i, spec) == expected, i

    # c rows per lookup: the least of n and 6 at p = 2, 3 at p = 3, 2 at
    # p = 5 and 1 from p = 11 on, where p = 67 has p^2 too large for a table.
    # A longer state is cut in parts, and only the top one can be short of
    # c rows: (2, 12) is two whole chunks, (2, 7), (2, 13), (3, 4) and (5, 3)
    # have a one-row top piece and (2, 1000) one of four rows.  From (2, 12)
    # on the states are too many, and are checked on seeded random samples.
    @pytest.mark.parametrize("p,n", [(2, 0), (2, 1), (2, 3), (2, 6), (2, 7), (3, 2), (3, 4),
                                     (5, 3), (11, 1), (11, 2), (13, 2), (67, 1), (2, 12),
                                     (2, 13), (2, 1000), (3, 400), (67, 50)])
    def test_state_formatter_matches_the_oracle(self, p, n):
        spec = GroupSpec(p, n)
        fmt = cli.state_formatter(spec)
        indices = range(spec.state_count)
        if n >= 12:
            rng = random.Random(n)
            indices = [0, 1, spec.group_order - 1, spec.state_count - 1,
                       *(rng.randrange(spec.state_count) for _ in range(20))]
        for i in indices:
            assert fmt(i) == format_state(i, spec), i

    # the listing's rows a piece at a time: on every run of the listing, and
    # on runs from anywhere that cross chunk boundaries; c is 6 at p = 2, so
    # (2, 7) has a head row, the ":" shows from p = 11 on, and at p = 1021
    # the rows come from _Rows
    @pytest.mark.parametrize("p,n", [(2, 0), *PARITY_GRID, (2, 7), (3, 4), (5, 3), (11, 2),
                                     (1021, 1), (1021, 2)])
    def test_runs_match_the_one_row_path(self, p, n):
        spec = GroupSpec(p, n)
        fmt, run = cli._formatters(spec)
        for first, count, _ in orbits._echelon_runs(spec):
            assert list(run(first, count)) == [*map(fmt, range(first, first + count))], first
        c = max(c for c in range(1, max(n, 1) + 1) if c == 1 or p ** (2 * c) <= cli.TABLE_ROWS)
        base, rng = p ** c, random.Random(p * n)
        for _ in range(40 if n else 0):  # each from before a chunk boundary to past it
            edge = base * rng.randrange(1, spec.state_count // base)
            first = edge - rng.randrange(1, base + 1)
            count = min(edge - first + rng.randrange(1, 2 * base), spec.state_count - first)
            assert list(run(first, count)) == [*map(fmt, range(first, first + count))], first

    def test_list_count_mismatch_fails(self, monkeypatch):
        # the listing is no census of its own: a short one must not pass
        minima = minima_of(orbits._echelon_runs(GroupSpec(2, 2)))
        monkeypatch.setattr(orbits, "_echelon_runs", lambda spec: runs_of(minima[:-1]))
        code, out, err = run("orbits", "--p", "2", "--n", "2", "--list", "--method", "canonical")
        assert (code, out) == (1, "")
        assert err == "orbits: canonical counts 5 orbits, the listing has 4\n"

    def test_list_sizes_must_cover_the_states(self, monkeypatch):
        # as many orbits as the count, but one with a wrong size
        minima = minima_of(orbits._echelon_runs(GroupSpec(2, 2)))
        monkeypatch.setattr(orbits, "_echelon_runs",
                            lambda spec: runs_of([*minima[:-1], (9, 3)]))
        code, out, err = run("orbits", "--p", "2", "--n", "2", "--list")
        assert (code, out) == (1, "")
        assert err == "orbits: the listing's sizes sum to 13, not to the 16 states\n"

    def test_list_sizes_must_divide_the_group(self, monkeypatch):
        # as many orbits, covering the 16 states, but sizes 4 and 5 do not divide 6
        minima = minima_of(orbits._echelon_runs(GroupSpec(2, 2)))
        monkeypatch.setattr(orbits, "_echelon_runs", lambda spec: runs_of(
            [*minima[:3], (minima[3][0], 4), (minima[4][0], 5)]))
        code, out, err = run("orbits", "--p", "2", "--n", "2", "--list")
        assert (code, out) == (1, "")
        assert err == "orbits: the listing has an orbit of size 4, which does not divide 6\n"

    def test_list_text(self):
        code, out, _ = run("orbits", "--p", "2", "--n", "1", "--list")
        assert code == 0
        assert out.splitlines() == ["00 1 6", "01 3 2"]
        for p, n in LISTED:
            code, out, _ = run("orbits", "--p", str(p), "--n", str(n), "--list")
            assert (code, out) == (0, "".join(f"{' '.join(row)}\n"
                                              for row in listing_rows(p, n))), (p, n)

    def test_list_csv(self):
        code, out, _ = run("orbits", "--p", "2", "--n", "2", "--list", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["representative", "size", "stabilizer_order"]
        assert len(rows) == 6
        assert sorted(int(r[1]) for r in rows[1:]) == [1, 3, 3, 3, 6]
        for p, n in LISTED:
            code, out, _ = run("orbits", "--p", str(p), "--n", str(n), "--list", "--format", "csv")
            assert code == 0 and "\r" not in out
            assert list(csv.reader(io.StringIO(out))) == [
                ["representative", "size", "stabilizer_order"], *listing_rows(p, n)], (p, n)

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


class TestWords:
    def test_listing_parser_and_word_spell_alike(self):
        # the listing, RGWord and word_from_string read one spelling table
        for m in range(8):
            code, out, _ = run("words", "--m", str(m), "--list")
            lines = out.split("\n")[:-1]
            assert code == 0 and len(lines) == words.count_words(m), m
            for line, letters in zip(lines, words._words(m)):
                assert line == str(words.RGWord(letters))
                assert words.word_from_string(line).letters == letters


class TestEncode:
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


class TestVerify:
    def test_failure_exit_code(self, monkeypatch):
        # simulate a broken count to exercise the failure path
        monkeypatch.setattr(cli.words, "count_words", lambda m: 0)
        code, out, err = run("verify", "--m-max", "2")
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
    def test_bridge_failure_evidence(self, monkeypatch, change, evidence):
        # word 17 at m = 4 is 2113, whose orbit minimum has rows 01 00 00 10
        real = cli.bridge._blocks
        monkeypatch.setattr(
            cli.bridge, "_blocks",
            lambda m: blocks_of(change(list(words._words(m))), m) if m == 4 else real(m))
        code, out, err = run("verify", "--m-max", "4")
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
    def test_listing_failure_evidence(self, monkeypatch, m, change, row, evidence):
        # verify checks the orbit listing with the routes: a listing that is
        # not a census fails the methods column, and the evidence counts it
        real = orbits._echelon_runs
        minima = minima_of(real(GroupSpec(2, m)))
        monkeypatch.setattr(orbits, "_echelon_runs",
                            lambda spec: runs_of(change(minima)) if spec.n == m else real(spec))
        code, out, err = run("verify", "--m-max", str(m))
        assert code == 1
        assert out.splitlines()[-1] == row and out.count("FAIL") == 2  # only at m
        assert err == f"verify: m={m} FAIL {evidence}\n"

    @pytest.mark.parametrize("p,m_max", [(3, 5), (5, 3), (7, 2), (11, 2), (13, 2)])
    def test_every_prime_passes(self, p, m_max):
        # off p = 2 there are no words and no bridge: those columns read "-"
        code, out, err = run("verify", "--p", str(p), "--m-max", str(m_max))
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

    def test_mismatch_evidence_off_p2(self, monkeypatch):
        # one route wrong at one cell: its evidence goes to stderr, without
        # the word keys, and only that row fails
        real = orbits.count_orbits_canonical
        monkeypatch.setattr(orbits, "count_orbits_canonical", lambda spec: CensusReport(8)
                            if (spec.p, spec.n) == (3, 2) else real(spec))
        code, out, err = run("verify", "--p", "3", "--m-max", "3")
        assert code == 1
        assert out.splitlines()[1:] == ["1 PASS PASS - - PASS 2", "2 FAIL PASS - - FAIL 7",
                                        "3 PASS PASS - - PASS 40"]
        assert err == ("verify: m=2 FAIL bfs=7 canonical=8 burnside=7 formula=7 "
                       "listed=7 covered=81\n")


class TestContract:
    @pytest.mark.parametrize("argv", [
        "encode 234 --budget 5",
        "sequence --p 2 --n-max 3 --budget 5",
    ])
    def test_budget_only_where_states_are_visited(self, argv):
        code, out, err = run(*argv.split())
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --budget 5" in err

    def test_digit_limit_is_exact(self):
        # count_words(m) crosses the limit inside this window; nothing that
        # prints is refused and every refusal is the early one
        for m in range(7138, 7150):
            code, out, err = run("words", "--m", str(m))
            if words.count_words(m) < 10 ** PRINT_DIGITS:
                assert (code, out, err) == (0, f"{words.count_words(m)}\n", ""), m
            else:
                assert (code, out) == (2, ""), m
                assert f"more than the {PRINT_DIGITS}" in err

    def test_long_counts_under_the_limit_print(self):
        code, out, _ = run("sequence", "--p", "2", "--n-max", "7000")
        assert code == 0 and len(out.splitlines()[-1].split()[1]) == 4214
        code, out, _ = run("words", "--m", "7000")
        assert code == 0 and len(out.strip()) == 4214

    @pytest.mark.parametrize("argv", [
        "orbits --p 2 --n 3 --budget -1",
        "words --m 3 --budget -5",
        "verify --m-max 3 --budget -1",
    ])
    def test_negative_budget_is_a_usage_error(self, argv):
        code, out, err = run(*argv.split())
        assert (code, out) == (2, "")
        assert f"budget must be >= 0, got {argv.split()[-1]}" in err

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_budget_refused_before_any_engine(self, monkeypatch, fmt):
        # each command charges its budget once, up front; the engines only compute
        def unreachable(*args):
            raise AssertionError("an engine ran on an over-budget command")
        for module, name in [(orbits, "count_orbits_bfs"), (orbits, "count_orbits_canonical"),
                             (orbits, "count_orbits_burnside"), (orbits, "_echelon_runs"),
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
            assert run(*argv.split(), "--format", fmt) == (3, "", err), argv

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_burnside_budget_counts_diagonals(self, n):
        # p^2 = 25 diagonals at every n, the trivial group included
        argv = ["orbits", "--p", "5", "--n", str(n), "--method", "burnside", "--budget"]
        assert run(*argv, "25") == (0, f"{formulas.r_formula(5, n)}\n", "")
        assert run(*argv, "24") == (
            3, "", "error: 25 diagonals exceed the budget of 24\n")

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

    @pytest.mark.parametrize("p,n", [(2, 0), (2, 3), (3, 2), (11, 1), (67, 1)])
    def test_json_orbit_listing_is_the_whole_document(self, p, n):
        # the streamed rows against the document built whole, dumped at once
        header = ["representative", "size", "stabilizer_order"]
        doc = {"p": p, "n": n, "method": "bfs", "orbit_count": str(formulas.r_formula(p, n)),
               "orbits": [dict(zip(header, row)) for row in listing_rows(p, n)]}
        code, out, _ = run("orbits", "--p", str(p), "--n", str(n), "--list", "--format", "json")
        assert (code, out) == (0, json.dumps(doc, indent=2) + "\n")

    @pytest.mark.parametrize("m", [0, 1, 5])
    def test_json_word_listing_is_the_whole_document(self, m):
        listed = ["".join(map(str, letters)) for letters in words._words(m)]
        doc = {"m": m, "count": str(words.count_words(m)), "words": listed}
        code, out, _ = run("words", "--m", str(m), "--list", "--format", "json")
        assert (code, out) == (0, json.dumps(doc, indent=2) + "\n")
        assert doc["count"] == str(len(listed))  # the count known before the walk

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


# Fresh-process contracts, one table each.  A row is an argv: one that starts
# with a script's path runs that script, any other runs `python -m orbitlab`.

# argv -> stdout: the run exits 0 with empty stderr within 10 s
FINISHES = {
    # 1,018,081 states, each decided by row reduction, not by 1e9 matrices
    "orbits --p 1009 --n 1 --method canonical": "2\n",
    "orbits --p 1009 --n 1 --method burnside": "2\n",  # O(p^2): about a million diagonals
    # two orbits at n = 1: the listing must not build all p vectors
    "orbits --p 1000000007 --n 1 --list --method formula --budget 10000000000000000000":
        "0:0 1 1000000021000000146000000336\n0:1 1000000014000000048 1000000007\n",
    # 2^61 - 1: trial division would need ~1.5e9 steps per primality test
    "sequence --p 2305843009213693951 --n-max 1": "0 1\n1 2\n",
}

over_budget = "error: at least 2^{} states exceed the budget of 268435456\n".format
too_long = "error: the count has {} digits, more than the 4300 that orbitlab prints\n".format
diagonals = "error: 10000600009 diagonals exceed the budget of 268435456\n"

# inputs whose state count or printed count is far too large: argv -> exit
# code and stderr, with nothing on stdout, within 10 s
REFUSED = {
    "orbits --p 3 --n 100000000 --method bfs": (3, over_budget(200000000)),
    "orbits --p 3 --n 100000000 --method canonical": (3, over_budget(200000000)),
    "orbits --p 3 --n 100000000 --list": (3, over_budget(200000000)),
    "orbits --p 1000003 --n 10000000": (3, over_budget(380000000)),
    "verify --m-max 20000": (3, over_budget(40000)),
    "words --m 50000 --list": (3, over_budget(100000)),
    # 3^14000 is computed, and too long to print
    "orbits --p 3 --n 7000 --list": (3, over_budget(22189)),
    # 100003^2 diagonals would take about an hour; refused at once
    "orbits --p 100003 --n 0 --method burnside": (3, diagonals),
    "orbits --p 100003 --n 1 --method burnside": (3, diagonals),
    # 4^15 states' worth of words, charged once before the first row:
    # sweeping the rows below the refused one would take minutes and
    # hundreds of MiB
    "scripts/show_small_cases.py --m-max 15":
        (3, "error: 1073741824 states exceed the budget of 268435456\n"),
    "scripts/show_small_cases.py --m-max -1": (2, "error: m-max must be >= 0, got -1\n"),
    "words --m 100000000": (2, too_long(60205999)),
    "orbits --p 2 --n 1000000000 --method formula": (2, too_long(602059991)),
    "orbits --p 2 --n 100000000 --method burnside": (2, too_long(60205999)),
    "sequence --p 2 --n-max 20000": (2, too_long(12041)),
    # refused before the count is computed, which would take seconds to hours
    "orbits --p 1009 --n 20000 --method burnside": (2, too_long(120147)),
    "orbits --p 2 --n 1000000 --method formula": (2, too_long(602060)),
    "words --m 50000": (2, too_long(30103)),
}

# argv -> stdout, or its number of lines, and the cap on the run's VmHWM in
# MiB: cli.main in a fresh interpreter, exit 0 and nothing on stderr
PEAKS = {
    # row reduction holds O(n) values per state and no per-matrix table
    "orbits --p 31 --n 1 --method canonical": ("2\n", 128),
    # the one row splits between its digits into p-entry tables: a
    # p^2-entry one would be as long as the state count and lift the
    # peak past 50 MiB
    "orbits --p 1021 --n 1 --method bfs": ("2\n", 32),
    # one state and no row: move tables built over all p^2 row digits
    # anyway took 7.9 s and peaked at 705 MiB
    "orbits --p 3001 --n 0 --method bfs": ("1\n", 32),
    # orbits of 29,760 states beside a 923,521-byte visited map: the
    # sweep's peak stays near the interpreter's own, about 16 MiB
    "orbits --p 31 --n 2 --method bfs": ("63\n", 32),
    # 700,075 orbits, most of them yielded in bulk above free head
    # orbits, beside a 4 MiB visited map: held as a list of pairs they
    # would lift the peak past 80 MiB
    "orbits --p 2 --n 11 --method bfs": ("700075\n", 32),
    # rows stream from the echelon runs as they are made: the peak holds
    # no summaries list and no copy of the text
    "orbits --p 2 --n 10 --list --method formula --format text": (175275, 64),
    "orbits --p 2 --n 10 --list --method formula --format csv": (175276, 64),
    # the words go out as the walk yields them: no word list is held
    "words --m 10 --list --format text": (175275, 32),
    "words --m 10 --list --format csv": (175276, 32),
    # the bridge streams its words and holds no word list or image map:
    # at m = 10 that list and map alone lifted the peak past 70 MiB, and
    # one record per listed orbit to 41 MiB; both walked, it is 16 MiB
    "verify --m-max 10": ("m methods formula words bridge result r\n" + "".join(
        f"{m} PASS PASS PASS PASS PASS {r}\n" for m, r in enumerate(
            [2, 5, 15, 51, 187, 715, 2795, 11051, 43947, 175275], 1)), 24),
}

# argv -> first line and env: as in `argv | head -1`, the run exits 0 with
# empty stderr within 30 s.  Unbuffered, rows are still written after the close
UNBUFFERED = {"PYTHONUNBUFFERED": "1"}
PIPES = {
    "orbits --p 2 --n 9 --list --method formula": ("00 00 00 00 00 00 00 00 00 1 6\n", None),
    # json goes out in chunks too, so the reader may be gone mid-document
    "orbits --p 2 --n 9 --list --format json": ("{\n", None),
    # far deeper than Python's recursion limit
    f"words --m 1100 --list --budget {4 ** 1100}": ("1" * 1100 + "\n", None),
    "verify --p 3 --m-max 5": ("m methods formula words bridge result r\n", UNBUFFERED),
    # more than a pipe buffer of rows
    "scripts/show_small_cases.py --m-max 8":
        ("orbit classes over Z_2^1 (4 states):\n", UNBUFFERED),
}


def python_args(argv):
    """The interpreter's arguments for a row's argv."""
    args = argv.split()
    if args[0].endswith(".py"):
        return [str(ROOT / args[0]), *args[1:]]
    return ["-m", "orbitlab", *args]


@pytest.mark.parametrize("argv", FINISHES)
def test_finishes(argv):
    result = python_run(*python_args(argv), timeout=10)
    assert (result.returncode, result.stderr, result.stdout) == (0, "", FINISHES[argv])


@pytest.mark.parametrize("argv,digits", [
    pytest.param(argv, digits, id=argv if digits is None
                 else f"{argv} PYTHONINTMAXSTRDIGITS={digits}")
    for argv in REFUSED for digits in (None, "0", "640", "100000")])
def test_refused_fast(argv, digits):
    # exit 3 is refused from a lower bound on the state count, exit 2 from
    # one on the printed count: neither is computed, and neither refusal
    # depends on the interpreter's digit setting (None: not set)
    code, err = REFUSED[argv]
    result = python_run(*python_args(argv), timeout=10, env={"PYTHONINTMAXSTRDIGITS": digits})
    assert (result.returncode, result.stdout, result.stderr) == (code, "", err)


@pytest.mark.parametrize("argv", PEAKS)
def test_peak(argv):
    want, cap = PEAKS[argv]
    code, out, peak = run_measured(*argv.split())
    assert (code, out if isinstance(want, str) else len(out.splitlines())) == (0, want)
    assert peak < cap * 1024


@pytest.mark.parametrize("argv", PIPES)
def test_closed_pipe_ends_quietly(argv):
    first, env = PIPES[argv]
    assert python_head(*python_args(argv), timeout=30, env=env) == (first, 0, "")


def test_cli_corpus():
    # every argv's exit code, stdout and stderr as cli_corpus.jsonl holds
    # them; `python tests/cli_corpus.py` rewrites it when an output changes
    listed, stored = cli_corpus.argvs(), cli_corpus.load()
    assert len(set(map(tuple, listed))) == len(listed)
    assert [want["argv"] for want in stored] == listed, "cli_corpus.jsonl is not argvs()'s list"
    faults = []
    for want in stored:
        if want["stderr"] is None:  # argparse's usage error, worded by the Python release
            assert (want["code"], want["stdout"]) == (2, ""), want["argv"]
        if fault := cli_corpus.difference(want, cli_corpus.entry(want["argv"])):
            faults.append(fault)
    assert not faults, f"{len(faults)} of {len(stored)} runs differ:\n" + "\n".join(faults)


@pytest.mark.parametrize("argv", [argv for argv in cli_corpus.argvs() if argv[-1] == "csv"],
                         ids=shlex.join)
def test_csv_is_what_csv_writer_writes(argv):
    # the emitter joins the fields itself: csv's reader and writer must
    # give back the same bytes
    out = cli_corpus.replay(argv)[1]
    written = io.StringIO()
    csv.writer(written, lineterminator="\n").writerows(csv.reader(io.StringIO(out)))
    assert written.getvalue() == out
