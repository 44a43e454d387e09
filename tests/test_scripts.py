"""Smoke runs of the scripts: they import the CLI and the engines directly,
so an interface change that breaks them fails here.  Both run through the
CLI's runner, so they refuse, exit and end on a closed pipe as it does."""

import re
import runpy
import sys
from pathlib import Path

import pytest

from oracles import python_head, python_peak, python_run
from orbitlab import cli, orbits
from orbitlab.orbits import CensusReport

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
GRID_HEADER = ("  p   n     states        count   bfs[s]  canon[s]  burn[s]  "
               "list[s] bridge[s]")


@pytest.mark.parametrize("script,args,expected_line", [
    ("show_small_cases.py", ["--m-max", "2"], "  23  ->  [10 11]  class [01 10]"),
    ("grid_agreement.py", ["--p2-max", "4"], "all methods agree with the closed form"),
])
def test_script_runs(script, args, expected_line):
    result = python_run(str(SCRIPTS / script), *args, timeout=60)
    assert (result.returncode, result.stderr) == (0, "")
    assert expected_line in result.stdout.splitlines()


@pytest.mark.parametrize("script,args", [
    ("grid_agreement.py", ["--p2-max", "15"]),  # 2^30 states at p = 2, n = 15
    ("show_small_cases.py", ["--m-max", "15"]),  # 4^15 states' worth of words
])
def test_script_refuses_before_any_row(script, args):
    # the whole run is charged once, before the first row: sweeping the
    # rows below the refused one would take minutes and hundreds of MiB
    result = python_run(str(SCRIPTS / script), *args, timeout=10)
    assert result.returncode == 3 and result.stdout == ""
    assert "exceed the budget" in result.stderr


@pytest.mark.parametrize("script,args,err", [
    ("grid_agreement.py", ["--p2-max", "-3"], "error: p2-max must be >= 0, got -3\n"),
    ("show_small_cases.py", ["--m-max", "-1"], "error: m-max must be >= 0, got -1\n"),
])
def test_script_refuses_a_negative_bound(script, args, err):
    result = python_run(str(SCRIPTS / script), *args, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (2, "", err)


@pytest.mark.parametrize("script,args", [
    ("grid_agreement.py", ["--p2-max", "9"]),
    ("show_small_cases.py", ["--m-max", "8"]),  # more than a pipe buffer of rows
])
def test_script_closed_pipe_ends_quietly(script, args):
    # as in `| head -1`; unbuffered, so rows are still written after the close
    first, code, err = python_head(str(SCRIPTS / script), *args, timeout=60,
                                   env={"PYTHONUNBUFFERED": "1"})
    assert first != ""
    assert (code, err) == (0, "")


def test_grid_memory_is_bounded():
    # the listing is walked, not held: one record per orbit lifted the
    # peak to 41 MiB
    script = str(SCRIPTS / "grid_agreement.py")
    code, out, peak = python_peak(f"import runpy, sys\nsys.argv = [{script!r}, '--p2-max', '10']\n"
                                  "runpy.run_path(sys.argv[0], run_name='__main__')", timeout=60)
    assert code == 0
    assert out.splitlines()[-1] == "all methods agree with the closed form"
    assert peak < 24 * 1024


def run_grid_with_a_wrong_route(monkeypatch, capsys, wrong_runs):
    """grid_agreement.py --p2-max 3 in-process, with the canonical count
    of (3, 2) one too high on the runs of that cell numbered in wrong_runs;
    return the exit code, stdout, stderr and how often that cell was counted."""
    real, calls = orbits.count_orbits_canonical, []

    def canonical(spec):
        if (spec.p, spec.n) != (3, 2):
            return real(spec)
        calls.append(spec)
        return CensusReport(8 if len(calls) - 1 in wrong_runs else 7)
    monkeypatch.setattr(orbits, "count_orbits_canonical", canonical)
    monkeypatch.setattr(sys, "argv", ["grid_agreement.py", "--p2-max", "3"])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(SCRIPTS / "grid_agreement.py"), run_name="__main__")
    out, err = capsys.readouterr()
    return exit_.value.code, out, err, len(calls)


GRID_MISMATCH = ("grid_agreement: p=3 n=2 FAIL bfs=7 canonical=8 burnside=7 "
                 "formula=7 listed=7 covered=81\n1 mismatching cells\n")


def test_grid_mismatch_evidence(monkeypatch, capsys):
    # one route wrong at one cell: its evidence goes to stderr, and the
    # stdout rows keep their columns
    code, out, err, _ = run_grid_with_a_wrong_route(monkeypatch, capsys, {0, 1, 2})
    assert (code, err) == (1, GRID_MISMATCH)
    header, *rows = out.splitlines()
    assert header == GRID_HEADER and len(rows) == 4 + 6 + 4 + 3
    row = re.compile(r" *\d+ +\d+ +\d+ +\d+( +\d+\.\d{3}){4} +(\d+\.\d{3}|-)")
    assert all(row.fullmatch(line) for line in rows), rows


def test_grid_judges_every_run(monkeypatch, capsys):
    # each cell runs three times for its timings, and a route wrong in the
    # second run alone still fails the cell, with that run's evidence
    code, _, err, counted = run_grid_with_a_wrong_route(monkeypatch, capsys, {1})
    assert (code, err, counted) == (1, GRID_MISMATCH, 3)


def test_grid_times_are_the_least_of_three(monkeypatch, capsys):
    # each timing column is the least of the cell's three runs
    real, seconds = cli.check_cell, iter([0.5, 0.2, 0.9] * 17)

    def check_cell(spec):
        values, times = real(spec)
        return values, dict.fromkeys(times, next(seconds))
    monkeypatch.setattr(cli, "check_cell", check_cell)
    monkeypatch.setattr(sys, "argv", ["grid_agreement.py", "--p2-max", "3"])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(SCRIPTS / "grid_agreement.py"), run_name="__main__")
    header, *rows, verdict = capsys.readouterr().out.splitlines()
    assert exit_.value.code == 0 and len(rows) == 4 + 6 + 4 + 3
    for line in rows:
        assert line.split()[4:8] == ["0.200"] * 4, line


SMALL_CASES_M2 = """\
orbit classes over Z_2^1 (4 states):
  (1) size 1, stabilizer 6: 00
  (2) size 3, stabilizer 2: 01  ~  10  ~  11

orbit classes over Z_2^2 (16 states):
  (1) size 1, stabilizer 6: 00 00
  (2) size 3, stabilizer 2: 00 01  ~  00 10  ~  00 11
  (3) size 3, stabilizer 2: 01 00  ~  10 00  ~  11 00
  (4) size 3, stabilizer 2: 01 01  ~  10 10  ~  11 11
  (5) size 6, stabilizer 1: 01 10  ~  01 11  ~  10 01  ~  11 01  ~  10 11  ~  11 10

2 words of length 1, with their encoded classes:
  1  ->  [00]  class [00]
  2  ->  [10]  class [01]

5 words of length 2, with their encoded classes:
  11  ->  [00 00]  class [00 00]
  12  ->  [00 10]  class [00 01]
  21  ->  [10 00]  class [01 00]
  22  ->  [10 10]  class [01 01]
  23  ->  [10 11]  class [01 10]

"""


def test_show_small_cases_whole_output():
    # every orbit's members, every word, its rows and its class
    result = python_run(str(SCRIPTS / "show_small_cases.py"), "--m-max", "2", timeout=60)
    assert (result.returncode, result.stderr, result.stdout) == (0, "", SMALL_CASES_M2)
