"""Smoke runs of the scripts: they import the CLI and the engines directly,
so an interface change that breaks them fails here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(script, args, timeout=60):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})


@pytest.mark.parametrize("script,args,expected_line", [
    ("show_small_cases.py", ["--m-max", "2"], "  23  ->  [10 11]  class [01 10]"),
    ("grid_agreement.py", ["--p2-max", "4"], "all methods agree with the closed form"),
])
def test_script_runs(script, args, expected_line):
    result = _run(script, args)
    assert (result.returncode, result.stderr) == (0, "")
    assert expected_line in result.stdout.splitlines()


@pytest.mark.parametrize("script,args", [
    ("grid_agreement.py", ["--p2-max", "15"]),  # 2^30 states at p = 2, n = 15
    ("show_small_cases.py", ["--m-max", "15"]),  # 4^15 states' worth of words
])
def test_script_refuses_before_any_row(script, args):
    # the whole run is charged once, before the first row: sweeping the
    # rows below the refused one would take minutes and hundreds of MiB
    result = _run(script, args, timeout=10)
    assert result.returncode != 0 and result.stdout == ""
    assert "exceed the budget" in result.stderr


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
    result = _run("show_small_cases.py", ["--m-max", "2"])
    assert (result.returncode, result.stderr, result.stdout) == (0, "", SMALL_CASES_M2)
