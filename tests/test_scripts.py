"""Smoke runs of the scripts: they import the CLI and the engines directly,
so an interface change that breaks them fails here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,args,expected_line", [
    ("show_small_cases.py", ["--m-max", "2"], "  23  ->  [10 11]  class [01 10]"),
    ("grid_agreement.py", ["--p2-max", "4"], "all methods agree with the closed form"),
])
def test_script_runs(script, args, expected_line):
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert (result.returncode, result.stderr) == (0, "")
    assert expected_line in result.stdout.splitlines()
