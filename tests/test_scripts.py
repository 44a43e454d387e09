"""A whole run of scripts/show_small_cases.py: it imports the CLI and the
engines directly, so an interface change that breaks it fails here.  It runs
through the CLI's runner, so it refuses, exits and ends on a closed pipe as
the subcommands do: those runs are rows of test_cli.py's REFUSED and PIPES
tables.  The agreement grid over every prime is `orbitlab verify --p`,
tested with the CLI."""

from pathlib import Path

from oracles import python_run

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

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
