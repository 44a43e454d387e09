"""The CLI output corpus: the exit code, stdout and stderr of every argv that
argvs() lists, replayed through cli.main in this process, one JSON line per
run in cli_corpus.jsonl.  tests/test_cli.py replays it;

    PYTHONPATH=src python tests/cli_corpus.py

is the one way the file is written: it rewrites it and prints each entry
that changed.  A stdout over LONG characters is kept as its sha256 and byte
length, shorter text in full.  Where stderr is argparse's usage error it is
kept as null, since argparse's wording differs between Python releases and
its usage text wraps at COLUMNS: the replay then checks only exit 2, no
stdout and the USAGE prefix.  orbitlab's own error lines are kept in full.
"""

import contextlib
import hashlib
import io
import json
import shlex
import sys
from pathlib import Path

from orbitlab import cli

PATH = Path(__file__).with_suffix(".jsonl")
LONG = 400
USAGE = "usage: orbitlab"
FORMATS = ("text", "csv", "json")
METHODS = ("bfs", "canonical", "burnside", "formula")
# one parser for every replay, as parse_args leaves it unchanged: building
# it is half the cost of a short run
PARSER = cli.build_parser()


def argvs() -> list[list[str]]:
    """Every argv of the corpus, each once, in a fixed order."""
    # every command at and past the ends of its domain
    edge = [["orbits", "--p", str(p), "--n", str(n), "--method", method, *listed]
            for p in (-1, 0, 1, 2, 4) for n in (-1, 0, 2)
            for method in METHODS for listed in ([], ["--list"])]
    edge += [["words", "--m", str(m), *listed] for m in (-1, 0, 2) for listed in ([], ["--list"])]
    edge += [["verify", "--m-max", str(m)] for m in (-1, 0, 2)]
    edge += [["verify", "--p", str(p), "--m-max", str(m)]
             for p in (-1, 0, 1, 4, 1021) for m in (0, 2)]
    edge = [[*argv, *budget] for argv in edge for budget in ([], ["--budget", "0"])]
    edge += [["sequence", "--p", str(p), "--n-max", str(n)]
             for p in (-1, 2, 4) for n in (-1, 0, 2)]
    edge += [["encode", word] for word in ("", "1", "0", "13", "x", "\u0661")]  # Arabic-Indic 1
    # each subcommand's answers: counts by every method, the orbit and word
    # listings of the parity grid, encodings, both verify sweeps, sequences
    grid = [f"orbits --p 3 --n 2 --method {method}" for method in METHODS]
    grid += [f"orbits --p {p} --n {n} --list" for p, n in ((2, 0), (2, 2), (2, 6), (3, 3),
                                                          (11, 1), (11, 2))]
    grid += [f"orbits --p {p} --n {n} --list --method formula"
             for p, n_max in ((2, 9), (3, 5), (5, 3), (7, 3), (11, 2), (13, 3), (31, 2), (1021, 1))
             for n in range(n_max + 1)]
    grid += ["words --m 3", *(f"words --m {m} --list" for m in range(10))]
    grid += [f"encode {word}" for word in ("1", "11", "234", "2113", "1234" * 4 + "1")]
    grid += [f"verify --m-max {m}" for m in range(1, 9)]
    grid += [f"verify --p {p} --m-max {m}" for p, m in ((3, 5), (5, 3), (7, 2), (11, 2), (13, 2))]
    grid += ["sequence --p 3 --n-max 3", "sequence --p 2 --n-max 30", "sequence --p 9 --n-max 3"]
    runs = [[*argv, "--format", fmt] for argv in edge + [command.split() for command in grid]
            for fmt in FORMATS]
    # as single-command tests typed them, most without --format: text
    typed = [["orbits", "--p", p, "--n", n, "--method", method, *listed]
             for p in ("1", "4", "6") for n in ("0", "2")
             for method in METHODS for listed in ([], ["--list"])]
    typed += [["encode", ""], *(command.split() for command in (
        "orbits --p 2 --n 2 --method bfs", "orbits --p 2 --n 0 --method formula",
        "orbits --p 3 --n 2 --method burnside", "orbits --p 6 --n 1 --method bfs",
        "orbits --p 6 --n 1 --list", "orbits --p 2 --n 0 --list", "orbits --p 2",
        "orbits --p 2 --n 1 --method foo", "orbits --p 2 --n 8 --budget 100",
        "orbits --p 7 --n 1 --method burnside --budget 48",
        "orbits --p 7 --n 1 --method burnside --budget 49", "orbits --p 2 --n 3 --budget 10",
        "orbits --p 2 --n 3 --list --method formula --budget 63", "orbits --p 2 --n 3000",
        "orbits --p 1009 --n 700 --list --method burnside", "orbits --p 2 --n 20000",
        "orbits --p 2 --n 3000 --list --format csv", "orbits --p 2 --n 3000 --list --format json",
        "orbits --p 2 --n 2 --format json", "orbits --p 2 --n 6 --method formula --format csv",
        "words --m 0", "words --m 3", "words --m 2 --list", "words --m 5 --list --budget 100",
        "words --m 5000 --list", "words --m 5000 --list --format csv", "words --m 50000 --list",
        "encode 234", "encode 11", "encode 13", "verify --m-max 1", "verify --m-max 4",
        "verify --m-max 0", "verify --m-max 20000", "verify --m-max 6 --budget 100",
        "verify --p 4 --m-max 2", "verify --p 4 --m-max 0", "verify --p 1 --m-max 2 --budget 0",
        "verify --p 3 --m-max 5 --budget 59048", "verify --p 1021 --m-max 2",
        "sequence --p 2 --n-max 0", "sequence --p 2 --n-max 6 --format csv",
        "sequence --p 2 --n-max 20 --format json", "sequence --p 3 --n-max 3",
        "sequence --p 9 --n-max 3", "sequence --p 3317044064679887385961991 --n-max 1",
        "nonsense"))]
    return [list(argv) for argv in dict.fromkeys(map(tuple, runs + typed))]


def replay(argv) -> tuple[int, str, str]:
    """Run cli.main(argv) in this process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv), PARSER)
    return code, out.getvalue(), err.getvalue()


def entry(argv) -> dict:
    """The corpus line of one replay of argv."""
    code, out, err = replay(argv)
    if len(out) > LONG:
        data = out.encode()
        out = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    return {"argv": list(argv), "code": code, "stdout": out,
            "stderr": None if err.startswith(USAGE) else err}


def load() -> list[dict]:
    return [json.loads(line) for line in PATH.read_text(encoding="utf-8").splitlines()]


def difference(want: dict, got: dict) -> str | None:
    """Where got first differs from want: the argv, the field and both sides
    around the first differing character; None when they are equal."""
    for field in ("code", "stdout", "stderr"):
        a, b = want[field], got[field]
        if a == b:
            continue
        if isinstance(a, str) and isinstance(b, str):
            i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            a, b = a[max(i - 30, 0):i + 30], b[max(i - 30, 0):i + 30]
            field += f" at character {i}"
        return f"{shlex.join(got['argv'])}: {field}: want {a!r}, got {b!r}"
    return None


def main() -> int:
    old = {tuple(e["argv"]): e for e in load()} if PATH.exists() else {}
    entries = [entry(argv) for argv in argvs()]
    with open(PATH, "w", encoding="utf-8", newline="\n") as file:
        file.writelines(json.dumps(e) + "\n" for e in entries)
    changed = 0
    for e in entries:
        before = old.pop(tuple(e["argv"]), None)
        if before != e:
            changed += 1
            print(difference(before, e) if before else f"{shlex.join(e['argv'])}: new")
    for argv in old:
        print(f"{shlex.join(argv)}: removed")
    print(f"{changed} of {len(entries)} entries changed, {len(old)} removed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
