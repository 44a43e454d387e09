#!/usr/bin/env python3
"""Print the small worlds side by side: orbit class listings over Z_2^n for
n = 1, 2, the word tables for m <= 3, and where each word lands under the
bit-row encoding.  Handy for eyeballing the word <-> orbit correspondence.
Everything is read on packed state indices, each word's from its letters
by the bridge's encoder, and printed by the CLI's state formatter."""

import argparse
import sys

from orbitlab.bridge import _word_index
from orbitlab.budget import BudgetExceeded, check_budget
from orbitlab.cli import state_formatter
from orbitlab.orbits import _canonical_engine, orbit_summaries
from orbitlab.residues import GroupSpec
from orbitlab.words import _SPELLING, _words, count_words


def show_orbits(n: int) -> None:
    spec = GroupSpec(2, n)
    fmt = state_formatter(spec)
    least, _ = _canonical_engine(spec)
    print(f"orbit classes over Z_2^{n} ({spec.state_count} states):")
    for idx, summary in enumerate(orbit_summaries(spec), 1):
        members = [i for i in range(spec.state_count) if least(i) == summary.index]
        listing = "  ~  ".join(map(fmt, members))
        print(f"  ({idx}) size {summary.size}, stabilizer {summary.stabilizer_order}: {listing}")
    print()


def show_words(m: int) -> None:
    print(f"{count_words(m)} words of length {m}, with their encoded classes:")
    spec = GroupSpec(2, m)
    fmt = state_formatter(spec)
    least, _ = _canonical_engine(spec)
    for letters in _words(m):  # streamed: no word list is held
        word, i = bytes(letters).translate(_SPELLING).decode(), _word_index(letters, m)
        print(f"  {word}  ->  [{fmt(i)}]  class [{fmt(least(i))}]")
    print()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m-max", type=int, default=3)
    args = parser.parse_args()
    try:  # the longest words are the most: refused before anything prints
        check_budget(4, args.m_max)
    except BudgetExceeded as exc:
        parser.error(str(exc))
    for n in (1, 2):
        show_orbits(n)
    for m in range(1, args.m_max + 1):
        show_words(m)
    return 0


if __name__ == "__main__":
    sys.exit(main())
