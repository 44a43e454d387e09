#!/usr/bin/env python3
"""Print the small worlds side by side: orbit class listings over Z_2^n for
n = 1, 2, the word tables for m <= 3, and where each word lands under the
bit-row encoding.  Handy for eyeballing the word <-> orbit correspondence.
Everything is read on packed state indices, each word's from its letters
by the bridge's encoder, and printed by the CLI's state formatter."""

import argparse
import sys

from orbitlab.bridge import _word_index
from orbitlab.budget import check_budget
from orbitlab.cli import main, state_formatter
from orbitlab.orbits import _least, orbit_summaries
from orbitlab.residues import GroupSpec
from orbitlab.words import _blocks, _checked, count_words, spell


def show_orbits(n: int) -> None:
    spec = GroupSpec(2, n)
    fmt = state_formatter(spec)
    least = _least(spec)
    print(f"orbit classes over Z_2^{n} ({spec.state_count} states):")
    for idx, orbit in enumerate(orbit_summaries(spec), 1):
        listing = "  ~  ".join(fmt(i) for i in range(spec.state_count) if least(i) == orbit.index)
        print(f"  ({idx}) size {orbit.size}, stabilizer {orbit.stabilizer_order}: {listing}")
    print()


def show_words(m: int) -> None:
    print(f"{count_words(m)} words of length {m}, with their encoded classes:")
    spec = GroupSpec(2, m)
    fmt = state_formatter(spec)
    least = _least(spec)
    for block in _checked(*_blocks(m)):  # streamed: no word list is held
        for letters in block:
            word, i = spell(letters), _word_index(letters, m)
            print(f"  {word}  ->  [{fmt(i)}]  class [{fmt(least(i))}]")
    print()


def run(args) -> int:
    if args.m_max < 0:
        raise ValueError(f"m-max must be >= 0, got {args.m_max}")
    check_budget(4, args.m_max)  # the longest words are the most: refused before anything prints
    for n in (1, 2):
        show_orbits(n)
    for m in range(1, args.m_max + 1):
        show_words(m)
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m-max", type=int, default=3)
    parser.set_defaults(run=run)
    sys.exit(main(parser=parser))
