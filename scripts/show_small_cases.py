#!/usr/bin/env python3
"""Print the small worlds side by side: orbit class listings over Z_2^n for
n = 1, 2, the word tables for m <= 3, and where each word lands under the
bit-row encoding.  Handy for eyeballing the word <-> orbit correspondence."""

import argparse
import sys

from orbitlab.bridge import encode_word
from orbitlab.cli import state_formatter
from orbitlab.orbits import canonical_form, orbit_of, orbit_summaries
from orbitlab.residues import GroupSpec, state_index
from orbitlab.words import enumerate_words


def show_orbits(n: int) -> None:
    spec = GroupSpec.uniform(2, n)
    fmt = state_formatter(spec)
    print(f"orbit classes over Z_2^{n} ({spec.state_count} states):")
    for idx, summary in enumerate(orbit_summaries(spec), 1):
        members = sorted(map(state_index, orbit_of(summary.representative)))
        listing = "  ~  ".join(map(fmt, members))
        print(f"  ({idx}) size {summary.size}, stabilizer {summary.stabilizer_order}: {listing}")
    print()


def show_words(m: int) -> None:
    words = enumerate_words(m)
    print(f"{len(words)} words of length {m}, with their encoded classes:")
    fmt = state_formatter(GroupSpec(2, m))
    for w in words:
        state = encode_word(w)
        print(f"  {w}  ->  [{fmt(state_index(state))}]  "
              f"class [{fmt(state_index(canonical_form(state)))}]")
    print()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m-max", type=int, default=3)
    args = parser.parse_args()
    for n in (1, 2):
        show_orbits(n)
    for m in range(1, args.m_max + 1):
        show_words(m)
    return 0


if __name__ == "__main__":
    sys.exit(main())
