"""The letter-to-bit-row map from words into pair states over Z_2.

Each letter becomes one row of an m x 2 bit matrix (1 -> 00, 2 -> 10,
3 -> 11, 4 -> 01).  verify_bridge machine-checks that composing with the
canonical form, (min, middle) of the bit rows {g, k, g ^ k}, hits every
orbit exactly once: bijectivity is checked, never assumed.  Injectivity is
a scan for words sharing a canonical image; surjectivity is pigeonhole,
since each image is its orbit's minimum, against the independent Burnside
count (four diagonals at p = 2).  Only when that fails does it sweep the
states, testing each for the shape of an orbit minimum, for the missed
orbits, as explicit certificates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budget import check_budget
from .orbits import _canonical_engine, count_orbits_burnside
from .residues import GroupSpec, PairState, ResidueVector, state_from_index
from .words import RGWord, enumerate_words

_LETTER_BITS = {1: (0, 0), 2: (1, 0), 3: (1, 1), 4: (0, 1)}


@dataclass(slots=True)
class BridgeReport:
    """Outcome of comparing word images against the orbit census at one length.

    orbit_count is the Burnside count; missed_orbits is searched for, by a
    sweep of every state, only when the distinct images are not as many.
    """

    m: int
    word_count: int
    orbit_count: int
    is_injective_on_orbits: bool
    is_surjective_on_orbits: bool
    collisions: list[tuple[RGWord, RGWord]]
    missed_orbits: list[PairState]


def encode_letter(letter: int) -> tuple[int, int]:
    """Bit row (g_i, k_i) for one letter."""
    try:
        return _LETTER_BITS[letter]
    except (KeyError, TypeError):
        raise ValueError(f"letter must be in 1..4, got {letter!r}") from None


def encode_word(word: RGWord) -> PairState:
    """Pair state over Z_2^m with row i = encode_letter(a_i)."""
    m = len(word.letters)
    if m < 1:
        raise ValueError("cannot encode the empty word")
    spec = GroupSpec.uniform(2, m)
    rows = [encode_letter(a) for a in word.letters]
    return PairState(
        ResidueVector(tuple(r[0] for r in rows), spec),
        ResidueVector(tuple(r[1] for r in rows), spec))


def _word_index(letters, m: int) -> int:
    # packed index of encode_word: g bits then k bits
    g = k = 0
    for a in letters:
        gb, kb = _LETTER_BITS[a]
        g = (g << 1) | gb
        k = (k << 1) | kb
    return (g << m) | k


def verify_bridge(m: int, budget: int | None = None) -> BridgeReport:
    """Encode every length-m word, canonicalize, and compare against the
    orbit census at p = 2, n = m."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    spec = GroupSpec.uniform(2, m)
    check_budget(spec.state_count, budget)
    least, is_least = _canonical_engine(spec)

    hits: dict[int, list[RGWord]] = {}
    word_count = 0
    for word in enumerate_words(m, budget):
        word_count += 1
        hits.setdefault(least(_word_index(word.letters, m)), []).append(word)

    collisions = []
    for rep in sorted(hits):
        first, *rest = hits[rep]
        collisions.extend((first, extra) for extra in rest)
    # a canonical image is always its orbit's minimal member, so distinct
    # images are distinct orbits, and they cover all orbits iff they are as many
    orbit_count = count_orbits_burnside(spec).orbit_count
    surjective = len(hits) == orbit_count
    missed = [] if surjective else [
        state_from_index(i, spec) for i in range(spec.state_count)
        if is_least(i) and i not in hits]

    return BridgeReport(
        m=m,
        word_count=word_count,
        orbit_count=orbit_count,
        is_injective_on_orbits=not collisions,
        is_surjective_on_orbits=surjective,
        collisions=collisions,
        missed_orbits=missed)
