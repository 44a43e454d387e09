"""The letter-to-bit-row map from words into pair states over Z_2.

Each letter becomes one row of an m x 2 bit matrix (words.LETTER_BITS:
1 -> 00, 2 -> 10, 3 -> 11, 4 -> 01); _word_index is the one map from a
word's letters to its packed index.  verify_bridge machine-checks that
composing with the canonical form, (min, middle) of the bit rows
{g, k, g ^ k}, hits every orbit exactly once: bijectivity is checked, never
assumed.  It streams the word walk once, encodes each word's letters to
its index i and takes i on a round trip, word -> orbit -> word:
decode(least(i)) must give i back.  So no two words share an orbit, given
that the walked words are distinct (their letters increase), that distinct
words have distinct indices (the four letters have distinct rows, checked
once), and that they are in the language, which the round trip implies
(see _decode).  Surjectivity is then pigeonhole against the independent
Burnside count (four diagonals at p = 2).  On success nothing is
collected.  Only when a check fails does a second pass keep the first word
per canonical image, for the collision certificates, and walk the orbit
minima in echelon form for the missed orbits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .orbits import _canonical_engine, _echelon_minima, count_orbits_burnside
from .residues import GroupSpec, PairState, state_from_index
from .words import ALPHABET, LETTER_BITS, RGWord, _words


@dataclass(slots=True)
class BridgeReport:
    """Outcome of comparing word images against the orbit census at one length.

    orbit_count is the Burnside count; missed_orbits, read off only when the
    images are too few, lists the unreached echelon minima's indices in order.
    collisions pairs each repeated image's first word with a later one, by
    image and then by word order.
    """

    m: int
    word_count: int
    orbit_count: int
    is_injective_on_orbits: bool
    is_surjective_on_orbits: bool
    collisions: list[tuple[RGWord, RGWord]]
    missed_orbits: list[int]


def encode_word(word: RGWord) -> PairState:
    """Pair state over Z_2^m whose row i is the bit row of letter a_i."""
    m = len(word.letters)
    return state_from_index(_word_index(word.letters, m), GroupSpec(2, m))


# each letter's g bit and k bit as ASCII digits, for bytes.translate
_G_DIGITS, _K_DIGITS = (
    bytes.maketrans(bytes(LETTER_BITS), bytes(ord("0") + bits[j] for bits in LETTER_BITS.values()))
    for j in (0, 1))


def _word_index(letters, m: int) -> int:
    # packed index of encode_word: the g bits then the k bits, read in O(m)
    # as one binary numeral, the first letter's bit most significant
    if m < 1:
        raise ValueError("cannot encode the empty word")
    letters = bytes(letters)
    return int(letters.translate(_G_DIGITS) + letters.translate(_K_DIGITS), 2)


def _decode(rep: int, m: int) -> int:
    """The packed index of the word of the orbit whose minimum is rep:
    [0 | v] -> [v | 0], and [g | k] -> [g ^ k | g] for g != 0.

    Each decoded minimum is a valid word, so an i that round-trips is one.
    [v | 0] has only 1s and 2s.  Else g < k < g ^ k, the least and middle rows; k lacks
    g's top bit t, or g ^ k would be below k, so k's top bit is higher.
    Then [g ^ k | g] has its first 3 or 4 at t, a 3, after a 2 at k's top
    bit: the growth rule.
    """
    g, k = rep >> m, rep & ((1 << m) - 1)
    return ((g ^ k) << m) | g if g else k << m


def verify_bridge(m: int) -> BridgeReport:
    """Encode every length-m word, canonicalize, and compare against the
    orbit census at p = 2, n = m."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    spec = GroupSpec(2, m)
    least, _ = _canonical_engine(spec)
    orbit_count = count_orbits_burnside(spec).orbit_count

    # the encoder reads each letter through one table per column, so it is
    # injective on words iff the four letters have distinct rows
    index = _word_index
    if len({index((a,), 1) for a in ALPHABET}) == len(ALPHABET):
        previous, word_count = (), 0
        for letters in _words(m):
            i = index(letters, m)
            if letters <= previous or _decode(least(i), m) != i:
                break
            previous, word_count = letters, word_count + 1
        else:
            # distinct valid words on distinct orbits, so they cover all
            # orbits iff they are as many
            if word_count == orbit_count:
                return BridgeReport(m, word_count, orbit_count, True, True, [], [])
    return _certified(spec, least, orbit_count)


def _certified(spec: GroupSpec, least, orbit_count: int) -> BridgeReport:
    """The report with its certificates, from the letters alone: the first
    word per canonical image, each later word with that image as a collision,
    and the echelon minima no word reached."""
    m = spec.n
    first: dict[int, RGWord] = {}  # canonical image -> first word reaching it
    collisions = []
    for letters in _words(m):
        word = RGWord(letters)
        rep = least(_word_index(word.letters, m))
        if rep in first:
            collisions.append((first[rep], word))
        else:
            first[rep] = word
    collisions.sort(key=lambda pair: least(_word_index(pair[0].letters, m)))
    # a canonical image is always its orbit's minimal member, so distinct
    # images are distinct orbits, and they cover all orbits iff they are as many
    surjective = len(first) == orbit_count
    missed = [] if surjective else [i for i, _ in _echelon_minima(spec) if i not in first]

    return BridgeReport(
        m=m,
        word_count=len(first) + len(collisions),
        orbit_count=orbit_count,
        is_injective_on_orbits=not collisions,
        is_surjective_on_orbits=surjective,
        collisions=collisions,
        missed_orbits=missed)
