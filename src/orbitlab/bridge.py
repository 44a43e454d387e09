"""The letter-to-bit-row map from words into pair states over Z_2.

Each letter becomes one row of an m x 2 bit matrix (words.LETTER_BITS:
1 -> 00, 2 -> 10, 3 -> 11, 4 -> 01); _word_index is the one map from a
word's letters to its packed index.  verify_bridge machine-checks that
composing with the canonical form, (min, middle) of the bit rows
{g, k, g ^ k}, hits every orbit exactly once: bijectivity is checked, never
assumed.  It streams the word walk once, in blocks that share a prefix,
with one tails table per rank of words._RANKS, packed before the walk.
Each word of a block is a lane of two integers, its index's g half and k
half: one encoder call per block, times a row of ones and xor the packed
offsets of its tails table, gives every lane (see _tails_table).  Every
word then goes on a round trip, word -> orbit -> word, all lanes at once:
the lane kernel orbits._least_lanes, which is the canonical form that
encode and canonical_form run on one lane, then _decode, must give the
block back.  So no two words share an orbit, given that the walked words
are distinct (their letters increase, in each tails table and from block
to block), that distinct words have distinct indices (the four letters
have distinct rows, checked once), and that they are in the language,
which the round trip implies (see _decode).  Surjectivity is then
pigeonhole against the independent Burnside count (a sum over the two
diagonal entries a at p = 2).  On success nothing is collected.  Only when
a check fails does a second pass read the walk's checked blocks
(words._checked), keep the first word per canonical image, for the
collision certificates, and walk the orbit minima in echelon form for the
missed orbits.
"""

from __future__ import annotations

from collections import namedtuple

from .orbits import _echelon_runs, _least, _least_lanes, count_orbits_burnside
from .residues import GroupSpec, PairState, state_from_index
from .words import ALPHABET, LETTER_BITS, RGWord, _blocks, _checked

# Word images against the orbit census at one length.  orbit_count is the
# Burnside count; missed_orbits, read off only when the images are too few,
# lists the unreached echelon minima's indices in order; collisions pairs each
# repeated image's first word with a later one, by image and then by word order.
BridgeReport = namedtuple("BridgeReport", [
    "m", "word_count", "orbit_count", "is_injective_on_orbits",
    "is_surjective_on_orbits", "collisions", "missed_orbits"])


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


def _decode(lo: int, mid: int) -> tuple[int, int]:
    """The word of each orbit whose minimum is [lo | mid], lane by lane
    (see orbits._least_lanes): [0 | v] -> [v | 0], and [g | k] ->
    [g ^ k | g] for g != 0.  As (lo ^ mid, lo) it reads no lane layout, so
    one lane and a block of them decode alike.

    Each decoded minimum is a valid word, so a lane that round-trips is one.
    [v | 0] has only 1s and 2s.  Else g < k < g ^ k, the least and middle rows; k lacks
    g's top bit t, or g ^ k would be below k, so k's top bit is higher.
    Then [g ^ k | g] has its first 3 or 4 at t, a 3, after a 2 at k's top
    bit: the growth rule.
    """
    return lo ^ mid, lo


def _tails_table(tails, m: int):
    """(1^d, rep, g_offsets, k_offsets) for increasing tails of d letters,
    else None.  As the encoder places each letter's bits by position alone,
    prefix + t has the index of prefix + 1^d xor t's offset, that of
    1^(m - d) + t xor 1^m's.  The offsets' g and k halves are packed as
    lanes of m + 1 bits, tail j's in lane j (see orbits._least_lanes), and
    rep has a 1 at the bottom of every lane: a block's g halves are then
    its base's times rep, xor g_offsets, and its k halves likewise.  One
    encoder call reads them all, on the tails in reverse lane order and then
    1^d, each after 1s to m + 1 letters: the bottom lane of each half is
    then 1^(m + 1)'s, and xor its copy in every lane takes 1^m's off the
    tails' (and the 1s' bit off the top of each lane)."""
    if any(s >= t for s, t in zip(tails, tails[1:])):
        return None
    d, width, count = len(tails[0]), m + 1, len(tails)
    pad = bytes((1,) * (width - d))
    joined = pad + pad.join(map(bytes, (*reversed(tails), (1,) * d)))
    g, k = divmod(_word_index(joined, len(joined)), 1 << len(joined))
    rep = ((1 << width * count) - 1) // ((1 << width) - 1)
    (g, g_ones), (k, k_ones) = divmod(g, 1 << width), divmod(k, 1 << width)
    return (1,) * d, rep, g ^ g_ones * rep, k ^ k_ones * rep


def verify_bridge(m: int) -> BridgeReport:
    """Encode every length-m word, canonicalize, and compare against the
    orbit census at p = 2, n = m."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    spec = GroupSpec(2, m)
    orbit_count = count_orbits_burnside(spec).orbit_count

    # the encoder reads each letter through one table per column, so it is
    # injective on words iff the four letters have distinct rows
    index, mask = _word_index, (1 << m) - 1
    if len({index((a,), 1) for a in ALPHABET}) == len(ALPHABET):
        tails, walk = _blocks(m)
        lanes, previous, word_count = [_tails_table(t, m) for t in tails], (), 0
        for prefix, rank in walk:
            if lanes[rank] is None or prefix + tails[rank][0] <= previous:  # after the last block
                break
            pad, rep, g_offsets, k_offsets = lanes[rank]
            base = index(prefix + pad, m)
            g, k = (base >> m) * rep ^ g_offsets, (base & mask) * rep ^ k_offsets
            if _decode(*_least_lanes(g, k, m, rep << m)) != (g, k):
                break
            previous, word_count = prefix + tails[rank][-1], word_count + len(tails[rank])
        else:
            # distinct valid words on distinct orbits, so they cover all
            # orbits iff they are as many
            if word_count == orbit_count:
                return BridgeReport(m, word_count, orbit_count, True, True, [], [])
    return _certified(spec, orbit_count)


def _certified(spec: GroupSpec, orbit_count: int) -> BridgeReport:
    """The report with its certificates, from the letters alone: the first
    word per canonical image, each later word with that image as a collision,
    and the echelon minima no word reached."""
    m, least = spec.n, _least(spec)
    first: dict[int, RGWord] = {}  # canonical image -> first word reaching it
    collisions = []
    for block in _checked(*_blocks(m)):
        for word in block:
            rep = least(_word_index(word, m))
            if rep in first:
                collisions.append((first[rep], word))
            else:
                first[rep] = word
    collisions.sort(key=lambda pair: least(_word_index(pair[0], m)))
    # a canonical image is always its orbit's minimal member, so distinct
    # images are distinct orbits, and they cover all orbits iff they are as many
    surjective = len(first) == orbit_count
    missed = [] if surjective else [i for start, count, _ in _echelon_runs(spec)
                                    for i in range(start, start + count) if i not in first]

    return BridgeReport(
        m=m,
        word_count=len(first) + len(collisions),
        orbit_count=orbit_count,
        is_injective_on_orbits=not collisions,
        is_surjective_on_orbits=surjective,
        collisions=collisions,
        missed_orbits=missed)
