"""The four-letter restricted growth language.

A word over {1, 2, 3, 4} is valid when, with an implicit leading 1, each
letter is at most one more than the running maximum of the letters before
it.  So the first displayed letter is 1 or 2, and a 4 can only follow a 3
somewhere earlier.
"""

from __future__ import annotations

from itertools import chain

ALPHABET = (1, 2, 3, 4)
_TAIL = 4  # the letters in each tails table of the word walk, or all m if fewer
# each letter's ASCII digit, for bytes.translate: the one spelling of words
# (see spell); word_from_string parses through its inverse
_SPELLING = bytes.maketrans(bytes(ALPHABET), "".join(map(str, ALPHABET)).encode())
_LETTERS = {chr(_SPELLING[a]): a for a in ALPHABET}

# the bit row (g, k) of each letter: bridge._word_index reads a word through
# one table per column, so it is injective iff these four rows are distinct
LETTER_BITS = {1: (0, 0), 2: (1, 0), 3: (1, 1), 4: (0, 1)}


def _growth_violation(letters) -> str | None:
    """The first broken constraint of a word, or None if it is valid.

    Never raises: a letter outside the alphabet is reported, not compared.
    Only a plain int is a letter, so True and 2.0 are outside the alphabet
    although they compare equal to 1 and 2.
    """
    running = 1
    for pos, a in enumerate(letters, 1):
        if a not in ALPHABET or type(a) is not int:
            return f"letter {a!r} at position {pos} is outside the alphabet 1..4"
        if a > running:
            if a > running + 1:
                return (f"letter {a} at position {pos} breaks the growth bound: "
                        f"at most running maximum {running} plus 1 is allowed")
            running = a
    return None


def is_valid_word(letters) -> bool:
    """True iff letters form a restricted growth word; never raises."""
    return _growth_violation(letters) is None


def spell(letters) -> str:
    """The digit string of a word's letters."""
    return bytes(letters).translate(_SPELLING).decode()


class RGWord(tuple):
    """A valid word: the tuple of its letters, checked when it is made, one
    word at a time here, or a walk block at a time by _checked."""

    __slots__ = ()

    def __new__(cls, letters: tuple[int, ...]):
        word = super().__new__(cls, letters)
        violation = _growth_violation(word)
        if violation is not None:
            raise ValueError(violation)
        return word

    @property
    def letters(self) -> tuple[int, ...]:
        return self

    def __reduce__(self):  # copy and pickle through the check, not tuple.__new__
        return RGWord, (tuple(self),)

    def __repr__(self) -> str:
        return f"RGWord(letters={tuple(self)!r})"

    __str__ = spell


def word_from_string(text: str) -> RGWord:
    """Parse a digit string; the error names the first violated constraint."""
    # a character outside 1..4 stays a string so the error can quote it
    return RGWord(map(_LETTERS.get, text, text))


# the ranks that count_words counts, 0 (only 1s), 1 (a 2, no 3) and 2 (a 3): after
# each, the letters the growth bound allows, in order, each with its next rank
_RANKS = (((1, 0), (2, 1)), ((1, 1), (2, 1), (3, 2)), ((1, 2), (2, 2), (3, 2), (4, 2)))


def _blocks(m: int):
    """The valid words of length m, lexicographically, as (tails, walk):
    walk yields blocks (prefix, rank), the words prefix + t, t in tails[rank].

    A depth-first walk of _RANKS over one shared letter list, on an explicit
    stack of (place, letter, rank) entries, so no recursion limit bounds m
    and the walk holds O(m) letters.  A prefix takes only the letters the
    growth bound allows, and stops min(_TAIL, m) letters short of m, where
    tails[rank] is the increasing table of the suffixes the bound allows
    after its rank: so every word is valid.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    end, tails = m - min(_TAIL, m), (((),),) * len(_RANKS)
    for _ in range(m - end):
        tails = tuple(tuple((a, *t) for a, r in moves for t in tails[r]) for moves in _RANKS)

    def walk():
        letters = [1] * (end + 1)  # the implicit leading 1 at place 0, then the prefix
        stack = [(0, 1, 0)]
        while stack:
            place, a, rank = stack.pop()
            letters[place] = a  # letters[1:place] is already this entry's prefix
            if place < end:
                place += 1
                for a, r in reversed(_RANKS[rank]):  # descending: 1 pops first
                    stack.append((place, a, r))
            else:
                yield tuple(letters[1:]), rank
    return tails, walk()


def _checked(tails, walk):
    """Each block of a _blocks walk as its list of RGWords: the one checked
    path from the walk to words.  prefix + t is valid iff the prefix is and
    t is after the prefix's running maximum, and maxima 3 and 4 allow the
    same letters.  So the first block of each key (tails index, min(running
    maximum, 3)) checks its words, every later one only its prefix.  A block
    that passes builds its words unchecked, any other is rebuilt through
    RGWord, which raises at its first invalid word exactly as RGWord(w) for
    each walked w would."""
    new, sound = tuple.__new__, set()
    for prefix, rank in walk:
        table = tails[rank]
        if _growth_violation(prefix) is None:
            key = rank, min(max(prefix, default=1), 3)
            if key in sound or all(_growth_violation(prefix + t) is None for t in table):
                sound.add(key)
                yield [new(RGWord, prefix + t) for t in table]
                continue
        yield [RGWord(prefix + t) for t in table]


def enumerate_words(m: int) -> list[RGWord]:
    """All valid words of length m, lexicographically, by prefix extension,
    each checked a walk block at a time (see _checked)."""
    return list(chain.from_iterable(_checked(*_blocks(m))))


def count_words(m: int) -> int:
    """Count valid words of length m by dynamic programming on the rank of
    their bit rows (see bridge.encode_word): c0 words hold only 1s, c1 a 2
    but no 3 (the rows span a line), c2 a 3 (they span the plane)."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    c0, c1, c2 = 1, 0, 0
    for _ in range(m):  # 2 leaves c0, 3 leaves c1; c2 takes all four letters
        c0, c1, c2 = c0, c0 + 2 * c1, c1 + 4 * c2
    return c0 + c1 + c2
