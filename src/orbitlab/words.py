"""The four-letter restricted growth language.

A word over {1, 2, 3, 4} is valid when, with an implicit leading 1, each
letter is at most one more than the running maximum of the letters before
it.  So the first displayed letter is 1 or 2, and a 4 can only follow a 3
somewhere earlier.
"""

from __future__ import annotations

from dataclasses import dataclass

ALPHABET = (1, 2, 3, 4)
# each letter's ASCII digit, for bytes.translate: the one spelling of words;
# word_from_string parses through its inverse
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


@dataclass(frozen=True, slots=True)
class RGWord:
    letters: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        violation = _growth_violation(self.letters)
        if violation is not None:
            raise ValueError(violation)

    def __str__(self) -> str:
        return bytes(self.letters).translate(_SPELLING).decode()

    def __len__(self) -> int:
        return len(self.letters)


def word_from_string(text: str) -> RGWord:
    """Parse a digit string; the error names the first violated constraint."""
    # a character outside 1..4 stays a string so the error can quote it
    return RGWord(tuple(_LETTERS.get(ch, ch) for ch in text))


def _words(m: int):
    """Yield the valid words of length m as letter tuples, lexicographically.

    A depth-first walk over one shared letter list, on an explicit stack of
    (place, letter, running maximum) entries, so no recursion limit bounds
    m and the walk holds O(m) letters.  A prefix is extended only by the
    letters the growth bound allows, so every word yielded is valid.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    # after each running maximum: the letters the growth bound allows, in
    # order, each with the running maximum it leaves; lasts holds them as
    # the 1-tuples that end a word
    nexts = {r: [(a, max(a, r)) for a in range(1, min(4, r + 1) + 1)] for r in ALPHABET}
    lasts = {r: [(a,) for a, _ in allowed] for r, allowed in nexts.items()}
    letters = [1] * (m + 1)  # the implicit leading 1 at place 0, then the word
    stack = [(0, 1, 1)]
    while stack:
        place, a, running = stack.pop()
        letters[place] = a  # letters[1:place] is already this entry's prefix
        if place < m - 1:
            place += 1
            for a, r in reversed(nexts[running]):  # descending: 1 pops first
                stack.append((place, a, r))
        elif place == m - 1:  # the last letter: yield its words in order, unstacked
            prefix = tuple(letters[1:m])
            for last in lasts[running]:
                yield prefix + last
        else:  # m = 0: the empty word
            yield ()


def enumerate_words(m: int) -> list[RGWord]:
    """All valid words of length m, lexicographically, by prefix extension."""
    return [RGWord(w) for w in _words(m)]


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
