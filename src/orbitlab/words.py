"""The four-letter restricted growth language.

A word over {1, 2, 3, 4} is valid when, with an implicit leading 1, each
letter is at most one more than the running maximum of the letters before
it.  So the first displayed letter is 1 or 2, and a 4 can only follow a 3
somewhere earlier.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budget import check_budget

ALPHABET = (1, 2, 3, 4)


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
        return "".join(str(a) for a in self.letters)

    def __len__(self) -> int:
        return len(self.letters)


_DIGITS = {str(a): a for a in ALPHABET}


def word_from_string(text: str) -> RGWord:
    """Parse a digit string; the error names the first violated constraint."""
    # a character outside 1..4 stays a string so the error can quote it
    return RGWord(tuple(_DIGITS.get(ch, ch) for ch in text))


def _words(m: int, budget: int | None = None):
    """Yield the valid words of length m as letter tuples, lexicographically.

    A depth-first walk on an explicit stack of (prefix, running maximum)
    pairs, so no recursion limit bounds m.  A prefix is extended only by the
    letters the growth bound allows, so every word yielded is valid.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    check_budget(4 ** m, budget)
    stack = [((), 1)]
    while stack:
        prefix, running = stack.pop()
        if len(prefix) == m:
            yield prefix
            continue
        for a in range(min(4, running + 1), 0, -1):  # descending: 1 pops first
            stack.append((prefix + (a,), a if a > running else running))


def enumerate_words(m: int, budget: int | None = None) -> list[RGWord]:
    """All valid words of length m, lexicographically, by prefix extension."""
    return [RGWord(w) for w in _words(m, budget)]


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
