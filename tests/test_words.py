from itertools import product

import pytest

from oracles import python_peak
from orbitlab.formulas import r_formula
from orbitlab.words import (
    ALPHABET,
    RGWord,
    _words,
    count_words,
    enumerate_words,
    is_valid_word,
    word_from_string,
)

# row-major reading of the fifteen length-3 words
WORDS_M3 = ["111", "112", "121", "122", "123",
            "211", "212", "213", "221", "222",
            "223", "231", "232", "233", "234"]


def letters(text):
    return tuple(int(ch) for ch in text)


class TestValidity:
    def test_listed_examples(self):
        assert is_valid_word(letters("21"))
        assert is_valid_word(letters("23"))
        assert not is_valid_word(letters("13"))
        assert is_valid_word(())
        assert is_valid_word(letters("234"))
        assert not is_valid_word(letters("1114"))

    def test_growth_bound_is_strict_history(self):
        # after 2 the running maximum is 2, so 4 exceeds 2 + 1
        assert not is_valid_word(letters("242"))
        assert "242" not in {str(w) for w in enumerate_words(3)}

    def test_never_raises_on_garbage(self):
        assert not is_valid_word([0])
        assert not is_valid_word([5])
        assert not is_valid_word(["2"])
        assert not is_valid_word([1, 2, None])

    def test_first_letter_bound(self):
        assert is_valid_word((2,))
        assert not is_valid_word((3,))
        assert not is_valid_word((4,))


class TestRGWord:
    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            RGWord((1, 3))

    def test_rejects_letters_that_only_compare_equal(self):
        # True == 1 and 2.0 == 2, but neither is a letter
        with pytest.raises(ValueError, match="letter True at position 1 is outside"):
            RGWord((True, 2.0))
        with pytest.raises(ValueError, match="letter 2.0 at position 2 is outside"):
            RGWord((1, 2.0))
        assert not is_valid_word((1, True))
        assert not is_valid_word((2, 3, 4.0))

    def test_str(self):
        assert str(RGWord((2, 3, 4))) == "234"
        assert len(RGWord((2, 3, 4))) == 3

    @pytest.mark.parametrize("letters,message", [
        ((1, 3, 3), "letter 3 at position 2 breaks the growth bound: "
                    "at most running maximum 1 plus 1 is allowed"),
        ((2, 1, 4, 4), "letter 4 at position 3 breaks the growth bound: "
                       "at most running maximum 2 plus 1 is allowed"),
        ((1, 5, 5), "letter 5 at position 2 is outside the alphabet 1..4"),
    ])
    def test_message_names_the_first_faulty_position(self, letters, message):
        # the faulty letter repeats; the message names its first position
        with pytest.raises(ValueError) as exc:
            RGWord(letters)
        assert str(exc.value) == message

    def test_word_from_string_messages(self):
        with pytest.raises(ValueError, match="alphabet"):
            word_from_string("105")
        with pytest.raises(ValueError, match="growth bound"):
            word_from_string("13")
        assert word_from_string("234") == RGWord((2, 3, 4))


class TestEnumerate:
    def test_m0_and_m1(self):
        assert [str(w) for w in enumerate_words(0)] == [""]
        assert [str(w) for w in enumerate_words(1)] == ["1", "2"]

    def test_m2_list(self):
        assert [str(w) for w in enumerate_words(2)] == ["11", "12", "21", "22", "23"]

    def test_m3_matches_published_table(self):
        assert [str(w) for w in enumerate_words(3)] == WORDS_M3

    def test_lexicographic(self):
        for m in range(6):
            ws = [tuple(w.letters) for w in enumerate_words(m)]
            assert ws == sorted(ws)

    def test_agrees_with_filter_up_to_8(self):
        # oracle: brute-force filter over all 4^m strings
        for m in range(9):
            expected = [w for w in product((1, 2, 3, 4), repeat=m) if is_valid_word(w)]
            assert [w.letters for w in enumerate_words(m)] == expected

    def test_prefix_closure(self):
        for w in enumerate_words(6):
            for cut in range(len(w.letters)):
                assert is_valid_word(w.letters[:cut])

    def test_domain(self):
        with pytest.raises(ValueError):
            enumerate_words(-1)


class TestWalk:
    """_words, the DFS that the listing and the bridge stream without
    validating a word; it yields letters only."""

    def test_agrees_with_filter_up_to_8(self):
        for m in range(9):
            expected = [w for w in product(ALPHABET, repeat=m) if is_valid_word(w)]
            assert list(_words(m)) == expected, m

    def test_no_recursion_limit(self):
        # far deeper than Python's recursion limit: the walk must not recurse
        assert next(_words(2000)) == (1,) * 2000

    def test_walk_memory_is_linear_in_m(self):
        # one shared letter list and O(m) stack entries: a walk that stacked
        # every pending sibling's whole prefix peaked at 141 MiB
        code, _, peak = python_peak("from orbitlab.words import _words\n"
                                    "assert next(_words(4000)) == (1,) * 4000\n", timeout=60)
        assert code == 0
        assert peak < 32 * 1024  # KiB


class TestCount:
    def test_small_values(self):
        assert count_words(0) == 1
        assert count_words(1) == 2
        assert count_words(2) == 5
        assert count_words(3) == 15

    def test_matches_enumeration(self):
        for m in range(11):
            assert count_words(m) == len(enumerate_words(m))

    def test_matches_orbit_count_formula(self):
        for m in range(31):
            assert count_words(m) == r_formula(2, m)

    def test_m10_value(self):
        assert count_words(10) == 175275

    def test_negative_m(self):
        with pytest.raises(ValueError):
            count_words(-2)
