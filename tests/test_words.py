import copy
import pickle
from collections import Counter
from itertools import product

import pytest

from oracles import _words, python_peak, rgwords, stirling2
from orbitlab import words
from orbitlab.formulas import r_formula
from orbitlab.words import (
    ALPHABET,
    RGWord,
    _blocks,
    count_words,
    enumerate_words,
    is_valid_word,
    word_from_string,
)

# wrong word machines, changes of words._RANKS, and whether its walk yields
# an invalid word for some m in 1..9
_R0, _R1, _R2 = words._RANKS
WRONG_MACHINES = {
    "rank 0 allows 3": (((*_R0, (3, 2)), _R1, _R2), True),
    "rank 1 allows 4": ((_R0, (*_R1, (4, 2)), _R2), True),
    "letter 2 leads to rank 2": ((((1, 0), (2, 2)), _R1, _R2), True),
    "rank 2 allows 5": ((_R0, _R1, (*_R2, (5, 2))), True),
    # after a 3 the walk stays at rank 1, so it never takes a 4: every word
    # it yields is valid, and a prefix with a 3 has the wrong rank
    "letter 3 leads to rank 1": ((_R0, ((1, 1), (2, 1), (3, 1)), _R2), False),
    # ranks 3, 4 and 5 count the leading 1s: the fourth 1 claims rank 1
    # with no 2 yet, a new key whose first block checks its words and
    # fails (from m = 8)
    "four 1s lead to rank 1": ((((1, 3), (2, 1)), _R1, _R2, ((1, 4), (2, 1)),
                                ((1, 5), (2, 1)), ((1, 1), (2, 1))), True),
    # ... or ranks 3 to 6 count four of them, and then a 3 claims rank 2
    # (from m = 9: prefixes 5 long), in the first block of its key
    "four 1s then a 3": ((((1, 3), (2, 1)), _R1, _R2, ((1, 4), (2, 1)), ((1, 5), (2, 1)),
                          ((1, 6), (2, 1)), ((1, 0), (2, 1), (3, 2))), True),
    # a word starting with five 2s claims rank 2 at its fifth 2, with running
    # maximum 2 (ranks 3 to 7 keep the start apart): at m = 9 its block
    # follows rank 2 blocks of maximum 3, so only the running maximum in a
    # block's key catches it
    "five 2s lead to rank 2": ((((1, 3), (2, 4)), _R1, _R2, ((1, 3), (2, 1)),
                                ((1, 1), (2, 5), (3, 2)), ((1, 1), (2, 6), (3, 2)),
                                ((1, 1), (2, 7), (3, 2)), ((1, 1), (2, 2), (3, 2))), True),
    # ... or ranks 4 to 7 follow a start of 2, 1, 1, 1 and then allow a 4:
    # at m = 9 that prefix is invalid, and its key's first block is valid,
    # so only the prefix's own check catches it
    "2, 1, 1, 1 allows 4": ((((1, 3), (2, 4)), _R1, _R2, ((1, 3), (2, 1)),
                             ((1, 5), (2, 1), (3, 2)), ((1, 6), (2, 1), (3, 2)),
                             ((1, 7), (2, 1), (3, 2)), (*_R1, (4, 2))), True),
}

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

    def test_a_word_is_the_tuple_of_its_letters(self):
        word = RGWord((1, 2, 3))
        assert word == (1, 2, 3) and hash(word) == hash((1, 2, 3))
        assert list(word) == [1, 2, 3] and word.letters is word

    def test_copies_are_checked_once(self, monkeypatch):
        # every copy is rebuilt through RGWord, and so checked, once: pickle
        # protocols 0 and 1 would skip the check through tuple.__new__
        calls = []
        monkeypatch.setattr(words, "_growth_violation",
                            lambda letters: calls.append(letters) or None)
        word = RGWord((1, 2, 3))
        clones = [copy.copy, copy.deepcopy,
                  *(lambda w, protocol=protocol: pickle.loads(pickle.dumps(w, protocol))
                    for protocol in range(pickle.HIGHEST_PROTOCOL + 1))]
        for clone in clones:
            calls.clear()
            assert clone(word) == word and calls == [(1, 2, 3)], clone

    @pytest.mark.parametrize("letters,message", [
        ((1, 3, 3), "letter 3 at position 2 breaks the growth bound: "
                    "at most running maximum 1 plus 1 is allowed"),
        ((2, 1, 4, 4), "letter 4 at position 3 breaks the growth bound: "
                       "at most running maximum 2 plus 1 is allowed"),
        ((1, 5, 5), "letter 5 at position 2 is outside the alphabet 1..4"),
        ((1, 3), "letter 3 at position 2 breaks the growth bound: "
                 "at most running maximum 1 plus 1 is allowed"),
    ])
    def test_message_names_the_first_faulty_position(self, letters, message):
        # where the faulty letter repeats, the message names its first position
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

    @pytest.mark.parametrize("m", range(11))
    def test_equals_one_checked_word_per_walked_word(self, m):
        ws = enumerate_words(m)
        assert ws == rgwords(m) and all(type(w) is RGWord for w in ws)

    @pytest.mark.parametrize("name", WRONG_MACHINES)
    def test_wrong_machine_fails_as_one_check_per_word_would(self, monkeypatch, name):
        # the same list or the same first error as rgwords, for every m; at
        # m <= 4 every prefix is empty, so only a key's first block, checked
        # word by word, can catch the fault
        machine, yields_invalid = WRONG_MACHINES[name]
        monkeypatch.setattr(words, "_RANKS", machine)
        raised = set()
        for m in range(1, 10):
            try:
                expected = rgwords(m)
            except ValueError as error:
                raised.add(m)
                with pytest.raises(ValueError) as got:
                    enumerate_words(m)
                assert str(got.value) == str(error), m
            else:
                assert enumerate_words(m) == expected, m
        assert bool(raised) == yields_invalid
        assert yields_invalid or len(expected) < count_words(9)  # still a wrong machine

    def test_checks_each_block_and_table_entry_once(self, monkeypatch):
        # 51 prefixes of length 4, and the 51 + 136 + 256 words of the first
        # block of each key: never one check per word
        calls = []
        check = words._growth_violation
        monkeypatch.setattr(words, "_growth_violation",
                            lambda letters: calls.append(letters) or check(letters))
        assert len(enumerate_words(8)) == count_words(8) == 11051
        tails, walk = _blocks(8)
        assert len(list(walk)) == 51 and [len(t) for t in tails] == [51, 136, 256]
        assert len(calls) == 494

    def test_check_reads_no_rank_meaning(self, monkeypatch):
        # ranks 1 and 2 swapped, rank 0 still the start: the same language
        # on relabelled tables, so the same words and the same 494 checks
        swap = (0, 2, 1)
        monkeypatch.setattr(words, "_RANKS", tuple(
            tuple((a, swap[r]) for a, r in words._RANKS[swap[rank]]) for rank in range(3)))
        assert [len(t) for t in _blocks(8)[0]] == [51, 256, 136]
        expected = rgwords(8)
        calls = []
        check = words._growth_violation
        monkeypatch.setattr(words, "_growth_violation",
                            lambda letters: calls.append(letters) or check(letters))
        assert enumerate_words(8) == expected
        assert len(calls) == 494


class TestWalk:
    """_blocks, the DFS that the listing and the bridge's fast pass stream
    without validating a word, and _words, its flattening in the oracles;
    they yield letters only.  enumerate_words and the bridge's certificate
    pass read the same blocks checked, through words._checked (see
    TestEnumerate)."""

    @pytest.mark.parametrize("m", range(9))
    def test_blocks_against_brute_force(self, m):
        # each block's prefix is a valid word m - d letters long, d = min(4, m),
        # in order, and its tails table the increasing suffixes it allows
        tails, walk = _blocks(m)
        blocks = list(walk)
        d = min(4, m)
        prefixes = [w for w in product(ALPHABET, repeat=m - d) if is_valid_word(w)]
        assert [prefix for prefix, _ in blocks] == prefixes
        for prefix, rank in blocks:  # product(...) is in order, so filtered, increasing
            expected = tuple(t for t in product(ALPHABET, repeat=d) if is_valid_word(prefix + t))
            assert tails[rank] == expected, prefix

    def test_blocks_share_three_tails_tables(self):
        # one table per rank, built once per walk, and every rank walked
        tails, walk = _blocks(8)
        assert len(tails) == len(words._RANKS) == 3
        assert {rank for _, rank in walk} == {0, 1, 2}

    def test_walk_and_count_share_one_machine(self):
        # _RANKS' edges from rank to rank are count_words' recurrence:
        # c0 <- c0, c1 <- c0 + 2 c1, c2 <- c1 + 4 c2
        edges = Counter((rank, r) for rank, moves in enumerate(words._RANKS) for _, r in moves)
        assert edges == {(0, 0): 1, (0, 1): 1, (1, 1): 2, (1, 2): 1, (2, 2): 4}
        counts = [1, 0, 0]
        for m in range(30):
            assert sum(counts) == count_words(m), m
            counts = [sum(counts[rank] * n for (rank, r), n in edges.items() if r == s)
                      for s in range(3)]

    @pytest.mark.parametrize("m", range(11))
    def test_stirling_split(self, m):
        # words with only 1s, a 2 but no 3, and a 3 are the partitions of
        # m + 1 things into 1 block, 2 blocks, and 3 or 4 blocks
        split = Counter(min(max(w, default=1), 3) for w in _words(m))
        assert [split[1], split[2], split[3]] == [
            stirling2(m + 1, 1), stirling2(m + 1, 2), stirling2(m + 1, 3) + stirling2(m + 1, 4)]

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
        code, _, peak = python_peak("from orbitlab.words import _blocks\n"
                                    "assert next(_blocks(4000)[1]) == ((1,) * 3996, 0)\n",
                                    timeout=60)
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
