import random
from itertools import product

import pytest

from oracles import (
    _words,
    decode_index,
    from_lanes,
    least_sorted,
    letters_of_rows,
    minima_of,
    pair,
    patch_walk,
    to_lanes,
)
from orbitlab import bridge, cli, orbits, words
from orbitlab.bridge import encode_word, verify_bridge
from orbitlab.formulas import r_formula
from orbitlab.orbits import (
    _echelon_runs,
    _least,
    _least_lanes,
    canonical_form,
    orbit_summaries,
)
from orbitlab.residues import GroupSpec, state_index
from orbitlab.words import (
    ALPHABET,
    LETTER_BITS,
    RGWord,
    _blocks,
    _growth_violation,
    enumerate_words,
)


class TestEncodeLetter:
    def test_mapping(self):
        # 1 -> 00, 2 -> 10, 3 -> 11, 4 -> 01, one letter per row
        assert encode_word(RGWord((1, 2, 3, 4))).rows() == [(0, 0), (1, 0), (1, 1), (0, 1)]

    def test_rejects_outside_alphabet(self):
        # encode_word takes only an RGWord, and RGWord refuses these letters
        for bad in (0, 5, "2", None):
            with pytest.raises(ValueError):
                encode_word(RGWord((1, bad)))


class TestEncodeWord:
    def test_all_five_length2_assignments(self):
        expected = {
            "11": [(0, 0), (0, 0)],
            "12": [(0, 0), (1, 0)],
            "21": [(1, 0), (0, 0)],
            "22": [(1, 0), (1, 0)],
            "23": [(1, 0), (1, 1)],
        }
        for w in enumerate_words(2):
            assert encode_word(w).rows() == expected[str(w)]

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            encode_word(RGWord(()))

    def test_output_shape(self):
        for m in range(1, 11):
            w = enumerate_words(m)[-1]
            state = encode_word(w)
            assert state.spec == GroupSpec.uniform(2, m)
            assert len(state.rows()) == m

    @pytest.mark.parametrize("m", [*range(1, 9), 1000])
    def test_word_index_reads_the_letter_bits(self, m):
        # the one letters -> index map against the rows LETTER_BITS gives
        # letter by letter: every word up to m = 8, then seeded long words
        spec = GroupSpec.uniform(2, m)
        listed = _words(m)
        if m > 8:  # after 23 every letter may follow
            rng = random.Random(m)
            listed = [(2, 3, *(rng.choice(ALPHABET) for _ in range(m - 2))) for _ in range(200)]
        for letters in listed:
            g, k = zip(*(LETTER_BITS[a] for a in letters))
            assert bridge._word_index(letters, m) == state_index(pair(g, k, spec)), letters

    @pytest.mark.parametrize("relabel", [False, True], ids=["bits", "relabelled"])
    @pytest.mark.parametrize("m", [*range(1, 9), 1000])
    def test_block_base_xor_offset(self, monkeypatch, m, relabel):
        # verify_bridge's block encoding: lane j of the g halves, prefix +
        # 1^d's times rep xor g_offsets from _tails_table, is the g half of
        # prefix + tails[j]'s index, and so for the k halves, with nothing
        # in the guard bits or above the top lane; every word up to m = 8,
        # then 4 seeded prefixes with all 256 tails; and so for an encoder
        # that reads each letter through one table per column but gives the
        # padding 1 a nonzero row (1 <-> 2, 3 <-> 4)
        if relabel:
            real = bridge._word_index
            monkeypatch.setattr(bridge, "_word_index",
                                lambda letters, m: real([((a - 1) ^ 1) + 1 for a in letters], m))
        if m > 8:  # after 234 every letter may follow
            rng, every = random.Random(m), _blocks(7)[0][2]
            assert len(every) == 4 ** 4
            blocks = [((2, 3, 4, *(rng.choice(ALPHABET) for _ in range(m - 7))), every)
                      for _ in range(4)]
        else:
            tails, walk = _blocks(m)
            blocks = [(prefix, tails[rank]) for prefix, rank in walk]
        index, mask = bridge._word_index, (1 << m) - 1
        for prefix, tails in blocks:
            pad, rep, g_offsets, k_offsets = bridge._tails_table(tails, m)
            base, states = index(prefix + pad, m), [index(prefix + t, m) for t in tails]
            assert rep == to_lanes([1] * len(tails), m)
            assert (base >> m) * rep ^ g_offsets == to_lanes([i >> m for i in states], m), prefix
            assert (base & mask) * rep ^ k_offsets == to_lanes([i & mask for i in states], m)

    def test_injective_on_words_up_to_8(self):
        for m in range(1, 9):
            ws = enumerate_words(m)
            images = {state_index(encode_word(w)) for w in ws}
            assert len(images) == len(ws)


class TestVerifyBridge:
    def test_m1(self):
        report = verify_bridge(1)
        assert report.word_count == 2
        assert report.orbit_count == 2
        assert report.is_injective_on_orbits
        assert report.is_surjective_on_orbits
        assert report.collisions == []
        assert report.missed_orbits == []

    def test_m2(self):
        report = verify_bridge(2)
        assert report.word_count == report.orbit_count == 5
        assert report.is_injective_on_orbits and report.is_surjective_on_orbits

    def test_word_images_are_orbit_representatives(self):
        reps = {state_index(s.representative)
                for s in orbit_summaries(GroupSpec.uniform(2, 3))}
        for w in enumerate_words(3):
            assert state_index(canonical_form(encode_word(w))) in reps

    @pytest.mark.parametrize("m", range(3, 9))
    def test_bijective_through_m8(self, m):
        report = verify_bridge(m)
        assert report.is_injective_on_orbits
        assert report.is_surjective_on_orbits
        assert report.word_count == report.orbit_count
        assert report.collisions == [] and report.missed_orbits == []

    def test_m8_count(self):
        assert verify_bridge(8).word_count == 11051

    @pytest.mark.parametrize("m", [9, 10, 11, 12])
    def test_bijective_at_desk_scale_limit(self, m):
        report = verify_bridge(m)
        assert report.is_surjective_on_orbits
        assert report.is_injective_on_orbits
        assert report.word_count == report.orbit_count == r_formula(2, m)

    def test_domain(self):
        with pytest.raises(ValueError):
            verify_bridge(0)

    def test_encoder_runs_once_per_block(self, monkeypatch):
        # not once per word: 11,051 words at m = 8, in 51 blocks; besides
        # one call per block, the encoder reads the four letters once, and
        # each of the walk's three tails tables (443 tails) in one call, not
        # one per tail (501 calls when it did)
        real, calls = bridge._word_index, []
        monkeypatch.setattr(bridge, "_word_index",
                            lambda letters, m: calls.append(m) or real(letters, m))
        report = verify_bridge(8)
        assert report.is_injective_on_orbits and report.is_surjective_on_orbits
        tables, walk = _blocks(8)
        blocks = list(walk)
        assert (len(blocks), len(tables), sum(map(len, tables))) == (51, 3, 443)
        assert len(calls) == len(ALPHABET) + len(blocks) + len(tables) == 58

    def test_certificate_pass_checks_blocks_not_words(self, monkeypatch):
        # every block fails its round trip, so the certificate pass runs; it
        # reads the checked blocks: 51 prefixes and the 443 words of each
        # key's first block at m = 8, never one check per word (11,051)
        calls = []
        check = words._growth_violation
        monkeypatch.setattr(words, "_growth_violation",
                            lambda letters: calls.append(letters) or check(letters))
        monkeypatch.setattr(bridge, "_decode", lambda lo, mid: (-1, -1))
        report = verify_bridge(8)
        assert len(calls) == 494
        assert report.word_count == 11051
        assert report.is_injective_on_orbits and report.is_surjective_on_orbits

    def test_dropped_word_is_certified_as_missed_orbit(self, monkeypatch):
        dropped = enumerate_words(4)[17]
        patch_walk(monkeypatch, lambda ws: [w for w in ws if w != dropped.letters])
        report = verify_bridge(4)
        assert report.word_count == 50
        assert report.orbit_count == 51
        assert report.is_injective_on_orbits
        assert not report.is_surjective_on_orbits
        assert report.missed_orbits == [state_index(canonical_form(encode_word(dropped)))]

    def test_duplicate_word_is_certified_as_collision(self, monkeypatch):
        walks = patch_walk(monkeypatch, lambda ws: ws + ws[17:18])
        extra = enumerate_words(4)[17]
        report = verify_bridge(4)
        assert len(walks) == 2  # the repeat broke the letter order: certificates ran
        assert report.word_count == 52
        assert report.collisions == [(extra, extra)]
        assert not report.is_injective_on_orbits
        assert report.is_surjective_on_orbits
        assert report.missed_orbits == []

    def test_missed_orbits_need_no_sweep(self, monkeypatch):
        # the certificates are read off the orbit minima, not found by
        # testing every state for the shape of a minimum
        def unsweepable(spec):
            raise AssertionError("verify_bridge swept the states")
        monkeypatch.setattr(orbits, "_minimal", unsweepable)
        dropped = enumerate_words(5)[40]
        patch_walk(monkeypatch, lambda ws: [w for w in ws if w != dropped.letters])
        report = verify_bridge(5)
        assert (report.word_count, report.orbit_count) == (186, 187)
        assert report.missed_orbits == [state_index(canonical_form(encode_word(dropped)))]

    def test_collisions_are_listed_by_canonical_image(self, monkeypatch):
        first, last = enumerate_words(4)[0], enumerate_words(4)[-1]
        image = lambda w: state_index(canonical_form(encode_word(w)))
        assert image(first) < image(last)
        patch_walk(monkeypatch, lambda ws: ws + [ws[-1], ws[0]])
        report = verify_bridge(4)
        assert report.word_count == 53
        assert report.collisions == [(first, first), (last, last)]

    def test_words_out_of_order_fall_back_to_certificates(self, monkeypatch):
        # the right words, out of order: the streamed pass cannot tell them
        # apart from repeats, so the certificate pass decides, and finds a
        # bijection
        expected = verify_bridge(5)
        walks = patch_walk(monkeypatch, lambda ws: ws[::-1])
        report = verify_bridge(5)
        assert len(walks) == 2
        assert report == expected
        assert (report.word_count, report.orbit_count) == (187, 187)
        assert report.is_injective_on_orbits and report.is_surjective_on_orbits
        assert report.collisions == [] and report.missed_orbits == []

    def test_duplicate_hiding_a_drop_is_certified(self, monkeypatch):
        # as many words as orbits, yet one orbit twice and one never: every
        # word round-trips, so only the letter order catches the repeat
        words4 = enumerate_words(4)
        patch_walk(monkeypatch, lambda ws: ws[:17] + ws[18:] + ws[5:6])
        report = verify_bridge(4)
        assert (report.word_count, report.orbit_count) == (51, 51)
        assert report.collisions == [(words4[5], words4[5])]
        assert report.missed_orbits == [state_index(canonical_form(encode_word(words4[17])))]
        assert not (report.is_injective_on_orbits or report.is_surjective_on_orbits)

    def test_duplicate_across_blocks_is_certified(self, monkeypatch):
        # as above, with the first word again after the last, as a block of
        # its own whose one tail increases: only the block order catches it
        words5 = enumerate_words(5)
        patch_walk(monkeypatch, lambda ws: ws[:17] + ws[18:] + ws[:1])
        report = verify_bridge(5)
        assert (report.word_count, report.orbit_count) == (187, 187)
        assert report.collisions == [(words5[0], words5[0])]
        assert report.missed_orbits == [state_index(canonical_form(encode_word(words5[17])))]

    def test_duplicate_within_a_tails_table_is_certified(self, monkeypatch):
        # as above, with the repeat and the drop in one block: 2112 twice and
        # no 2113, so only the check that each tails table increases catches it
        words4 = enumerate_words(4)
        patch_walk(monkeypatch, lambda ws: ws[:17] + ws[16:17] + ws[18:])
        report = verify_bridge(4)
        assert (report.word_count, report.orbit_count) == (51, 51)
        assert report.collisions == [(words4[16], words4[16])]
        assert report.missed_orbits == [state_index(canonical_form(encode_word(words4[17])))]

    # the fast path trusts distinct letters to give distinct indices only
    # after checking the encoder: with 3 and 4 on one row, 1233 and 1234
    # share an index, and the certificates must report it
    def test_encoder_merge_is_certified(self, monkeypatch):
        merge_3_and_4(monkeypatch)
        report = verify_bridge(4)
        assert not report.is_injective_on_orbits
        assert report.collisions[0] == (RGWord((1, 2, 3, 3)), RGWord((1, 2, 3, 4)))
        assert len(report.missed_orbits) == 10

    def test_encoder_merge_without_a_4_is_harmless(self, monkeypatch):
        merge_3_and_4(monkeypatch)
        report = verify_bridge(2)  # no word of length 2 holds a 4
        assert report.is_injective_on_orbits and report.is_surjective_on_orbits

    def test_encoder_merge_fails_verify(self, monkeypatch, capsys):
        merge_3_and_4(monkeypatch)
        assert cli.main(["verify", "--m-max", "4"]) == 1
        assert "first_collision=1233/1234" in capsys.readouterr().err

    def test_success_walks_once(self, monkeypatch):
        # and builds no RGWord: nothing is collected on success
        def unreachable(letters):
            raise AssertionError("verify_bridge built an RGWord on success")
        monkeypatch.setattr(bridge, "RGWord", unreachable)
        walks = patch_walk(monkeypatch, lambda ws: ws)
        report = verify_bridge(5)
        assert len(walks) == 1
        assert report.is_injective_on_orbits and report.is_surjective_on_orbits


def merge_3_and_4(monkeypatch):
    """Make the bridge's encoder give the letter 4 the row of 3."""
    real = bridge._word_index
    monkeypatch.setattr(bridge, "_word_index",
                        lambda letters, m: real([min(a, 3) for a in letters], m))


def lanes_of(states, m):
    """The g halves and the k halves of the packed states as lanes of m + 1
    bits, the first state lowest, and the lanes' guard bits."""
    mask = (1 << m) - 1
    return (to_lanes([i >> m for i in states], m), to_lanes([i & mask for i in states], m),
            to_lanes([1 << m] * len(states), m))


def round_trip(states, m):
    """The kernel's minima of the states, as one block of lanes, and the
    decoded lanes, each as packed indices; both lane for lane equal to the
    sorted-triple oracle's, guard bits and all."""
    g, k, guard = lanes_of(states, m)
    lo, mid = _least_lanes(g, k, m, guard)
    reps = [least_sorted(i, m) for i in states]
    assert (lo, mid) == lanes_of(reps, m)[:2]
    back = bridge._decode(lo, mid)
    assert back == lanes_of([decode_index(rep, m) for rep in reps], m)[:2]
    count = len(states)
    return ([a << m | b for a, b in zip(from_lanes(lo, m, count), from_lanes(mid, m, count))],
            [a << m | b for a, b in zip(*(from_lanes(x, m, count) for x in back))])


def decode(rep, m):
    """bridge._decode on one lane: the packed index of the word of the orbit
    whose minimum is rep."""
    g, k = bridge._decode(rep >> m, rep & ((1 << m) - 1))
    return g << m | k


class TestRoundTrip:
    """decode against the letter-level oracles: the round trip alone keeps
    invalid words out of verify_bridge."""

    def test_round_trip_holds_exactly_on_words(self):
        # so the walk's two per-word checks, letter order and round trip,
        # need no growth rule of their own; the encoder refuses the empty
        # word.  Every state takes it twice: as a one-lane block, through
        # _least and decode, and as a lane of one block of all 4^m states
        # (2-bit lanes at m = 1), through the kernel and bridge._decode
        for m in range(1, 8):
            least = _least(GroupSpec.uniform(2, m))
            words = list(product(ALPHABET, repeat=m))
            states = [bridge._word_index(letters, m) for letters in words]
            reps, back = round_trip(states, m)
            for letters, i, rep, j in zip(words, states, reps, back):
                expected = _growth_violation(letters) is None
                assert least(i) == rep, letters
                assert (decode(rep, m) == i) == (j == i) == expected, letters

    @pytest.mark.parametrize("m", range(1, 9))
    def test_word_orbit_word(self, m):
        least = _least(GroupSpec.uniform(2, m))
        for letters in _words(m):
            i = bridge._word_index(letters, m)
            assert decode(least(i), m) == i, letters

    @pytest.mark.parametrize("m", range(1, 9))
    def test_orbit_word_orbit(self, m):
        spec = GroupSpec.uniform(2, m)
        least = _least(spec)
        decoded = []
        for rep, _ in minima_of(_echelon_runs(spec)):
            i = decode(rep, m)
            assert least(i) == rep, rep
            decoded.append(i)
        # so decoding the minima gives exactly the words
        assert sorted(decoded) == sorted(bridge._word_index(w, m) for w in _words(m))

    @pytest.mark.parametrize("m", [16, 64, 1000])
    def test_decoded_states_are_words(self, m):
        # past the exhaustive range: any state's orbit decodes to a valid word
        spec = GroupSpec.uniform(2, m)
        least = _least(spec)
        fmt, rng = cli.state_formatter(spec), random.Random(m)
        for _ in range(200):
            word = letters_of_rows(fmt(decode(least(rng.getrandbits(2 * m)), m)))
            assert _growth_violation(word) is None, word

    def test_invalid_walked_word_is_refused(self, monkeypatch):
        # in place of 1234, between 1233 and 2111, so the letters still
        # increase: a word breaking the growth bound fails the round trip,
        # and the certificate pass refuses it when it builds the word
        bad = (1, 3, 1, 1)
        at = list(_words(4)).index((1, 2, 3, 4))
        patch_walk(monkeypatch, lambda ws: [*ws[:at], bad, *ws[at + 1:]])
        with pytest.raises(ValueError, match="breaks the growth bound"):
            verify_bridge(4)

    @pytest.mark.parametrize("m", [1, 2, 5, 9])
    def test_all_ones_in_the_top_lane(self, m):
        # the top lane's values at their largest: nothing may carry above it
        ones, rng = (1 << m) - 1, random.Random(m)
        below = [rng.getrandbits(2 * m) for _ in range(7)]
        for g, k in product((ones, ones - 1, 0), repeat=2):
            round_trip([*below, g << m | k], m)

    def test_invalid_word_in_the_top_lane_fails_its_block(self, monkeypatch):
        # the walk's last word at m = 5, 23444, becomes 24111: the tails still
        # increase, and only the top lane of the last block fails the round
        # trip, so the certificate pass runs and refuses the word
        block = [w for w in _words(5) if w[0] == 2][:-1] + [(2, 4, 1, 1, 1)]
        states = [bridge._word_index(w, 5) for w in block]
        back = round_trip(states, 5)[1]
        assert [i for i, j in zip(states, back) if i != j] == states[-1:]
        walks = patch_walk(monkeypatch, lambda ws: [*ws[:-1], block[-1]])
        with pytest.raises(ValueError, match="breaks the growth bound"):
            verify_bridge(5)
        assert len(walks) == 2
