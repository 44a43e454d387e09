import random
from itertools import product

import pytest

from oracles import letters_of_rows, pair
from orbitlab import bridge, cli
from orbitlab.bridge import encode_word, verify_bridge
from orbitlab.orbits import (
    _canonical_engine,
    _echelon_minima,
    canonical_form,
    orbit_summaries,
)
from orbitlab.residues import GroupSpec, state_index
from orbitlab.words import (
    ALPHABET,
    LETTER_BITS,
    RGWord,
    _growth_violation,
    _words,
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
    def test_word_11_is_zero_matrix(self):
        assert encode_word(RGWord((1, 1))).rows() == [(0, 0), (0, 0)]

    def test_word_12(self):
        assert encode_word(RGWord((1, 2))).rows() == [(0, 0), (1, 0)]

    def test_word_234(self):
        assert encode_word(RGWord((2, 3, 4))).rows() == [(1, 0), (1, 1), (0, 1)]

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

    @pytest.mark.parametrize("m", [9, 10])
    def test_bijective_at_desk_scale_limit(self, m):
        report = verify_bridge(m)
        assert report.is_surjective_on_orbits
        assert report.is_injective_on_orbits
        assert report.word_count == report.orbit_count

    def test_domain(self):
        with pytest.raises(ValueError):
            verify_bridge(0)

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
        real_engine = bridge._canonical_engine

        def engine(spec):
            least, _ = real_engine(spec)

            def is_least(i):
                raise AssertionError("verify_bridge swept the states")
            return least, is_least
        monkeypatch.setattr(bridge, "_canonical_engine", engine)
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


def patch_walk(monkeypatch, change):
    """Make verify_bridge walk change(the real walk's list of letters);
    return the list of the m of each walk it starts."""
    real, walks = bridge._words, []

    def walk(m):
        walks.append(m)
        return change(list(real(m)))
    monkeypatch.setattr(bridge, "_words", walk)
    return walks


def merge_3_and_4(monkeypatch):
    """Make the bridge's encoder give the letter 4 the row of 3."""
    real = bridge._word_index
    monkeypatch.setattr(bridge, "_word_index",
                        lambda letters, m: real([min(a, 3) for a in letters], m))


class TestRoundTrip:
    """decode against the letter-level oracles: the round trip alone keeps
    invalid words out of verify_bridge."""

    def test_round_trip_holds_exactly_on_words(self):
        # so the walk's two per-word checks, letter order and round trip,
        # need no growth rule of their own; the encoder refuses the empty word
        for m in range(1, 8):
            least, _ = _canonical_engine(GroupSpec.uniform(2, m))
            for letters in product(ALPHABET, repeat=m):
                i = bridge._word_index(letters, m)
                expected = _growth_violation(letters) is None
                assert (bridge._decode(least(i), m) == i) == expected, letters

    @pytest.mark.parametrize("m", range(1, 9))
    def test_word_orbit_word(self, m):
        least, _ = _canonical_engine(GroupSpec.uniform(2, m))
        for letters in _words(m):
            i = bridge._word_index(letters, m)
            assert bridge._decode(least(i), m) == i, letters

    @pytest.mark.parametrize("m", range(1, 9))
    def test_orbit_word_orbit(self, m):
        spec = GroupSpec.uniform(2, m)
        least, _ = _canonical_engine(spec)
        decoded = []
        for rep, _ in _echelon_minima(spec):
            i = bridge._decode(rep, m)
            assert least(i) == rep, rep
            decoded.append(i)
        # so decoding the minima gives exactly the words
        assert sorted(decoded) == sorted(bridge._word_index(w, m) for w in _words(m))

    @pytest.mark.parametrize("m", [16, 64, 1000])
    def test_decoded_states_are_words(self, m):
        # past the exhaustive range: any state's orbit decodes to a valid word
        spec = GroupSpec.uniform(2, m)
        least, _ = _canonical_engine(spec)
        fmt, rng = cli.state_formatter(spec), random.Random(m)
        for _ in range(200):
            word = letters_of_rows(fmt(bridge._decode(least(rng.getrandbits(2 * m)), m)))
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
