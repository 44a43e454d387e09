import pytest

from orbitlab import bridge
from orbitlab.bridge import encode_word, verify_bridge
from orbitlab.budget import BudgetExceeded
from orbitlab.orbits import canonical_form, orbit_summaries
from orbitlab.residues import GroupSpec, state_index
from orbitlab.words import RGWord, enumerate_words


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

    def test_budget_and_domain(self):
        with pytest.raises(BudgetExceeded):
            verify_bridge(6, budget=100)
        with pytest.raises(ValueError):
            verify_bridge(0)

    def test_dropped_word_is_certified_as_missed_orbit(self, monkeypatch):
        real = bridge.enumerate_words
        dropped = real(4)[17]
        monkeypatch.setattr(
            bridge, "enumerate_words",
            lambda m, budget=None: [w for w in real(m, budget) if w != dropped])
        report = verify_bridge(4)
        assert report.word_count == 50
        assert report.orbit_count == 51
        assert report.is_injective_on_orbits
        assert not report.is_surjective_on_orbits
        assert report.missed_orbits == [canonical_form(encode_word(dropped))]

    def test_duplicate_word_is_certified_as_collision(self, monkeypatch):
        real = bridge.enumerate_words
        extra = real(4)[17]
        monkeypatch.setattr(bridge, "enumerate_words",
                            lambda m, budget=None: real(m, budget) + [extra])
        report = verify_bridge(4)
        assert report.word_count == 52
        assert report.collisions == [(extra, extra)]
        assert not report.is_injective_on_orbits
        assert report.is_surjective_on_orbits
        assert report.missed_orbits == []
