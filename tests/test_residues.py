from itertools import product

import pytest

from oracles import all_states, apply_mat, pair
from orbitlab.residues import (
    GroupSpec,
    PairState,
    ResidueVector,
    apply_s,
    apply_t,
    enumerate_sl2,
    state_from_index,
    state_index,
)


Z2 = GroupSpec.uniform(2, 1)
Z3 = GroupSpec.uniform(3, 1)
Z2_2 = GroupSpec.uniform(2, 2)


class TestGroupSpec:
    def test_rejects_bad_moduli(self):
        # p must be a prime that is_prime decides exactly, at every n
        for p, n in [(0, 1), (1, 0), (1, 2), (4, 0), (4, 2), (6, 1), (2, -1),
                     (3317044064679887385961981, 1), (3317044064679887385961991, 0)]:
            with pytest.raises(ValueError):
                GroupSpec(p, n)
            with pytest.raises(ValueError):
                GroupSpec.uniform(p, n)

    def test_trivial_group(self):
        spec = GroupSpec.uniform(2, 0)
        assert (spec.p, spec.n, spec.moduli) == (2, 0, ())
        assert spec.group_order == 1
        assert spec.state_count == 1

    def test_state_count(self):
        assert GroupSpec.uniform(5, 1).state_count == 25
        assert GroupSpec.uniform(3, 2).state_count == 81
        assert GroupSpec.uniform(3, 2).moduli == (3, 3)


class TestMoves:
    def test_apply_s_examples(self):
        assert apply_s(pair([0], [1], Z2)) == pair([1], [0], Z2)
        zero = PairState.zero(Z2_2)
        assert apply_s(zero) == zero
        assert apply_s(pair([1], [0], Z3)) == pair([0], [2], Z3)

    def test_apply_t_examples(self):
        assert apply_t(pair([1], [0], Z2)) == pair([1], [1], Z2)
        v = pair([0], [2], Z3)
        assert apply_t(v) == v
        assert apply_t(pair([1], [1], Z3)) == pair([1], [2], Z3)

    def test_moves_are_pure(self):
        s = pair([1], [0], Z2)
        apply_s(s)
        apply_t(s)
        assert s == pair([1], [0], Z2)

    def test_s_has_order_four(self):
        for spec in [Z2, Z3, Z2_2, GroupSpec.uniform(3, 2)]:
            for s in all_states(spec):
                out = s
                for _ in range(4):
                    out = apply_s(out)
                assert out == s

    def test_t_has_order_lcm(self):
        for spec in [Z2, Z3, Z2_2, GroupSpec.uniform(3, 2), GroupSpec.uniform(5, 1)]:
            for s in all_states(spec):
                out = s
                for _ in range(spec.p):
                    out = apply_t(out)
                assert out == s


def matmul(x, y, p):
    """The 2 x 2 product of (a, b, c, d) tuples, mod p."""
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % p, (a * f + b * h) % p,
            (c * e + d * g) % p, (c * f + d * h) % p)


class TestMat2:
    """2 x 2 matrices over Z_p as (a, b, c, d) tuples, acting by apply_mat."""

    def test_det_enforced(self):
        with pytest.raises(ValueError):
            apply_mat(pair([1], [0], Z3), (1, 0, 0, 2))
        # determinant 3: in SL(2, Z_2), not in SL(2, Z_3)
        apply_mat(pair([1], [0], Z2), (1, 0, 0, 3))
        with pytest.raises(ValueError):
            apply_mat(pair([1], [0], Z3), (1, 0, 0, 3))

    def test_entries_reduced(self):
        # entries are read mod p: (0, -1, 1, 0) is (0, p - 1, 1, 0)
        for spec in [Z3, GroupSpec.uniform(5, 2)]:
            for s in all_states(spec):
                assert apply_mat(s, (0, -1, 1, 0)) == apply_mat(s, (0, spec.p - 1, 1, 0))

    def test_identity_action(self):
        for s in all_states(Z2_2):
            assert apply_mat(s, (1, 0, 0, 1)) == s

    def test_s_matrix_matches_apply_s(self):
        for spec, p in [(Z2_2, 2), (GroupSpec.uniform(3, 2), 3)]:
            mat = (0, p - 1, 1, 0)
            for s in all_states(spec):
                assert apply_mat(s, mat) == apply_s(s)

    def test_t_matrix_matches_apply_t(self):
        # fixes the column-action convention over all 16 states
        for s in all_states(Z2_2):
            assert apply_mat(s, (1, 1, 0, 1)) == apply_t(s)

    def test_action_composes_with_product(self):
        mats = enumerate_sl2(2)
        states = all_states(Z2_2)
        for a in mats:
            for b in mats:
                ab = matmul(a, b, 2)
                for s in states:
                    assert apply_mat(apply_mat(s, a), b) == apply_mat(s, ab)

    def test_trivial_group_is_fixed(self):
        # n = 0 still has its prime: every matrix over it fixes the one state
        for p in (2, 7):
            s = PairState.zero(GroupSpec.uniform(p, 0))
            assert all(apply_mat(s, m) == s for m in enumerate_sl2(p))


class TestEnumerateSl2:
    @pytest.mark.parametrize("p,expected", [(2, 6), (3, 24), (5, 120)])
    def test_order(self, p, expected):
        mats = enumerate_sl2(p)
        assert len(mats) == expected == p * (p * p - 1)
        assert len(set(mats)) == expected
        for a, b, c, d in mats:
            assert (a * d - b * c) % p == 1

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_matches_the_entry_filter(self, p):
        # emitted directly; the filter over all p^4 entry tuples is the oracle
        expected = [(a, b, c, d) for a, b, c, d in product(range(p), repeat=4)
                    if (a * d - b * c) % p == 1]
        assert enumerate_sl2(p) == expected

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            enumerate_sl2(6)


class TestIndexing:
    def test_zero_state_is_zero(self):
        for spec in [Z2, Z3, Z2_2, GroupSpec.uniform(5, 2)]:
            assert state_index(PairState.zero(spec)) == 0

    def test_p2_bit_packing(self):
        assert state_from_index(3, Z2) == pair([1], [1], Z2)
        # g bits come before k bits
        assert state_index(pair([1], [0], Z2)) == 2

    def test_round_trip_exhaustive(self):
        for spec in [GroupSpec.uniform(3, 2), GroupSpec.uniform(5, 2), GroupSpec.uniform(2, 3)]:
            for i in range(spec.state_count):
                assert state_index(state_from_index(i, spec)) == i

    def test_round_trip_from_states(self):
        spec = GroupSpec.uniform(7, 2)
        for s in all_states(spec):
            assert state_from_index(state_index(s), spec) == s

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            state_from_index(4, Z2)
        with pytest.raises(ValueError):
            state_from_index(-1, Z2)

    def test_trivial_group_single_state(self):
        spec = GroupSpec.uniform(2, 0)
        assert state_from_index(0, spec) == PairState.zero(spec)
        with pytest.raises(ValueError):
            state_from_index(1, spec)


class TestVectors:
    def test_entries_reduced(self):
        v = ResidueVector((5, -1), GroupSpec.uniform(3, 2))
        assert v.entries == (2, 2)

    def test_length_checked(self):
        with pytest.raises(ValueError):
            ResidueVector((1,), Z2_2)

    def test_pair_requires_shared_spec(self):
        with pytest.raises(ValueError):
            PairState(ResidueVector((1,), Z2), ResidueVector((1,), Z3))
        with pytest.raises(ValueError):
            PairState(ResidueVector((1, 0), GroupSpec(2, 2)),
                      ResidueVector((1, 0), GroupSpec(3, 2)))
        # equal specs that are distinct objects: the identity test is only
        # a shortcut, equality decides
        first, second = GroupSpec(3, 2), GroupSpec(3, 2)
        assert first is not second
        s = PairState(ResidueVector((1, 2), first), ResidueVector((0, 1), second))
        assert s.rows() == [(1, 0), (2, 1)]

    def test_vector_mismatch_add(self):
        with pytest.raises(ValueError):
            ResidueVector((1,), Z2) + ResidueVector((1,), Z3)
