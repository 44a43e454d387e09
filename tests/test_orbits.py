import pytest

from orbitlab.budget import BudgetExceeded
from orbitlab.formulas import r_formula
from orbitlab.orbits import (
    _bfs_orbits,
    _canonical_engine,
    canonical_form,
    count_orbits_bfs,
    count_orbits_burnside,
    count_orbits_canonical,
    orbit_of,
    orbit_summaries,
)
from orbitlab.residues import (
    GroupSpec,
    PairState,
    ResidueVector,
    apply_mat,
    enumerate_sl2,
    state_from_index,
    state_index,
)


def pair(g, k, spec):
    return PairState(ResidueVector(tuple(g), spec), ResidueVector(tuple(k), spec))


def all_states(spec):
    return [state_from_index(i, spec) for i in range(spec.state_count)]


def group_image(s):
    """Independent orbit oracle: the set of all matrix images of s."""
    return {apply_mat(s, m) for m in enumerate_sl2(s.spec.p)}


def brute_minima(spec):
    """Index -> least index of its orbit, the minimum over all matrix images.

    Each orbit's images are taken from one member: they are the whole orbit.
    """
    minima = {}
    for s in all_states(spec):
        if state_index(s) not in minima:
            orbit = [state_index(t) for t in group_image(s)]
            minima.update(dict.fromkeys(orbit, min(orbit)))
    return minima


def gaussian_binomial(n, k, p):
    """[n, k]_p: the number of k-dimensional subspaces of F_p^n."""
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    assert num % den == 0
    return num // den


PARITY_GRID = ([(2, n) for n in range(1, 5)] + [(3, n) for n in range(1, 4)]
               + [(5, 2), (7, 2)])

Z2 = GroupSpec.uniform(2, 1)
Z2_2 = GroupSpec.uniform(2, 2)


class TestOrbitOf:
    def test_zero_is_fixed(self):
        zero = PairState.zero(Z2)
        assert orbit_of(zero) == {zero}

    def test_p2_n1_nonzero_orbit(self):
        orbit = orbit_of(pair([0], [1], Z2))
        assert orbit == {pair([0], [1], Z2), pair([1], [0], Z2), pair([1], [1], Z2)}

    def test_identity_matrix_orbit_has_six_members(self):
        # rows (1,0) and (0,1): the class of invertible matrices; it
        # contains the identity, so 5 listed non-identity members plus it
        s = pair([1, 0], [0, 1], Z2_2)
        orbit = orbit_of(s)
        assert len(orbit) == 6
        assert orbit == group_image(s)

    def test_moves_closure_equals_group_image_everywhere(self):
        for spec in [Z2_2, GroupSpec.uniform(3, 1)]:
            for s in all_states(spec):
                assert orbit_of(s) == group_image(s)


class TestBfsCensus:
    def test_small_counts(self):
        assert count_orbits_bfs(Z2).orbit_count == 2
        assert count_orbits_bfs(Z2_2).orbit_count == 5
        assert count_orbits_bfs(GroupSpec.uniform(3, 2)).orbit_count == 7
        assert r_formula(3, 2) == 7

    def test_trivial_group(self):
        assert count_orbits_bfs(GroupSpec.uniform(2, 0)).orbit_count == 1

    def test_summaries_partition_the_states(self):
        for spec in [Z2_2, GroupSpec.uniform(3, 2), GroupSpec.uniform(2, 3)]:
            summaries = orbit_summaries(spec)
            assert len(summaries) == count_orbits_bfs(spec).orbit_count
            assert sum(s.size for s in summaries) == spec.state_count

    def test_budget_error_names_limit(self):
        with pytest.raises(BudgetExceeded, match="10"):
            count_orbits_bfs(GroupSpec.uniform(2, 3), budget=10)

    def test_deterministic(self):
        assert count_orbits_bfs(Z2_2).orbit_count == count_orbits_bfs(Z2_2).orbit_count
        assert orbit_summaries(Z2_2) == orbit_summaries(Z2_2)


class TestCanonicalForm:
    def test_zero_is_canonical(self):
        zero = PairState.zero(Z2_2)
        assert canonical_form(zero) == zero

    def test_p2_n1_example(self):
        # oracle: minimum of the orbit under the packed-index order
        s = pair([1], [1], Z2)
        expected = min(orbit_of(s), key=state_index)
        assert expected == pair([0], [1], Z2)
        assert canonical_form(s) == expected

    def test_idempotent(self):
        for s in all_states(Z2_2):
            assert canonical_form(canonical_form(s)) == canonical_form(s)

    def test_constant_on_orbits(self):
        specs = ([GroupSpec.uniform(2, n) for n in range(4)]
                 + [GroupSpec.uniform(3, n) for n in range(3)])
        for spec in specs:
            for s in all_states(spec):
                canon = canonical_form(s)
                assert all(canonical_form(t) == canon for t in orbit_of(s))

    def test_is_orbit_minimum(self):
        # Z_3^2 and Z_5^2 take the row-reduction path; Z_2^3 the bit path
        for spec in (GroupSpec.uniform(3, 2), GroupSpec.uniform(5, 2),
                     GroupSpec.uniform(2, 3)):
            for s in all_states(spec):
                assert canonical_form(s) == min(orbit_of(s), key=state_index), s

    @pytest.mark.parametrize("p,n", PARITY_GRID)
    def test_engine_matches_the_matrix_minimum(self, p, n):
        spec = GroupSpec.uniform(p, n)
        least, is_least = _canonical_engine(spec)
        for i, low in brute_minima(spec).items():
            assert least(i) == low, state_from_index(i, spec)
            assert is_least(i) == (least(i) == i), state_from_index(i, spec)

    def test_rejects_non_uniform(self):
        # a composite modulus is refused when the spec is built
        with pytest.raises(ValueError):
            canonical_form(PairState.zero(GroupSpec.uniform(4, 1)))


class TestCanonicalCensus:
    def test_examples(self):
        assert count_orbits_canonical(Z2_2).orbit_count == 5
        assert count_orbits_canonical(GroupSpec.uniform(2, 0)).orbit_count == 1

    def test_matches_bfs_p5(self):
        spec = GroupSpec.uniform(5, 2)
        assert (count_orbits_canonical(spec).orbit_count
                == count_orbits_bfs(spec).orbit_count)

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            count_orbits_canonical(GroupSpec.uniform(4, 1))


class TestBurnsideCensus:
    def test_examples(self):
        assert count_orbits_burnside(Z2).orbit_count == 2
        assert count_orbits_burnside(GroupSpec.uniform(2, 6)).orbit_count == 715

    def test_p3_n3_cross_check(self):
        spec = GroupSpec.uniform(3, 3)
        count = count_orbits_burnside(spec).orbit_count
        assert count == 40  # 2 + F(1) + F(2) = 2 + 5 + 33
        assert count == count_orbits_bfs(spec).orbit_count

    @pytest.mark.parametrize("p", [11, 13, 31])
    def test_matches_formula_beyond_the_grid(self, p):
        for n in range(9):
            assert count_orbits_burnside(GroupSpec.uniform(p, n)).orbit_count == r_formula(p, n)

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            count_orbits_burnside(GroupSpec.uniform(6, 1))


class TestMethodAgreement:
    GRID = [(2, 8), (3, 4), (5, 3), (7, 2)]

    @pytest.mark.parametrize("p,n_max", GRID)
    def test_three_methods_and_formula(self, p, n_max):
        for n in range(n_max + 1):
            spec = GroupSpec.uniform(p, n)
            bfs = count_orbits_bfs(spec).orbit_count
            assert bfs == count_orbits_canonical(spec).orbit_count
            assert bfs == count_orbits_burnside(spec).orbit_count
            assert bfs == r_formula(p, n)

    @pytest.mark.parametrize("p,n_max", GRID)
    def test_difference_law(self, p, n_max):
        counts = [count_orbits_bfs(GroupSpec.uniform(p, n)).orbit_count
                  for n in range(n_max + 1)]
        for n in range(1, n_max):
            assert counts[n + 1] - counts[n] == p ** (n - 1) * (p ** n + p - 1)


class TestOrbitSummaries:
    def test_p2_n1_sizes(self):
        sizes = sorted(s.size for s in orbit_summaries(Z2))
        assert sizes == [1, 3]

    def test_p2_n2_table(self):
        summaries = orbit_summaries(Z2_2)
        assert sorted(s.size for s in summaries) == [1, 3, 3, 3, 6]
        assert sum(s.size for s in summaries) == 16
        trivial_stab = [s for s in summaries if s.stabilizer_order == 1]
        assert len(trivial_stab) == 1
        assert trivial_stab[0].size == 6 == 2 * (2 * 2 - 1)

    def test_sorted_by_representative_and_minimal(self):
        summaries = orbit_summaries(GroupSpec.uniform(3, 2))
        indices = [state_index(s.representative) for s in summaries]
        assert indices == sorted(indices)
        for s in summaries:
            orbit = orbit_of(s.representative)
            assert len(orbit) == s.size
            assert s.representative == min(orbit, key=state_index)

    def test_orbit_stabilizer_identity(self):
        for p, n in [(2, 3), (3, 2), (5, 1)]:
            group_order = p * (p * p - 1)
            for s in orbit_summaries(GroupSpec.uniform(p, n)):
                assert group_order % s.size == 0
                assert s.size * s.stabilizer_order == group_order

    @pytest.mark.parametrize("p,n_max", TestMethodAgreement.GRID)
    def test_matches_the_bfs_census(self, p, n_max):
        for n in range(n_max + 1):
            spec = GroupSpec.uniform(p, n)
            listed = [(state_index(s.representative), s.size)
                      for s in orbit_summaries(spec)]
            assert listed == list(_bfs_orbits(spec, None))

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_one_orbit_per_line_and_p_minus_1_per_plane(self, p):
        for n in range(4):
            sizes = [s.size for s in orbit_summaries(GroupSpec.uniform(p, n))]
            assert sizes.count(1) == 1
            assert sizes.count(p * p - 1) == gaussian_binomial(n, 1, p)
            assert sizes.count(p * (p * p - 1)) == (p - 1) * gaussian_binomial(n, 2, p)
            assert len(sizes) == r_formula(p, n)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            orbit_summaries(GroupSpec.uniform(2, 3), budget=63)

    def test_rejects_non_uniform(self):
        with pytest.raises(ValueError):
            orbit_summaries(GroupSpec.uniform(6, 0))
