import array
import tracemalloc

import pytest

from oracles import PARITY_GRID, all_states, apply_mat, group_image, minima_of, orbit_of, pair
from orbitlab import orbits
from orbitlab.formulas import r_formula
from orbitlab.orbits import (
    _bfs_runs,
    _echelon_runs,
    _least,
    _level_moves,
    _minimal,
    canonical_form,
    count_orbits_bfs,
    count_orbits_burnside,
    count_orbits_canonical,
    orbit_summaries,
)
from orbitlab.residues import (
    GroupSpec,
    PairState,
    apply_s,
    apply_t,
    enumerate_sl2,
    state_from_index,
    state_index,
)


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


def row_index(s):
    """The row-packed index of _bfs_runs: row t is the base-p^2 digit
    k_t p + g_t, the first row most significant."""
    p, r = s.spec.p, 0
    for g, k in s.rows():
        r = r * p * p + k * p + g
    return r


def row_state(r, spec):
    """The state whose row-packed index is r, as _bfs_runs packs it: row t
    is the base-p^2 digit k_t p + g_t, the first row most significant."""
    p, rows = spec.p, []
    for _ in range(spec.n):  # the last row first
        r, d = divmod(r, p * p)
        rows.append(divmod(d, p))  # (k, g)
    rows.reverse()
    return pair([g for _, g in rows], [k for k, _ in rows], spec)


def bfs_minima(spec):
    """The BFS census as sorted (packed minimum, size) pairs.  Every orbit
    above each run's prefix, one per tail, is unpacked and re-closed by
    orbit_of: the closure must have the run's size, and the run must count
    one orbit per tail, p^(2(n - depth)), which is 1 on the last row."""
    found = []
    for prefix, depth, count, size in _bfs_runs(spec):
        tail = spec.p ** (2 * (spec.n - depth))
        assert count == tail, (prefix, depth, count)
        for t in range(tail):
            orbit = orbit_of(row_state(prefix * tail + t, spec))
            assert len(orbit) == size, (prefix, depth, t, size)
            found.append((min(map(state_index, orbit)), size))
    return sorted(found)


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

    @pytest.mark.parametrize("p,n", [(3, 5), (11, 1), (13, 1), (13, 2), (5, 0),
                                     (2, 1), (3, 1), (2, 2), (3, 3), (2, 0),
                                     (2, 6), (5, 3)])
    def test_move_table_shapes(self, p, n):
        # n = 1 has one level of p^2 candidates over the empty prefix, with
        # p-entry tables; n = 0 has one state and no row; at (2, 6) and
        # (5, 3) most orbits lie over free prefix orbits and are counted a
        # run at a time, so orbit_of re-closes each of them here
        spec = GroupSpec.uniform(p, n)
        assert bfs_minima(spec) == minima_of(_echelon_runs(spec))
        assert count_orbits_bfs(spec).orbit_count == r_formula(p, n)

    @pytest.mark.parametrize("p,n", [(2, 5), (3, 4)])
    def test_a_wrong_group_order_only_costs_time(self, p, n, monkeypatch):
        # a prefix orbit is counted a run at a time only when it has
        # sl2_order members; an order that matches no orbit's size sends
        # every prefix down to the last row, which finds the same orbits
        spec = GroupSpec.uniform(p, n)
        minima = bfs_minima(spec)
        monkeypatch.setattr(GroupSpec, "sl2_order", property(lambda self: 0))
        assert bfs_minima(spec) == minima
        assert {depth for _, depth, _, _ in _bfs_runs(spec)} == {n}

    @pytest.mark.parametrize("p,n,order", [(2, 1, 0), (2, 6, 0), (3, 4, 0), (5, 3, 0),
                                           (7, 2, 0), (13, 1, 0), (43, 1, None), (2, 0, 0)])
    def test_the_array_closes_the_orbits_the_lists_do(self, p, n, order, monkeypatch):
        # the last row closes each orbit in a new list, or, past
        # _ARRAY_ORDER, in one array made per sweep and cleared per orbit:
        # with the switch at 0 every last row takes the array, with it at
        # the group order none does, and the runs are the same run for run.
        # From p = 41 on the array is the default
        made, real = [], array.array
        monkeypatch.setattr(array, "array", lambda code: made.append(code) or real(code))
        spec = GroupSpec.uniform(p, n)
        if order is not None:
            monkeypatch.setattr(orbits, "_ARRAY_ORDER", order)
        runs = list(_bfs_runs(spec))
        assert made == ["I"]
        monkeypatch.setattr(orbits, "_ARRAY_ORDER", spec.sl2_order)
        assert list(_bfs_runs(spec)) == runs and made == ["I"]
        assert sum(count for _, _, count, _ in runs) == r_formula(p, n)

    @pytest.mark.parametrize("p,n,wrong,right", [(2, 5, 342, 187), (3, 4, 821, 301),
                                                 (5, 3, 652, 156)])
    def test_a_line_orbit_size_for_the_group_order_counts_wrong(
            self, p, n, wrong, right, monkeypatch):
        # p^2 - 1 is the size of a line's orbit, whose stabilizer is not
        # trivial: its tails are counted one orbit each where fewer lie.
        # The runs still cover every state, so the count is wrong without
        # an error, and the canonical and formula routes, which do not
        # read the order, do not share it
        spec = GroupSpec.uniform(p, n)
        assert count_orbits_bfs(spec).orbit_count == right == r_formula(p, n)
        monkeypatch.setattr(GroupSpec, "sl2_order", property(lambda self: self.p ** 2 - 1))
        runs = list(_bfs_runs(spec))
        assert sum(count * size for _, _, count, size in runs) == spec.state_count
        assert count_orbits_bfs(spec).orbit_count == wrong
        assert count_orbits_canonical(spec).orbit_count == right

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_the_moves_act_freely_on_a_plane_basis(self, p):
        # [e1 | e2] has a trivial stabilizer, the fact the runs rest on:
        # closed under the two moves alone, it has sl2_order members
        spec = GroupSpec.uniform(p, 2)
        assert len(orbit_of(pair([1, 0], [0, 1], spec))) == spec.sl2_order

    @pytest.mark.parametrize("p,n", [(2, 0), (2, 1), (3, 1), (13, 1), (2, 2), (3, 3), (5, 2)])
    def test_move_tables_are_the_moves(self, p, n):
        # both images of every state, read off the tables of the last level
        # as the sweep reads them, with every prefix of the first n - 1 rows
        # kept at its row-packed index x: a state is the candidate
        # (k p + g) L + x of its last row (g, k).  At n = 0 the one state
        # is level 0's empty prefix, with no row
        spec, q = GroupSpec.uniform(p, n), p if n else 1
        prefixes = list(all_states(GroupSpec.uniform(p, max(n - 1, 0))))
        prefixes.sort(key=row_index)
        S = [row_index(apply_s(s)) for s in prefixes]
        T = [row_index(apply_t(s)) for s in prefixes]
        L, total = len(prefixes), q * q * len(prefixes)
        s_hi, s_lo, t_hi, t_lo = _level_moves(q, S, T)

        def candidate(s):
            r = row_index(s)
            return r % (q * q) * L + r // (q * q)
        for s in all_states(spec):
            hi, lo = divmod(candidate(s), q * L)
            assert s_hi[hi] + s_lo[lo] == candidate(apply_s(s)), s
            assert (t_hi[hi] + t_lo[lo]) % total == candidate(apply_t(s)), s

    @pytest.mark.parametrize("p,n", [(2, 0), (2, 1), (3, 1), (13, 1), (2, 2), (3, 3),
                                     (5, 2), (2, 3), (3, 5)])
    def test_t_sum_wraps_at_most_once(self, p, n, monkeypatch):
        # the sweep brings T's table sum back with one conditional
        # subtraction: on every level it builds, the largest sum, max +
        # max, is below twice the level's q^2 L candidates
        levels = []

        def recorded(q, S, T):
            levels.append((q * q * len(S), _level_moves(q, S, T)))
            return levels[-1][1]
        monkeypatch.setattr(orbits, "_level_moves", recorded)
        assert count_orbits_bfs(GroupSpec.uniform(p, n)).orbit_count == r_formula(p, n)
        assert len(levels) == n + 1
        for total, (_, _, t_hi, t_lo) in levels:
            assert max(t_hi) + max(t_lo) < 2 * total

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
        least = _least(spec)
        minimal = {g: test for gs, test in _minimal(spec) for g in gs}
        for i, low in brute_minima(spec).items():
            assert least(i) == low, state_from_index(i, spec)
            g, k = divmod(i, spec.group_order)
            assert bool(minimal[g](k)) == (least(i) == i), state_from_index(i, spec)

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

    @pytest.mark.parametrize("p,n", [(2, 0), (2, 5), (3, 3), (5, 2), (17, 1)])
    def test_every_state_reaches_one_test(self, p, n, monkeypatch):
        # every state [g | k] lies under exactly one case's test: g in one
        # case's gs, k at one of that test's calls.  The g's of a case share
        # one test, so the census sums it once per case: a sum per g would
        # repeat it and check nothing.  No range bound or closed form stands
        # in for a k: the census would become the echelon listing or the
        # formula it checks
        cases = []
        real = orbits._minimal

        def counted(spec):
            for gs, test in real(spec):
                calls = []
                cases.append((gs, calls))
                yield gs, lambda k, test=test, calls=calls: calls.append(k) or test(k)
        monkeypatch.setattr(orbits, "_minimal", counted)
        spec, order = GroupSpec.uniform(p, n), p ** n
        assert count_orbits_canonical(spec).orbit_count == r_formula(p, n)
        assert [g for gs, _ in cases for g in gs] == list(range(order))  # in order
        assert len(cases) == (1 + n if p == 2 else 1 + 2 * n)
        assert all(calls == list(range(order)) for _, calls in cases)

    @pytest.mark.parametrize("p,n", [(2, 6), (5, 2)])
    def test_one_wrong_entry_counts_once_per_g(self, p, n, monkeypatch):
        # the weight len(gs) does not mask a wrong test: its value flipped at
        # one k in the case of the last g moves the count by exactly its g's
        real = orbits._minimal
        flipped = []

        def one_wrong(spec):
            for gs, test in real(spec):
                if spec.group_order - 1 in gs:
                    flipped.append((gs, test(0)))
                    test = lambda k, test=test: not test(0) if k == 0 else test(k)
                yield gs, test
        monkeypatch.setattr(orbits, "_minimal", one_wrong)
        count = count_orbits_canonical(GroupSpec.uniform(p, n)).orbit_count
        (gs, was), = flipped
        assert len(gs) > 1
        assert count - r_formula(p, n) == (-1 if was else 1) * len(gs)

    def test_holds_no_table(self):
        # each case's test is summed straight from the predicate: one call's
        # traced peak stays far below that of a p^n table per case, which
        # peaks at 68 KB at (2, 12), 39 KB at (3, 7) and 172 KB at (101, 2)
        for p, n in [(2, 12), (3, 7), (101, 2)]:
            spec = GroupSpec.uniform(p, n)
            count_orbits_canonical(spec)  # warm up: the spec's cached values
            tracemalloc.start()
            try:
                count_orbits_canonical(spec)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 16 * 1024, (p, n, peak)

    def test_reads_no_listing(self, monkeypatch):
        # the census tests every state; the echelon runs are the answer it checks
        def unlisted(spec):
            raise AssertionError("the canonical census read the echelon runs")
        monkeypatch.setattr(orbits, "_echelon_runs", unlisted)
        for p, n in [(2, 0), *PARITY_GRID]:
            spec = GroupSpec.uniform(p, n)
            assert count_orbits_canonical(spec).orbit_count == r_formula(p, n)

    @pytest.mark.parametrize("p,n", [(2, 8), (3, 5), (5, 3), (7, 2), (13, 2)])
    def test_minimal_is_the_row_reduced_minimum(self, p, n):
        spec = GroupSpec.uniform(p, n)
        least, order = _least(spec), spec.group_order
        cases = [(g, test) for gs, test in _minimal(spec) for g in gs]
        assert [g for g, _ in cases] == list(range(order))  # every g once, in order
        for g, test in cases:
            for k in range(order):
                i = g * order + k
                assert bool(test(k)) == (least(i) == i), (g, k)

    @pytest.mark.parametrize("p,n", [(2, 40), (3, 40), (5, 20), (101, 8)])
    def test_zero_g_test_at_place_boundaries(self, p, n):
        # past the exhaustive grid, the g = 0 test at each place p^t's
        # boundaries: k = p^t - 1, p^t, 2 p^t - 1 and 2 p^t, where k's
        # leading entry or its place changes; state [0 | k] has index k
        spec = GroupSpec.uniform(p, n)
        least = _least(spec)
        (gs, test), *_ = _minimal(spec)
        assert gs == range(1)
        samples = {k for t in range(n + 1) for k in (p ** t - 1, p ** t, 2 * p ** t - 1, 2 * p ** t)
                   if k < spec.group_order}
        for k in sorted(samples):
            assert bool(test(k)) == (least(k) == k), k


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

    @pytest.mark.parametrize("p,n", [(2, 0), *PARITY_GRID])
    def test_runs_flatten_to_the_bfs_minima(self, p, n):
        spec = GroupSpec.uniform(p, n)
        runs = list(_echelon_runs(spec))
        flat = [(i, size) for first, count, size in runs for i in range(first, first + count)]
        assert flat == bfs_minima(spec)
        # each run is nonempty and ends before the next begins
        assert all(count > 0 for _, count, _ in runs)
        assert all(a + count <= b for (a, count, _), (b, _, _) in zip(runs, runs[1:]))

    @pytest.mark.parametrize("p,n_max", TestMethodAgreement.GRID)
    def test_matches_the_bfs_census(self, p, n_max):
        for n in range(n_max + 1):
            spec = GroupSpec.uniform(p, n)
            listed = [(state_index(s.representative), s.size)
                      for s in orbit_summaries(spec)]
            assert listed == bfs_minima(spec)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_one_orbit_per_line_and_p_minus_1_per_plane(self, p):
        for n in range(4):
            sizes = [s.size for s in orbit_summaries(GroupSpec.uniform(p, n))]
            assert sizes.count(1) == 1
            assert sizes.count(p * p - 1) == gaussian_binomial(n, 1, p)
            assert sizes.count(p * (p * p - 1)) == (p - 1) * gaussian_binomial(n, 2, p)
            assert len(sizes) == r_formula(p, n)

    @pytest.mark.parametrize("p,n", [(2, 4), (3, 3), (5, 2)])
    def test_representatives_are_their_indexed_states(self, p, n):
        spec = GroupSpec.uniform(p, n)
        for s in orbit_summaries(spec):
            assert s.spec == spec
            assert s.representative == state_from_index(s.index, spec)
            assert state_index(s.representative) == s.index

    @pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (11, 1)] + [(2, n) for n in range(7)])
    def test_records_give_the_eager_values(self, p, n):
        # the representative and stabilizer order, computed on each read,
        # against oracles that share no code with the record: the least
        # member of the BFS orbit, and the matrices that fix it
        spec = GroupSpec.uniform(p, n)
        matrices = enumerate_sl2(p)
        for s in orbit_summaries(spec):
            rep = s.representative
            assert isinstance(rep, PairState) and rep.spec == spec
            assert rep == min(orbit_of(rep), key=state_index)
            if n:
                assert s.stabilizer_order == sum(apply_mat(rep, mat) == rep for mat in matrices)
            else:
                assert s.stabilizer_order is None

    def test_rejects_non_uniform(self):
        with pytest.raises(ValueError):
            orbit_summaries(GroupSpec.uniform(6, 0))
