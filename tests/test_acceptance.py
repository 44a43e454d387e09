"""Acceptance criteria, one test per criterion.

Every check is exact integer equality; stated runtime caps are asserted
with perf_counter.  Sub-millisecond caps are measured as the best of a few
repeats after a warm-up call, which is still an honest check of the bound
(imports and cold caches are not part of the computation being bounded).
Each criterion prints one PASS/FAIL line (visible with pytest -s).
"""

import time
from contextlib import contextmanager
from itertools import product

from oracles import f_recurrence
from orbitlab.bridge import encode_word, verify_bridge
from orbitlab.formulas import f_closed, is_prime, r_formula
from orbitlab.orbits import (
    count_orbits_bfs,
    count_orbits_burnside,
    count_orbits_canonical,
    orbit_summaries,
)
from orbitlab.residues import GroupSpec
from orbitlab.words import count_words, enumerate_words, is_valid_word

GRID = [(2, 8), (3, 4), (5, 3), (7, 2)]


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS  {description}")


def best_of(fn, repeats=5):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_criterion_1_sequence_regression():
    with criterion(1, "r(2, 1..6) = 2, 5, 15, 51, 187, 715 in < 1 ms"):
        def compute():
            return [r_formula(2, n) for n in range(1, 7)]

        assert compute() == [2, 5, 15, 51, 187, 715]
        assert best_of(compute) < 1e-3


def test_criterion_2_enumeration_matches_formula():
    with criterion(2, "BFS census equals the closed form on the whole grid in < 60 s"):
        start = time.perf_counter()
        for p, n_max in GRID:
            for n in range(n_max + 1):
                spec = GroupSpec.uniform(p, n)
                assert count_orbits_bfs(spec).orbit_count == r_formula(p, n), (p, n)
        assert time.perf_counter() - start < 60


def test_criterion_3_three_method_agreement():
    with criterion(3, "bfs = canonical = burnside on the whole grid in < 120 s"):
        start = time.perf_counter()
        for p, n_max in GRID:
            for n in range(n_max + 1):
                spec = GroupSpec.uniform(p, n)
                bfs = count_orbits_bfs(spec).orbit_count
                assert bfs == count_orbits_canonical(spec).orbit_count, (p, n)
                assert bfs == count_orbits_burnside(spec).orbit_count, (p, n)
        assert time.perf_counter() - start < 120


def test_criterion_4_published_orbit_tables():
    with criterion(4, "p=2 orbit tables: sizes {1,3} and {1,3,3,3,6}, one free orbit"):
        def compute():
            return (orbit_summaries(GroupSpec.uniform(2, 1)),
                    orbit_summaries(GroupSpec.uniform(2, 2)))

        n1, n2 = compute()
        assert sorted(s.size for s in n1) == [1, 3]
        assert sorted(s.size for s in n2) == [1, 3, 3, 3, 6]
        assert sum(s.size for s in n2) == 16
        trivial = [s for s in n2 if s.stabilizer_order == 1]
        assert len(trivial) == 1
        assert trivial[0].size == 6 == 2 * (2 * 2 - 1)  # |SL(2, Z_2)|
        assert best_of(compute) < 1e-3


def test_criterion_5_difference_laws():
    with criterion(5, "census differences follow p^(n-1)(p^n+p-1); closed = recurrence"):
        for p, n_max in GRID:
            counts = [count_orbits_bfs(GroupSpec.uniform(p, n)).orbit_count
                      for n in range(n_max + 1)]
            for n in range(1, n_max):
                assert counts[n + 1] - counts[n] == p ** (n - 1) * (p ** n + p - 1), (p, n)
        for p in (2, 3, 5, 7, 11, 13):
            for n in range(1, 33):
                assert f_closed(p, n) == f_recurrence(p, n), (p, n)


def test_criterion_6_word_tables_and_counts():
    with criterion(6, "word tables at m = 1, 2, 3 and count = formula for m <= 30 in < 1 s"):
        start = time.perf_counter()
        assert [str(w) for w in enumerate_words(1)] == ["1", "2"]
        assert [str(w) for w in enumerate_words(2)] == ["11", "12", "21", "22", "23"]
        assert [str(w) for w in enumerate_words(3)] == [
            "111", "112", "121", "122", "123",
            "211", "212", "213", "221", "222",
            "223", "231", "232", "233", "234"]
        for m in range(31):
            assert count_words(m) == r_formula(2, m), m
        assert time.perf_counter() - start < 1


def test_criterion_7_encoding_fidelity():
    with criterion(7, "length-2 assignments and 234 encode bit-for-bit; "
                      "bridge bijective for m <= 8 in < 30 s"):
        start = time.perf_counter()
        expected_m2 = {
            "11": [(0, 0), (0, 0)],
            "12": [(0, 0), (1, 0)],
            "21": [(1, 0), (0, 0)],
            "22": [(1, 0), (1, 0)],
            "23": [(1, 0), (1, 1)],
        }
        words_m2 = enumerate_words(2)
        assert {str(w) for w in words_m2} == set(expected_m2)
        for w in words_m2:
            assert encode_word(w).rows() == expected_m2[str(w)]
        m3 = [w for w in enumerate_words(3) if str(w) == "234"]
        assert encode_word(m3[0]).rows() == [(1, 0), (1, 1), (0, 1)]

        for m in range(1, 9):
            report = verify_bridge(m)
            assert report.is_injective_on_orbits, m
            assert report.is_surjective_on_orbits, m
            assert report.collisions == [], m
            assert report.missed_orbits == [], m
            assert report.word_count == report.orbit_count, m
        assert time.perf_counter() - start < 30


def test_criterion_8_exactness_properties():
    with criterion(8, "numerator divisibility; orbit sizes divide p(p^2-1) "
                      "and sum to p^(2n)"):
        primes = [p for p in range(2, 98) if is_prime(p)]
        assert len(primes) == 25
        for p in primes:
            for n in range(1, 65):
                num = p ** (2 * n - 1) + p ** (n + 1) - p ** (n - 1) + p * p - p - 1
                assert num % (p * p - 1) == 0, (p, n)

        for p, n in product((2, 3, 5, 7), (1, 2)):
            summaries = orbit_summaries(GroupSpec.uniform(p, n))
            group_order = p * (p * p - 1)
            assert sum(s.size for s in summaries) == p ** (2 * n), (p, n)
            for s in summaries:
                assert group_order % s.size == 0, (p, n, s.size)
        for n in (3, 4, 5, 6):
            summaries = orbit_summaries(GroupSpec.uniform(2, n))
            assert sum(s.size for s in summaries) == 2 ** (2 * n), n
            assert all(6 % s.size == 0 for s in summaries), n


def test_word_validity_is_exercised_somewhere():
    # keeps the validity predicate inside the acceptance net: the m = 3
    # table above is exactly the set the predicate admits
    table = {w.letters for w in enumerate_words(3)}
    brute = {w for w in product((1, 2, 3, 4), repeat=3) if is_valid_word(w)}
    assert table == brute
