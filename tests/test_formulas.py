import pytest

from oracles import f_recurrence
from orbitlab import formulas
from orbitlab.formulas import (
    exact_div,
    f_closed,
    is_prime,
    r_formula,
    r_p2_product,
    r_telescoped,
    sequence_table,
)

PRIMES = [2, 3, 5, 7, 11, 13]


def test_is_prime_small():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(10 ** 5) if is_prime(n)] == [
        n for n in range(10 ** 5) if trial(n)]


def test_is_prime_large():
    assert is_prime(2 ** 61 - 1)
    assert is_prime(1_000_000_000_039)
    # strong pseudoprimes to the first 4, 9 and 12 prime bases
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)


def test_is_prime_refuses_beyond_exact_range():
    assert not is_prime(3317044064679887385961980)
    with pytest.raises(ValueError, match="exact only below"):
        is_prime(3317044064679887385961981)


def test_exact_div_rejects_remainder():
    assert exact_div(56, 8) == 7
    with pytest.raises(ArithmeticError):
        exact_div(57, 8)


def test_r_formula_sequence_p2():
    assert [r_formula(2, n) for n in range(1, 7)] == [2, 5, 15, 51, 187, 715]


def test_r_formula_n1_is_two_for_every_prime():
    for p in [2, 3, 5, 7, 11]:
        assert r_formula(p, 1) == 2


def test_r_formula_p3_n2():
    # direct arithmetic oracle: (27 + 27 - 3 + 9 - 3 - 1) / 8
    assert (27 + 27 - 3 + 9 - 3 - 1) // 8 == 7
    assert r_formula(3, 2) == 7


def test_r_formula_n0_is_one():
    for p in PRIMES:
        assert r_formula(p, 0) == 1


def test_r_formula_errors():
    with pytest.raises(ValueError):
        r_formula(4, 3)
    with pytest.raises(ValueError):
        r_formula(2, -1)


def test_r_p2_product_values():
    assert r_p2_product(1) == 2
    assert r_p2_product(5) == 187
    assert r_p2_product(20) == r_formula(2, 20)
    with pytest.raises(ValueError):
        r_p2_product(0)


def test_product_form_agreement_up_to_64():
    for n in range(1, 65):
        assert r_p2_product(n) == r_formula(2, n)


def test_f_closed_values():
    assert f_closed(2, 1) == 3
    assert f_closed(2, 2) == 10
    assert f_closed(3, 2) == 33
    assert f_closed(3, 2) == r_formula(3, 3) - r_formula(3, 2)


def test_f_recurrence_values():
    assert f_recurrence(2, 1) == 3
    assert f_recurrence(2, 2) == 2 * 3 + 4 * 1
    assert f_recurrence(5, 4) == f_closed(5, 4)


def test_f_closed_is_forward_difference():
    for p in PRIMES:
        for n in range(1, 33):
            assert f_closed(p, n) == r_formula(p, n + 1) - r_formula(p, n)


def test_triple_agreement():
    for p in PRIMES:
        for n in range(1, 33):
            assert r_telescoped(p, n) == r_formula(p, n)
            assert f_recurrence(p, n) == f_closed(p, n)


def test_r_telescoped_values():
    assert r_telescoped(2, 4) == 2 + 3 + 10 + 36 == 51
    for p in PRIMES:
        assert r_telescoped(p, 1) == 2
    assert r_telescoped(7, 3) == r_formula(7, 3)


def test_sequence_table():
    assert sequence_table(2, 0) == [(0, 1)]
    table = sequence_table(2, 6)
    assert [r for _, r in table] == [1, 2, 5, 15, 51, 187, 715]
    assert [r for _, r in sequence_table(3, 3)] == [1, 2, 7, 40]
    with pytest.raises(ValueError):
        sequence_table(2, -1)
    with pytest.raises(ValueError, match="p must be prime, got 6"):
        sequence_table(6, 3)


def test_sequence_table_tests_p_once(monkeypatch):
    calls = []
    monkeypatch.setattr(formulas, "is_prime", lambda n: calls.append(n) or is_prime(n))
    table = sequence_table(10_000_000_019, 30)
    assert calls == [10_000_000_019]
    assert table == [(n, r_formula(10_000_000_019, n)) for n in range(31)]


def test_numerator_divisibility():
    primes = [p for p in range(2, 98) if is_prime(p)]
    for p in primes:
        for n in range(1, 65):
            num = p ** (2 * n - 1) + p ** (n + 1) - p ** (n - 1) + p * p - p - 1
            assert num % (p * p - 1) == 0


def test_monotonicity_in_n():
    for p in PRIMES:
        values = [r_formula(p, n) for n in range(0, 20)]
        assert all(a < b for a, b in zip(values, values[1:]))
