"""Exact closed forms for the orbit count of the pair action over Z_p^n.

r(p, n) is the number of equivalence classes of Z_p^n x Z_p^n under the
moves (g, k) ~ (k, -g) and (g, k) ~ (g, k + g).  Everything here is plain
unbounded-integer arithmetic; every division is checked for a zero
remainder, because a nonzero remainder can only mean a bug or a composite p.
"""

from __future__ import annotations

from itertools import repeat


# Miller-Rabin with the first thirteen prime bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError at or above 3.3e24,
    where the fixed base set is no longer known to be exact."""
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"is_prime is exact only below {_MR_EXACT_BELOW}, got {n}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n < 41 * 41:  # a composite this small has a factor among the bases
        return True
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def exact_div(num: int, den: int) -> int:
    """Integer division that refuses to round."""
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{num} is not divisible by {den}")
    return q


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def r_formula(p: int, n: int) -> int:
    """Orbit count (p^(2n-1) + p^(n+1) - p^(n-1) + p^2 - p - 1) / (p^2 - 1).

    n = 0 is the trivial group and returns 1 directly; for n >= 1 every
    exponent is a nonnegative integer and the division is exact.
    """
    _require_prime(p)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return _r(p, n)


def _r(p: int, n: int) -> int:  # r_formula's closed form, p and n unchecked
    if n == 0:
        return 1
    num = p ** (2 * n - 1) + p ** (n + 1) - p ** (n - 1) + p * p - p - 1
    return exact_div(num, p * p - 1)


def r_p2_product(n: int) -> int:
    """p = 2 product form (2^n + 1)(2^(n-1) + 1) / 3, indexed so n = 1 gives 2."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return exact_div((2 ** n + 1) * (2 ** (n - 1) + 1), 3)


def f_closed(p: int, n: int) -> int:
    """Forward difference r(p, n+1) - r(p, n) in closed form: p^(n-1)(p^n + p - 1)."""
    _require_prime(p)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return p ** (n - 1) * (p ** n + p - 1)


def r_telescoped(p: int, n: int) -> int:
    """Orbit count as the telescoping sum 2 + F(1) + ... + F(n-1)."""
    _require_prime(p)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 2 + sum(f_closed(p, i) for i in range(1, n))


def sequence_table(p: int, n_max: int) -> list[tuple[int, int]]:
    """[(0, 1), (1, 2), ..., (n_max, r(p, n_max))]."""
    return list(_sequence(p, n_max))


def _sequence(p: int, n_max: int):
    # sequence_table's rows, checked at once, each made as it is read
    _require_prime(p)
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    return zip(range(n_max + 1), map(_r, repeat(p), range(n_max + 1)))
