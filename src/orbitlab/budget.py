"""Two size limits: the state budget, the one knob, caps the states a command
visits; PRINT_DIGITS caps a printed count, whatever the interpreter's setting."""

from __future__ import annotations

import math

DEFAULT_STATE_BUDGET = 2 ** 28
PRINT_DIGITS = 4300  # CPython's default int_max_str_digits


class BudgetExceeded(Exception):
    """An enumeration would exceed the configured budget of states or diagonals."""


def check_printable(p: int, n: int) -> None:
    """Refuse r(p, n) before computing it when it has more than PRINT_DIGITS
    digits; p^(2n-1) / (p^2 - 1) < r, so a count that prints passes."""
    log10 = (2 * n - 1) * math.log10(p) - math.log10(p * p - 1) if p > 1 else 0
    if log10 > PRINT_DIGITS:
        raise ValueError(f"the count has {int(log10) + 1} digits, more than the "
                         f"{PRINT_DIGITS} that orbitlab prints")


def check_budget(base: int, exponent: int, budget: int | None = None,
                 unit: str = "states") -> None:
    """Refuse base ** exponent units over the budget.  The count is at least
    2^low, low = exponent * (bit_length(base) - 1): when 2^low is over the
    budget and too long to print, it is the refusal and the power is never
    computed.  A computed count of PRINT_DIGITS digits or more is shown as
    at least 2^k too, whatever the interpreter's digit setting."""
    limit = DEFAULT_STATE_BUDGET if budget is None else budget
    low = exponent * (base.bit_length() - 1)
    if low >= limit.bit_length() and 3 * low >= 10 * PRINT_DIGITS:  # 2^(10/3) > 10
        raise BudgetExceeded(f"at least 2^{low} {unit} exceed the budget of {limit}")
    count = base ** exponent
    if count > limit:
        shown = f"at least 2^{count.bit_length() - 1}"
        if count < 10 ** PRINT_DIGITS:
            try:
                shown = str(count)
            except ValueError:  # an interpreter digit limit below PRINT_DIGITS
                pass
        raise BudgetExceeded(f"{shown} {unit} exceed the budget of {limit}")
