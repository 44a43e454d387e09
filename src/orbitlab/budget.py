"""One knob for enumeration size: the state budget."""

from __future__ import annotations

import sys

DEFAULT_STATE_BUDGET = 2 ** 28


class BudgetExceeded(Exception):
    """An enumeration would exceed the configured budget of states or diagonals."""


def check_budget(base: int, exponent: int, budget: int | None = None,
                 unit: str = "states") -> None:
    """Refuse base ** exponent units over the budget.  The count is at least
    2^low, low = exponent * (bit_length(base) - 1): when 2^low is over the
    budget and too long to print, it is the refusal and the power is never
    computed."""
    limit = DEFAULT_STATE_BUDGET if budget is None else budget
    low = exponent * (base.bit_length() - 1)
    # with no digit limit (0), a count past 4300 digits still goes unprinted
    digits = getattr(sys, "get_int_max_str_digits", int)() or 4300
    if low >= limit.bit_length() and 3 * low >= 10 * digits:  # 2^(10/3) > 10
        raise BudgetExceeded(f"at least 2^{low} {unit} exceed the budget of {limit}")
    count = base ** exponent
    if count > limit:
        try:
            shown = str(count)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            shown = f"at least 2^{count.bit_length() - 1}"
        raise BudgetExceeded(f"{shown} {unit} exceed the budget of {limit}")
