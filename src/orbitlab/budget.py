"""One knob for enumeration size: the state budget."""

from __future__ import annotations

DEFAULT_STATE_BUDGET = 2 ** 28


class BudgetExceeded(Exception):
    """An enumeration would visit more states than the configured budget."""


def check_budget(count: int, budget: int | None = None) -> None:
    limit = DEFAULT_STATE_BUDGET if budget is None else budget
    if count > limit:
        try:
            shown = str(count)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            shown = f"at least 2^{count.bit_length() - 1}"
        raise BudgetExceeded(f"{shown} states exceed the budget of {limit}")
