#!/usr/bin/env python3
"""Desk-scale agreement sweep with timings.

For each (p, n) on the grid, computes the orbit count by BFS sweep,
canonical-form counting, fixed-point averaging, and the closed form, and
lists the orbits from their echelon minima, and reports how long each route
took.  The listing must have one entry per BFS orbit, with sizes summing to
p^(2n), and each size times its stabilizer order must be |SL(2, Z_p)| =
p(p^2 - 1).  On the p = 2 rows with n >= 1 it also runs the word bridge,
which must be injective and surjective with one word per orbit.  Exits
nonzero on any disagreement.
"""

import argparse
import sys
import time

from orbitlab.bridge import verify_bridge
from orbitlab.budget import BudgetExceeded, check_budget
from orbitlab.formulas import r_formula
from orbitlab.orbits import (
    count_orbits_bfs,
    count_orbits_burnside,
    count_orbits_canonical,
    orbit_summaries,
)
from orbitlab.residues import GroupSpec

DEFAULT_GRID = [(2, 8), (3, 5), (5, 3), (7, 2)]


def timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p2-max", type=int, default=8,
                        help="largest n for p = 2 (default 8)")
    args = parser.parse_args()
    try:  # the p = 2 row has the most states: refused before any row
        check_budget(2, 2 * args.p2_max)
    except BudgetExceeded as exc:
        parser.error(str(exc))

    grid = [(2, args.p2_max)] + DEFAULT_GRID[1:]
    mismatches = 0
    print(f"{'p':>3} {'n':>3} {'states':>10} {'count':>12} "
          f"{'bfs[s]':>8} {'canon[s]':>9} {'burn[s]':>8} {'list[s]':>8} {'bridge[s]':>9}")
    for p, n_max in grid:
        for n in range(n_max + 1):
            spec = GroupSpec(p, n)
            bfs, t_bfs = timed(lambda: count_orbits_bfs(spec).orbit_count)
            canon, t_canon = timed(lambda: count_orbits_canonical(spec).orbit_count)
            burn, t_burn = timed(lambda: count_orbits_burnside(spec).orbit_count)
            listing, t_list = timed(lambda: orbit_summaries(spec))
            listed = len(listing)
            covered = sum(s.size for s in listing)
            group = p * (p * p - 1)  # |SL(2, Z_p)|; nothing acts at n = 0
            stabilizers_ok = all((s.stabilizer_order is None) if n == 0
                                 else (s.size * s.stabilizer_order == group)
                                 for s in listing)
            formula = r_formula(p, n)
            bridge_ok, bridge_time = True, "-"
            if p == 2 and n >= 1:
                report, t_bridge = timed(lambda: verify_bridge(n))
                bridge_ok = (report.is_injective_on_orbits
                             and report.is_surjective_on_orbits
                             and report.word_count == formula)
                bridge_time = f"{t_bridge:.3f}"
            ok = (bfs == canon == burn == formula == listed
                  and covered == spec.state_count and stabilizers_ok and bridge_ok)
            if not ok:
                mismatches += 1
            print(f"{p:>3} {n:>3} {spec.state_count:>10} {bfs:>12} "
                  f"{t_bfs:>8.3f} {t_canon:>9.3f} {t_burn:>8.3f} {t_list:>8.3f} {bridge_time:>9}"
                  + ("" if ok else f"  MISMATCH canon={canon} burn={burn} "
                                   f"formula={formula} listed={listed} covered={covered} "
                                   f"stabilizers_ok={stabilizers_ok} bridge_ok={bridge_ok}"))
    if mismatches:
        print(f"{mismatches} mismatching cells", file=sys.stderr)
        return 1
    print("all methods agree with the closed form")
    return 0


if __name__ == "__main__":
    sys.exit(main())
