#!/usr/bin/env python3
"""Desk-scale agreement sweep with timings.

For each (p, n) on the grid, runs cli.check_cell, the check `orbitlab
verify` makes per m: every census route and the orbit listing, and on the
p = 2 rows with n >= 1 the product form, the word count and the bridge.
Each cell is checked RUNS times and every run is judged.  A cell that fails
in any run gets cli.judge's evidence line for its first failing run on
stderr, and the run exits 1.  Each timing column is the least of the runs'
seconds: one run on a busy machine can read 40% slow.  It runs through the
CLI's runner, so a negative bound exits 2 and an over-budget one 3.
"""

import argparse
import sys

from orbitlab.budget import check_budget
from orbitlab.cli import check_cell, judge, main
from orbitlab.residues import GroupSpec

RUNS = 3


def run(args) -> int:
    if args.p2_max < 0:
        raise ValueError(f"p2-max must be >= 0, got {args.p2_max}")
    check_budget(2, 2 * args.p2_max)  # the p = 2 row has the most states: refused before any row

    mismatches = 0
    print(f"{'p':>3} {'n':>3} {'states':>10} {'count':>12} "
          f"{'bfs[s]':>8} {'canon[s]':>9} {'burn[s]':>8} {'list[s]':>8} {'bridge[s]':>9}")
    for p, n_max in [(2, args.p2_max), (3, 5), (5, 3), (7, 2)]:
        for n in range(n_max + 1):
            spec = GroupSpec(p, n)
            runs = [check_cell(spec) for _ in range(RUNS)]
            values = runs[0][0]
            t = {name: min(seconds[name] for _, seconds in runs) for name in runs[0][1]}
            evidence = next(filter(None, (judge(spec, v)[1] for v, _ in runs)), None)
            bridge_time = f"{t['bridge']:.3f}" if "bridge" in t else "-"
            print(f"{p:>3} {n:>3} {spec.state_count:>10} {values['bfs']:>12} "
                  f"{t['bfs']:>8.3f} {t['canonical']:>9.3f} {t['burnside']:>8.3f} "
                  f"{t['listing']:>8.3f} {bridge_time:>9}")
            if evidence:
                mismatches += 1
                print(f"grid_agreement: p={p} n={n} FAIL {evidence}", file=sys.stderr)
    if mismatches:
        print(f"{mismatches} mismatching cells", file=sys.stderr)
        return 1
    print("all methods agree with the closed form")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p2-max", type=int, default=8,
                        help="largest n for p = 2 (default 8)")
    parser.set_defaults(run=run)
    sys.exit(main(parser=parser))
