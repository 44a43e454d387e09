"""The fresh-process half of the benchmark: set-up time and peak memory.

    python3 perfbench/child.py WORKLOAD SEED [--small] [--solve]

Imports orbitlab, runs the workload's warm-up and prints "ready", at which
point the parent stops its set-up clock.  With --solve it then runs the solve
job once and prints one JSON line with the process's ru_maxrss (KiB) and the
number of steps attempted and failed.  ru_maxrss never falls, so each
workload gets a process of its own.
"""

import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (imports orbitlab from the checkout)


def main(argv: list[str]) -> int:
    name, seed, flags = argv[0], int(argv[1]), set(argv[2:])
    wl = workloads.build(name, seed, "--small" in flags)
    workloads.warm_up(wl, lambda _name, fn: fn())
    print("ready", flush=True)
    if "--solve" not in flags:
        return 0
    steps = wl.steps()
    failed = 0
    for step in steps:
        _, _, error = workloads.attempt(step)
        if error:
            failed += 1
            print(f"perfbench: {step.label}: {error}", file=sys.stderr)
    print(json.dumps({"maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      "attempted": len(steps), "failed": failed}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
