"""orbitlab benchmark: time to a verified orbit count, end to end and per layer.

    python3 perfbench/run.py --workload census-p2 --seed 1 --seconds 15 --trace 0

Run from anywhere; orbitlab is imported from ``src/`` of the checkout this
file sits in, and the CLI runs as ``python -m orbitlab`` with that ``src/`` on
``PYTHONPATH``.  Workloads: census-p2, census-wide-p, bridge (see
workloads.py for what each stresses and why).

--trace 0 measures the end-to-end metrics, times in seconds at a reference
speed (see REFERENCE_S):
  setup_s       median wall time of fresh processes that import orbitlab and
                run the workload's warm-up (cold enumerate_sl2 per prime and
                one tiny call per canonical engine)
  solve_s       median, over repeats of the warm in-process solve job, of the
                time spent inside orbitlab calls; every result is checked
  cli_s         wall time of the workload's list of cold ``python -m
                orbitlab`` commands, each stdout checked: the sum of each
                command's median
  states_per_s  median pair states swept per second by the job's BFS and
                canonical census calls
  peak_rss_mib  ru_maxrss of a fresh process that ran only this workload's job
The failure ratio is not a metric: it is `failed` over `attempted` in the
result line, and 0 unless something is wrong.
--trace 1 runs the job with spans recorded instead (alternating with untraced
repeats, to report the tracing overhead), adds probe calls for layers the job
does not call, times each CLI command once, writes the spans to
perfbench/out/ and reports the per-layer metrics of layers.py, in plain wall
seconds.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records the run environment and the
sample count behind each median.  A failed check makes the exit code 1.
Standard library only; no threads; subprocesses run one at a time.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import deque
from pathlib import Path
from random import Random
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402  (imports orbitlab from the checkout, or exits)
from workloads import ROOT, SRC  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "cli_s": "s",
                    "states_per_s": "states/s", "peak_rss_mib": "MiB"}
SETUP_MIN = 5              # fresh set-up processes, however long one takes
SETUP_BUDGET_S = 5.0       # ... and more while this much time has not passed
MIN_REPEATS = 3            # solve repeats, however long one takes
CLI_REPEATS = 5            # passes over the workload's command list
STARTUP_REPEATS = 3
CHILD_TIMEOUT_S = 150
SWEEPS = {"orbits.count_orbits_bfs", "orbits.count_orbits_canonical"}

# The benchmark's 2-core machine is shared, and a neighbour's load slows every
# Python loop on a core, by up to 2x, in bursts of seconds.  So the run is
# pinned to one core, its subprocesses too, and each end-to-end time is
# scaled to a fixed reference speed: reference_loop() is timed right before
# and right after each measured interval, and the interval's wall time is
# multiplied by REFERENCE_S over the mean of the two loop times.  REFERENCE_S
# is about the loop's time on that machine (Intel Xeon, Python 3.11.7) when
# its core is not contended.
REFERENCE_S = 0.027


def reference_loop() -> float:
    """Seconds for a fixed mix of the operations orbitlab spends its time on:
    integer arithmetic and dict stores, then a breadth-first sweep over a
    bytearray visited map with a deque.  No single kind tracked every
    orbitlab layer's slowdown; the mix tracked them best."""
    start = perf_counter()
    acc, table = 0, {}
    for i in range(40_000):
        acc = (acc * 31 + i) % 1_000_003
        table[acc & 1023] = i
    visited, queue = bytearray(1 << 16), deque()
    for root in range(0, 1 << 16, 4):
        if visited[root]:
            continue
        visited[root] = 1
        queue.append(root)
        while queue:
            i = queue.popleft()
            for j in (((i & 255) << 8) | (i >> 8), (i * 7 + 3) & 0xFFFF):
                if not visited[j]:
                    visited[j] = 1
                    queue.append(j)
    return perf_counter() - start


class SpeedMeter:
    """Scale factors from wall seconds to reference-speed seconds."""

    def __init__(self):
        self.last = reference_loop()
        self.scales: list[float] = []

    def start(self) -> None:
        """Time the loop afresh before an interval that follows a gap."""
        self.last = reference_loop()

    def scale(self) -> float:
        """The scale for the interval since the previous loop."""
        now = reference_loop()
        factor = 2 * REFERENCE_S / (self.last + now)
        self.last = now
        self.scales.append(factor)
        return factor


class Tally:
    """Operations attempted and failed; a failure is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, label: str, error: str | None) -> None:
        self.attempted += 1
        if error:
            self.failed += 1
            print(f"perfbench: {label}: {error}", file=sys.stderr)


def run_job(steps, tally: Tally, spans: layers.Spans | None = None, group: str = "",
            meter: SpeedMeter | None = None):
    """Run every step once.  Returns (seconds per step, results by label,
    busy seconds).  With `meter`, seconds are scaled to the reference speed;
    with `spans`, one span per step is recorded under a job span, and the
    recording counts as busy time."""
    seconds, results, busy = [], {}, 0.0
    parent = spans.add("job", group, "job", perf_counter(), perf_counter()) if spans else None
    for step in steps:
        gc.collect()  # so no step pays for collecting an earlier step's garbage
        t0 = perf_counter()
        dt, out, error = workloads.attempt(step)
        if meter is not None:
            dt *= meter.scale()
        if spans is not None:
            recording = perf_counter()
            spans.add(step.name, group, "job" if group.startswith("job") else "probe",
                      t0, t0 + dt, parent, key=step.key, calls=step.calls,
                      states=step.states, orbits=step.orbits, words=step.words,
                      images=step.images)
            busy += perf_counter() - recording
        busy += dt
        seconds.append(dt)
        results[step.label] = out
        tally.add(step.label, error)
    if spans is not None:
        spans.spans[parent].end = perf_counter() - spans.origin
    return seconds, results, busy


def run_cli(cmd: workloads.Cmd, tally: Tally) -> tuple[float, int]:
    """One cold ``python -m orbitlab`` run: (wall seconds, stdout bytes)."""
    env = {k: v for k, v in os.environ.items() if k != "ORBITLAB_BUDGET"}
    env["PYTHONPATH"] = str(SRC)
    label = "orbitlab " + " ".join(cmd.args)
    t0 = perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "orbitlab", *cmd.args], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        tally.add(label, "timed out")
        return perf_counter() - t0, 0
    seconds = perf_counter() - t0
    if proc.returncode != 0:
        error = f"exit code {proc.returncode}: {proc.stderr.strip()}"
    else:
        try:
            error = None if cmd.check(proc.stdout) else "unexpected stdout"
        except ValueError as exc:
            error = f"unreadable stdout: {exc}"
    tally.add(label, error)
    return seconds, len(proc.stdout.encode())


def fresh_process(args, tally: Tally, solve: bool) -> tuple[float, dict | None]:
    """Start child.py; return (seconds until it is warm, its solve report)."""
    cmd = [sys.executable, str(HERE / "child.py"), args.workload, str(args.seed)]
    cmd += ["--small"] * args.small + ["--solve"] * solve
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    ready = proc.stdout.readline()
    seconds = perf_counter() - t0
    try:
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        rest = ""
    error = None if ready == "ready\n" and proc.returncode == 0 else \
        f"child exit code {proc.returncode}"
    report = json.loads(rest) if solve and not error else None
    tally.add(f"fresh process ({'solve' if solve else 'set-up'})", error)
    if report:
        tally.attempted += report["attempted"]
        tally.failed += report["failed"]
    return seconds, report


def measure(args, wl: workloads.Workload, tally: Tally) -> tuple[dict, dict, dict]:
    """The untraced run: (end-to-end metrics, samples per metric, detail)."""
    meter = SpeedMeter()
    setup = []
    start = perf_counter()
    while len(setup) < SETUP_MIN or perf_counter() - start < SETUP_BUDGET_S:
        meter.start()
        setup.append(fresh_process(args, tally, solve=False)[0] * meter.scale())
    report = fresh_process(args, tally, solve=True)[1]

    workloads.warm_up(wl, lambda _name, fn: fn())
    steps = wl.steps()
    sweeps = [i for i, s in enumerate(steps) if s.name in SWEEPS]
    swept = sum(steps[i].states for i in sweeps)
    solves, rates, per_step = [], [], []
    meter.start()
    start = perf_counter()
    while len(solves) < MIN_REPEATS or perf_counter() - start < args.seconds:
        seconds, results, busy = run_job(steps, tally, meter=meter)
        solves.append(busy)
        rates.append(swept / sum(seconds[i] for i in sweeps))
        per_step.append(seconds)

    metrics = {"setup_s": statistics.median(setup),
               "solve_s": statistics.median(solves),
               "states_per_s": statistics.median(rates)}
    if report:
        metrics["peak_rss_mib"] = report["maxrss_kib"] / 1024
    if not tally.failed:
        commands = wl.commands(results)
        cli = [[] for _ in commands]
        for _ in range(CLI_REPEATS):
            for cmd, times in zip(commands, cli):
                meter.start()
                times.append(run_cli(cmd, tally)[0] * meter.scale())
        metrics["cli_s"] = sum(statistics.median(times) for times in cli)
    samples = {"setup_s": len(setup), "solve_s": len(solves), "states_per_s": len(rates),
               "cli_s": CLI_REPEATS, "peak_rss_mib": 1}
    detail = {
        "speed_scale": {"median": statistics.median(meter.scales),
                        "min": min(meter.scales), "max": max(meter.scales)},
        "step_median_s": {s.label: statistics.median(col)
                          for s, col in zip(steps, zip(*per_step))}}
    return metrics, samples, detail


def trace(args, wl: workloads.Workload, tally: Tally) -> tuple[dict, dict, dict]:
    """The traced run: (per-layer metrics, samples per metric, spans file)."""
    spans = layers.Spans()
    workloads.warm_up(wl, lambda name, fn: spans.timed(name, "warmup", "warmup", fn))
    steps = wl.steps()
    plain, traced = [], []
    start = perf_counter()
    while min(len(plain), len(traced)) < 2 or perf_counter() - start < args.seconds:
        plain.append(run_job(steps, tally)[2])
        seconds, results, busy = run_job(steps, tally, spans, f"job{len(traced)}")
        traced.append(busy)

    called = {s.name for s in steps}
    for bundle in workloads.probes(Random(args.seed)):
        if any(s.name not in called for s in bundle):
            run_job(bundle, tally, spans, "probe")

    stdout_bytes = 0
    commands = [] if tally.failed else wl.commands(results)
    for i, cmd in enumerate(commands):
        t0 = perf_counter()
        stdout_bytes += run_cli(cmd, tally)[1]
        spans.add(f"cli.{cmd.subcommand}", f"cli{i}", "cli", t0, perf_counter(),
                  args=cmd.args)
    listed = {c.subcommand for c in commands}
    for sub, cmd in workloads.probe_cmds().items():
        if sub not in listed:
            t0 = perf_counter()
            run_cli(cmd, tally)
            spans.add(f"cli.{sub}", f"probe-{sub}", "probe", t0, perf_counter(),
                      args=cmd.args)
    for i in range(STARTUP_REPEATS):
        t0 = perf_counter()
        run_cli(workloads.startup_cmd(), tally)
        spans.add("cli.startup", f"startup{i}", "cli", t0, perf_counter())

    overhead = statistics.median(traced) / statistics.median(plain)
    metrics = layers.per_layer(spans, steps, wl.primes, stdout_bytes, overhead)
    samples = {"job_repeats_traced": len(traced), "job_repeats_untraced": len(plain),
               "cli_startup": STARTUP_REPEATS}
    return metrics, samples, {"spans": spans.as_json()}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git directly; None outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to repeat the solve job")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny sizes, for the self-test only")
    args = parser.parse_args(argv)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    env = {"python": platform.python_version(),
           "implementation": platform.python_implementation(),
           "cpu_count": os.cpu_count(), "cpu_model": cpu_model(),
           "loadavg_start": os.getloadavg(), "commit": git_commit(),
           "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "small": args.small}
    tally = Tally()
    wl = workloads.build(args.workload, args.seed, args.small)
    if args.trace:
        metrics, samples, spans = trace(args, wl, tally)
        units, detail = layers.UNITS, {}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps({"env": env, **spans}))
        detail["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        metrics, samples, detail = measure(args, wl, tally)
        units = END_TO_END_UNITS
    env["loadavg_end"] = os.getloadavg()

    print(json.dumps({"env": env, "samples": samples,
                      "fail_ratio": tally.failed / max(tally.attempted, 1), **detail}))
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics}}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
