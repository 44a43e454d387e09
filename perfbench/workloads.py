"""The benchmark's workloads: what each one warms up, solves and runs on the CLI.

A workload is built from a seed.  Every sampled input (states, words, (p, n)
pairs, the word given to ``orbitlab encode``) comes from
``random.Random(seed)``; orbitlab only ever receives the generated inputs.

A solve job is a list of steps.  A step is one public orbitlab call, or one
batch of calls over a seeded sample, plus a check of its result against
values computed outside the timed region (``r_formula``, ``r_p2_product``,
``count_words`` or a direct reference check).  The step's name,
``<module>.<function>``, is the span name the traced run records and the
layer it is charged to.

Sizes keep one untraced run, with its set-up, solve repeats and CLI commands,
near half a minute on two cores, so that two dozen runs of every workload
fit in under an hour, and keep single calls under about a second, so that
the reference-speed scaling in run.py can follow the machine's speed.
``small=True`` shrinks every size so the self-test finishes in seconds.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from random import Random
from time import perf_counter
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_orbitlab():
    """Import orbitlab from this checkout's sources, never from elsewhere."""
    package = SRC / "orbitlab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no orbitlab sources at {package}")
    sys.path.insert(0, str(SRC))
    import orbitlab
    if Path(orbitlab.__file__).resolve().parent != package:
        raise SystemExit(f"perfbench: imported orbitlab from {orbitlab.__file__}, "
                         f"not from {package}")
    return orbitlab


ol = _import_orbitlab()

# 12-digit prime: trial-division is_prime takes ~10^6 steps on it.
P12 = 1_000_000_000_039
# 11-digit prime: sequence_table pays one ~10^5-step is_prime per row.
P11 = 10_000_000_019
LETTER_ROWS = {1: (0, 0), 2: (1, 0), 3: (1, 1), 4: (0, 1)}


@dataclass
class Step:
    """One timed call into a layer and the check of its result."""

    name: str                        # "<module>.<function>": span and layer name
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    key: tuple = ()                  # (p, n) of the spec, or (2, m) for words
    calls: int = 1                   # public calls the step makes
    states: int = 0                  # pair states the call sweeps
    orbits: int = 0                  # orbits the sweep finds
    words: int = 0                   # words the call enumerates
    images: int = 0                  # matrix images the call may try

    @property
    def label(self) -> str:
        return f"{self.name}{self.key}"


@dataclass
class Cmd:
    """One ``python -m orbitlab`` command and the check of its stdout."""

    args: list[str]
    check: Callable[[str], bool]

    @property
    def subcommand(self) -> str:
        return self.args[0]


@dataclass
class Workload:
    primes: list[int]                # enumerate_sl2 warm-up, one cold call each
    engines: list[tuple[int, int]]   # canonical engines warmed by one tiny call
    steps: Callable[[], list[Step]]          # builds the job's steps
    commands: Callable[[dict], list[Cmd]]   # from the verified job results


def sl2_order(p: int) -> int:
    return p * (p * p - 1)


def warm_up(wl: Workload, timed: Callable[[str, Callable[[], Any]], Any]) -> None:
    """Fill the lru_caches a solve relies on; `timed(name, fn)` runs each call."""
    for p in wl.primes:
        timed("residues.enumerate_sl2", lambda p=p: ol.enumerate_sl2(p))
    for p, n in wl.engines:
        zero = ol.PairState.zero(ol.GroupSpec.uniform(p, n))
        timed("orbits.engine_warm_up", lambda z=zero: ol.canonical_form(z))


# --- steps -------------------------------------------------------------------

def census(name: str, fn, p: int, n: int) -> Step:
    """A whole-census route; its count must equal the closed form."""
    r = ol.r_formula(p, n)
    spec = ol.GroupSpec.uniform(p, n)
    swept = 0 if name == "orbits.count_orbits_burnside" else p ** (2 * n)
    images = swept * sl2_order(p) if name == "orbits.count_orbits_canonical" else 0
    return Step(name, lambda: fn(spec),
                lambda rep: rep.orbit_count == r and (p != 2 or ol.r_p2_product(n) == r),
                key=(p, n), states=swept, orbits=r if swept else 0, images=images)


def summaries(p: int, n: int) -> Step:
    """The listing route: one summary per orbit, sizes summing to p^(2n)."""
    r = ol.r_formula(p, n)
    spec = ol.GroupSpec.uniform(p, n)
    order = sl2_order(p)

    def check(out) -> bool:
        return (len(out) == r
                and sum(s.size for s in out) == p ** (2 * n)
                and all(s.size * s.stabilizer_order == order for s in out))

    return Step("orbits.orbit_summaries", lambda: ol.orbit_summaries(spec), check,
                key=(p, n), states=p ** (2 * n), orbits=r)


def random_state(rng: Random, p: int, n: int):
    spec = ol.GroupSpec.uniform(p, n)
    return ol.PairState(
        ol.ResidueVector(tuple(rng.randrange(p) for _ in range(n)), spec),
        ol.ResidueVector(tuple(rng.randrange(p) for _ in range(n)), spec))


def moves(states: list, p: int) -> Step:
    """apply_s and apply_t on each sampled state, checked entry by entry."""

    def check(out) -> bool:
        for s, (si, ti) in zip(states, out):
            g, k = s.g.entries, s.k.entries
            if (si.g.entries != k or si.k.entries != tuple(-e % p for e in g)
                    or ti.g.entries != g
                    or ti.k.entries != tuple((a + b) % p for a, b in zip(k, g))):
                return False
        return len(out) == len(states)

    return Step("residues.apply_s_t",
                lambda: [(ol.apply_s(s), ol.apply_t(s)) for s in states], check,
                calls=2 * len(states))


def index_roundtrip(rng: Random, p: int, n: int, count: int) -> Step:
    spec = ol.GroupSpec.uniform(p, n)
    idx = [rng.randrange(spec.state_count) for _ in range(count)]
    return Step("residues.index_roundtrip",
                lambda: [ol.state_index(ol.state_from_index(i, spec)) for i in idx],
                lambda out: out == idx, key=(p, n), calls=count)


def canonical_forms(states: list, distinct_orbits: bool = False) -> Step:
    """canonical_form on each sampled state: no larger than the state and
    unchanged by a move; with distinct_orbits, no two inputs share a form."""

    def check(out) -> bool:
        for s, c in zip(states, out):
            if (ol.state_index(c) > ol.state_index(s)
                    or ol.canonical_form(ol.apply_t(s)) != c):
                return False
        return len(out) == len(states) and (
            not distinct_orbits or len(set(out)) == len(set(states)))

    p = states[0].spec.moduli[0]
    return Step("orbits.canonical_form",
                lambda: [ol.canonical_form(s) for s in states], check,
                calls=len(states), images=len(states) * sl2_order(p))


def r_formulas(rng: Random, count: int) -> Step:
    """r_formula on seeded (p, n), checked against the telescoped sum."""
    pairs = [(rng.choice((2, 3, 5, 7, 11, 13)), rng.randint(1, 30))
             for _ in range(count)]
    expected = [ol.r_telescoped(p, n) for p, n in pairs]
    return Step("formulas.r_formula",
                lambda: [ol.r_formula(p, n) for p, n in pairs],
                lambda out: out == expected, calls=count)


def random_word(rng: Random, length: int) -> tuple[int, ...]:
    """A restricted growth word, built letter by letter under the growth rule."""
    letters, running = [], 1
    for _ in range(length):
        a = rng.randint(1, min(4, running + 1))
        running = max(running, a)
        letters.append(a)
    return tuple(letters)


def broken_word(rng: Random, word: tuple[int, ...]) -> tuple[int, ...]:
    """The word with one letter replaced so that the growth rule fails there."""
    i = rng.randrange(len(word))
    running = max((1,) + word[:i])
    bad = running + 2 if running + 2 <= 4 else rng.choice((0, 5))
    return word[:i] + (bad,) + word[i + 1:]


def validations(rng: Random, length: int, count: int) -> Step:
    """is_valid_word on a seeded mix of valid and broken words, labelled by
    construction."""
    cases = []
    for _ in range(count):
        w = random_word(rng, length)
        cases.append((broken_word(rng, w), False) if rng.random() < 0.5 else (w, True))
    words = [w for w, _ in cases]
    labels = [ok for _, ok in cases]
    return Step("words.is_valid_word",
                lambda: [ol.is_valid_word(w) for w in words],
                lambda out: out == labels, calls=count)


def encodings(words: list) -> Step:
    def check(out) -> bool:
        return len(out) == len(words) and all(
            s.rows() == [LETTER_ROWS[a] for a in w.letters]
            for w, s in zip(words, out))

    return Step("bridge.encode_word",
                lambda: [ol.encode_word(w) for w in words], check, calls=len(words))


def word_list(m: int) -> Step:
    r = ol.r_formula(2, m)
    first, last = (1,) * m, last_word(m)

    def check(out) -> bool:
        return (len(out) == r == ol.count_words(m)
                and out[0].letters == first and out[-1].letters == last
                and all(a.letters < b.letters for a, b in zip(out, out[1:])))

    return Step("words.enumerate_words", lambda: ol.enumerate_words(m), check,
                key=(2, m), words=r)


def last_word(m: int) -> tuple[int, ...]:
    """The lexicographically last word: 2, then 3, then 4s."""
    return ((2, 3) + (4,) * max(0, m - 2))[:m]


def bridge_check(m: int) -> Step:
    r = ol.r_formula(2, m)

    def check(rep) -> bool:
        return (rep.word_count == rep.orbit_count == r
                and rep.is_injective_on_orbits and rep.is_surjective_on_orbits
                and not rep.collisions and not rep.missed_orbits)

    # The report canonicalizes every word (6 images each) and re-runs the
    # whole p = 2 census.
    return Step("bridge.verify_bridge", lambda: ol.verify_bridge(m), check,
                key=(2, m), states=4 ** m, orbits=r, words=r, images=6 * r)


def word_count(m: int) -> Step:
    r = ol.r_formula(2, m)
    return Step("words.count_words", lambda: ol.count_words(m), lambda c: c == r,
                key=(2, m))


def prime_test(q: int) -> Step:
    return Step("formulas.is_prime", lambda: ol.is_prime(q), lambda out: out is True)


def table(q: int, n_max: int) -> Step:
    expected = [(n, ol.r_formula(q, n)) for n in range(n_max + 1)]
    return Step("formulas.sequence_table", lambda: ol.sequence_table(q, n_max),
                lambda out: out == expected)


# --- CLI commands --------------------------------------------------------------

def rows_text(state) -> str:
    """The CLI's text for a state over a modulus <= 10: "gk gk ..."."""
    return " ".join(f"{g}{k}" for g, k in state.rows())


def exact(args: list[str], text: str) -> Cmd:
    return Cmd(args, lambda out: out == text)


def lines(args: list[str], count: int, first: str, last: str) -> Cmd:
    def check(out: str) -> bool:
        got = out.splitlines()
        return len(got) == count and got[:1] == [first] and got[-1:] == [last]
    return Cmd(args, check)


def orbit_count_cmd(p: int, n: int, method: str) -> Cmd:
    return exact(["orbits", "--p", str(p), "--n", str(n), "--method", method],
                 f"{ol.r_formula(p, n)}\n")


def sequence_cmd(p: int, n_max: int) -> Cmd:
    return lines(["sequence", "--p", str(p), "--n-max", str(n_max)], n_max + 1,
                 "0 1", f"{n_max} {ol.r_formula(p, n_max)}")


def sequence_json_cmd(p: int, n_max: int) -> Cmd:
    last = {"n": n_max, "r": str(ol.r_formula(p, n_max))}

    def check(out: str) -> bool:
        rows = json.loads(out)
        return len(rows) == n_max + 1 and rows[0] == {"n": 0, "r": "1"} and rows[-1] == last

    return Cmd(["sequence", "--p", str(p), "--n-max", str(n_max), "--format", "json"],
               check)


def verify_cmd(m_max: int) -> Cmd:
    text = "m methods formula words bridge result r\n" + "".join(
        f"{m} PASS PASS PASS PASS PASS {ol.r_formula(2, m)}\n"
        for m in range(1, m_max + 1))
    return exact(["verify", "--m-max", str(m_max)], text)


def words_list_cmd(m: int) -> Cmd:
    return lines(["words", "--m", str(m), "--list"], ol.count_words(m),
                 "1" * m, "".join(map(str, last_word(m))))


def encode_cmd(letters: tuple[int, ...]) -> Cmd:
    state = ol.encode_word(ol.RGWord(letters))
    text = (f"rows: {rows_text(state)}\n"
            f"canonical: {rows_text(ol.canonical_form(state))}\n")
    return exact(["encode", "".join(map(str, letters))], text)


def listing_cmd(n: int, summaries_out: list) -> Cmd:
    last = summaries_out[-1]
    return lines(["orbits", "--p", "2", "--n", str(n), "--list", "--format", "csv"],
                 len(summaries_out) + 1, "representative,size,stabilizer_order",
                 f"{rows_text(last.representative)},{last.size},{last.stabilizer_order}")


def startup_cmd() -> Cmd:
    """The cheapest command: interpreter start-up, import and a closed form."""
    return sequence_cmd(2, 6)


def probe_cmds() -> dict[str, Cmd]:
    """A small command per subcommand, for subcommands a workload does not list."""
    return {"orbits": orbit_count_cmd(2, 2, "bfs"),
            "words": exact(["words", "--m", "3"], "15\n"),
            "encode": encode_cmd((2, 3, 4)),
            "verify": verify_cmd(3),
            "sequence": startup_cmd()}


# --- the workloads -----------------------------------------------------------------
#
# A workload function returns at once: its steps and expected values are
# built only when `steps()` is called, so a fresh process can warm up, and be
# timed doing it, before paying for them.  `commands()` is called after
# `steps()` and draws from the same seeded generator.

def census_p2(rng: Random, small: bool) -> Workload:
    """Many states, tiny group: the p = 2 sweeps and the orbit listing."""
    n, list_n, sample = (4, 3, 8) if small else (9, 9, 256)
    listing = f"orbits.orbit_summaries{(2, list_n)}"

    def steps() -> list[Step]:
        states = [random_state(rng, 2, n) for _ in range(sample)]
        return [
            census("orbits.count_orbits_bfs", ol.count_orbits_bfs, 2, n),
            census("orbits.count_orbits_canonical", ol.count_orbits_canonical, 2, n),
            census("orbits.count_orbits_burnside", ol.count_orbits_burnside, 2, n),
            summaries(2, list_n),
            canonical_forms(states),
            moves(states, 2),
            index_roundtrip(rng, 2, n, sample),
            r_formulas(rng, sample),
        ]

    def commands(results: dict) -> list[Cmd]:
        return [listing_cmd(list_n, results[listing]),
                orbit_count_cmd(2, n, "canonical")]

    return Workload([2], [(2, n)], steps, commands)


def census_wide_p(rng: Random, small: bool) -> Workload:
    """Few states, large groups: the per-state p(p^2 - 1) matrix factor, the
    generic mixed-radix path, per-prime set-up and trial-division is_prime."""
    if small:
        big_p, (gp, gn), (bp, bn), seq_n, cli_n, sample = 5, (3, 2), (5, 2), 3, 1, 8
    else:
        big_p, (gp, gn), (bp, bn), seq_n, cli_n, sample = 17, (5, 3), (31, 5), 30, 4, 128

    def steps() -> list[Step]:
        # canonical_form tries every matrix, so at n = 1 it pays p(p^2 - 1)
        # per call, where the census's is_min mostly stops early.
        wide = [random_state(rng, big_p, 1) for _ in range(sample)]
        states = [random_state(rng, gp, gn) for _ in range(sample)]
        return [
            census("orbits.count_orbits_canonical", ol.count_orbits_canonical, big_p, 1),
            census("orbits.count_orbits_bfs", ol.count_orbits_bfs, gp, gn),
            census("orbits.count_orbits_canonical", ol.count_orbits_canonical, gp, gn),
            census("orbits.count_orbits_burnside", ol.count_orbits_burnside, bp, bn),
            summaries(gp, gn),
            prime_test(P12),
            table(P11, seq_n),
            canonical_forms(wide),
            moves(states, gp),
            index_roundtrip(rng, gp, gn, sample),
            r_formulas(rng, sample),
        ]

    def commands(results: dict) -> list[Cmd]:
        return [orbit_count_cmd(bp, bn, "burnside"), sequence_json_cmd(P12, cli_n)]

    primes = sorted({big_p, gp, bp})
    return Workload(primes, [(big_p, 1), (gp, gn)], steps, commands)


def bridge(rng: Random, small: bool) -> Workload:
    """Words and the bridge: the word DFS, one RGWord per word, and a full
    canonical form per word, with the BFS re-census inside verify_bridge."""
    m, length, cli_m, sample = (4, 5, 3, 8) if small else (9, 14, 8, 256)

    def steps() -> list[Step]:
        words = [ol.RGWord(random_word(rng, length)) for _ in range(sample)]
        encoded = [ol.encode_word(w) for w in words]
        return [
            word_list(m),
            census("orbits.count_orbits_bfs", ol.count_orbits_bfs, 2, m),
            bridge_check(m),
            word_count(m),
            validations(rng, length, sample),
            encodings(words),
            canonical_forms(encoded, distinct_orbits=True),
            moves(encoded, 2),
            index_roundtrip(rng, 2, length, sample),
            r_formulas(rng, sample),
        ]

    def commands(results: dict) -> list[Cmd]:
        return [verify_cmd(cli_m), words_list_cmd(m),
                encode_cmd(random_word(rng, length))]

    return Workload([2], [(2, m), (2, length)], steps, commands)


WORKLOADS = {"census-p2": census_p2, "census-wide-p": census_wide_p, "bridge": bridge}


def build(name: str, seed: int, small: bool = False) -> Workload:
    return WORKLOADS[name](Random(seed), small)


def probes(rng: Random) -> list[list[Step]]:
    """Small bundles of steps, one per group of layers, that a traced run adds
    when its workload's job never calls one of the bundle's functions, so that
    every traced run reports every per-layer metric.  A bundle runs whole:
    verify_bridge's derived self time needs enumerate_words and the BFS census
    at the same m."""
    m, length, count = 8, 14, 64
    words = [ol.RGWord(random_word(rng, length)) for _ in range(count)]
    states = [random_state(rng, 2, 6) for _ in range(count)]
    return [
        [census("orbits.count_orbits_bfs", ol.count_orbits_bfs, 2, 6),
         census("orbits.count_orbits_canonical", ol.count_orbits_canonical, 2, 6),
         census("orbits.count_orbits_burnside", ol.count_orbits_burnside, 2, 6),
         summaries(2, 6), canonical_forms(states)],
        [word_list(m), census("orbits.count_orbits_bfs", ol.count_orbits_bfs, 2, m),
         bridge_check(m), word_count(m), validations(rng, length, count),
         encodings(words)],
        [prime_test(P12), table(P11, 4), r_formulas(rng, count)],
        [moves(states, 2), index_roundtrip(rng, 2, 6, count)],
    ]


# What a failed call raises: a refused budget, a rejected input, an inexact
# division.  Anything else is a defect of the benchmark and propagates.
FAILURES = (ol.BudgetExceeded, ValueError, ArithmeticError)


def attempt(step: Step):
    """Run one step: (seconds in the call, result, error text or None)."""
    t0 = perf_counter()
    try:
        out = step.call()
    except FAILURES as exc:
        return perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    try:
        ok = step.check(out)
    except FAILURES as exc:
        return seconds, out, f"check raised {type(exc).__name__}: {exc}"
    return seconds, out, None if ok else "result does not match the expected value"
