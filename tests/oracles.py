"""Independent oracles that only the tests read: the object-level orbit
closure and matrix action, the forward-difference recurrence, the p = 2
orbit minimum and word decoder one state at a time, the word walk's
flattening and the word list checked one word at a time, the base-p rank
and unrank one digit at a time, and the state builders, word speller, lane
packers, walk regroupers, patcher and flattener, Stirling numbers, parity
grid and fresh-interpreter runner the test modules share.

orbit_of closes a state under src's apply_s and apply_t alone, and
group_image applies every matrix of SL(2, Z_p), so their agreement is the
fact the visited sweep rests on: the two moves generate the whole group.
"""

import os
import subprocess
import sys
from collections import deque
from itertools import groupby
from pathlib import Path

from orbitlab import bridge
from orbitlab.formulas import _require_prime
from orbitlab.residues import (
    PairState,
    ResidueVector,
    apply_s,
    apply_t,
    enumerate_sl2,
    state_from_index,
)
from orbitlab.words import _TAIL, LETTER_BITS, RGWord, _blocks


def pair(g, k, spec):
    return PairState(ResidueVector(tuple(g), spec), ResidueVector(tuple(k), spec))


def rank_loop(entries, p: int) -> int:
    """The base-p rank of entries, entry 0 most significant, one digit at a
    time: what residues.vector_rank reads as one numeral."""
    r = 0
    for e in entries:
        r = r * p + e
    return r


def unrank_loop(r: int, p: int, n: int) -> tuple[int, ...]:
    """The n base-p digits of r, entry 0 most significant, by divmod."""
    digits = []
    for _ in range(n):
        r, e = divmod(r, p)
        digits.append(e)
    return tuple(reversed(digits))


def letters_of_rows(text: str) -> tuple[int, ...]:
    """The word whose LETTER_BITS rows cli.state_formatter printed as text,
    "gk gk ..." at p = 2: each row read back as its letter."""
    letter = {f"{g}{k}": a for a, (g, k) in LETTER_BITS.items()}
    return tuple(letter[row] for row in text.split(" "))


def _words(m: int):
    """Yield the valid words of length m as letter tuples, lexicographically."""
    tails, walk = _blocks(m)
    for prefix, rank in walk:
        yield from map(prefix.__add__, tails[rank])


def rgwords(m):
    """enumerate_words by the definition: one RGWord, each checked when it
    is made, per word of the walk, so it raises at the walk's first invalid
    word."""
    return [RGWord(w) for w in _words(m)]


def blocks_of(listed, m):
    """The letter tuples listed regrouped as a words._blocks pair (tails,
    walk) of length m: each run of words sharing all but their last
    min(_TAIL, m) letters is one block (prefix, j), on a tails table of its
    own, tails[j], so a test can feed a changed word list to whatever walks
    the blocks."""
    end = m - min(_TAIL, m)
    runs = [(prefix, tuple(w[end:] for w in run))
            for prefix, run in groupby(listed, key=lambda w: w[:end])]
    return [tails for _, tails in runs], [(prefix, j) for j, (prefix, _) in enumerate(runs)]


def patch_walk(monkeypatch, change):
    """Make verify_bridge walk change(the real walk's list of letters), in
    blocks as _blocks would group it; return the list of the m of each walk
    it starts."""
    walks = []

    def walk(m):
        walks.append(m)
        return blocks_of(change(list(_words(m))), m)
    monkeypatch.setattr(bridge, "_blocks", walk)
    return walks


def stirling2(n: int, k: int) -> int:
    """The Stirling number of the second kind S(n, k), the partitions of n
    things into k blocks, by its recurrence S(n, k) = k S(n - 1, k) +
    S(n - 1, k - 1), one row at a time."""
    row = [1] + [0] * k  # S(0, j) for j = 0..k
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def least_sorted(i: int, n: int) -> int:
    """The minimum of state i's orbit at p = 2, n rows: (min, middle) of the
    bit rows {g, k, g ^ k}, by sorting them, one state at a time."""
    g, k = i >> n, i & ((1 << n) - 1)
    lo, mid, _ = sorted((g, k, g ^ k))
    return (lo << n) | mid


def decode_index(rep: int, n: int) -> int:
    """The packed index of the word of the orbit whose minimum is rep at
    p = 2, one state at a time: [g | k] -> [g ^ k | g]."""
    g, k = rep >> n, rep & ((1 << n) - 1)
    return ((g ^ k) << n) | g


def to_lanes(values, n: int) -> int:
    """values, each below 2^(n + 1), as lanes of n + 1 bits, the first lowest."""
    return sum(v << (n + 1) * j for j, v in enumerate(values))


def from_lanes(packed: int, n: int, count: int) -> list[int]:
    """The count lanes of n + 1 bits of packed, the first lowest, each lane's
    guard bit included, so a kernel that left one set is seen."""
    return [packed >> (n + 1) * j & ((2 << n) - 1) for j in range(count)]


def minima_of(runs):
    """The (rep, size) pairs of an orbits._echelon_runs walk, one per orbit:
    the runs flattened, as runs_of regroups them."""
    return [(rep, size) for first, count, size in runs for rep in range(first, first + count)]


def runs_of(listed):
    """The (rep, size) pairs listed regrouped as an orbits._echelon_runs walk:
    each stretch of consecutive reps of one size is one (first, count, size)
    run, so a test can feed a changed listing to whatever walks the runs."""
    runs = []
    for rep, size in listed:
        if runs and runs[-1][0] + runs[-1][1] == rep and runs[-1][2] == size:
            runs[-1][1] += 1
        else:
            runs.append([rep, 1, size])
    return [tuple(run) for run in runs]


# the (p, n) on which the echelon listing is checked against the BFS minima
PARITY_GRID = ([(2, n) for n in range(1, 5)] + [(3, n) for n in range(1, 4)]
               + [(5, 2), (7, 2)])


def all_states(spec):
    return [state_from_index(i, spec) for i in range(spec.state_count)]


def orbit_of(s: PairState) -> set[PairState]:
    """Breadth-first closure of {s} under the two moves."""
    seen = {s}
    queue = deque([s])
    while queue:
        cur = queue.popleft()
        for nxt in (apply_s(cur), apply_t(cur)):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def apply_mat(s: PairState, mat: tuple[int, int, int, int]) -> PairState:
    """Right action of mat = (a, b, c, d), the matrix [[a, b], [c, d]] of
    determinant 1 mod p, on the n x 2 matrix [g | k].

    Columns transform as (g, k) -> (a g + c k, b g + d k), so (0, -1, 1, 0)
    and (1, 1, 0, 1) reproduce apply_s and apply_t exactly.
    """
    spec = s.spec
    a, b, c, d = mat
    if (a * d - b * c) % spec.p != 1:
        raise ValueError(f"determinant must be 1 mod {spec.p}: [[{a},{b}],[{c},{d}]]")
    g = tuple(a * gi + c * ki for gi, ki in zip(s.g.entries, s.k.entries))
    k = tuple(b * gi + d * ki for gi, ki in zip(s.g.entries, s.k.entries))
    return PairState(ResidueVector(g, spec), ResidueVector(k, spec))


def group_image(s):
    """Independent orbit oracle: the set of all matrix images of s."""
    return {apply_mat(s, m) for m in enumerate_sl2(s.spec.p)}


def f_recurrence(p: int, n: int) -> int:
    """The forward difference r(p, n+1) - r(p, n) computed purely by
    F(n) = p F(n-1) + p^(2n-2)(p - 1).

    Base case F(1) = 2p - 1.
    """
    _require_prime(p)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    value = 2 * p - 1
    for i in range(2, n + 1):
        value = p * value + p ** (2 * i - 2) * (p - 1)
    return value


SRC = Path(__file__).resolve().parent.parent / "src"

# python_peak's child: the program, then its VmHWM in KiB, all it writes to stderr
_MEASURED = """\
import sys
try:
    exec({!r})
    code = 0
except SystemExit as exc:
    code = exc.code
with open('/proc/self/status') as status:
    print(next(line.split()[1] for line in status if line.startswith('VmHWM:')), file=sys.stderr)
sys.exit(code)
"""


def _env(env):
    """os.environ with src/ on the path and env's overrides; None unsets one."""
    env = {**os.environ, **(env or {}), "PYTHONPATH": str(SRC)}
    return {k: v for k, v in env.items() if v is not None}


def python_run(*args, timeout, env=None, stdout=None):
    """Run `python *args` in a fresh interpreter, its output read as text; a
    file given as stdout takes that stream, and the result holds None for it."""
    return subprocess.run([sys.executable, *args], stdout=stdout or subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout, env=_env(env))


def python_peak(program, *, timeout, stdout=None):
    """python_run of program: its exit code, stdout and peak RSS in KiB.  The
    peak is VmHWM, that of the interpreter's own image: on Linux, ru_maxrss
    after exec also counts the peak of the process that spawned it, which
    late in a pytest run is over 100 MiB.  A program that raises, or writes
    to stderr, fails here: stderr must be the peak alone."""
    result = python_run("-c", _MEASURED.format(program), timeout=timeout, stdout=stdout)
    return result.returncode, result.stdout, int(result.stderr)


def python_head(*args, timeout, env=None):
    """Run `python *args`, read one line of its stdout and close the pipe,
    as `| head -1` does; return that line, the exit code and stderr."""
    with subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=_env(env)) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        try:
            _, err = proc.communicate(timeout=timeout)
        finally:
            proc.kill()  # a no-op once it has exited
    return first, proc.returncode, err
