"""Independent oracles that only the tests read: the object-level orbit
closure and matrix action, the forward-difference recurrence, and the state
builders, word speller and fresh-interpreter runner the test modules share.

orbit_of closes a state under src's apply_s and apply_t alone, and
group_image applies every matrix of SL(2, Z_p), so their agreement is the
fact the visited sweep rests on: the two moves generate the whole group.
"""

import os
import subprocess
import sys
from collections import deque
from pathlib import Path

from orbitlab.formulas import _require_prime
from orbitlab.residues import (
    PairState,
    ResidueVector,
    apply_s,
    apply_t,
    enumerate_sl2,
    state_from_index,
)
from orbitlab.words import LETTER_BITS


def pair(g, k, spec):
    return PairState(ResidueVector(tuple(g), spec), ResidueVector(tuple(k), spec))


def letters_of_rows(text: str) -> tuple[int, ...]:
    """The word whose LETTER_BITS rows cli.state_formatter printed as text,
    "gk gk ..." at p = 2: each row read back as its letter."""
    letter = {f"{g}{k}": a for a, (g, k) in LETTER_BITS.items()}
    return tuple(letter[row] for row in text.split(" "))


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
