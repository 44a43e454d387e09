"""Orbit enumeration for the pair action, three independent ways.

The three counting routes are a visited sweep closing each orbit under the
two moves, read from lookup tables on its own row-packed indices (see
_row_moves); a canonical-form count on packed state indices (a state is
counted when it has the row-reduced shape of its orbit's minimum); and
class-equation averaging of fixed-point counts.  The sweep shares no code
with the other routes, and those two share only the index packing, which is
the point: they are meant to disagree loudly if any one of them is wrong.
The sweep reads one value it does not derive from the moves: the group
order, through GroupSpec.sl2_order, which Burnside divides by too.  It
takes the orbits above a head orbit of that size in bulk (see _bfs_orbits).
A wrong order cannot make the routes agree falsely: one that matches no
head orbit's size only sends every state through the slower FIFO, and one
that matches the size of a smaller head orbit counts one orbit per tail
above it, where fewer lie: a count that the canonical and formula routes,
which do not read the order, do not share.

The orbit listing enumerates the row-reduced minima directly and visits no
state: each orbit is the packed index of its minimum and its size, unpacked
into a PairState only when a caller asks for one.
"""

from __future__ import annotations

from collections import deque, namedtuple
from itertools import chain, repeat

from .formulas import exact_div
from .residues import (
    GroupSpec,
    PairState,
    state_from_index,
    state_index,
    vector_rank,
    vector_unrank,
)


class OrbitSummary(namedtuple("OrbitSummary", "index size spec")):
    """One equivalence class as the echelon walk yields it: the packed index
    of its minimal member, unpacked on each read of representative, its size
    and the group.  stabilizer_order is p(p^2 - 1) / size, and None at n = 0,
    where the one state is listed with no matrix group acting on it."""

    __slots__ = ()

    @property
    def representative(self) -> PairState:
        return state_from_index(self.index, self.spec)

    @property
    def stabilizer_order(self) -> int | None:
        return exact_div(self.spec.sl2_order, self.size) if self.spec.n else None


CensusReport = namedtuple("CensusReport", "orbit_count")


def _row_moves(p: int, n: int):
    """Return (base, (s_hi, t_hi), (s_lo, t_lo)): the two moves on row-packed
    indices, row t the base-p^2 digit k_t p + g_t, the first row most
    significant.  With (hi, lo) = divmod(i, base), S(i) = s_hi[hi] +
    s_lo[lo] and T(i) = (t_hi[hi] + t_lo[lo]) mod p^(2n); lo is the last
    n // 2 rows.  At n = 1, where a p^2-entry table would be as long as the
    state count, hi = k, lo = g and base = p; T's k + g there overflows
    only past the top digit, so the sum is below twice the state count.
    At n != 1 each row's digit wraps inside its own table entry, and the
    sum is T(i) itself."""
    def chunk(rows: int, digits, scale: int):
        # the images, times scale, of every chunk of rows, each row digit in digits
        s_row = [(-d % p * p + d // p) * scale for d in digits]  # (k, -g)
        t_row = [((d // p + d) % p * p + d % p) * scale for d in digits]  # (g, k + g)
        s = t = [0]
        for _ in range(rows):
            s = [x * p * p + y for x in s for y in s_row]
            t = [x * p * p + y for x in t for y in t_row]
        return s, t

    row = range(p * p if n else 0)  # n = 0: one state, and no row to move
    if n == 1:
        return p, chunk(1, row[::p], 1), chunk(1, range(p), 1)
    base = p ** (2 * (n // 2))
    return base, chunk(n - n // 2, row, base), chunk(n // 2, row, 1)


def _bfs_orbits(spec: GroupSpec):
    """Visited sweep on row-packed states (see _row_moves; no other code
    reads that packing), one visited byte each, skipping visited runs with
    bytearray.find.  Yields (start, size) per orbit: start is the orbit's
    least row-packed index, which is not in general its least packed one.

    At n >= 2 an index i is a head hi = i // base (its first n - n // 2
    rows) and a tail, and both moves carry heads to heads: s_hi[hi] // base
    is S's image of hi.  So the heads are closed into orbits first, on one
    byte each.  A head orbit with sl2_order members has a trivial
    stabilizer, so each of the base states over its least head h lies in
    its own orbit, and that orbit has one member over each head of the
    head orbit: the orbits over it are h * base + l for every tail l, each
    of sl2_order states.  Their states are marked visited one slice per
    head and their orbits are yielded first, as a stream.

    Every state left is then closed through one FIFO, so the queue holds a
    frontier, never a whole orbit.  An index splits into (hi, lo) by one
    floor division and one subtraction, and T's table sum, below twice the
    state count, is brought back by one conditional subtraction."""
    total, free = spec.state_count, spec.sl2_order
    base, (s_hi, t_hi), (s_lo, t_lo) = _row_moves(spec.p, spec.n)
    visited = bytearray(total)
    if spec.n >= 2:  # at n = 1 the split falls inside the one row
        ones = b"\x01" * base
        seen = bytearray(len(s_hi))
        h = 0
        while h >= 0:
            seen[h] = 1
            heads = [h]
            for x in heads:  # a head orbit has at most p(p^2 - 1) members
                for y in (s_hi[x] // base, t_hi[x] // base):
                    if not seen[y]:
                        seen[y] = 1
                        heads.append(y)
            if len(heads) == free:
                for x in heads:
                    visited[x * base:(x + 1) * base] = ones
                yield from zip(range(h * base, (h + 1) * base), repeat(free))
            h = seen.find(0, h + 1)
    queue = deque()
    pop, push = queue.popleft, queue.append
    start = visited.find(0)
    while start >= 0:
        size = 0
        visited[start] = 1
        push(start)
        while queue:
            i = pop()
            size += 1
            hi = i // base
            lo = i - hi * base
            j = s_hi[hi] + s_lo[lo]
            if not visited[j]:
                visited[j] = 1
                push(j)
            j = t_hi[hi] + t_lo[lo]
            if j >= total:
                j -= total
            if not visited[j]:
                visited[j] = 1
                push(j)
        yield start, size
        start = visited.find(0, start + 1)


def count_orbits_bfs(spec: GroupSpec) -> CensusReport:
    """Exact orbit count by visited-sweep BFS over all p^(2n) states."""
    return CensusReport(sum(1 for _ in _bfs_orbits(spec)))


def _least(spec: GroupSpec):
    """Return least(i): the least packed index in the matrix orbit of i,
    read off by row reduction in O(n) field operations.  Every orbit is one
    of three kinds, and its minimum under the packed order is:

    - rank 0: the zero state;
    - rank 1: [0 | v], v the vector of the line with leading entry 1;
    - rank 2: [e2 | lam e1], (e1, e2) the reduced echelon basis of the
      plane with pivots j1 < j2, and lam = -(g_j1 k_j2 - k_j1 g_j2), since
      the determinant of the coordinates in that basis is invariant.

    At p = 2 the minimum is (min, middle) of {g, k, g ^ k}.
    """
    n, p, order = spec.n, spec.p, spec.group_order
    if p == 2:
        mask = order - 1

        def least(i: int) -> int:
            g = i >> n
            k = i & mask
            lo, mid, _ = sorted((g, k, g ^ k))
            return (lo << n) | mid
        return least

    def least(i: int) -> int:
        gr, kr = divmod(i, order)
        g = vector_unrank(gr, p, n)
        k = vector_unrank(kr, p, n)
        j1 = next((j for j in range(n) if g[j] or k[j]), None)
        if j1 is None:
            return 0
        a, b = g[j1], k[j1]
        cross = [(a * y - b * x) % p for x, y in zip(g, k)]  # a k - b g
        j2 = next((j for j in range(j1 + 1, n) if cross[j]), None)
        if j2 is None:  # rank 1: g and k are multiples of one vector
            v, lead = (g, a) if a else (k, b)
            inv = pow(lead, -1, p)
            return vector_rank([x * inv % p for x in v], p)
        det = cross[j2]  # g_j1 k_j2 - k_j1 g_j2
        inv = pow(det, -1, p)
        e2 = [y * inv % p for y in cross]
        gj, kj = g[j2], k[j2]
        lam_e1 = [(gj * y - kj * x) % p for x, y in zip(g, k)]
        return vector_rank(e2, p) * order + vector_rank(lam_e1, p)

    return least


def _minimal(spec: GroupSpec):
    """Yield (gs, test) for each case of g, in g order: test(k) says whether
    [g | k], index g * p^n + k, has the shape of its orbit's minimum (see
    _least), for every g in the range gs.  At g = 0, k is 0 or leads with 1;
    for the g's that lead with 1 at place value p^t, k is nonzero before it
    and 0 at it; for those that lead with more than 1 (only at p > 2),
    never.  Each test is a lookup in a table of its value at every k, built
    from the test as its case comes, so one table is held at a time, p^n
    entries."""
    p, ks = spec.p, range(spec.group_order)
    lead = [p ** t for t in range(spec.n)]
    tabulate = lambda test: list(map(test, ks)).__getitem__
    yield range(1), tabulate(lambda k: not k or any(k // place == 1 for place in lead))
    for place in lead:
        step = place * p
        yield range(place, 2 * place), tabulate(lambda k: k >= step and not k // place % p)
        if p > 2:
            yield range(2 * place, step), tabulate(lambda k: False)


def canonical_form(s: PairState) -> PairState:
    """Minimal matrix image of s under the packed-index order: idempotent
    and constant on orbits, so it identifies an orbit."""
    return state_from_index(_least(s.spec)(state_index(s)), s.spec)


def count_orbits_canonical(spec: GroupSpec) -> CensusReport:
    """Count the states that are their orbit's minimum, in p^n entries of
    extra memory (see _minimal).  The sweep walks g's cases in order, and
    every half k under each g of a case reaches its test: one lookup per
    state."""
    ks = range(spec.group_order)
    return CensusReport(sum(sum(map(test, ks)) for gs, test in _minimal(spec) for _ in gs))


def count_orbits_burnside(spec: GroupSpec) -> CensusReport:
    """Average fixed-point counts over the matrix group, by diagonal (a, d).

    A matrix fixes a state iff every row lies in the fixed space of the row
    action, so its fixed count is p^(n * (2 - rank(A - I))).  The rank is 0
    only at the identity; otherwise det(A - I) = 2 - trace makes it 1 exactly
    when a + d = 2, and 2 elsewhere.  bc = ad - 1 has 2p - 1 solutions (b, c)
    when ad = 1 and p - 1 otherwise, so O(p^2) diagonals cover all
    p(p^2 - 1) matrices, at every n.  The averaged sum must divide exactly;
    a remainder is a hard error.
    """
    n, p = spec.n, spec.p
    fixed = (p ** (2 * n), p ** n, 1)  # by rank of A - I
    total = fixed[0] - fixed[1]  # the identity, counted below as rank 1
    for a in range(p):
        for d in range(p):
            solutions = 2 * p - 1 if a * d % p == 1 else p - 1
            total += solutions * fixed[1 if (a + d - 2) % p == 0 else 2]
    return CensusReport(exact_div(total, spec.sl2_order))


def _echelon_runs(spec: GroupSpec):
    """Yield (first, count, size) for every run of consecutive orbit minima,
    in index order, from the shape of the minima (see _least): the zero
    state, then [0 | v] for the lines of each leading place, then [g | k]
    for each plane and determinant class, one run per g and per k above g's
    place.  No state is visited."""
    yield 0, 1, 1
    n, p = spec.n, spec.p
    order = spec.group_order
    line, plane = p * p - 1, spec.sl2_order  # orbit sizes
    lead = [p ** t for t in range(n)]  # a leading entry 1 at place t: [p^t, 2 p^t)
    for place in lead:
        yield place, place, line
    for place in lead:
        step = place * p  # k is nonzero above g's place and 0 at it
        for g in range(place, 2 * place):
            for high in range(g * order + step, (g + 1) * order, step):
                yield high, place, plane


def orbit_summaries(spec: GroupSpec) -> list[OrbitSummary]:
    """One OrbitSummary per orbit, sorted by representative index: the echelon
    runs as records, made in C by tuple.__new__, with no state built."""
    runs = list(_echelon_runs(spec))
    reps = chain.from_iterable(range(first, first + count) for first, count, _ in runs)
    sizes = chain.from_iterable(repeat(size, count) for _, count, size in runs)
    return list(map(tuple.__new__, repeat(OrbitSummary), zip(reps, sizes, repeat(spec))))
