"""Orbit enumeration for the pair action, three independent ways.

The three counting routes are a visited sweep a row at a time, closing each
orbit under the two moves in one container that the closure reads as it
grows, with the moves read from lookup tables on its own row-packed indices
(see _bfs_runs); a canonical-form count on packed state indices (a
state is counted when it has the row-reduced shape of its orbit's minimum);
and class-equation averaging of fixed-point counts.  The sweep shares no
code with the other routes, and those two share only the index packing,
which is the point: they are meant to disagree loudly if any one of them is
wrong.  The sweep reads one value it does not derive from the moves: the
group order, through GroupSpec.sl2_order, which Burnside divides by too.  It
counts the orbits above a prefix orbit of that size as one run, and extends
every other prefix by one more row.  A wrong order cannot make the routes
agree falsely: one that matches no orbit's size only sends every prefix
down to the last row, and one that matches the size of a smaller prefix
orbit counts one orbit per tail above it, where fewer lie: a count that the
canonical and formula routes, which do not read the order, do not share.

The orbit listing enumerates the row-reduced minima directly and visits no
state: each orbit is the packed index of its minimum and its size, unpacked
into a PairState only when a caller asks for one.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
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

# the group orders past which _bfs_runs closes each orbit of the last row in
# one reused array: from p = 41 on, where an orbit may hold 2^16 members
_ARRAY_ORDER = 1 << 16


def _level_moves(q: int, S: list[int], T: list[int]):
    """Return (s_hi, s_lo, t_hi, t_lo): the two moves on one level's
    candidates (see _bfs_runs), c = k qL + g L + x for the L = len(S)
    kept prefixes x, whose images are S[x] and T[x], times one more row
    (g, k) of q values.  With (hi, lo) = divmod(c, qL), S(c) = s_hi[hi] +
    s_lo[lo] and T(c) = t_hi[hi] + t_lo[lo], less q^2 L if the sum passes
    it, which it does at most once: q-entry high tables and qL-entry low
    ones."""
    L = len(S)
    width = q * L
    return ([k * L for k in range(q)],  # S: (g, k) -> (k, -g)
            [-g % q * width + x for g in range(q) for x in S],
            [k * width for k in range(q)],  # T: (g, k) -> (g, k + g)
            [g * (width + L) + x for g in range(q) for x in T])


def _bfs_runs(spec: GroupSpec):
    """Visited sweep a row at a time: yield (prefix, depth, count, size)
    for each run of count orbits of size states, one orbit over each tail
    of a prefix orbit of depth rows.  prefix is the row-packed index of one
    of its members, row t the base-p^2 digit k_t p + g_t, the first row
    most significant (no other code reads that packing).

    Level d extends the L prefixes kept from level d - 1, at positions x,
    by one more row (g, k): candidate c = k pL + g L + x, whose new row's
    digit is c // L, with the moves read from p-entry and pL-entry tables
    (see _level_moves).  Each orbit among the candidates is closed in the
    level's one container, cleared per orbit, on one visited byte per
    candidate: a for loop reads it while appending each unvisited image, so
    it holds the orbit in BFS order.  That is a list, except on the last
    row, which keeps no member, when the group order (which bounds every
    orbit) passes _ARRAY_ORDER: there it is an array of 4-byte entries (8
    past 2^32 candidates), as a list would hold about 40 bytes per member,
    p^2 - 1 of them in the one large orbit at n = 1.  One of
    sl2_order members has a trivial stabilizer, so each tail over one of
    its members lies in its own orbit of as many states: a run of
    p^(2(n - d)) orbits.  On the last row each orbit is a run of one.
    Every other orbit is kept, its members renumbered through one dict for
    the next level's S, T and rows.  Level 0 holds the empty prefix alone.
    Runs that do not cover the p^(2n) states exactly are a hard error."""
    p, n, free = spec.p, spec.n, spec.sl2_order
    S = T = rows = [0]  # the empty prefix, fixed by both moves
    covered = 0
    for d in range(n + 1):
        q = p if d else 1  # the values of the new row's g and k; none at level 0
        L = len(rows)
        width = q * L
        total = q * width
        tail = p ** (2 * (n - d))
        s_hi, s_lo, t_hi, t_lo = _level_moves(q, S, T)
        visited = bytearray(total)
        kept, orbit = [], []
        if d == n and free > _ARRAY_ORDER:
            from array import array
            orbit = array("I" if total <= 1 << 32 else "Q")
        start = 0
        while start >= 0:
            visited[start] = 1
            del orbit[:]
            orbit.append(start)
            for c in orbit:  # reads each image the loop appends
                hi = c // width
                lo = c - hi * width
                j = s_hi[hi] + s_lo[lo]
                if not visited[j]:
                    visited[j] = 1
                    orbit.append(j)
                j = t_hi[hi] + t_lo[lo]
                if j >= total:
                    j -= total
                if not visited[j]:
                    visited[j] = 1
                    orbit.append(j)
            size = len(orbit)
            if size == free or d == n:
                yield rows[start % L] * q * q + start // L, d, tail, size
                covered += size * tail
            else:
                kept += orbit
            start = visited.find(0, start + 1)
        at = dict(zip(kept, range(len(kept))))
        S = [at[s_hi[c // width] + s_lo[c % width]] for c in kept]
        T = [at[(t_hi[c // width] + t_lo[c % width]) % total] for c in kept]
        rows = [rows[c % L] * q * q + c // L for c in kept]
    if covered != spec.state_count:
        raise ArithmeticError(
            f"the BFS runs cover {covered} states, not {spec.state_count}")


def count_orbits_bfs(spec: GroupSpec) -> CensusReport:
    """Exact orbit count by visited-sweep BFS, a row at a time: the sum of
    the runs' orbit counts (see _bfs_runs)."""
    return CensusReport(sum(count for _, _, count, _ in _bfs_runs(spec)))


def _least(spec: GroupSpec):
    """Return least(i): the least packed index in the matrix orbit of i,
    read off by row reduction in O(n) field operations.  Every orbit is one
    of three kinds, and its minimum under the packed order is:

    - rank 0: the zero state;
    - rank 1: [0 | v], v the vector of the line with leading entry 1;
    - rank 2: [e2 | lam e1], (e1, e2) the reduced echelon basis of the
      plane with pivots j1 < j2, and lam = -(g_j1 k_j2 - k_j1 g_j2), since
      the determinant of the coordinates in that basis is invariant.

    At p = 2 the minimum is (min, middle) of {g, k, g ^ k}: _least_lanes
    with one lane.
    """
    n, p, order = spec.n, spec.p, spec.group_order
    if p == 2:
        mask = order - 1

        def least(i: int) -> int:  # one lane, its guard bit n being order = 2^n
            lo, mid = _least_lanes(i >> n, i & mask, n, order)
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


def _least_lanes(g: int, k: int, n: int, guard: int) -> tuple[int, int]:
    """Lane by lane, the p = 2 orbit minimum [lo | mid] of the states
    [g | k] whose halves g and k hold as lanes of n + 1 bits: lane j at bit
    (n + 1) j, each value below 2^n, and guard holding bit n of every lane.
    (lo, mid) is (min, middle) of {g, k, g ^ k} in every lane, by three
    compare-exchanges on all lanes at once ("broadword" computing, Knuth,
    TAOCP Vol. 4A, 7.1.3).  ((a | guard) - b) & guard keeps a lane's guard
    bit iff a >= b there, as each lane's 2^n + a - b is positive and so
    borrows from no other lane; that minus itself shifted down by n fills
    those lanes with n ones, the mask of the lanes to swap."""
    h = g ^ k
    ge = ((g | guard) - k) & guard  # g >= k
    swap = (ge - (ge >> n)) & h
    lo, hi = g ^ swap, k ^ swap  # {lo, hi} = {g, k}, so lo ^ hi = h
    ge = ((hi | guard) - h) & guard  # hi >= h
    mid = hi ^ ((ge - (ge >> n)) & lo)  # min(hi, h), as hi ^ h = lo
    ge = ((lo | guard) - mid) & guard  # lo >= mid
    swap = (ge - (ge >> n)) & (lo ^ mid)
    return lo ^ swap, mid ^ swap


def _minimal(spec: GroupSpec):
    """Yield (gs, test) for each case of g, in g order: test(k) says whether
    [g | k], index g * p^n + k, has the shape of its orbit's minimum (see
    _least), for every g in the range gs.  At g = 0, k is 0 or leads with 1:
    below twice its leading place, which one bisect of the places finds; for
    the g's that lead with 1 at place value p^t, k is nonzero before it and
    0 at it; for those that lead with more than 1 (only at p > 2), never.
    Each test is the predicate itself, its place and step bound when it is
    made, so a caller may hold every case before calling any."""
    p = spec.p
    lead = [p ** t for t in range(spec.n)]
    yield range(1), lambda k: not k or k < 2 * lead[bisect_right(lead, k) - 1]
    for place in lead:
        step = place * p
        yield range(place, 2 * place), lambda k, place=place, step=step: (
            k >= step and not k // place % p)
        if p > 2:
            yield range(2 * place, step), lambda k: False


def canonical_form(s: PairState) -> PairState:
    """Minimal matrix image of s under the packed-index order: idempotent
    and constant on orbits, so it identifies an orbit."""
    return state_from_index(_least(s.spec)(state_index(s)), s.spec)


def count_orbits_canonical(spec: GroupSpec) -> CensusReport:
    """Count the states that are their orbit's minimum, in O(1) extra
    memory (see _minimal).  The sweep walks g's cases in order.  Every g of
    a case has the same test, so each case sums its test once over every k
    and counts that sum once per g: at most 2n + 1 sums of p^n test calls,
    and no table."""
    ks = range(spec.group_order)
    return CensusReport(sum(len(gs) * sum(map(test, ks)) for gs, test in _minimal(spec)))


def count_orbits_burnside(spec: GroupSpec) -> CensusReport:
    """Average fixed-point counts over the matrix group, by diagonal (a, d).

    A matrix fixes a state iff every row lies in the fixed space of the row
    action, so its fixed count is p^(n * (2 - rank(A - I))).  The rank is 0
    only at the identity; otherwise det(A - I) = 2 - trace makes it 1 exactly
    when a + d = 2, and 2 elsewhere.  bc = ad - 1 has 2p - 1 solutions (b, c)
    when ad = 1 and p - 1 otherwise.  So for each entry a, every diagonal
    but d = 1/a and d = 2 - a (one d when a = 1) holds p - 1 matrices of
    rank 2: the sum counts all p^2 diagonals so and corrects at those d's,
    O(p) steps for all p(p^2 - 1) matrices, at every n.  The averaged sum
    must divide exactly; a remainder is a hard error.
    """
    n, p = spec.n, spec.p
    fixed = (p ** (2 * n), p ** n, 1)  # by rank of A - I
    usual = (p - 1) * fixed[2]  # a diagonal with ad != 1 and a + d != 2
    # every diagonal as usual; the identity, counted below as rank 1
    total = fixed[0] - fixed[1] + p * p * usual
    for a in range(p):
        for d in {(2 - a) % p, pow(a, -1, p)} if a else {2 % p}:
            solutions = 2 * p - 1 if a * d % p == 1 else p - 1
            total += solutions * fixed[1 if (a + d - 2) % p == 0 else 2] - usual
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
