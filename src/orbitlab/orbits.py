"""Orbit enumeration for the pair action, three independent ways.

The engines work on packed state indices: a breadth-first visited sweep, a
canonical-form count (a state is counted when it has the row-reduced shape
of its orbit's minimum), and class-equation averaging of fixed-point counts.
The three routes share no code beyond the index packing, which is the
point: they are meant to disagree loudly if any one of them is wrong.  The
orbit listing enumerates the row-reduced minima directly and visits no
state.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .budget import check_budget
from .formulas import exact_div
from .residues import (
    GroupSpec,
    PairState,
    apply_s,
    apply_t,
    state_from_index,
    state_index,
    vector_rank,
    vector_unrank,
)

@dataclass(frozen=True, slots=True)
class OrbitSummary:
    """One equivalence class: minimal member, size, stabilizer order.

    stabilizer_order is p(p^2 - 1) / size, and None at n = 0, where the one
    state is listed with no matrix group acting on it.
    """

    representative: PairState
    size: int
    stabilizer_order: int | None


@dataclass(slots=True)
class CensusReport:
    orbit_count: int


def _index_moves(spec: GroupSpec):
    """Return (s_of, t_of) acting on packed state indices."""
    n, p = spec.n, spec.p
    if p == 2:
        mask = (1 << n) - 1

        def s_of(i: int) -> int:
            # -g == g mod 2
            return ((i & mask) << n) | (i >> n)

        def t_of(i: int) -> int:
            g = i >> n
            return (g << n) | ((i & mask) ^ g)

        return s_of, t_of

    order = spec.group_order

    def s_of(i: int) -> int:
        gr, kr = divmod(i, order)
        g = vector_unrank(gr, p, n)
        return kr * order + vector_rank([-e % p for e in g], p)

    def t_of(i: int) -> int:
        gr, kr = divmod(i, order)
        g = vector_unrank(gr, p, n)
        k = vector_unrank(kr, p, n)
        return gr * order + vector_rank([(x + y) % p for x, y in zip(k, g)], p)

    return s_of, t_of


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


def _bfs_orbits(spec: GroupSpec, budget: int | None):
    """Visited sweep in index order, one visited byte per state.

    Each unvisited index starts one orbit BFS; the sweep start is therefore
    the minimal index of its orbit.  Yields (rep, size) per orbit, in
    representative order.
    """
    total = spec.state_count
    check_budget(total, budget)
    s_of, t_of = _index_moves(spec)
    visited = bytearray(total)
    for start in range(total):
        if visited[start]:
            continue
        size = 0
        visited[start] = 1
        queue = deque([start])
        while queue:
            i = queue.popleft()
            size += 1
            for j in (s_of(i), t_of(i)):
                if not visited[j]:
                    visited[j] = 1
                    queue.append(j)
        yield start, size


def count_orbits_bfs(spec: GroupSpec, budget: int | None = None) -> CensusReport:
    """Exact orbit count by visited-sweep BFS over all p^(2n) states."""
    return CensusReport(sum(1 for _ in _bfs_orbits(spec, budget)))


@lru_cache(maxsize=None)
def _canonical_engine(spec: GroupSpec):
    """Return (least, is_least) on packed indices.

    least(i) is the least index in the matrix orbit of i, read off by row
    reduction in O(n) field operations; is_least(i) is least(i) == i,
    decided without computing the minimum.  Every orbit is one of three
    kinds, and its minimum under the packed order is:

    - rank 0: the zero state;
    - rank 1: [0 | v], v the vector of the line with leading entry 1;
    - rank 2: [e2 | lam e1], (e1, e2) the reduced echelon basis of the
      plane with pivots j1 < j2, and lam = -(g_j1 k_j2 - k_j1 g_j2), since
      the determinant of the coordinates in that basis is invariant.

    So [g | k] is minimal iff g = 0 and k is 0 or has leading entry 1, or g
    has leading entry 1 at some j, k is nonzero before j and k_j = 0.  At
    p = 2 the minimum is (min, middle) of {g, k, g ^ k}.
    """
    n, p = spec.n, spec.p
    order = spec.group_order

    if p == 2:
        mask = order - 1

        def least(i: int) -> int:
            g = i >> n
            k = i & mask
            lo, mid, _ = sorted((g, k, g ^ k))
            return (lo << n) | mid

        def is_least(i: int) -> bool:
            g = i >> n
            k = i & mask
            return not g or g < k < g ^ k

        return least, is_least

    powers = [p ** t for t in range(n + 1)]

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

    def is_least(i: int) -> bool:
        gr, kr = divmod(i, order)
        if not gr:  # k's leading entry is 1 iff p^t <= k < 2 p^t
            return not kr or kr < 2 * powers[bisect_right(powers, kr) - 1]
        place = powers[bisect_right(powers, gr) - 1]  # g's leading place value
        return gr < 2 * place and kr >= place * p and not kr // place % p

    return least, is_least


def canonical_form(s: PairState) -> PairState:
    """Minimal matrix image of s under the packed-index order.

    Idempotent and constant on orbits, so it identifies an orbit.
    """
    least, _ = _canonical_engine(s.spec)
    return state_from_index(least(state_index(s)), s.spec)


def count_orbits_canonical(spec: GroupSpec, budget: int | None = None) -> CensusReport:
    """Count the states that are their orbit's minimum; O(1) extra memory."""
    check_budget(spec.state_count, budget)
    _, is_least = _canonical_engine(spec)
    return CensusReport(sum(map(is_least, range(spec.state_count))))


def count_orbits_burnside(spec: GroupSpec) -> CensusReport:
    """Average fixed-point counts over the matrix group, by diagonal (a, d).

    A matrix fixes a state iff every row lies in the fixed space of the row
    action, so its fixed count is p^(n * (2 - rank(A - I))).  The rank is 0
    only at the identity; otherwise det(A - I) = 2 - trace makes it 1 exactly
    when a + d = 2, and 2 elsewhere.  bc = ad - 1 has 2p - 1 solutions (b, c)
    when ad = 1 and p - 1 otherwise, so O(p^2) diagonals cover all
    p(p^2 - 1) matrices.  The averaged sum must divide exactly; a remainder
    is a hard error.
    """
    n, p = spec.n, spec.p
    fixed = (p ** (2 * n), p ** n, 1)  # by rank of A - I
    total = fixed[0] - fixed[1]  # the identity, counted below as rank 1
    for a in range(p):
        for d in range(p):
            solutions = 2 * p - 1 if a * d % p == 1 else p - 1
            total += solutions * fixed[1 if (a + d - 2) % p == 0 else 2]
    return CensusReport(exact_div(total, p * (p * p - 1)))


def _echelon_minima(spec: GroupSpec):
    """Yield (rep, size) for every orbit, in index order, from the shape of
    the minima (see _canonical_engine): the zero state, then [0 | v] for
    each line, then [g | k] for each plane and determinant class.  No state
    is visited."""
    yield 0, 1
    n, p = spec.n, spec.p
    order = spec.group_order
    line, plane = p * p - 1, p * (p * p - 1)  # orbit sizes
    lead = [p ** t for t in range(n)]  # a leading entry 1 at place t: [p^t, 2 p^t)
    for place in lead:
        for v in range(place, 2 * place):
            yield v, line
    for place in lead:
        step = place * p  # k is nonzero above g's place and 0 at it
        for g in range(place, 2 * place):
            for high in range(g * order + step, (g + 1) * order, step):
                for i in range(high, high + place):
                    yield i, plane


def orbit_summaries(spec: GroupSpec, budget: int | None = None) -> list[OrbitSummary]:
    """One summary per orbit, sorted by representative index.

    Read off the echelon minima, so it costs O(orbits), not O(states); the
    state budget is still checked, as for the censuses.
    """
    check_budget(spec.state_count, budget)
    p = spec.p
    return [OrbitSummary(state_from_index(rep, spec), size,
                         exact_div(p * (p * p - 1), size) if spec.n else None)
            for rep, size in _echelon_minima(spec)]
