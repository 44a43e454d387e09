"""Orbit enumeration for the pair action, three independent ways.

The engines work on packed state indices: a breadth-first visited sweep, a
canonical-form count (a state is counted when no matrix image has a smaller
index), and class-equation averaging of fixed-point counts.  The three
routes share no code beyond the index packing, which is the point: they are
meant to disagree loudly if any one of them is wrong.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from operator import add

from .budget import check_budget
from .formulas import exact_div
from .residues import (
    GroupSpec,
    PairState,
    apply_s,
    apply_t,
    enumerate_sl2,
    state_from_index,
    state_index,
    vector_rank,
    vector_unrank,
)

@dataclass(frozen=True, slots=True)
class OrbitSummary:
    """One equivalence class: minimal member, size, stabilizer order.

    stabilizer_order is p(p^2 - 1) / size for uniform prime specs and None
    otherwise (the matrix group needs a field and a positive dimension).
    """

    representative: PairState
    size: int
    stabilizer_order: int | None


@dataclass(slots=True)
class CensusReport:
    orbit_count: int


def _require_uniform_prime(spec: GroupSpec) -> None:
    if not spec.is_uniform_prime:
        raise ValueError(
            f"operation needs a uniform prime spec Z_p^n, got moduli {spec.moduli}")


def _index_moves(spec: GroupSpec):
    """Return (s_of, t_of) acting on packed state indices."""
    n = spec.n
    moduli = spec.moduli
    if moduli and all(d == 2 for d in moduli):
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
        g = vector_unrank(gr, moduli)
        neg = tuple((d - e) % d for e, d in zip(g, moduli))
        return kr * order + vector_rank(neg, moduli)

    def t_of(i: int) -> int:
        gr, kr = divmod(i, order)
        g = vector_unrank(gr, moduli)
        k = vector_unrank(kr, moduli)
        ksum = tuple((x + y) % d for x, y, d in zip(k, g, moduli))
        return gr * order + vector_rank(ksum, moduli)

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
    """Exact orbit count by visited-sweep BFS; works for any moduli."""
    return CensusReport(sum(1 for _ in _bfs_orbits(spec, budget)))


@lru_cache(maxsize=None)
def _canonical_engine(spec: GroupSpec):
    """Return least(i, first=False) over packed indices for a uniform prime spec.

    least(i) is the least index in the full matrix orbit of i.  With first
    set it stops at the first image below i and returns that image, so
    least(i, True) == i exactly when i is its orbit's minimum.

    Matrix (a, b, c, d) sends [g | k] to [a g + c k | b g + d k], so both
    image columns are entries of the state's table vals[x*p + y], the rank
    of x g + y k, and each image index is two lookups.  At p = 2 that table
    is (0, k, g, g ^ k); otherwise it is the sum of one row per entry of the
    state, taken from n per-position tables of p^4 entries each.
    """
    n = spec.n
    if n == 0:
        return lambda i, first=False: 0
    p = spec.prime
    order = spec.group_order
    codes = [(m.a * p + m.c, m.b * p + m.d) for m in enumerate_sl2(p)]
    mask = order - 1
    # tables[j][g_j*p + k_j][x*p + y]: entry j of x g + y k times its place
    # value p^j, j counted from the least significant entry
    tables = []
    for j in range(n if p > 2 else 0):
        place = [r * p ** j for r in range(p)]
        tables.append([[place[(x * gj + y * kj) % p]
                        for x in range(p) for y in range(p)]
                       for gj in range(p) for kj in range(p)])

    def least(i: int, first: bool = False) -> int:
        if p == 2:
            g = i >> n
            k = i & mask
            vals = (0, k, g, g ^ k)
        else:
            gr, kr = divmod(i, order)
            vals = None
            for table in tables:
                gr, gj = divmod(gr, p)
                kr, kj = divmod(kr, p)
                row = table[gj * p + kj]
                vals = row if vals is None else map(add, vals, row)
            if n > 1:  # at n = 1 the row is the table itself
                vals = list(vals)
        best = i
        for cg, ck in codes:
            cand = vals[cg] * order + vals[ck]
            if cand < best:
                if first:
                    return cand
                best = cand
        return best

    return least


def canonical_form(s: PairState) -> PairState:
    """Minimal matrix image of s under the packed-index order.

    Idempotent and constant on orbits, so it identifies an orbit.
    """
    _require_uniform_prime(s.spec)
    least = _canonical_engine(s.spec)
    return state_from_index(least(state_index(s)), s.spec)


def count_orbits_canonical(spec: GroupSpec, budget: int | None = None) -> CensusReport:
    """Count states equal to their own canonical form; O(1) extra memory."""
    _require_uniform_prime(spec)
    check_budget(spec.state_count, budget)
    least = _canonical_engine(spec)
    count = sum(1 for i in range(spec.state_count) if least(i, True) == i)
    return CensusReport(count)


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
    _require_uniform_prime(spec)
    n = spec.n
    if n == 0:
        return CensusReport(1)
    p = spec.prime
    fixed = (p ** (2 * n), p ** n, 1)  # by rank of A - I
    total = fixed[0] - fixed[1]  # the identity, counted below as rank 1
    for a in range(p):
        for d in range(p):
            solutions = 2 * p - 1 if a * d % p == 1 else p - 1
            total += solutions * fixed[1 if (a + d - 2) % p == 0 else 2]
    return CensusReport(exact_div(total, p * (p * p - 1)))


def orbit_summaries(spec: GroupSpec, budget: int | None = None) -> list[OrbitSummary]:
    """One summary per orbit, sorted by representative index."""
    _require_uniform_prime(spec)
    p = spec.prime  # None only at n = 0, where no matrix group acts
    return [OrbitSummary(state_from_index(rep, spec), size,
                         exact_div(p * (p * p - 1), size) if p else None)
            for rep, size in _bfs_orbits(spec, budget)]
