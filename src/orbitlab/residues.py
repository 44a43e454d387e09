"""Residue vectors, pair states, and the moves generating the pair equivalence.

A pair state is an n x 2 matrix over Z_p, p prime: column g and column k.
The two moves are (g, k) -> (k, -g) and (g, k) -> (g, k + g); they generate
the right action of SL(2, Z_p) by column operations.  States also carry a
base-p index (g digits first, then k) so engines can work on packed
integers.
"""

from __future__ import annotations

from collections import namedtuple

from .formulas import _require_prime


class GroupSpec(namedtuple("GroupSpec", "p n")):
    """The group Z_p^n for a prime p and n >= 0, checked once here."""

    __slots__ = ()

    def __new__(cls, p: int, n: int) -> "GroupSpec":
        _require_prime(p)
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        return super().__new__(cls, p, n)

    # outside tests, only perfbench/ reads uniform and moduli (ROADMAP item 2)
    @classmethod
    def uniform(cls, p: int, n: int) -> "GroupSpec":
        return cls(p, n)

    @property
    def moduli(self) -> tuple[int, ...]:
        return (self.p,) * self.n

    @property
    def group_order(self) -> int:
        return self.p ** self.n

    @property
    def state_count(self) -> int:
        return self.group_order ** 2

    @property
    def sl2_order(self) -> int:
        """p(p^2 - 1), the order of SL(2, Z_p)."""
        return self.p * (self.p * self.p - 1)


class ResidueVector(namedtuple("ResidueVector", "entries spec")):
    __slots__ = ()

    def __new__(cls, entries, spec: GroupSpec) -> "ResidueVector":
        if len(entries) != spec.n:
            raise ValueError(f"expected {spec.n} entries, got {len(entries)}")
        return super().__new__(cls, tuple(int(e) % spec.p for e in entries), spec)

    def __neg__(self) -> "ResidueVector":
        return ResidueVector(tuple(-e for e in self.entries), self.spec)

    def __add__(self, other: "ResidueVector") -> "ResidueVector":
        if self.spec != other.spec:
            raise ValueError("cannot add vectors over different group specs")
        return ResidueVector(
            tuple(a + b for a, b in zip(self.entries, other.entries)), self.spec)


class PairState(namedtuple("PairState", "g k")):
    """An element (g, k) of G x G, i.e. an n x 2 matrix with rows (g_i, k_i)."""

    __slots__ = ()

    def __new__(cls, g: ResidueVector, k: ResidueVector) -> "PairState":
        if g.spec is not k.spec and g.spec != k.spec:
            raise ValueError("g and k must share one group spec")
        return super().__new__(cls, g, k)

    @property
    def spec(self) -> GroupSpec:
        return self.g.spec

    @classmethod
    def zero(cls, spec: GroupSpec) -> "PairState":
        zero = ResidueVector((0,) * spec.n, spec)
        return cls(zero, zero)

    def rows(self) -> list[tuple[int, int]]:
        return list(zip(self.g.entries, self.k.entries))


def apply_s(s: PairState) -> PairState:
    """(g, k) -> (k, -g)."""
    return PairState(s.k, -s.g)


def apply_t(s: PairState) -> PairState:
    """(g, k) -> (g, k + g)."""
    return PairState(s.g, s.k + s.g)


def enumerate_sl2(p: int) -> list[tuple[int, int, int, int]]:
    """All p(p^2 - 1) matrices (a, b, c, d) of determinant 1 mod p, in
    lexicographic entry order."""
    _require_prime(p)
    # ad - bc = 1: for a = 0, c = -1 / b and d is free; for a != 0,
    # d = (1 + bc) / a.  Both loops run in lexicographic entry order.
    out = []
    for b in range(1, p):
        c = -pow(b, -1, p) % p
        out.extend((0, b, c, d) for d in range(p))
    for a in range(1, p):
        inv = pow(a, -1, p)
        out.extend((a, b, c, (1 + b * c) * inv % p)
                   for b in range(p) for c in range(p))
    return out


def vector_rank(entries, p: int) -> int:
    """Base-p rank with entry 0 most significant."""
    r = 0
    for e in entries:
        r = r * p + e
    return r


def vector_unrank(r: int, p: int, n: int) -> tuple[int, ...]:
    digits = []
    for _ in range(n):
        r, e = divmod(r, p)
        digits.append(e)
    digits.reverse()
    return tuple(digits)


def state_index(s: PairState) -> int:
    """Pack a state as rank(g) * p^n + rank(k); at p = 2 this is the
    bit-concatenation of g then k."""
    p = s.spec.p
    return (vector_rank(s.g.entries, p) * s.spec.group_order
            + vector_rank(s.k.entries, p))


def state_from_index(i: int, spec: GroupSpec) -> PairState:
    if not 0 <= i < spec.state_count:
        raise ValueError(f"index {i} out of range [0, {spec.state_count})")
    gr, kr = divmod(i, spec.group_order)
    return PairState(
        ResidueVector(vector_unrank(gr, spec.p, spec.n), spec),
        ResidueVector(vector_unrank(kr, spec.p, spec.n), spec))
