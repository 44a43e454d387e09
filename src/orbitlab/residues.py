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
        p = self.spec.p
        return _vector(tuple([-e % p for e in self.entries]), self.spec)

    def __add__(self, other: "ResidueVector") -> "ResidueVector":
        if self.spec != other.spec:
            raise ValueError("cannot add vectors over different group specs")
        p = self.spec.p
        return _vector(tuple([(a + b) % p for a, b in zip(self.entries, other.entries)]),
                       self.spec)


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


# The records of the moves and the index, built in C by tuple.__new__ from
# what they just made: n entries in range(p) over one spec.  The public
# constructors above still check whatever comes from outside.
def _vector(entries: tuple[int, ...], spec: GroupSpec) -> ResidueVector:
    return tuple.__new__(ResidueVector, (entries, spec))


def _pair(g: ResidueVector, k: ResidueVector) -> PairState:
    return tuple.__new__(PairState, (g, k))


def apply_s(s: PairState) -> PairState:
    """(g, k) -> (k, -g)."""
    return _pair(s.k, -s.g)


def apply_t(s: PairState) -> PairState:
    """(g, k) -> (g, k + g)."""
    return _pair(s.g, s.k + s.g)


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


# each entry below 36 as its digit, and each binary digit back as its bit
_NUMERALS = bytes.maketrans(bytes(range(36)), b"0123456789abcdefghijklmnopqrstuvwxyz")
_BITS = bytes.maketrans(b"01", bytes(range(2)))


def vector_rank(entries, p: int) -> int:
    """Base-p rank of entries in range(p), entry 0 most significant."""
    if p <= 36 and (p == 2 or len(entries) <= 640):
        # one base-p numeral read in C; 640 digits is the least limit that
        # sys.set_int_max_str_digits can set on a base other than 2
        return int(bytes(entries).translate(_NUMERALS) or b"0", p)
    r = 0
    for e in entries:
        r = r * p + e
    return r


def vector_unrank(r: int, p: int, n: int) -> tuple[int, ...]:
    """The n base-p digits of r in range(p^n), entry 0 most significant."""
    if p == 2:  # format(0, "00b") is "0", one digit
        return tuple(format(r, f"0{n}b").encode().translate(_BITS)) if n else ()
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
    p, n = spec
    order = p ** n
    if not 0 <= i < order * order:
        raise ValueError(f"index {i} out of range [0, {order * order})")
    gr, kr = divmod(i, order)
    return _pair(_vector(vector_unrank(gr, p, n), spec), _vector(vector_unrank(kr, p, n), spec))
