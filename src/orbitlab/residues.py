"""Residue vectors, pair states, and the moves generating the pair equivalence.

A pair state is an n x 2 matrix over the moduli: column g and column k.
The two moves are (g, k) -> (k, -g) and (g, k) -> (g, k + g); over a uniform
prime modulus they generate the right action of SL(2, Z_p) by column
operations.  States also carry a mixed-radix index (g digits first, then k)
so engines can work on packed integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

from .formulas import is_prime


@dataclass(frozen=True, slots=True)
class GroupSpec:
    """A finite abelian group given as a product of cyclic groups Z_d."""

    moduli: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "moduli", tuple(int(d) for d in self.moduli))
        for d in self.moduli:
            if d < 2:
                raise ValueError(f"every modulus must be >= 2, got {d}")

    @classmethod
    def uniform(cls, p: int, n: int) -> "GroupSpec":
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        return cls((p,) * n)

    @property
    def n(self) -> int:
        return len(self.moduli)

    @property
    def group_order(self) -> int:
        return prod(self.moduli)

    @property
    def state_count(self) -> int:
        return self.group_order ** 2

    @property
    def is_uniform_prime(self) -> bool:
        # n = 0 counts as uniform: there is nothing for the matrices to act on.
        if not self.moduli:
            return True
        p = self.moduli[0]
        return is_prime(p) and all(d == p for d in self.moduli)

    @property
    def prime(self) -> int | None:
        if self.moduli and self.is_uniform_prime:
            return self.moduli[0]
        return None


@dataclass(frozen=True, slots=True)
class ResidueVector:
    entries: tuple[int, ...]
    spec: GroupSpec

    def __post_init__(self):
        if len(self.entries) != self.spec.n:
            raise ValueError(
                f"expected {self.spec.n} entries, got {len(self.entries)}")
        object.__setattr__(
            self, "entries",
            tuple(int(e) % d for e, d in zip(self.entries, self.spec.moduli)))

    @classmethod
    def zero(cls, spec: GroupSpec) -> "ResidueVector":
        return cls((0,) * spec.n, spec)

    def __neg__(self) -> "ResidueVector":
        return ResidueVector(tuple(-e for e in self.entries), self.spec)

    def __add__(self, other: "ResidueVector") -> "ResidueVector":
        if self.spec != other.spec:
            raise ValueError("cannot add vectors over different group specs")
        return ResidueVector(
            tuple(a + b for a, b in zip(self.entries, other.entries)), self.spec)


@dataclass(frozen=True, slots=True)
class PairState:
    """An element (g, k) of G x G, i.e. an n x 2 matrix with rows (g_i, k_i)."""

    g: ResidueVector
    k: ResidueVector

    def __post_init__(self):
        if self.g.spec != self.k.spec:
            raise ValueError("g and k must share one group spec")

    @property
    def spec(self) -> GroupSpec:
        return self.g.spec

    @classmethod
    def zero(cls, spec: GroupSpec) -> "PairState":
        return cls(ResidueVector.zero(spec), ResidueVector.zero(spec))

    def rows(self) -> list[tuple[int, int]]:
        return list(zip(self.g.entries, self.k.entries))


@dataclass(frozen=True, slots=True)
class Mat2:
    """An element of SL(2, Z_p): determinant 1 modulo a prime p."""

    a: int
    b: int
    c: int
    d: int
    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, getattr(self, name) % self.p)
        if (self.a * self.d - self.b * self.c) % self.p != 1:
            raise ValueError(
                f"determinant must be 1 mod {self.p}: "
                f"[[{self.a},{self.b}],[{self.c},{self.d}]]")

    @classmethod
    def identity(cls, p: int) -> "Mat2":
        return cls(1, 0, 0, 1, p)

    @classmethod
    def s_matrix(cls, p: int) -> "Mat2":
        """The matrix realizing (g, k) -> (k, -g) as a right column action."""
        return cls(0, -1, 1, 0, p)

    @classmethod
    def t_matrix(cls, p: int) -> "Mat2":
        """The matrix realizing (g, k) -> (g, k + g)."""
        return cls(1, 1, 0, 1, p)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        if self.p != other.p:
            raise ValueError(f"modulus mismatch: {self.p} vs {other.p}")
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            self.p)


def apply_s(s: PairState) -> PairState:
    """(g, k) -> (k, -g)."""
    return PairState(s.k, -s.g)


def apply_t(s: PairState) -> PairState:
    """(g, k) -> (g, k + g)."""
    return PairState(s.g, s.k + s.g)


def apply_mat(s: PairState, mat: Mat2) -> PairState:
    """Right action of mat on the n x 2 matrix [g | k].

    Columns transform as (g, k) -> (a g + c k, b g + d k), so the s_matrix
    and t_matrix reproduce apply_s and apply_t exactly.
    """
    spec = s.spec
    if spec.n == 0:
        return s
    if spec.prime != mat.p:
        raise ValueError(
            f"incompatible spec: matrix is over Z_{mat.p}, "
            f"state over moduli {spec.moduli}")
    a, b, c, d = mat.a, mat.b, mat.c, mat.d
    g = tuple(a * gi + c * ki for gi, ki in zip(s.g.entries, s.k.entries))
    k = tuple(b * gi + d * ki for gi, ki in zip(s.g.entries, s.k.entries))
    return PairState(ResidueVector(g, spec), ResidueVector(k, spec))


@lru_cache(maxsize=None)
def _sl2_elements(p: int) -> tuple[Mat2, ...]:
    # ad - bc = 1: for a != 0, d = (1 + bc) / a; for a = 0, c = -1 / b and d
    # is free.  Both loops run in lexicographic entry order.
    out = []
    for b in range(1, p):
        c = -pow(b, -1, p) % p
        out.extend(Mat2(0, b, c, d, p) for d in range(p))
    for a in range(1, p):
        inv = pow(a, -1, p)
        out.extend(Mat2(a, b, c, (1 + b * c) * inv % p, p)
                   for b in range(p) for c in range(p))
    return tuple(out)


def enumerate_sl2(p: int) -> list[Mat2]:
    """All p(p^2 - 1) matrices of determinant 1, in lexicographic entry order."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return list(_sl2_elements(p))


def vector_rank(entries, moduli) -> int:
    """Mixed-radix rank with entry 0 most significant."""
    r = 0
    for e, d in zip(entries, moduli):
        r = r * d + e
    return r


def vector_unrank(r: int, moduli) -> tuple[int, ...]:
    digits = []
    for d in reversed(moduli):
        r, e = divmod(r, d)
        digits.append(e)
    digits.reverse()
    return tuple(digits)


def state_index(s: PairState) -> int:
    """Pack a state as rank(g) * |G| + rank(k); at p = 2 this is the
    bit-concatenation of g then k."""
    moduli = s.spec.moduli
    return (vector_rank(s.g.entries, moduli) * s.spec.group_order
            + vector_rank(s.k.entries, moduli))


def state_from_index(i: int, spec: GroupSpec) -> PairState:
    if not 0 <= i < spec.state_count:
        raise ValueError(f"index {i} out of range [0, {spec.state_count})")
    gr, kr = divmod(i, spec.group_order)
    return PairState(
        ResidueVector(vector_unrank(gr, spec.moduli), spec),
        ResidueVector(vector_unrank(kr, spec.moduli), spec))
