"""GF(2^n) field arithmetic and F2 matrix/vector linear algebra.

Words, field elements, and matrix rows are plain Python ints (no wrapper
objects).  Conventions, normative for the whole package:

- bit 0 is the least significant bit and the coefficient of x^0;
- concatenation L||R places L in the high n bits of a 2n-bit word;
- the high half of a key is kL, the low half kR;
- a matrix is stored row-major as n ints; entry (i, j) is bit j of row i,
  and matrix.vector products are defined so that a permutation matrix with
  row i equal to 1 << s(i) sends input bit s(i) to output bit i.

Field multiplication reduces modulo a fixed irreducible polynomial per
width (lowest-lexicographic choice, see REDUCTION_POLYNOMIALS); the
polynomial mask holds the low n coefficients, the x^n term is implicit.
Every width multiplies the same way, by shift-and-add (`_poly_mulmod`):
nothing is built at import, at DomainParams construction or on the first
multiply.  A field-cubic map evaluated over many keys at once
(`FieldCubicSubkey.values`) gathers from a whole-field table that the
schedules module builds instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import DomainError, DomainTooLarge

# Lowest-lexicographic irreducible polynomial of each degree, as the mask of
# the coefficients below x^n.  The test suite re-derives the table by
# exhaustive factor search and checks every entry with sympy.
REDUCTION_POLYNOMIALS = {
    2: 0x3, 3: 0x3, 4: 0x3, 5: 0x5, 6: 0x3, 7: 0x3, 8: 0x1B,
    9: 0x3, 10: 0x9, 11: 0x5, 12: 0x9, 13: 0x1B, 14: 0x21, 15: 0x3,
    16: 0x2B, 17: 0x9, 18: 0x9, 19: 0x27, 20: 0x9, 21: 0x5, 22: 0x3,
    23: 0x21, 24: 0x1B, 25: 0x9, 26: 0x1B, 27: 0x27, 28: 0x3, 29: 0x5,
    30: 0x3, 31: 0x9, 32: 0x8D,
}

MAX_EXHAUSTIVE_N = 16


def _poly_mulmod(a: int, b: int, full: int) -> int:
    """Multiply two GF(2)[x] polynomials modulo `full` (leading bit explicit)."""
    top = full.bit_length()
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a.bit_length() == top:
            a ^= full
    return r


@dataclass(frozen=True)
class DomainParams:
    """Half-block width n, and what it determines: domain size N = 2^n and
    the reduction polynomial shipped for n.  Any n that is not a plain int
    key of REDUCTION_POLYNOMIALS raises DomainError."""

    n: int

    def __post_init__(self):
        if type(self.n) is not int or self.n not in REDUCTION_POLYNOMIALS:
            raise DomainError(f"no reduction polynomial shipped for n={self.n!r}")

    @classmethod
    def for_width(cls, n: int) -> "DomainParams":
        return cls(n)

    @property
    def reduction_polynomial(self) -> int:
        return REDUCTION_POLYNOMIALS[self.n]

    @property
    def N(self) -> int:
        return 1 << self.n

    @property
    def mask(self) -> int:
        return (1 << self.n) - 1


def gf_mul(a: int, b: int, p: DomainParams) -> int:
    """Product of a and b in GF(2^n) under p's reduction polynomial, by
    shift-and-add at every width."""
    n = p.n
    if (a | b) >> n:  # also nonzero for a negative operand
        raise DomainError(f"gf_mul operands {a:#x}, {b:#x} are not elements of GF(2^{n})")
    return _poly_mulmod(a, b, (1 << n) | p.reduction_polynomial)


def gf_cube(a: int, p: DomainParams) -> int:
    """a*a*a in GF(2^n): two products."""
    return gf_mul(gf_mul(a, a, p), a, p)


@dataclass(frozen=True)
class BinMatrix:
    """n x n matrix over F2, stored as n row words."""

    rows: tuple[int, ...]

    def __post_init__(self):
        n = len(self.rows)
        if n == 0:
            raise DomainError("empty matrix")
        size = 1 << n
        for r in self.rows:
            if not 0 <= r < size:
                raise DomainError(f"row {r:#x} out of range for n={n}")

    @property
    def n(self) -> int:
        return len(self.rows)

    def __xor__(self, other: "BinMatrix") -> "BinMatrix":
        if self.n != other.n:
            raise DomainError("matrix size mismatch")
        return BinMatrix(tuple(a ^ b for a, b in zip(self.rows, other.rows)))

    @classmethod
    def identity(cls, n: int) -> "BinMatrix":
        return cls(tuple(1 << i for i in range(n)))

    @classmethod
    def zero(cls, n: int) -> "BinMatrix":
        return cls((0,) * n)

    @classmethod
    def rotation(cls, n: int, r: int) -> "BinMatrix":
        """Left bit-rotation by r: output bit i = input bit (i - r) mod n."""
        return cls(tuple(1 << ((i - r) % n) for i in range(n)))


def mat_vec(m: BinMatrix, v: int) -> int:
    """F2 matrix-vector product; linear in v, which must lie in [0, 2^n).
    Output bit i is the parity of row i & v, shifted in from the last row
    down."""
    if v >> len(m.rows):  # also nonzero for a negative v
        raise DomainError(f"vector {v:#x} is not an element of F2^{len(m.rows)}")
    out = 0
    for row in reversed(m.rows):
        out = out << 1 | (row & v).bit_count() & 1
    return out


def _kernel_basis_of_rows(rows: Iterable[int], ncols: int) -> tuple[int, ...]:
    """Basis of {v : every row r has parity(r & v) = 0}, rows of any count."""
    # Incremental elimination: keep one reduced row per pivot (highest set bit).
    pivot_rows: dict[int, int] = {}
    for row in rows:
        cur = row
        while cur:
            p = cur.bit_length() - 1
            if p in pivot_rows:
                cur ^= pivot_rows[p]
            else:
                pivot_rows[p] = cur
                break
    # Back-substitute so each pivot column appears only in its own row.
    for p in sorted(pivot_rows):
        r = pivot_rows[p]
        for q in pivot_rows:
            if q > p and (pivot_rows[q] >> p) & 1:
                pivot_rows[q] ^= r
    free_cols = [c for c in range(ncols) if c not in pivot_rows]
    basis = []
    for f in free_cols:
        v = 1 << f
        for p, r in pivot_rows.items():
            v |= ((r >> f) & 1) << p
        basis.append(v)
    return tuple(sorted(basis))


def mat_kernel_basis(m: BinMatrix) -> tuple[int, ...]:
    """Basis of {v : mat_vec(m, v) = 0}; empty exactly when m is invertible."""
    return _kernel_basis_of_rows(m.rows, m.n)


def mat_is_invertible(m: BinMatrix) -> bool:
    return not mat_kernel_basis(m)


def joint_kernel_basis(ms: Sequence[BinMatrix]) -> tuple[int, ...]:
    """Basis of the intersection of the kernels of all given matrices."""
    if not ms:
        raise DomainError("need at least one matrix")
    n = ms[0].n
    rows: list[int] = []
    for m in ms:
        if m.n != n:
            raise DomainError("matrix size mismatch")
        rows.extend(m.rows)
    return _kernel_basis_of_rows(rows, n)


def is_orthomorphism(perm: Callable[[int], int] | Sequence[int], n: int) -> bool:
    """Whether perm and x -> x ^ perm(x) are both bijections of {0,1}^n.

    Exhaustive; rejects widths above the enumeration cap.
    """
    if n > MAX_EXHAUSTIVE_N:
        raise DomainTooLarge(f"orthomorphism check capped at n={MAX_EXHAUSTIVE_N}")
    N = 1 << n
    f = perm.__getitem__ if isinstance(perm, Sequence) else perm
    images = set()
    xored = set()
    for x in range(N):
        y = f(x)
        if not 0 <= y < N:
            return False
        images.add(y)
        xored.add(x ^ y)
    return len(images) == N and len(xored) == N
