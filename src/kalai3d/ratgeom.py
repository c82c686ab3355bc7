"""Exact rational linear algebra for the rest of the package.

Every coordinate, offset, and solver pivot in this package is an
arbitrary-precision rational, kept in lowest terms with a positive
denominator.  Nothing here ever touches floating point.  The scalar
type Rational is fractions.Fraction, which prints as "p/q" or "p".
"""

from __future__ import annotations

import re
from fractions import Fraction as Rational
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Rational",
    "rational",
    "parse_rational",
    "format_rational",
    "QVector",
    "rank",
    "affine_rank",
    "kernel_basis",
]

# One optional sign, a base-10 integer, optionally "/denominator" with the
# denominator strictly positive.  No whitespace, no decimal points.
_RATIONAL_TOKEN = re.compile(r"^[+-]?\d+(?:/[1-9][0-9]*)?$")


def rational(numerator: object = 0, denominator: object = 1):
    """Build a rational scalar in lowest terms."""
    return Rational(numerator, denominator)


def parse_rational(token: str):
    """Parse the serialized form "p/q" or "p" (base 10, q > 0).

    This is deliberately stricter than the scalar constructor: it rejects
    whitespace, decimal points, and non-positive denominators, because it
    guards the file formats.
    """
    if not isinstance(token, str) or not _RATIONAL_TOKEN.match(token):
        raise ValueError(f"not a rational token: {token!r}")
    if "/" in token:
        num, den = token.split("/", 1)
        return Rational(int(num), int(den))
    return Rational(int(token))


def format_rational(value) -> str:
    """Serialize to "p/q" (or "p" when the denominator is 1)."""
    return str(Rational(value))


class QVector:
    """Immutable vector with exact rational coordinates.

    Supports the usual exact operations (+, -, unary -, scalar *), exact
    equality and hashing, and lexicographic comparison so vertex lists can
    be sorted deterministically.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable):
        self.coords = tuple(Rational(c) for c in coords)
        if not self.coords:
            raise ValueError("vector needs at least one coordinate")

    @classmethod
    def zero(cls, dim: int) -> "QVector":
        return cls([0] * dim)

    @classmethod
    def unit(cls, dim: int, index: int) -> "QVector":
        if not 0 <= index < dim:
            raise ValueError(f"unit index {index} out of range for dim {dim}")
        return cls([1 if i == index else 0 for i in range(dim)])

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self) -> Iterator:
        return iter(self.coords)

    def __getitem__(self, i: int):
        return self.coords[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, QVector):
            return NotImplemented
        return self.coords == other.coords

    def __lt__(self, other) -> bool:
        if not isinstance(other, QVector):
            return NotImplemented
        return self.coords < other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return "QVector((%s))" % ", ".join(format_rational(c) for c in self.coords)

    def __add__(self, other: "QVector") -> "QVector":
        self._check_dim(other)
        return QVector(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other: "QVector") -> "QVector":
        self._check_dim(other)
        return QVector(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self) -> "QVector":
        return QVector(-a for a in self.coords)

    def __mul__(self, scalar) -> "QVector":
        s = Rational(scalar)
        return QVector(s * a for a in self.coords)

    __rmul__ = __mul__

    def dot(self, other: "QVector"):
        self._check_dim(other)
        total = Rational(0)
        for a, b in zip(self.coords, other.coords):
            total += a * b
        return total

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def _check_dim(self, other: "QVector") -> None:
        if len(self.coords) != len(other.coords):
            raise ValueError(
                f"dimension mismatch: {len(self.coords)} vs {len(other.coords)}"
            )


def _reduced_echelon(rows: list) -> list:
    """In-place Gauss-Jordan elimination; returns the pivot column list.

    Pivot choice is the first row with a nonzero entry in the current
    column, which keeps every downstream computation deterministic.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c]
        if inv != 1:
            rows[r] = [x / inv for x in rows[r]]
        lead = rows[r]
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], lead)]
        pivots.append(c)
        r += 1
    return pivots


def affine_rank(points: Sequence[QVector]) -> int:
    """Dimension of the affine hull of the given points.

    A single point has rank 0, a segment rank 1, and so on.  Raises
    ValueError on an empty list or mismatched coordinate lengths.
    """
    if not points:
        raise ValueError("affine_rank of an empty point list")
    base = points[0]
    diffs = [list((p - base).coords) for p in points[1:]]
    if not diffs:
        return 0
    return len(_reduced_echelon(diffs))


def rank(rows: Sequence[QVector]) -> int:
    """Rank of the matrix with the given rows."""
    return len(_reduced_echelon([list(r.coords) for r in rows]))


def kernel_basis(rows: Sequence[QVector]) -> list:
    """Basis of the right kernel {x : A x = 0} of the matrix with these
    rows, in deterministic order.

    Returns one vector per free column of the reduced echelon form;
    an empty list means the kernel is trivial.
    """
    work = [list(r.coords) for r in rows]
    pivots = _reduced_echelon(work)
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in set(pivots)]
    basis = []
    for fc in free:
        vec = [Rational(0)] * ncols
        vec[fc] = Rational(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][fc]
        basis.append(QVector(vec))
    return basis
