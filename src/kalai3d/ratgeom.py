"""Exact rational linear algebra for the rest of the package.

Every coordinate and offset in this package is an arbitrary-precision
rational, kept in lowest terms with a positive denominator.  Nothing
here ever touches floating point.  The scalar type Rational is
fractions.Fraction, which prints as "p/q" or "p".  Elimination runs in
integers: pivot is the one fraction-free pivot step, behind echelon
(and so affine_rank and kernel_basis), the double description's start
and the simplex tableau.
"""

from __future__ import annotations

import re
from fractions import Fraction as Rational
from math import lcm
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Rational",
    "rational",
    "parse_rational",
    "format_rational",
    "QVector",
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
    return str(value if isinstance(value, Rational) else Rational(value))


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
    def _of(cls, coords: tuple) -> "QVector":
        """A vector over a nonempty tuple of Rationals, taken as it is."""
        v = object.__new__(cls)
        v.coords = coords
        return v

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
        return QVector._of(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "QVector") -> "QVector":
        self._check_dim(other)
        return QVector._of(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "QVector":
        return QVector._of(tuple(-a for a in self.coords))

    def __mul__(self, scalar) -> "QVector":
        s = Rational(scalar)
        return QVector._of(tuple(s * a for a in self.coords))

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


def pivot(rows: list, r: int, c: int, den: int) -> int:
    """One fraction-free (Bareiss) pivot on rows[r][c], in place.

    rows are integer numerators over the common denominator den > 0.
    Every other row becomes (p * row - f * pivot row) // den, with p the
    pivot and f the row's entry in column c: a division that is always
    exact, since every entry stays a minor of the starting matrix.  The
    pivot row is negated first when p < 0, so the new denominator, which
    is returned, is |p| > 0.  Numerators over it are those of the same
    rational Gauss-Jordan step.
    """
    if rows[r][c] < 0:
        rows[r] = [-v for v in rows[r]]
    lead = rows[r]
    p = lead[c]
    for i, row in enumerate(rows):
        if i != r:
            f = row[c]
            rows[i] = [(p * a - f * b) // den for a, b in zip(row, lead)]
    return p


def echelon(rows: list) -> list:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    The pivot of each column is the first remaining row with a nonzero
    entry there.  Returns the pivot columns; the first len(pivots) rows
    end as D times the reduced row echelon form, where D > 0 is the
    entry of every row at its pivot, and the rest are zero.
    """
    pivots = []
    den = 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        den = pivot(rows, r, c, den)
        pivots.append(c)
    return pivots


def _integer_table(rows: Sequence) -> tuple:
    """(integer rows, D): the rational rows times the lcm D > 0 of all
    their denominators, so that rows[r][c] is the integer over D."""
    den = lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (den // v.denominator) for v in row] for row in rows], den


def affine_rank(points: Sequence[QVector]) -> int:
    """Dimension of the affine hull of the given points.

    A single point has rank 0, a segment rank 1, and so on.  Raises
    ValueError on an empty list or mismatched coordinate lengths.
    """
    if not points:
        raise ValueError("affine_rank of an empty point list")
    base = points[0]
    diffs, _ = _integer_table([p - base for p in points[1:]])
    return len(echelon(diffs))


def kernel_basis(rows: Sequence[QVector]) -> list:
    """Basis of the right kernel {x : A x = 0} of the matrix with these
    rows, in deterministic order.

    Returns one vector per free column of the reduced echelon form;
    an empty list means the kernel is trivial.
    """
    work, _ = _integer_table(rows)
    pivots = echelon(work)
    den = work[0][pivots[0]] if pivots else 1
    ncols = len(rows[0])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Rational(0)] * ncols
        vec[fc] = Rational(1)
        for r, pc in enumerate(pivots):
            vec[pc] = Rational(-work[r][fc], den)
        basis.append(QVector._of(tuple(vec)))
    return basis
