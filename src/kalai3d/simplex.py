"""Exact two-phase simplex over the rationals.

Internal machinery: the geometric modules use this for deciding whether
a relative interior meets an open cone and for the definition-level
face oracle.  Both need the same shape of LP, so Model has exactly that
shape: nvars variables, each >= 0, dense rows with sense ">=" or "==",
and one dense objective to maximize.

Pivoting follows Bland's rule (smallest eligible column enters, ties on
the leaving row broken by smallest basic variable), which terminates on
every input without any perturbation.  Int entries (rows, right-hand
sides, objective) are taken as they are and anything else becomes a
Rational.  The tableau holds integers over one positive denominator and
every pivot is ratgeom.pivot, so it is exact and OPTIMAL / INFEASIBLE /
UNBOUNDED are decided, not estimated.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Optional, Sequence

from .ratgeom import Rational, pivot

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

GE = ">="
EQ = "=="


@dataclass(frozen=True)
class LPResult:
    """Outcome of Model.maximize.

    value and x are None unless status == OPTIMAL; x holds one optimal
    assignment, in variable order.
    """

    status: str
    value: Optional[object] = None
    x: Optional[tuple] = None


class Model:
    """max c.x subject to dense rows over x >= 0, with x of length nvars.

    Tableau columns: the variables first, then one surplus column per
    ">=" row in row order, then one artificial per row.
    """

    def __init__(self, nvars: int) -> None:
        self._nvars = nvars
        self._rows: list[tuple[list, str, object]] = []

    def constrain(self, row: Sequence, sense: str, rhs) -> None:
        """Add row . x <sense> rhs with sense in {>=, ==}.

        Int entries are kept as they are; an int has a numerator and a
        denominator, so it scales like the Rational it equals.
        """
        if sense not in (GE, EQ):
            raise ValueError(f"unknown sense {sense!r}")
        if len(row) != self._nvars:
            raise ValueError(
                f"row of length {len(row)} for {self._nvars} variables"
            )
        self._rows.append(([_exact(c) for c in row], sense, _exact(rhs)))

    def maximize(self, objective: Sequence) -> LPResult:
        """Solve max objective . x subject to the recorded constraints.

        The tableau is the rational one times the lcm L of every
        denominator in the rows, right-hand sides and objective, held as
        integers over one positive denominator.  One uniform scale keeps
        every sign and every ratio within a row, so Bland's rule takes
        the same pivots as on the rationals; per-row scales would not,
        since the phase-1 cost row sums the rows.
        """
        n = self._nvars
        if len(objective) != n:
            raise ValueError(
                f"objective of length {len(objective)} for {n} variables"
            )
        objective = [_exact(c) for c in objective]
        scale = lcm(
            *(v.denominator for coeffs, _, b in self._rows for v in (*coeffs, b)),
            *(c.denominator for c in objective),
        )

        def whole(v):
            return v.numerator * (scale // v.denominator)

        m = len(self._rows)
        ncols = n + sum(1 for _, sense, _ in self._rows if sense == GE)
        tableau = []
        surplus_at = n
        for i, (coeffs, sense, b) in enumerate(self._rows):
            row = [whole(c) for c in coeffs] + [0] * (ncols - n + m) + [whole(b)]
            if sense == GE:
                row[surplus_at] = -scale
                surplus_at += 1
            if b < 0:
                row = [-v for v in row]
            row[ncols + i] = scale  # the row's artificial
            tableau.append(row)
        # Reduced phase-1 cost row: artificials are basic, so subtract every
        # tableau row from the raw cost (which is L on each artificial column).
        phase1 = [0] * ncols + [scale] * m + [0]
        for row in tableau:
            phase1 = [a - b for a, b in zip(phase1, row)]
        # The real cost row minimizes the negated objective; artificials
        # cost 0 in it, so it is already reduced with respect to the
        # initial basis.
        phase2 = [-whole(c) for c in objective] + [0] * (ncols - n + m + 1)

        status, tableau, basis, den = _solve(tableau + [phase1, phase2], ncols)
        if status != OPTIMAL:
            return LPResult(status=status)
        x = [0] * ncols
        for row, var in zip(tableau, basis):
            x[var] = row[-1]
        return LPResult(
            status=OPTIMAL,
            value=Rational(tableau[-1][-1], den * scale),
            x=tuple(Rational(v, den) for v in x[:n]),
        )


def _exact(v):
    """v itself when it is an int, else v as a Rational."""
    return v if type(v) is int else Rational(v)


def _solve(tableau: list, ncols: int):
    """Two phases of Bland's rule on integer rows [A | artificials | b]
    over ncols columns of A, followed by the phase-1 and the real cost
    row; returns (status, rows, basis, denominator).

    Phase 1 starts from the artificial basis and minimizes their sum;
    phase 2 continues with the real cost row carried through the same
    pivots.  At OPTIMAL the rows are the constraint rows, basis[i] is
    the variable basic in row i, and the real cost row comes last.
    """
    m = len(tableau) - 2
    basis = [ncols + i for i in range(m)]
    status, den = _bland(tableau, basis, m, ncols + m, 1)
    if status != OPTIMAL:
        raise RuntimeError("phase 1 unbounded, but its cost is bounded below by 0")
    if tableau[m][-1]:
        return INFEASIBLE, None, None, None

    # Pivot leftover artificials out of the basis on any nonzero entry (pivot
    # keeps the denominator positive); a row where that is impossible is
    # identically zero and gets dropped.
    keep = []
    for i in range(m):
        if basis[i] >= ncols:
            j = next((j for j in range(ncols) if tableau[i][j]), None)
            if j is None:
                continue
            den = pivot(tableau, i, j, den)
            basis[i] = j
        keep.append(i)
    tableau = [tableau[i][:ncols] + tableau[i][-1:] for i in keep + [m + 1]]
    basis = [basis[i] for i in keep]

    status, den = _bland(tableau, basis, len(keep), ncols, den)
    return status, tableau, basis, den


def _bland(tableau, basis, active, ncols, den):
    """Pivot under Bland's rule on cost row tableau[active] until no
    column below ncols has a negative reduced cost; returns (status,
    denominator).

    The smallest such column enters.  The leaving row has the least
    ratio b / a over entries a > 0, compared by cross-multiplication,
    with ties broken by the smaller basic variable.
    """
    while True:
        crow = tableau[active]
        entering = next((j for j in range(ncols) if crow[j] < 0), None)
        if entering is None:
            return OPTIMAL, den
        leaving = None
        for i, var in enumerate(basis):
            row = tableau[i]
            a = row[entering]
            if a > 0:
                if leaving is not None:
                    lhs, rhs = row[-1] * best_a, best_b * a
                    if lhs > rhs or (lhs == rhs and var > basis[leaving]):
                        continue
                leaving, best_b, best_a = i, row[-1], a
        if leaving is None:
            return UNBOUNDED, den
        den = pivot(tableau, leaving, entering, den)
        basis[leaving] = entering
