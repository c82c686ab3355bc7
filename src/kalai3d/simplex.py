"""Exact two-phase simplex over the rationals.

Internal machinery: the geometric modules use this for the boundedness
test, for deciding whether a relative interior meets an open cone, and
for the definition-level face oracle.  All three need the same shape of
LP, so Model has exactly that shape: nvars variables, each >= 0, dense
rows with sense ">=" or "==", and one dense objective to maximize.

Pivoting follows Bland's rule (smallest eligible column enters, ties on
the leaving row broken by smallest basic variable), which terminates on
every input without any perturbation.  All tableau entries are exact
rationals, so OPTIMAL / INFEASIBLE / UNBOUNDED are decided, not estimated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .ratgeom import Rational

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
    ">=" row in row order; _solve appends the artificials.
    """

    def __init__(self, nvars: int) -> None:
        self._nvars = nvars
        self._rows: list[tuple[list, str, object]] = []

    def constrain(self, row: Sequence, sense: str, rhs) -> None:
        """Add row . x <sense> rhs with sense in {>=, ==}."""
        if sense not in (GE, EQ):
            raise ValueError(f"unknown sense {sense!r}")
        if len(row) != self._nvars:
            raise ValueError(
                f"row of length {len(row)} for {self._nvars} variables"
            )
        self._rows.append(([Rational(c) for c in row], sense, Rational(rhs)))

    def maximize(self, objective: Sequence) -> LPResult:
        """Solve max objective . x subject to the recorded constraints."""
        n = self._nvars
        if len(objective) != n:
            raise ValueError(
                f"objective of length {len(objective)} for {n} variables"
            )
        nsurplus = sum(1 for _, sense, _ in self._rows if sense == GE)
        rows = []
        rhs = []
        surplus_at = n
        for coeffs, sense, b in self._rows:
            row = coeffs + [Rational(0)] * nsurplus
            if sense == GE:
                row[surplus_at] = Rational(-1)
                surplus_at += 1
            rows.append(row)
            rhs.append(b)
        # minimize the negated objective
        cost = [-Rational(c) for c in objective] + [Rational(0)] * nsurplus

        status, xcols, minvalue = _solve(rows, rhs, cost)
        if status != OPTIMAL:
            return LPResult(status=status)
        return LPResult(status=OPTIMAL, value=-minvalue, x=tuple(xcols[:n]))


def _solve(rows: list, rhs: list, cost: list):
    """min cost.x over {rows.x == rhs, x >= 0}; returns (status, x, value).

    Phase 1 gives every row an artificial variable and minimizes their
    sum; phase 2 continues with the real cost row carried through the
    same pivots.
    """
    m = len(rows)
    n = len(cost)
    tableau = []
    for i, row in enumerate(rows):
        full = list(row)
        b = rhs[i]
        if b < 0:
            full = [-v for v in full]
            b = -b
        full.extend(Rational(1) if j == i else Rational(0) for j in range(m))
        full.append(b)
        tableau.append(full)
    basis = [n + i for i in range(m)]

    # Reduced phase-1 cost row: artificials are basic, so subtract every
    # tableau row from the raw cost (which is 1 on each artificial column).
    phase1 = [Rational(0)] * n + [Rational(1)] * m + [Rational(0)]
    for row in tableau:
        phase1 = [a - b for a, b in zip(phase1, row)]

    # The real cost row rides along from the start; artificials cost 0 in
    # it, so it is already reduced with respect to the initial basis.
    phase2 = list(cost) + [Rational(0)] * m + [Rational(0)]

    costs = [phase1, phase2]
    if _bland(tableau, costs, 0, basis, n + m) != OPTIMAL:
        raise RuntimeError("phase 1 unbounded, but its cost is bounded below by 0")
    if phase1[-1] != 0:
        return INFEASIBLE, None, None

    # Pivot leftover artificials out of the basis; a row where that is
    # impossible is identically zero and gets dropped.
    keep = []
    for i in range(m):
        if basis[i] < n:
            keep.append(i)
            continue
        entering = None
        for j in range(n):
            if tableau[i][j]:
                entering = j
                break
        if entering is not None:
            _pivot(tableau, costs, basis, i, entering)
            keep.append(i)
    tableau = [tableau[i][:n] + [tableau[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    costs = [c[:n] + [c[-1]] for c in costs]

    status = _bland(tableau, costs, 1, basis, n)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    x = [Rational(0)] * n
    for i, var in enumerate(basis):
        x[var] = tableau[i][-1]
    return OPTIMAL, x, -costs[1][-1]


def _bland(tableau, costs, active, basis, ncols):
    """Run simplex iterations under Bland's rule on costs[active]."""
    crow = costs[active]
    while True:
        entering = None
        for j in range(ncols):
            if crow[j] < 0:
                entering = j
                break
        if entering is None:
            return OPTIMAL
        leaving = None
        best_ratio = None
        for i, row in enumerate(tableau):
            a = row[entering]
            if a > 0:
                ratio = row[-1] / a
                if (
                    leaving is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving])
                ):
                    leaving = i
                    best_ratio = ratio
        if leaving is None:
            return UNBOUNDED
        _pivot(tableau, costs, basis, leaving, entering)


def _pivot(tableau, costs, basis, r, c) -> None:
    pivot_row = tableau[r]
    p = pivot_row[c]
    if p != 1:
        pivot_row = [v / p for v in pivot_row]
        tableau[r] = pivot_row
    for i, row in enumerate(tableau):
        if i == r:
            continue
        f = row[c]
        if f:
            tableau[i] = [a - f * b for a, b in zip(row, pivot_row)]
    for k, row in enumerate(costs):
        f = row[c]
        if f:
            costs[k][:] = [a - f * b for a, b in zip(row, pivot_row)]
    basis[r] = c
