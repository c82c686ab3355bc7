"""Exact two-phase simplex over the rationals.

Internal machinery: the geometric modules use this for boundedness tests,
for deciding whether a relative interior meets an open cone, and for the
definition-level face oracle.  It is not meant as a general modelling
interface, so the Model class stays minimal: free or nonnegative
variables, linear constraints, maximize.

Pivoting follows Bland's rule (smallest eligible column enters, ties on
the leaving row broken by smallest basic variable), which terminates on
every input without any perturbation.  All tableau entries are exact
rationals, so OPTIMAL / INFEASIBLE / UNBOUNDED are decided, not estimated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .ratgeom import Rational

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

LE = "<="
GE = ">="
EQ = "=="

_SENSES = (LE, GE, EQ)


@dataclass(frozen=True)
class LPResult:
    """Outcome of Model.maximize.

    value and x are None unless status == OPTIMAL; x holds one optimal
    assignment for the model's variables in creation order.
    """

    status: str
    value: Optional[object] = None
    x: Optional[tuple] = None


class Model:
    """A small exact LP: variables, linear constraints, one maximize call."""

    def __init__(self) -> None:
        self._nonneg: list[bool] = []
        self._rows: list[tuple[dict, str, object]] = []

    def var(self, *, nonneg: bool = False) -> int:
        """Add a variable (free by default) and return its index."""
        self._nonneg.append(nonneg)
        return len(self._nonneg) - 1

    def constrain(self, coeffs: dict, sense: str, rhs) -> None:
        """Add sum(coeffs[i] * x_i) <sense> rhs with sense in {<=, >=, ==}."""
        if sense not in _SENSES:
            raise ValueError(f"unknown sense {sense!r}")
        clean = {}
        for idx, c in coeffs.items():
            if not 0 <= idx < len(self._nonneg):
                raise ValueError(f"unknown variable index {idx}")
            c = Rational(c)
            if c:
                clean[idx] = c
        self._rows.append((clean, sense, Rational(rhs)))

    def maximize(self, objective: dict) -> LPResult:
        """Solve max objective subject to the recorded constraints."""
        for idx in objective:
            if not 0 <= idx < len(self._nonneg):
                raise ValueError(f"unknown variable index {idx}")

        # Column layout: each nonnegative variable gets one column, each
        # free variable a plus/minus pair.  Slack and surplus columns for
        # the inequality rows follow; artificials are appended by _solve.
        col_of: list[tuple[int, Optional[int]]] = []
        for nonneg in self._nonneg:
            start = _next(col_of)
            col_of.append((start, None) if nonneg else (start, start + 1))
        nstruct = _next(col_of)

        nslack = sum(1 for _, sense, _ in self._rows if sense != EQ)
        width = nstruct + nslack
        rows = []
        rhs = []
        slack_at = nstruct
        for coeffs, sense, b in self._rows:
            row = [Rational(0)] * width
            for idx, c in coeffs.items():
                pos, neg = col_of[idx]
                row[pos] = c
                if neg is not None:
                    row[neg] = -c
            if sense == LE:
                row[slack_at] = Rational(1)
                slack_at += 1
            elif sense == GE:
                row[slack_at] = Rational(-1)
                slack_at += 1
            rows.append(row)
            rhs.append(b)

        cost = [Rational(0)] * width
        for idx, c in objective.items():
            c = Rational(c)
            pos, neg = col_of[idx]
            # minimize the negated objective
            cost[pos] -= c
            if neg is not None:
                cost[neg] += c

        status, xcols, minvalue = _solve(rows, rhs, cost)
        if status != OPTIMAL:
            return LPResult(status=status)
        x = []
        for pos, neg in col_of:
            val = xcols[pos]
            if neg is not None:
                val = val - xcols[neg]
            x.append(val)
        return LPResult(status=OPTIMAL, value=-minvalue, x=tuple(x))


def _next(col_of: list) -> int:
    """Index of the next unused column given the mapping built so far."""
    if not col_of:
        return 0
    pos, neg = col_of[-1]
    return (neg if neg is not None else pos) + 1


def _solve(rows: list, rhs: list, cost: list):
    """min cost.x over {rows.x == rhs, x >= 0}; returns (status, x, value).

    Phase 1 gives every row an artificial variable and minimizes their
    sum; phase 2 continues with the real cost row carried through the
    same pivots.
    """
    m = len(rows)
    n = len(cost)
    if m == 0:
        # No constraints at all: optimum is 0 unless some cost coefficient
        # is negative, in which case that column is unbounded.
        if any(c < 0 for c in cost):
            return UNBOUNDED, None, None
        return OPTIMAL, [Rational(0)] * n, Rational(0)

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
