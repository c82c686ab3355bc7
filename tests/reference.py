"""Reference implementations for the tests of the integer and bitmask paths.

Gauss-Jordan elimination and a two-phase Bland simplex, both on
``Fraction`` entries, the rational reflection, and the face lattice
closed once per join, all sharing no code with ``kalai3d``: the integer
``ratgeom.echelon``, the double description built on it,
``simplex.Model``, the integer reflection check of
``symmetry.verify_basis`` and ``lattice.enumerate_faces`` are checked
against these.
"""

from collections import Counter, deque
from fractions import Fraction
from math import lcm

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def reduced_echelon(rows: list) -> list:
    """In-place Gauss-Jordan elimination; returns the pivot column list.

    Pivot choice is the first row with a nonzero entry in the current
    column.
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


def rank(rows) -> int:
    """Rank of the matrix with these rows of rationals."""
    return len(reduced_echelon([[Fraction(c) for c in r] for r in rows]))


def basic_point(rows: list):
    """The solution of the integer system [A | b] with A square, as
    (numerators, positive denominator) in lowest terms, or None when A
    is singular."""
    d = len(rows)
    aug = [[Fraction(c) for c in r] for r in rows]
    if reduced_echelon(aug) != list(range(d)):
        return None
    x = [r[-1] for r in aug]
    den = lcm(*(v.denominator for v in x))
    return tuple(v.numerator * (den // v.denominator) for v in x), den


def maximize(nvars: int, rows: list, objective: list):
    """max objective . x over x >= 0 and (row, sense, rhs) constraints
    with sense ">=" or "==", on a Fraction tableau; returns (status,
    value, x) with value and x None unless OPTIMAL."""
    nsurplus = sum(1 for _, sense, _ in rows if sense == ">=")
    tableau_rows, rhs = [], []
    surplus_at = nvars
    for coeffs, sense, b in rows:
        row = [Fraction(c) for c in coeffs] + [Fraction(0)] * nsurplus
        if sense == ">=":
            row[surplus_at] = Fraction(-1)
            surplus_at += 1
        tableau_rows.append(row)
        rhs.append(Fraction(b))
    cost = [-Fraction(c) for c in objective] + [Fraction(0)] * nsurplus
    status, xcols, minvalue = _solve(tableau_rows, rhs, cost)
    if status != OPTIMAL:
        return status, None, None
    return OPTIMAL, -minvalue, tuple(xcols[:nvars])


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
        full.extend(Fraction(1) if j == i else Fraction(0) for j in range(m))
        full.append(b)
        tableau.append(full)
    basis = [n + i for i in range(m)]

    phase1 = [Fraction(0)] * n + [Fraction(1)] * m + [Fraction(0)]
    for row in tableau:
        phase1 = [a - b for a, b in zip(phase1, row)]
    phase2 = list(cost) + [Fraction(0)] * m + [Fraction(0)]

    costs = [phase1, phase2]
    if _bland(tableau, costs, 0, basis, n + m) != OPTIMAL:
        raise RuntimeError("phase 1 unbounded, but its cost is bounded below by 0")
    if phase1[-1] != 0:
        return INFEASIBLE, None, None

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
    x = [Fraction(0)] * n
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


def reflect(x, v):
    """Reflect x across the hyperplane through the origin normal to v,
    in Fractions; the result has x's type."""
    if not any(v):
        raise ValueError("cannot reflect across a zero normal")
    vv = sum(Fraction(c) * c for c in v)
    scale = 2 * sum(Fraction(a) * b for a, b in zip(x, v)) / vv
    return type(x)(a - scale * b for a, b in zip(x, v))


def closure_mask(p, vmask: int) -> int:
    """Vertex mask of the closure of a vertex set: the intersection of
    all facets containing it, or the whole polytope when none does."""
    fmask = -1
    rest = vmask
    while rest:
        low = rest & -rest
        fmask &= p.vertex_facet_masks[low.bit_length() - 1]
        rest ^= low
    if fmask == -1:
        fmask = (1 << len(p.halfspaces)) - 1
    if fmask == 0:
        return (1 << len(p.vertices)) - 1
    out = -1
    rest = fmask
    while rest:
        low = rest & -rest
        out &= p.facet_vertex_masks[low.bit_length() - 1]
        rest ^= low
    return out


def face_lattice(p) -> list:
    """Every face as (vertex ids, dimension), sorted by (dimension, ids):
    breadth-first over covers, closing F joined with each vertex atom
    outside it one join at a time."""
    n = len(p.vertices)
    atoms = [closure_mask(p, 1 << i) for i in range(n)]
    dims = dict.fromkeys(atoms, 0)
    queue = deque(atoms)
    while queue:
        cur = queue.popleft()
        joins = Counter(
            closure_mask(p, cur | amask) for amask in atoms if not amask & cur
        )
        for joined, count in joins.items():
            if count == bin(joined & ~cur).count("1") and joined not in dims:
                dims[joined] = dims[cur] + 1
                queue.append(joined)
    faces = [
        (tuple(i for i in range(n) if vmask >> i & 1), k)
        for vmask, k in dims.items()
    ]
    return sorted(faces, key=lambda f: (f[1], f[0]))
