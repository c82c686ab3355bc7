"""Exact simplex solver, including the classic cycling example.

Model takes ints only; rational cases are scaled here by one common
lcm, as Model.maximize asks of a caller with rational data, and each
optimum is read back as x / den.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from kalai3d import simplex
from kalai3d.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, Model


def integer_lp(rows, objective):
    """(rows, objective) times the lcm of every denominator in them."""
    scale = lcm(
        *(Fraction(v).denominator for coeffs, _, b in rows for v in (*coeffs, b)),
        *(Fraction(c).denominator for c in objective),
    )

    def whole(v):
        v = Fraction(v) * scale
        assert v.denominator == 1
        return v.numerator

    return (
        [([whole(c) for c in coeffs], sense, whole(b)) for coeffs, sense, b in rows],
        [whole(c) for c in objective],
    )


def solve(n, rows, objective):
    """Model.maximize on the rational LP, scaled to integers."""
    rows, objective = integer_lp(rows, objective)
    m = Model(n)
    for row in rows:
        m.constrain(*row)
    return m.maximize(objective)


def point(r):
    """The optimal x of r as Fractions."""
    return tuple(Fraction(v, r.den) for v in r.x)


def value(r, objective):
    """objective . x at the optimum of r, in Fractions."""
    return sum(Fraction(c) * v for c, v in zip(objective, point(r)))


def test_box_corner():
    m = Model(2)
    m.constrain([-1, 0], ">=", -1)
    m.constrain([0, -1], ">=", -2)
    r = m.maximize([1, 1])
    assert r.status == OPTIMAL
    assert r.den > 0
    assert point(r) == (1, 2)
    assert value(r, [1, 1]) == 3


def test_exact_fractional_optimum():
    # max x + y st 2x + y <= 1, x + 3y <= 1 -> meets at (2/5, 1/5)
    m = Model(2)
    m.constrain([-2, -1], ">=", -1)
    m.constrain([-1, -3], ">=", -1)
    r = m.maximize([1, 1])
    assert r.status == OPTIMAL
    assert [type(v) for v in r.x] == [int, int] and type(r.den) is int
    assert point(r) == (Fraction(2, 5), Fraction(1, 5))
    assert value(r, [1, 1]) == Fraction(3, 5)


def test_infeasible():
    m = Model(1)
    m.constrain([1], ">=", 1)
    m.constrain([-1], ">=", 0)
    r = m.maximize([1])
    assert r.status == INFEASIBLE and r.x is None and r.den is None


def test_unbounded():
    m = Model(1)
    m.constrain([1], ">=", 1)
    assert m.maximize([1]).status == UNBOUNDED


def test_equality_mix():
    m = Model(3)
    m.constrain([1, 1, 1], "==", 10)
    m.constrain([1, -1, 0], ">=", 2)
    m.constrain([0, 0, -1], ">=", -1)
    r = m.maximize([0, 0, 1])
    assert r.status == OPTIMAL
    assert value(r, [0, 0, 1]) == 1
    x_, y_, z_ = point(r)
    assert x_ + y_ + z_ == 10 and x_ - y_ >= 2 and z_ == 1


def test_redundant_equalities():
    m = Model(2)
    m.constrain([1, 1], "==", 4)
    m.constrain([2, 2], "==", 8)
    r = m.maximize([1, 0])
    assert r.status == OPTIMAL
    assert value(r, [1, 0]) == 4


def test_beale_cycling_example_terminates():
    # Cycles forever under Dantzig pivoting; Bland's rule must finish.
    F = Fraction
    objective = [F(3, 4), -150, F(1, 50), -6]
    r = solve(4, [
        ([F(-1, 4), 60, F(1, 25), -9], ">=", 0),
        ([F(-1, 2), 90, F(1, 50), -3], ">=", 0),
        ([0, 0, -1, 0], ">=", -1),
    ], objective)
    assert r.status == OPTIMAL
    assert value(r, objective) == F(1, 20)
    assert point(r) == (F(1, 25), 0, 1, 0)


def test_no_constraints():
    m = Model(1)
    assert m.maximize([1]).status == UNBOUNDED
    r = m.maximize([-1])
    assert r.status == OPTIMAL and point(r) == (0,)


def test_zero_row_infeasible():
    m = Model(1)
    m.constrain([0], ">=", 1)
    assert m.maximize([0]).status == INFEASIBLE


def test_rejects_other_senses_and_lengths():
    m = Model(2)
    with pytest.raises(ValueError, match="sense"):
        m.constrain([1, 0], "<=", 1)
    with pytest.raises(ValueError, match="length"):
        m.constrain([1], ">=", 1)
    with pytest.raises(ValueError, match="length"):
        m.maximize([1, 0, 0])


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(1), True, False])
@pytest.mark.parametrize("where", ["row", "rhs", "objective"])
def test_rejects_entries_that_are_not_ints(bad, where):
    """A Fraction, even a whole one, or a bool is a caller's bug: pivot's
    floor division would be silently wrong on it."""
    m = Model(2)
    with pytest.raises(TypeError, match="int"):
        if where == "row":
            m.constrain([1, bad], ">=", 0)
        elif where == "rhs":
            m.constrain([1, 1], "==", bad)
        else:
            m.constrain([1, 1], "==", 1)
            m.maximize([bad, 0])


coeff = st.integers(min_value=-4, max_value=4)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(coeff, coeff, st.integers(min_value=1, max_value=5)),
        min_size=1,
        max_size=5,
    ),
    st.tuples(coeff, coeff),
)
def test_matches_vertex_enumeration_oracle(rows, obj):
    """On bounded 2-variable problems the optimum sits at a basic point.

    The oracle enumerates all pairs of tight constraints (including the
    box added to force boundedness), keeps the feasible intersections,
    and takes the best objective value among them.  The model's
    variables are the box-shifted u = x + 10 and v = y + 10, both >= 0.
    """
    box = 10
    ineqs = list(rows) + [(1, 0, box), (-1, 0, box), (0, 1, box), (0, -1, box)]

    m = Model(2)
    for a, b, c in ineqs:
        # a x + b y <= c  is  -a u - b v >= -(c + 10 a + 10 b)
        m.constrain([-a, -b], ">=", -(c + box * (a + b)))
    got = m.maximize(list(obj))
    assert got.status == OPTIMAL  # origin is feasible, box bounds it
    val = value(got, obj) - box * (obj[0] + obj[1])

    best = None
    for (a1, b1, c1), (a2, b2, c2) in combinations(ineqs, 2):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        p = (Fraction(c1 * b2 - c2 * b1, det), Fraction(a1 * c2 - a2 * c1, det))
        if all(a * p[0] + b * p[1] <= c for a, b, c in ineqs):
            v = obj[0] * p[0] + obj[1] * p[1]
            if best is None or v > best:
                best = v
    assert best is not None
    assert val == best
    # and the reported point must be feasible with matching objective
    px, py = (u - box for u in point(got))
    assert all(a * px + b * py <= c for a, b, c in ineqs)
    assert obj[0] * px + obj[1] * py == val


def _counting(fn, calls):
    def wrapper(*args):
        calls.append(None)
        return fn(*args)

    return wrapper


entry = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.builds(
        Fraction,
        st.integers(min_value=-6, max_value=6),
        st.sampled_from((1, 2, 3, 4, 6)),
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.one_of(
                        st.lists(entry, min_size=n, max_size=n),
                        st.just([0] * n),  # a zero row
                    ),
                    st.sampled_from((">=", "==")),
                    entry,
                ),
                max_size=5,
            ),
            st.one_of(
                st.lists(entry, min_size=n, max_size=n),
                st.just([0] * n),  # every feasible point is optimal
            ),
        )
    )
)
# the optimum is the whole edge x + y = 1: not unique
@example((2, [([-1, -1], ">=", -1)], [1, 1]))
# int rows, taken as they are: the shape of a witness LP
@example((3, [([5, 5, 10], "==", 5), ([2, -1, 1], ">=", 0), ([1, -1, 0], "==", 0)],
          [0, 0, 1]))
# rows with different denominators: a scale per row would change the
# phase-1 cost row, and (0, 1/3) would come back instead of (2/3, 0)
@example((2, [([1, 2], "==", Fraction(2, 3)), ([Fraction(3, 2), 2], ">=", -1)], [0, 0]))
def test_matches_rational_tableau(case):
    """The integer tableau, on rows scaled by one common lcm, against the
    Fraction tableau on the rational rows: the same status, x and value,
    after the same number of pivots, on int and rational rows mixing >=
    and ==, zero rows and non-unique optima."""
    n, rows, objective = case
    got_pivots, want_pivots = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "pivot", _counting(simplex.pivot, got_pivots))
        mp.setattr(reference, "_pivot", _counting(reference._pivot, want_pivots))
        got = solve(n, rows, objective)
        want = reference.maximize(n, rows, objective)
    if got.status == OPTIMAL:
        assert (got.status, value(got, objective), point(got)) == want
    else:
        assert (got.status, got.x, got.den) == want
    assert len(got_pivots) == len(want_pivots)
