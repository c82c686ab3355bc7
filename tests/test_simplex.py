"""Exact simplex solver, including the classic cycling example."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from kalai3d import simplex
from kalai3d.ratgeom import rational
from kalai3d.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, Model


def test_box_corner():
    m = Model(2)
    m.constrain([-1, 0], ">=", -1)
    m.constrain([0, -1], ">=", -2)
    r = m.maximize([1, 1])
    assert r.status == OPTIMAL
    assert r.value == 3
    assert r.x == (1, 2)


def test_exact_fractional_optimum():
    # max x + y st 2x + y <= 1, x + 3y <= 1 -> meets at (2/5, 1/5)
    m = Model(2)
    m.constrain([-2, -1], ">=", -1)
    m.constrain([-1, -3], ">=", -1)
    r = m.maximize([1, 1])
    assert r.status == OPTIMAL
    assert r.value == rational(3, 5)
    assert r.x == (rational(2, 5), rational(1, 5))


def test_integer_input_gives_fractions():
    # the tableau holds integer numerators over one denominator; x and
    # the value must still come back as Fractions, not ints
    m = Model(3)
    m.constrain([-2, -1, 0], ">=", -1)
    m.constrain([-1, -3, 0], ">=", -1)
    m.constrain([0, 0, 1], "==", 7)
    r = m.maximize([1, 1, 0])
    assert r.status == OPTIMAL
    assert type(r.value) is Fraction
    assert [type(v) for v in r.x] == [Fraction] * 3
    assert r.x == (rational(2, 5), rational(1, 5), 7)


def test_infeasible():
    m = Model(1)
    m.constrain([1], ">=", 1)
    m.constrain([-1], ">=", 0)
    assert m.maximize([1]).status == INFEASIBLE


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
    assert r.value == 1
    x_, y_, z_ = r.x
    assert x_ + y_ + z_ == 10 and x_ - y_ >= 2 and z_ == 1


def test_redundant_equalities():
    m = Model(2)
    m.constrain([1, 1], "==", 4)
    m.constrain([2, 2], "==", 8)
    r = m.maximize([1, 0])
    assert r.status == OPTIMAL
    assert r.value == 4


def test_beale_cycling_example_terminates():
    # Cycles forever under Dantzig pivoting; Bland's rule must finish.
    m = Model(4)
    m.constrain([rational(-1, 4), 60, rational(1, 25), -9], ">=", 0)
    m.constrain([rational(-1, 2), 90, rational(1, 50), -3], ">=", 0)
    m.constrain([0, 0, -1, 0], ">=", -1)
    r = m.maximize([rational(3, 4), -150, rational(1, 50), -6])
    assert r.status == OPTIMAL
    assert r.value == rational(1, 20)
    assert r.x == (rational(1, 25), 0, 1, 0)


def test_no_constraints():
    m = Model(1)
    assert m.maximize([1]).status == UNBOUNDED
    r = m.maximize([-1])
    assert r.status == OPTIMAL and r.value == 0 and r.x == (0,)


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


coeff = st.integers(min_value=-4, max_value=4).map(rational)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(coeff, coeff, st.integers(min_value=1, max_value=5).map(rational)),
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
    box = rational(10)
    ineqs = [(a, b, c) for a, b, c in rows]
    ineqs += [
        (rational(1), rational(0), box),
        (rational(-1), rational(0), box),
        (rational(0), rational(1), box),
        (rational(0), rational(-1), box),
    ]

    m = Model(2)
    for a, b, c in ineqs:
        # a x + b y <= c  is  -a u - b v >= -(c + 10 a + 10 b)
        m.constrain([-a, -b], ">=", -(c + box * (a + b)))
    got = m.maximize(list(obj))
    assert got.status == OPTIMAL  # origin is feasible, box bounds it
    value = got.value - box * (obj[0] + obj[1])

    best = None
    for (a1, b1, c1), (a2, b2, c2) in combinations(ineqs, 2):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        p = ((c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det)
        if all(a * p[0] + b * p[1] <= c for a, b, c in ineqs):
            val = obj[0] * p[0] + obj[1] * p[1]
            if best is None or val > best:
                best = val
    assert best is not None
    assert value == best
    # and the reported point must be feasible with matching objective
    px, py = (u - box for u in got.x)
    assert all(a * px + b * py <= c for a, b, c in ineqs)
    assert obj[0] * px + obj[1] * py == value


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
    """The integer tableau against the Fraction tableau it replaced: the
    same status, value and x, after the same number of pivots, on int
    and rational rows mixing >= and ==, zero rows and non-unique optima."""
    n, rows, objective = case
    got_pivots, want_pivots = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "pivot", _counting(simplex.pivot, got_pivots))
        mp.setattr(reference, "_pivot", _counting(reference._pivot, want_pivots))
        m = Model(n)
        for row in rows:
            m.constrain(*row)
        got = m.maximize(objective)
        want = reference.maximize(n, rows, objective)
    assert (got.status, got.value, got.x) == want
    assert len(got_pivots) == len(want_pivots)
