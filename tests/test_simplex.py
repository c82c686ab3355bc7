"""Exact simplex solver, including the classic cycling example."""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from kalai3d.ratgeom import QVector, rational, solve_linear
from kalai3d.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, Model


def test_box_corner():
    m = Model()
    x = m.var(nonneg=True)
    y = m.var(nonneg=True)
    m.constrain({x: 1}, "<=", 1)
    m.constrain({y: 1}, "<=", 2)
    r = m.maximize({x: 1, y: 1})
    assert r.status == OPTIMAL
    assert r.value == 3
    assert r.x == (1, 2)


def test_exact_fractional_optimum():
    # max x + y st 2x + y <= 1, x + 3y <= 1 -> meets at (2/5, 1/5)
    m = Model()
    x = m.var(nonneg=True)
    y = m.var(nonneg=True)
    m.constrain({x: 2, y: 1}, "<=", 1)
    m.constrain({x: 1, y: 3}, "<=", 1)
    r = m.maximize({x: 1, y: 1})
    assert r.status == OPTIMAL
    assert r.value == rational(3, 5)
    assert r.x == (rational(2, 5), rational(1, 5))


def test_infeasible():
    m = Model()
    x = m.var(nonneg=True)
    m.constrain({x: 1}, ">=", 1)
    m.constrain({x: 1}, "<=", 0)
    assert m.maximize({x: 1}).status == INFEASIBLE


def test_unbounded():
    m = Model()
    x = m.var(nonneg=True)
    m.constrain({x: 1}, ">=", 1)
    assert m.maximize({x: 1}).status == UNBOUNDED


def test_free_variable_negative_value():
    m = Model()
    x = m.var()
    m.constrain({x: 1}, "==", -5)
    r = m.maximize({})
    assert r.status == OPTIMAL
    assert r.x == (-5,)


def test_free_variable_minimized_via_negation():
    m = Model()
    x = m.var()
    m.constrain({x: 1}, ">=", -3)
    r = m.maximize({x: -1})
    assert r.status == OPTIMAL
    assert r.value == 3
    assert r.x == (-3,)


def test_equality_mix():
    m = Model()
    x = m.var(nonneg=True)
    y = m.var(nonneg=True)
    z = m.var()
    m.constrain({x: 1, y: 1, z: 1}, "==", 10)
    m.constrain({x: 1, y: -1}, ">=", 2)
    m.constrain({z: 1}, "<=", 1)
    r = m.maximize({z: 1})
    assert r.status == OPTIMAL
    assert r.value == 1
    x_, y_, z_ = r.x
    assert x_ + y_ + z_ == 10 and x_ - y_ >= 2 and z_ == 1


def test_redundant_equalities():
    m = Model()
    x = m.var(nonneg=True)
    y = m.var(nonneg=True)
    m.constrain({x: 1, y: 1}, "==", 4)
    m.constrain({x: 2, y: 2}, "==", 8)
    r = m.maximize({x: 1})
    assert r.status == OPTIMAL
    assert r.value == 4


def test_beale_cycling_example_terminates():
    # Cycles forever under Dantzig pivoting; Bland's rule must finish.
    m = Model()
    x1 = m.var(nonneg=True)
    x2 = m.var(nonneg=True)
    x3 = m.var(nonneg=True)
    x4 = m.var(nonneg=True)
    m.constrain(
        {x1: rational(1, 4), x2: -60, x3: rational(-1, 25), x4: 9}, "<=", 0
    )
    m.constrain(
        {x1: rational(1, 2), x2: -90, x3: rational(-1, 50), x4: 3}, "<=", 0
    )
    m.constrain({x3: 1}, "<=", 1)
    r = m.maximize(
        {x1: rational(3, 4), x2: -150, x3: rational(1, 50), x4: -6}
    )
    assert r.status == OPTIMAL
    assert r.value == rational(1, 20)
    assert r.x == (rational(1, 25), 0, 1, 0)


def test_no_constraints():
    m = Model()
    x = m.var(nonneg=True)
    assert m.maximize({x: 1}).status == UNBOUNDED
    r = m.maximize({x: -1})
    assert r.status == OPTIMAL and r.value == 0


def test_zero_row_infeasible():
    m = Model()
    m.var(nonneg=True)
    m.constrain({}, "<=", -1)
    assert m.maximize({}).status == INFEASIBLE


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
    and takes the best objective value among them.
    """
    box = rational(10)
    ineqs = [(a, b, c) for a, b, c in rows]
    ineqs += [
        (rational(1), rational(0), box),
        (rational(-1), rational(0), box),
        (rational(0), rational(1), box),
        (rational(0), rational(-1), box),
    ]

    m = Model()
    x = m.var()
    y = m.var()
    for a, b, c in ineqs:
        m.constrain({x: a, y: b}, "<=", c)
    got = m.maximize({x: obj[0], y: obj[1]})
    assert got.status == OPTIMAL  # origin is feasible, box bounds it

    best = None
    for (a1, b1, c1), (a2, b2, c2) in combinations(ineqs, 2):
        p = solve_linear([QVector([a1, b1]), QVector([a2, b2])], QVector([c1, c2]))
        if p is None:
            continue
        if all(a * p[0] + b * p[1] <= c for a, b, c in ineqs):
            val = obj[0] * p[0] + obj[1] * p[1]
            if best is None or val > best:
                best = val
    assert best is not None
    assert got.value == best
    # and the reported point must be feasible with matching objective
    px, py = got.x
    assert all(a * px + b * py <= c for a, b, c in ineqs)
    assert obj[0] * px + obj[1] * py == got.value
