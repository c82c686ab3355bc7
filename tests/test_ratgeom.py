"""Exact scalar/vector layer and the linear algebra on rows of vectors."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kalai3d import ratgeom
from kalai3d.ratgeom import (
    QVector,
    affine_rank,
    echelon,
    format_rational,
    kernel_basis,
    parse_rational,
    rational,
)
from reference import rank, reduced_echelon


def qv(*coords):
    return QVector(coords)


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=60).map(
    lambda f: rational(f.numerator, f.denominator)
)


class TestScalar:
    def test_one_backend(self, tmp_path):
        # an importable gmpy2 must not change the scalar type; this runs in
        # a fresh interpreter so the stub cannot leak into other tests
        (tmp_path / "gmpy2.py").write_text("mpq = object\n")
        code = (
            "import fractions, kalai3d.ratgeom as r; "
            "assert r.Rational is fractions.Fraction, r.Rational"
        )
        src = Path(ratgeom.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tmp_path), str(src)])}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr

    def test_lowest_terms(self):
        assert rational(2, 4) == rational(1, 2)
        assert format_rational(rational(2, 4)) == "1/2"
        assert format_rational(rational(-2, 4)) == "-1/2"
        assert format_rational(rational(2, -4)) == "-1/2"
        assert format_rational(rational(6, 3)) == "2"
        assert format_rational(rational(0, 7)) == "0"

    @pytest.mark.parametrize(
        "text,num,den",
        [("3", 3, 1), ("-7/3", -7, 3), ("0", 0, 1), ("10/4", 5, 2), ("+2", 2, 1)],
    )
    def test_parse(self, text, num, den):
        assert parse_rational(text) == rational(num, den)

    @pytest.mark.parametrize(
        "bad",
        ["1.5", "1/0", "1/-2", "1 /2", " 1", "", "a", "1/2/3", "0x3",
         "1/2\n", "\u0663", "\uff13", "\u0661/2"],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @given(rationals)
    def test_roundtrip(self, q):
        assert parse_rational(format_rational(q)) == q


class TestVector:
    def test_dot(self):
        assert qv(1, 0).dot(qv(0, 1)) == 0
        assert qv(rational(1, 2), rational(1, 3)).dot(qv(2, 3)) == 2
        for i in range(3):
            e = QVector.unit(3, i)
            assert e.dot(e) == 1

    def test_dot_mismatch(self):
        with pytest.raises(ValueError):
            qv(1, 0).dot(qv(1, 0, 0))

    def test_arithmetic_exact(self):
        third = rational(1, 3)
        v = qv(third, third, third)
        assert v + v + v == qv(1, 1, 1)
        assert (v - v).is_zero()
        assert 3 * v == qv(1, 1, 1)
        assert -v == qv(-third, -third, -third)

    def test_ordering_and_hash(self):
        a, b = qv(0, 1), qv(1, 0)
        assert a < b
        assert len({a, b, qv(0, 1)}) == 2

    @given(st.lists(rationals, min_size=1, max_size=5), rationals)
    def test_scalar_distributes(self, coords, s):
        v = QVector(coords)
        assert s * (v + v) == s * v + s * v


class TestAffineRank:
    def test_small_cases(self):
        assert affine_rank([qv(0, 0)]) == 0
        assert affine_rank([qv(0, 0), qv(0, 0)]) == 0
        assert affine_rank([qv(0, 0), qv(1, 1)]) == 1
        assert affine_rank([qv(0, 0), qv(1, 0), qv(0, 1)]) == 2

    def test_cube_vertices(self):
        from itertools import product

        verts = [QVector(p) for p in product((-1, 1), repeat=3)]
        assert affine_rank(verts) == 3

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            affine_rank([])

    @given(
        st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=6),
        st.lists(rationals, min_size=3, max_size=3),
        st.randoms(),
    )
    def test_invariant_under_translation_and_order(self, rows, shift, rng):
        pts = [QVector(r) for r in rows]
        base = affine_rank(pts)
        t = QVector(shift)
        shuffled = list(pts)
        rng.shuffle(shuffled)
        assert affine_rank([p + t for p in shuffled]) == base


class TestKernel:
    def test_trivial(self):
        assert kernel_basis([(1, 0), (0, 1)]) == []

    def test_line(self):
        (k,) = kernel_basis([(1, 1)])
        assert k[0] + k[1] == 0
        assert any(k)

    @given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
                    min_size=1, max_size=3))
    def test_members_annihilate(self, rows):
        basis = kernel_basis(rows)
        assert len(basis) + rank(rows) == 4 and rank(basis) == len(basis)
        for k in basis:
            assert [type(c) for c in k] == [int] * 4
            for row in rows:
                assert sum(a * b for a, b in zip(row, k)) == 0


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(
        st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=7)
    ).flatmap(
        lambda shape: st.lists(
            st.lists(
                st.one_of(
                    st.just(0),
                    st.integers(min_value=-3, max_value=3),
                    st.integers(min_value=-10**6, max_value=10**6),
                ),
                min_size=shape[1],
                max_size=shape[1],
            ),
            min_size=shape[0],
            max_size=shape[0],
        )
    )
)
@example([[0, 1, 2], [1, 0, 3]])  # zero leading entry: needs a row swap
@example([[1, 2, 3], [2, 4, 5]])  # singular and inconsistent
@example([[1, 2, 3], [2, 4, 6]])  # singular and consistent
@example([[0, 1, 5], [1, 0, -7]])  # determinant -1
@example([[-3, 6]])
@example([[2, 4], [1, 2], [3, 6]])  # tall, rank 1
@example([[0, 0, 2, 1], [0, 0, 4, 2]])  # wide, rank 1, leading zero columns
@example([[0, 0], [0, 0]])  # rank 0
def test_echelon_matches_rational_elimination(rows):
    """The integer elimination against Gauss-Jordan on Fractions: the
    same pivot columns, the first rank rows equal to D > 0 times the
    reduced rows, where D is each row's entry at its pivot, and zero
    rows below the rank."""
    want = [[Fraction(c) for c in r] for r in rows]
    want_pivots = reduced_echelon(want)
    got = [list(r) for r in rows]
    assert echelon(got) == want_pivots
    k = len(want_pivots)
    den = got[0][want_pivots[0]] if k else 1
    assert den > 0
    for g, w in zip(got[:k], want[:k]):
        assert g == [den * v for v in w]
    assert all(not any(r) for r in got[k:])
