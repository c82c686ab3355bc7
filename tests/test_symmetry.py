"""Central symmetry and reflection checks, exact throughout."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kalai3d.lattice import enumerate_faces
from kalai3d.polytope import GeometryError, VRep, build_polytope, generate
from kalai3d.ratgeom import QVector, rational
from kalai3d.symmetry import is_centrally_symmetric, standard_basis, verify_basis

from reference import reflect


def qv(*coords):
    return QVector(coords)


def e(dim, i):
    return QVector.unit(dim, i)


# Centrally symmetric hexagon with no axis-aligned mirror; it is symmetric
# about the orthogonal pair (1,-1), (1,1) instead.
HEXAGON_POINTS = (
    qv(2, 1), qv(1, 2), qv(-1, 1), qv(-2, -1), qv(-1, -2), qv(1, -1),
)

# Centrally symmetric but not symmetric about any hyperplane normal to a
# coordinate vector: a sheared square.
SHEAR_POINTS = (qv(1, 0), qv(-1, 0), qv(1, 1), qv(-1, -1))


def hexagon():
    return build_polytope(VRep(2, HEXAGON_POINTS))


def shear():
    return build_polytope(VRep(2, SHEAR_POINTS))


def triangle():
    return build_polytope(VRep(2, (qv(0, 0), qv(1, 0), qv(0, 1))))


class TestOrthoBasis:
    """A basis is a plain tuple of QVector; verify_basis is its one check."""

    def test_standard(self):
        assert standard_basis(3) == (e(3, 0), e(3, 1), e(3, 2))

    def test_scaling_allowed(self):
        r = verify_basis(generate("cube", dim=2), (qv(2, 0), qv(0, rational(-1, 3))))
        assert r.basis_verified


class TestReflect:
    def test_basic(self):
        assert reflect(qv(1, 2), e(2, 0)) == qv(-1, 2)

    def test_fixed_hyperplane(self):
        v = qv(1, 1)
        q = qv(1, -1)  # orthogonal to v
        assert reflect(q, v) == q

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            reflect(qv(1, 1), qv(0, 0))

    @given(
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
        st.lists(st.integers(-9, 9), min_size=3, max_size=3).filter(any),
    )
    def test_involution(self, x, v):
        x, v = QVector(x), QVector(v)
        assert reflect(reflect(x, v), v) == x

    @given(
        st.lists(st.integers(-9, 9), min_size=2, max_size=2),
        st.integers(1, 5),
    )
    def test_component_behavior(self, x, scale):
        x = QVector(x)
        v = qv(scale, scale)
        w = qv(1, -1)  # orthogonal to v
        assert reflect(x, v).dot(w) == x.dot(w)  # orthogonal part kept
        assert reflect(x, v).dot(v) == -x.dot(v)  # normal part negated


# Orthogonal bases with denominators: the 3-4-5 rotation and its
# extension by a third axis, with rows scaled below.
ROTATIONS = {
    2: ((Fraction(3, 5), Fraction(4, 5)), (Fraction(-4, 5), Fraction(3, 5))),
    3: (
        (Fraction(3, 5), Fraction(4, 5), 0),
        (Fraction(-4, 5), Fraction(3, 5), 0),
        (0, 0, 1),
    ),
}

small = st.integers(-4, 4).map(Fraction) | st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def point_sets(draw):
    """(dim, points, basis): the orbit of one or two points under the
    reflections of a rotated basis, or points drawn freely, possibly with
    one point then moved by 1/q in one coordinate; the basis rows are
    the rotation's rows times nonzero rationals."""
    dim = draw(st.sampled_from(sorted(ROTATIONS)))
    rot = ROTATIONS[dim]
    if draw(st.booleans()):
        seeds = draw(st.lists(st.tuples(*[small] * dim), min_size=1, max_size=2))
        points = [
            tuple(sum(s * y[i] * rot[i][c] for i, s in enumerate(signs))
                  for c in range(dim))
            for y in seeds
            for signs in product((1, -1), repeat=dim)
        ]
    else:
        points = draw(st.lists(st.tuples(*[small] * dim), min_size=dim + 1,
                               max_size=2 * dim + 2))
    if draw(st.booleans()):
        j = draw(st.integers(0, len(points) - 1))
        c = draw(st.integers(0, dim - 1))
        q = draw(st.integers(1, 7))
        points[j] = tuple(x + Fraction(1, q) if i == c else x
                          for i, x in enumerate(points[j]))
    scales = draw(st.lists(small.filter(bool), min_size=dim, max_size=dim))
    basis = tuple(QVector(k * c for c in row) for k, row in zip(scales, rot))
    return dim, points, basis


@settings(max_examples=150, deadline=None)
@given(point_sets())
@example((2, [(5, 0), (-5, 0), (0, 5), (0, -5)], (
    QVector((Fraction(3, 5), Fraction(4, 5))),
    QVector((Fraction(-8, 5), Fraction(6, 5))),
)))
def test_integer_reflections_match_rational_sets(case):
    """verify_basis's integer check fails on the first basis vector whose
    rational reflection does not map the vertex set onto itself."""
    dim, points, basis = case
    try:
        p = build_polytope(VRep(dim, tuple(QVector(x) for x in points)))
    except GeometryError:
        return
    vset = set(p.vertices)
    failing = next(
        (i for i, v in enumerate(basis) if {reflect(x, v) for x in vset} != vset),
        None,
    )
    report = verify_basis(p, basis)
    assert report.basis_verified == (failing is None)
    assert report.failing_vector == failing


class TestCentralSymmetry:
    def test_cube_and_cross(self):
        assert is_centrally_symmetric(generate("cube", dim=3))
        assert is_centrally_symmetric(generate("cross_polytope", dim=2))

    def test_simplex_is_not(self):
        assert not is_centrally_symmetric(triangle())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_family_is(self, seed):
        p = generate("random_reflection_symmetric", dim=3, m=2, seed=seed)
        assert is_centrally_symmetric(p)

    def test_shear_still_is(self):
        assert is_centrally_symmetric(shear())


class TestVerifyBasis:
    @pytest.mark.parametrize("family", ["cube", "cross_polytope"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_standard_families_pass(self, family, d):
        p = generate(family, dim=d)
        r = verify_basis(p, standard_basis(d))
        assert r.basis_verified and r.centrally_symmetric
        assert r.failing_vector is None

    def test_shear_fails_reflection(self):
        r = verify_basis(shear(), standard_basis(2))
        assert r.centrally_symmetric
        assert not r.basis_verified
        assert r.failing_vector == 0
        assert "reflection" in r.details

    def test_hexagon_fails_standard_but_passes_diagonal(self):
        p = hexagon()
        r_std = verify_basis(p, standard_basis(2))
        assert r_std.centrally_symmetric and not r_std.basis_verified

        r_diag = verify_basis(p, (qv(1, -1), qv(1, 1)))
        assert r_diag.basis_verified and r_diag.centrally_symmetric

    def test_triangle_reports_central_failure(self):
        # the reflections fail, and the failure report also says that the
        # vertex set is not centrally symmetric
        r = verify_basis(triangle(), standard_basis(2))
        assert not r.centrally_symmetric
        assert r.details.startswith("the vertex set is not centrally symmetric; ")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reflections_imply_central_symmetry(self, seed):
        # d orthogonal reflections compose to -I, so a verified basis
        # reports central symmetry without testing it separately
        p = generate("random_reflection_symmetric", dim=3, m=2, seed=seed)
        r = verify_basis(p, standard_basis(3))
        assert r.basis_verified and r.centrally_symmetric
        assert is_centrally_symmetric(p)

    def test_raw_sequence_non_orthogonal_reported_not_raised(self):
        r = verify_basis(generate("cube", dim=2), (qv(1, 0), qv(1, 1)))
        assert not r.basis_verified
        assert r.failing_vector == 1
        assert "not orthogonal" in r.details

    def test_zero_vector_reported(self):
        r = verify_basis(generate("cube", dim=2), (qv(1, 0), qv(0, 0)))
        assert not r.basis_verified and r.failing_vector == 1

    def test_wrong_size_raises(self):
        with pytest.raises(ValueError):
            verify_basis(generate("cube", dim=2), (qv(1, 0),))
        with pytest.raises(ValueError):
            verify_basis(generate("cube", dim=2), (qv(1, 0, 0), qv(0, 1, 0)))

    @given(st.integers(1, 7), st.integers(1, 7))
    def test_positive_rescaling_invariance(self, a, b):
        p = hexagon()
        base = (qv(1, -1), qv(1, 1))
        scaled = (rational(a, b) * base[0], rational(b, a) * base[1])
        assert (
            verify_basis(p, scaled).basis_verified
            == verify_basis(p, base).basis_verified
            is True
        )

    @pytest.mark.parametrize(
        "make,basis",
        [
            (lambda: generate("cube", dim=3), None),
            (lambda: generate("cross_polytope", dim=3), None),
            (hexagon, (qv(1, -1), qv(1, 1))),
        ],
    )
    def test_reflected_faces_are_faces(self, make, basis):
        p = make()
        vecs = basis if basis is not None else standard_basis(p.dim)
        assert verify_basis(p, vecs).basis_verified
        lat = enumerate_faces(p)
        faces = {f.vertex_ids for f in lat.faces}
        index_of = {v: i for i, v in enumerate(p.vertices)}
        for v in vecs:
            for f in lat.faces:
                image = tuple(sorted(
                    index_of[reflect(p.vertices[i], v)] for i in f.vertex_ids
                ))
                assert image in faces


class TestDetect:
    """Symmetry about the coordinate basis, as `--basis std` checks it."""

    def test_scaled_cross(self):
        p = build_polytope(VRep(2, (qv(2, 0), qv(-2, 0), qv(0, 2), qv(0, -2))))
        assert verify_basis(p, standard_basis(2)).basis_verified
