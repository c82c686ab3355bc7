"""Central symmetry and reflection checks, exact throughout."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kalai3d.lattice import enumerate_faces
from kalai3d.polytope import VRep, build_polytope, generate
from kalai3d.ratgeom import QVector, rational
from kalai3d.symmetry import (
    OrthoBasis,
    is_centrally_symmetric,
    reflect,
    standard_basis,
    verify_basis,
)


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
    def test_standard(self):
        b = standard_basis(3)
        assert b.vectors == (e(3, 0), e(3, 1), e(3, 2))

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError, match="not orthogonal"):
            OrthoBasis((qv(1, 0), qv(1, 1)))

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="zero"):
            OrthoBasis((qv(1, 0), qv(0, 0)))

    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            OrthoBasis((qv(1, 0),))

    def test_scaling_allowed(self):
        OrthoBasis((qv(2, 0), qv(0, rational(-1, 3))))


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
        vecs = basis if basis is not None else standard_basis(p.dim).vectors
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
