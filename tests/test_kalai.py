"""The cone-to-face witness construction and its certificates."""

import json

import pytest

from kalai3d.kalai import (
    SignedSubset,
    WitnessSearch,
    certify,
    enumerate_cones,
    relint_meets_cone_interior,
)
from kalai3d.lattice import Face, FaceLattice, enumerate_faces
from kalai3d.polytope import VRep, build_polytope, generate
from kalai3d.ratgeom import QVector
from kalai3d.symmetry import standard_basis

from test_symmetry import HEXAGON_POINTS, SHEAR_POINTS


def qv(*coords):
    return QVector(coords)


def face_of(lat, *vertex_ids):
    return next(f for f in lat.faces if f.vertex_ids == vertex_ids)


def relint(face, subset, basis, p):
    """The witness LP with its dot table computed here from the basis."""
    dots = [[v.dot(b) for b in basis.vectors] for v in p.vertices]
    norms = [b.dot(b) for b in basis.vectors]
    return relint_meets_cone_interior(face, subset, dots, norms, p)


class TestSignedSubset:
    def test_validation(self):
        with pytest.raises(ValueError):
            SignedSubset(())
        with pytest.raises(ValueError):
            SignedSubset((0, 0))
        with pytest.raises(ValueError):
            SignedSubset((2, 0))

    def test_accessors(self):
        k = SignedSubset((1, 0, -1))
        assert k.selected() == ((0, 1), (2, -1))
        assert k.unselected() == (1,)
        assert len(k) == 3


class TestEnumerateCones:
    def test_d1_order(self):
        assert [k.signs for k in enumerate_cones(1)] == [(-1,), (1,)]

    def test_counts(self):
        assert len(enumerate_cones(2)) == 8
        assert len(enumerate_cones(4)) == 80

    def test_lexicographic_and_complete(self):
        cones = [k.signs for k in enumerate_cones(2)]
        assert cones == sorted(cones)
        assert len(set(cones)) == len(cones)
        assert (0, 0) not in cones

    def test_d0_rejected(self):
        with pytest.raises(ValueError):
            enumerate_cones(0)


@pytest.fixture(scope="module")
def square():
    p = generate("cube", dim=2)
    return p, enumerate_faces(p), standard_basis(2)


class TestRelintMeetsCone:
    """Square cases; vertex ids 0=(-1,-1) 1=(-1,1) 2=(1,-1) 3=(1,1)."""

    def test_right_edge_positive_x(self, square):
        p, lat, basis = square
        edge = face_of(lat, 2, 3)
        got = relint(edge, SignedSubset((1, 0)), basis, p)
        assert got == qv(1, 0)

    def test_corner_open_quadrant(self, square):
        p, lat, basis = square
        corner = face_of(lat, 3)
        got = relint(corner, SignedSubset((1, 1)), basis, p)
        assert got == qv(1, 1)

    def test_corner_misses_axis_cone(self, square):
        p, lat, basis = square
        corner = face_of(lat, 3)
        assert relint(corner, SignedSubset((1, 0)), basis, p) is None

    def test_top_face_meets_everything(self, square):
        p, lat, basis = square
        top = face_of(lat, 0, 1, 2, 3)
        for k in enumerate_cones(2):
            x = relint(top, k, basis, p)
            assert x is not None


class TestWitnessForCone:
    def test_square_axis_cone_gets_edge(self, square):
        p, lat, basis = square
        w = WitnessSearch(p, lat, basis).find(SignedSubset((1, 0)))
        assert w.face.vertex_ids == (2, 3)
        assert w.face.dim == 1
        assert w.point == qv(1, 0)
        assert w.inclusion_ok

    def test_square_quadrant_gets_corner(self, square):
        p, lat, basis = square
        w = WitnessSearch(p, lat, basis).find(SignedSubset((1, 1)))
        assert w.face.vertex_ids == (3,)
        assert w.face.dim == 0
        assert w.point == qv(1, 1)

    def test_cube3_octant_gets_corner(self):
        p = generate("cube", dim=3)
        lat = enumerate_faces(p)
        w = WitnessSearch(p, lat, standard_basis(3)).find(SignedSubset((1, 1, 1)))
        assert [p.vertices[i] for i in w.face.vertex_ids] == [qv(1, 1, 1)]


class TestInteriorInclusion:
    def test_square_witnesses_pass(self, square):
        search = WitnessSearch(*square)
        for k in enumerate_cones(2):
            w = search.find(k)
            assert search.inclusion_holds(search.lat.faces.index(w.face), k)
            assert w.inclusion_ok

    def test_all_zero_edge_fails(self):
        # Not reachable from the search when hypotheses hold: an edge
        # lying inside the hyperplane of a selected direction.
        p = generate("cross_polytope", dim=2)
        # vertices sorted: 0=(-1,0) 1=(0,-1) 2=(0,1) 3=(1,0)
        fake_face = Face(vertex_ids=(1, 2), dim=1, facet_ids=())
        search = WitnessSearch(p, FaceLattice(2, [fake_face]), standard_basis(2))
        assert not search.inclusion_holds(0, SignedSubset((1, 0)))

    def test_mixed_sign_edge_fails(self, square):
        p, _, basis = square
        fake_face = Face(vertex_ids=(0, 3), dim=1, facet_ids=())  # a diagonal
        search = WitnessSearch(p, FaceLattice(2, [fake_face]), basis)
        assert not search.inclusion_holds(0, SignedSubset((1, 0)))


SQUARE_WITNESS_MAP = {
    (-1, -1): (0,),
    (-1, 0): (0, 1),
    (-1, 1): (1,),
    (0, -1): (0, 2),
    (0, 1): (1, 3),
    (1, -1): (2,),
    (1, 0): (2, 3),
    (1, 1): (3,),
}


class TestCertify:
    def test_square_full_map(self):
        cert = certify(generate("cube", dim=2), standard_basis(2))
        assert cert.verdict
        got = {w.subset.signs: w.face.vertex_ids for w in cert.witnesses}
        assert got == SQUARE_WITNESS_MAP
        assert cert.distinct_faces_count == 9
        assert cert.total == 9

    @pytest.mark.parametrize("family", ["cube", "cross_polytope"])
    def test_d3_families(self, family):
        p = generate(family, dim=3)
        cert = certify(p, standard_basis(3))
        assert cert.verdict
        assert cert.total == 27
        assert len(cert.witnesses) == 26
        assert cert.injective
        assert cert.distinct_faces_count == 27
        assert all(w.inclusion_ok for w in cert.witnesses)

    def test_witness_points_exact(self):
        """Each point is strict against selected directions, zero against
        unselected ones, and in the relative interior of its face."""
        p = generate("cross_polytope", dim=3)
        basis = standard_basis(3)
        cert = certify(p, basis)
        for w in cert.witnesses:
            for i, s in w.subset.selected():
                assert w.point.dot(s * basis.vectors[i]) > 0
            for i in w.subset.unselected():
                assert w.point.dot(basis.vectors[i]) == 0
            for j, h in enumerate(p.halfspaces):
                assert h.normal.dot(w.point) <= h.offset
                assert h.boundary_contains(w.point) == (j in w.face.facet_ids)

    def test_disjointness_mechanism(self):
        """A direction selected by one cone but not another is nonpositive
        on the other's witness point; every distinct pair has such a
        direction in at least one of the two orders."""
        p = generate("cube", dim=2)
        basis = standard_basis(2)
        cert = certify(p, basis)
        ws = list(cert.witnesses)

        def separators(a, b):
            out = []
            for i, s in a.subset.selected():
                if b.subset.signs[i] != s:
                    out.append(s * basis.vectors[i])
            return out

        for a in ws:
            for b in ws:
                if a.subset == b.subset:
                    continue
                for u in separators(a, b):
                    assert b.point.dot(u) <= 0
                assert separators(a, b) or separators(b, a)

    def test_minimality(self):
        """No face of strictly smaller dimension meets the cone."""
        p = generate("cube", dim=2)
        lat = enumerate_faces(p)
        basis = standard_basis(2)
        search = WitnessSearch(p, lat, basis)
        for k in enumerate_cones(2):
            w = search.find(k)
            for f in lat.faces:
                if f.dim < w.face.dim:
                    assert relint(f, k, basis, p) is None

    def test_triangle_fails_central_symmetry(self):
        p = build_polytope(VRep(2, (qv(0, 0), qv(1, 0), qv(0, 1))))
        cert = certify(p, standard_basis(2))
        assert not cert.verdict
        assert not cert.symmetry.centrally_symmetric
        assert cert.witnesses == ()
        assert cert.distinct_faces_count == 0
        assert "centrally symmetric" in cert.symmetry.details

    def test_shear_fails_basis(self):
        p = build_polytope(VRep(2, SHEAR_POINTS))
        cert = certify(p, standard_basis(2))
        assert not cert.verdict
        assert cert.symmetry.centrally_symmetric
        assert not cert.symmetry.basis_verified
        assert cert.symmetry.failing_vector == 0

    def test_hexagon_std_fails_but_diagonal_passes(self):
        p = build_polytope(VRep(2, HEXAGON_POINTS))
        bad = certify(p, standard_basis(2))
        assert not bad.verdict and not bad.symmetry.basis_verified

        good = certify(p, (qv(1, -1), qv(1, 1)))
        assert good.verdict
        assert good.total == 13  # hexagon: 6 + 6 + 1, above the 9 bound
        assert good.distinct_faces_count == 9

    def test_json_shape_and_determinism(self):
        p = generate("cube", dim=2)
        basis = standard_basis(2)
        a = json.dumps(certify(p, basis).to_json_dict(), sort_keys=True)
        b = json.dumps(
            certify(generate("cube", dim=2), standard_basis(2)).to_json_dict(),
            sort_keys=True,
        )
        assert a == b
        doc = json.loads(a)
        assert set(doc) == {
            "dim",
            "symmetry",
            "f_vector",
            "total",
            "cones",
            "injective",
            "distinct_faces",
            "verdict",
        }
        assert len(doc["cones"]) == 8
        for row in doc["cones"]:
            assert set(row) == {
                "signs",
                "face_vertices",
                "face_dim",
                "witness_point",
                "inclusion_ok",
            }
        assert doc["cones"][-1]["witness_point"] == ["1", "1"]

    def test_failure_json_has_empty_cones(self):
        p = build_polytope(VRep(2, (qv(0, 0), qv(1, 0), qv(0, 1))))
        doc = certify(p, standard_basis(2)).to_json_dict()
        assert doc["verdict"] is False
        assert doc["cones"] == []
        assert doc["total"] == 7
