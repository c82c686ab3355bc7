"""The cone-to-face witness construction and its certificates."""

import hashlib
import json
from fractions import Fraction
from itertools import chain, product
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kalai3d import cli, kalai
from kalai3d.fileio import format_polytope_text
from kalai3d.kalai import (
    _inclusion_ok,
    _Tables,
    certify,
    enumerate_cones,
    relint_meets_cone_interior,
)
from kalai3d.lattice import Face, enumerate_faces
from kalai3d.polytope import VRep, build_polytope, generate
from kalai3d.ratgeom import QVector
from kalai3d.symmetry import standard_basis, verify_basis

import reference
from test_symmetry import HEXAGON_POINTS, ROTATIONS, SHEAR_POINTS


def qv(*coords):
    return QVector(coords)


def face_of(lat, *vertex_ids):
    return next(f for f in lat.faces if f.vertex_ids == vertex_ids)


def dot_table(basis, p):
    return [[v.dot(b) for b in basis] for v in p.vertices]


def relint(face, signs, basis, p):
    """The witness LP on tables built here from the basis."""
    return relint_meets_cone_interior(face, signs, _Tables(p, basis))


def inclusion_holds(face, signs, basis, p):
    return _inclusion_ok(face, signs, _Tables(p, basis))


def witness(cert, signs):
    return next(w for w in cert.witnesses if w.signs == signs)


class TestEnumerateCones:
    def test_d1_order(self):
        assert enumerate_cones(1) == [(-1,), (1,)]

    def test_counts(self):
        assert len(enumerate_cones(2)) == 8
        assert len(enumerate_cones(4)) == 80

    def test_lexicographic_and_complete(self):
        cones = enumerate_cones(2)
        assert cones == sorted(cones)
        assert len(set(cones)) == len(cones)
        assert (0, 0) not in cones
        for d in range(1, 5):
            assert enumerate_cones(d) == [
                s for s in product((-1, 0, 1), repeat=d) if any(s)
            ]

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
        got = relint(edge, (1, 0), basis, p)
        assert got == qv(1, 0)

    def test_corner_open_quadrant(self, square):
        p, lat, basis = square
        corner = face_of(lat, 3)
        got = relint(corner, (1, 1), basis, p)
        assert got == qv(1, 1)

    def test_corner_misses_axis_cone(self, square):
        p, lat, basis = square
        corner = face_of(lat, 3)
        assert relint(corner, (1, 0), basis, p) is None

    def test_top_face_meets_everything(self, square):
        p, lat, basis = square
        top = face_of(lat, 0, 1, 2, 3)
        for k in enumerate_cones(2):
            x = relint(top, k, basis, p)
            assert x is not None


class TestWitnessForCone:
    def test_square_axis_cone_gets_edge(self, square):
        p, _, basis = square
        w = witness(certify(p, basis), (1, 0))
        assert w.face.vertex_ids == (2, 3)
        assert w.face.dim == 1
        assert w.point == qv(1, 0)
        assert w.inclusion_ok

    def test_square_quadrant_gets_corner(self, square):
        p, _, basis = square
        w = witness(certify(p, basis), (1, 1))
        assert w.face.vertex_ids == (3,)
        assert w.face.dim == 0
        assert w.point == qv(1, 1)

    def test_cube3_octant_gets_corner(self):
        p = generate("cube", dim=3)
        w = witness(certify(p, standard_basis(3)), (1, 1, 1))
        assert [p.vertices[i] for i in w.face.vertex_ids] == [qv(1, 1, 1)]


class TestInteriorInclusion:
    def test_square_witnesses_pass(self, square):
        p, _, basis = square
        for w in certify(p, basis).witnesses:
            assert inclusion_holds(w.face, w.signs, basis, p)
            assert w.inclusion_ok

    def test_all_zero_edge_fails(self):
        # Not reachable from the search when hypotheses hold: an edge
        # lying inside the hyperplane of a selected direction.
        p = generate("cross_polytope", dim=2)
        # vertices sorted: 0=(-1,0) 1=(0,-1) 2=(0,1) 3=(1,0)
        fake_face = Face(vertex_ids=(1, 2), dim=1)
        basis = standard_basis(2)
        assert not inclusion_holds(fake_face, (1, 0), basis, p)

    def test_mixed_sign_edge_fails(self, square):
        p, _, basis = square
        fake_face = Face(vertex_ids=(0, 3), dim=1)  # a diagonal
        assert not inclusion_holds(fake_face, (1, 0), basis, p)


def sign_table_mismatches(p, basis):
    """(face, cone) pairs where the reference allowed-sign table and the
    witness LP disagree."""
    tables = _Tables(p, basis)
    out = []
    for f in enumerate_faces(p).faces:
        if f.dim == p.dim:
            continue
        allowed = set(product(*reference.allowed_signs(p, basis, f.vertex_ids)))
        for k in enumerate_cones(p.dim):
            x = relint_meets_cone_interior(f, k, tables)
            if (k in allowed) != (x is not None):
                out.append((f.vertex_ids, k))
    return out


class TestSignTable:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: (generate("cube", dim=3), standard_basis(3)),
            lambda: (generate("cross_polytope", dim=3), standard_basis(3)),
            lambda: (
                build_polytope(VRep(2, HEXAGON_POINTS)),
                (qv(1, -1), qv(1, 1)),
            ),
            lambda: (
                generate("random_reflection_symmetric", dim=3, m=2, seed=1),
                standard_basis(3),
            ),
            lambda: (
                generate(
                    "product",
                    factors=(
                        generate("cube", dim=2),
                        generate("cross_polytope", dim=2),
                    ),
                ),
                standard_basis(4),
            ),
        ],
        ids=["cube3", "cross3", "hexagon_diagonal", "random3", "cube2xcross2"],
    )
    def test_exact_under_reflection_symmetry(self, make):
        """With every reflection a symmetry, the sign table allows a cone
        on a proper face exactly when the witness LP finds a point."""
        p, basis = make()
        assert verify_basis(p, basis).hypotheses_hold
        assert sign_table_mismatches(p, basis) == []

    def test_needs_reflection_symmetry(self):
        """A centrally symmetric parallelogram that the std reflections do
        not preserve: two edges allow three cones each that they miss."""
        p = build_polytope(VRep(2, (qv(3, -1), qv(1, -1), qv(-3, 1), qv(-1, 1))))
        # vertices sorted: 0=(-3,1) 1=(-1,1) 2=(1,-1) 3=(3,-1)
        basis = standard_basis(2)
        report = verify_basis(p, basis)
        assert report.centrally_symmetric and not report.basis_verified
        assert sign_table_mismatches(p, basis) == [
            ((0, 2), (0, 1)),
            ((0, 2), (1, 0)),
            ((0, 2), (1, 1)),
            ((1, 3), (-1, -1)),
            ((1, 3), (-1, 0)),
            ((1, 3), (0, -1)),
        ]


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
        got = {w.signs: w.face.vertex_ids for w in cert.witnesses}
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
            for b, s in zip(basis, w.signs):
                x = w.point.dot(b)
                assert (x > 0) - (x < 0) == s
            for j, h in enumerate(p.halfspaces):
                assert h.normal.dot(w.point) <= h.offset
                assert (h.normal.dot(w.point) == h.offset) == (
                    set(w.face.vertex_ids) <= set(p.incidence[j])
                )

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
            for i, s in enumerate(a.signs):
                if s and b.signs[i] != s:
                    out.append(s * basis[i])
            return out

        for a in ws:
            for b in ws:
                if a.signs == b.signs:
                    continue
                for u in separators(a, b):
                    assert b.point.dot(u) <= 0
                assert separators(a, b) or separators(b, a)

    def test_minimality(self):
        """No face of strictly smaller dimension meets the cone."""
        p = generate("cube", dim=2)
        lat = enumerate_faces(p)
        basis = standard_basis(2)
        for w in certify(p, basis).witnesses:
            for f in lat.faces:
                if f.dim < w.face.dim:
                    assert relint(f, w.signs, basis, p) is None

    def test_lp_miss_is_internal_error(self, monkeypatch, tmp_path, capsys):
        """An LP that misses a face its signs admit is a bug: certify
        raises and the CLI exits 3, never 1 (false) or 2 (bad input)."""
        monkeypatch.setattr(kalai, "relint_meets_cone_interior", lambda *a: None)
        p = generate("cube", dim=2)
        with pytest.raises(RuntimeError):
            certify(p, standard_basis(2))

        path = tmp_path / "cube2.hpoly"
        path.write_text(format_polytope_text(p.hrep()))
        assert cli.main(["certify", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error:\n")
        assert "RuntimeError" in captured.err

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


def rotated(p):
    """p turned by the 3-4-5 rotation of ROTATIONS on its first two or
    three axes, with the rotated axes as its basis: denominators in every
    vertex and basis vector."""
    d = p.dim
    k = min(d, 3)
    rows = [tuple(r) + (0,) * (d - k) for r in ROTATIONS[k]]
    rows += [tuple(int(i == j) for j in range(d)) for i in range(k, d)]
    points = tuple(
        QVector(sum(c * r[j] for c, r in zip(v, rows)) for j in range(d))
        for v in p.vertices
    )
    return build_polytope(VRep(d, points)), tuple(QVector(r) for r in rows)


def rotated_cube3():
    return rotated(generate("cube", dim=3))


def rational_witness(face, signs, basis, p):
    """sum(w_j v_j) in Fractions over the face's vertices, with the
    weights w_j = mu_j + eps from the reference simplex on the rational
    rows of the witness LP."""
    ids = face.vertex_ids
    k = len(ids)
    dots = dot_table(basis, p)
    rows = [((1,) * k + (k,), "==", 1)]
    for i, s in enumerate(signs):
        if s:
            row = [s * dots[v][i] for v in ids]
            rows.append((row + [sum(row) - basis[i].dot(basis[i])], ">=", 0))
    for i, s in enumerate(signs):
        if not s:
            row = [dots[v][i] for v in ids]
            rows.append((row + [sum(row)], "==", 0))
    status, _, x = reference.maximize(k + 1, rows, [0] * k + [1])
    assert status == reference.OPTIMAL and x[-1] > 0
    weights = [mu + x[-1] for mu in x[:-1]]
    return QVector(
        sum(w * p.vertices[v][c] for w, v in zip(weights, ids))
        for c in range(p.dim)
    )


@st.composite
def symmetric_instances(draw):
    """A polytope of dimension at most 5 with a basis of reflections that
    are its symmetries: a cube, a cross-polytope, a cube x cross product
    or a random reflection-symmetric one, rotated or not."""
    kind = draw(st.sampled_from(["cube", "cross_polytope", "product", "random"]))
    if kind == "product":
        a = draw(st.integers(1, 4))
        b = draw(st.integers(1, 5 - a))
        p = generate("product", factors=(generate("cube", dim=a),
                                         generate("cross_polytope", dim=b)))
    elif kind == "random":
        p = generate("random_reflection_symmetric", dim=draw(st.integers(1, 5)),
                     m=draw(st.integers(1, 2)), seed=draw(st.integers(0, 99)))
    else:
        p = generate(kind, dim=draw(st.integers(1, 5)))
    if p.dim > 1 and draw(st.booleans()):
        return rotated(p)
    return p, standard_basis(p.dim)


class TestPatternTable:
    @settings(max_examples=30, deadline=None)
    @given(symmetric_instances())
    def test_equals_the_sign_product_table(self, instance):
        """Keying each proper face on its pattern cone alone picks the
        same face for every cone as tabling every sign vector the face's
        vertex signs allow, first face first."""
        p, basis = instance
        cert = certify(p, basis)
        assert cert.verdict
        got = {w.signs: w.face.vertex_ids for w in cert.witnesses}
        assert got == reference.cone_table(p, basis)

    def test_cone_with_no_face_is_internal_error(self, monkeypatch, tmp_path, capsys):
        """A cone that no face takes is a bug: certify raises naming the
        cone and the CLI exits 3, never 1 (false) or 2 (bad input)."""
        pattern = kalai._pattern

        def hide_quadrant(face, t):
            s = pattern(face, t)
            return (0, 0) if s == (1, 1) else s

        monkeypatch.setattr(kalai, "_pattern", hide_quadrant)
        p = generate("cube", dim=2)
        with pytest.raises(RuntimeError, match=r"\(1, 1\)"):
            certify(p, standard_basis(2))

        path = tmp_path / "cube2.hpoly"
        path.write_text(format_polytope_text(p.hrep()))
        assert cli.main(["certify", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "RuntimeError" in captured.err


class TestIntegerWitness:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: (generate("cube", dim=3), standard_basis(3)),
            lambda: (generate("cross_polytope", dim=3), standard_basis(3)),
            lambda: (build_polytope(VRep(2, HEXAGON_POINTS)), (qv(1, -1), qv(1, 1))),
            rotated_cube3,
        ],
        ids=["cube3", "cross3", "hexagon_diagonal", "rotated_cube3"],
    )
    def test_point_is_rational_recombination(self, make):
        """The point built from integer weights and the integer vertex
        table is the Fraction combination of the face's vertices."""
        p, basis = make()
        cert = certify(p, basis)
        assert cert.verdict
        for w in cert.witnesses:
            assert w.point == rational_witness(w.face, w.signs, basis, p)

    def test_tables_take_the_smallest_integer_scale(self):
        """The dot table, the norms and scale share no factor, and over
        scale they are still the rational dot products."""
        p, basis = rotated_cube3()
        t = _Tables(p, basis)
        assert gcd(t.scale, *t.norms, *chain.from_iterable(t.dots)) == 1
        assert [[Fraction(c, t.scale) for c in row] for row in t.dots] == dot_table(basis, p)
        assert [Fraction(n, t.scale) for n in t.norms] == [b.dot(b) for b in basis]

    @pytest.mark.parametrize("family", ["cube", "cross_polytope"])
    def test_dimension_eight(self, family):
        """3^8 faces, each of the 6,560 cones on its own, in about a second."""
        cert = certify(generate(family, dim=8), standard_basis(8))
        assert cert.verdict
        assert cert.total == cert.distinct_faces_count == 6561


GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "golden.json").read_text(
        encoding="utf-8"
    )
)


def lp_key(face, signs, dots, norms):
    """What the witness LP of one cone depends on: the face's signed dot
    products on the selected basis vectors with their squared norms, then
    its dot products on the unselected ones, each group in index order."""
    ids = face.vertex_ids
    selected = tuple(
        (tuple(s * dots[v][i] for v in ids), norms[i])
        for i, s in enumerate(signs) if s
    )
    unselected = tuple(
        tuple(dots[v][i] for v in ids) for i, s in enumerate(signs) if not s
    )
    return selected, unselected


# golden.json key -> the polytope it certifies, with the standard basis
MEMO_CASES = {
    "box:1,1,1": lambda: generate("cube", dim=3),
    "cube2xcross3": lambda: generate(
        "product",
        factors=(generate("cube", dim=2), generate("cross_polytope", dim=3)),
    ),
}


def count_solves(monkeypatch, p, basis):
    """certify(p, basis), with the simplex solves it ran and the number of
    distinct rational witness LPs among its cones."""
    dots = dot_table(basis, p)
    norms = [b.dot(b) for b in basis]
    solved = []
    maximize = kalai.simplex.Model.maximize

    def counting(model, objective):
        solved.append(objective)
        return maximize(model, objective)

    # the module object kalai holds, not a dotted path, which a second
    # import of kalai3d in the same process could point elsewhere
    monkeypatch.setattr(kalai.simplex.Model, "maximize", counting)
    cert = certify(p, basis)
    keys = {lp_key(w.face, w.signs, dots, norms) for w in cert.witnesses}
    return cert, len(solved), len(keys)


class TestLPMemo:
    """certify runs the simplex once per distinct witness LP, per call."""

    @pytest.mark.parametrize("key", sorted(MEMO_CASES))
    def test_one_simplex_per_distinct_lp(self, monkeypatch, key):
        p = MEMO_CASES[key]()
        basis = standard_basis(p.dim)
        first, solves, keys = count_solves(monkeypatch, p, basis)
        assert solves == keys < len(first.witnesses)

        second, solves, _ = count_solves(monkeypatch, p, basis)
        assert solves == keys
        text = cli._json_text(second.to_json_dict())
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[key]

    def test_one_simplex_per_distinct_lp_with_denominators(self, monkeypatch):
        """Scaling the rows to integers neither merges nor splits LPs."""
        cert, solves, keys = count_solves(monkeypatch, *rotated_cube3())
        assert solves == keys < len(cert.witnesses)
