"""Dual-description conversions, validation, and generators."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kalai3d.polytope import (
    DegenerateError,
    Halfspace,
    HRep,
    Polytope,
    UnboundedError,
    VRep,
    build_polytope,
    canonical_halfspace,
    facets_from_vrep,
    generate,
    vertices_from_hrep,
)
from kalai3d.ratgeom import QVector, rational


def qv(*coords):
    return QVector(coords)


def hspace(normal, offset):
    return Halfspace(QVector(normal), offset)


class TestHalfspace:
    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            hspace((0, 0), 1)

    def test_canonical_scales_to_primitive_integers(self):
        h = canonical_halfspace(hspace((rational(2, 3), rational(-4, 3)), 2))
        assert h.normal == qv(1, -2)
        assert h.offset == 3

    def test_canonical_keeps_direction(self):
        h = canonical_halfspace(hspace((-2, -4), 6))
        assert h.normal == qv(-1, -2)
        assert h.offset == 3

    def test_canonical_rational_offset_survives(self):
        h = canonical_halfspace(hspace((0, rational(1, 2)), rational(1, 4)))
        assert h.normal == qv(0, 1)
        assert h.offset == rational(1, 2)

    def test_contains(self):
        h = hspace((1, 0), 1)
        assert h.boundary_contains(qv(1, -7))


class TestReps:
    def test_hrep_validation(self):
        with pytest.raises(ValueError):
            HRep(0, (hspace((1,), 1),))
        with pytest.raises(ValueError):
            HRep(2, ())
        with pytest.raises(ValueError):
            HRep(2, (hspace((1,), 1),))

    def test_vrep_validation(self):
        with pytest.raises(ValueError):
            VRep(2, ())
        with pytest.raises(ValueError):
            VRep(2, (qv(1, 2, 3),))


class TestVerticesFromHRep:
    def test_segment(self):
        v = vertices_from_hrep(HRep(1, (hspace((1,), 1), hspace((-1,), 1))))
        assert v.vertices == (qv(-1), qv(1))

    def test_square_sorted(self):
        v = vertices_from_hrep(
            HRep(2, tuple(hspace(n, 1) for n in ((1, 0), (-1, 0), (0, 1), (0, -1))))
        )
        assert v.vertices == (qv(-1, -1), qv(-1, 1), qv(1, -1), qv(1, 1))

    def test_single_halfspace_unbounded(self):
        with pytest.raises(UnboundedError):
            vertices_from_hrep(HRep(1, (hspace((1,), 0),)))

    def test_slab_unbounded(self):
        with pytest.raises(UnboundedError):
            vertices_from_hrep(HRep(2, (hspace((1, 0), 1), hspace((-1, 0), 1))))

    def test_unbounded_without_antiparallel_pairs(self):
        # exercises the LP fallback in the recession test
        hs = tuple(hspace(n, 1) for n in ((1, 1), (1, 0), (0, 1)))
        with pytest.raises(UnboundedError):
            vertices_from_hrep(HRep(2, hs))

    def test_empty(self):
        with pytest.raises(DegenerateError, match="empty"):
            vertices_from_hrep(HRep(1, (hspace((1,), -1), hspace((-1,), -1))))

    def test_lower_dimensional(self):
        hs = (
            hspace((1, 1), 0),
            hspace((-1, -1), 0),
            hspace((1, 0), 1),
            hspace((-1, 0), 1),
        )
        with pytest.raises(DegenerateError, match="lower-dimensional"):
            vertices_from_hrep(HRep(2, hs))

    def test_redundant_and_duplicate_halfspaces(self):
        square = [hspace(n, 1) for n in ((1, 0), (-1, 0), (0, 1), (0, -1))]
        noisy = square + [hspace((1, 0), 5), hspace((2, 0), 2), hspace((1, 1), 7)]
        assert (
            vertices_from_hrep(HRep(2, tuple(noisy))).vertices
            == vertices_from_hrep(HRep(2, tuple(square))).vertices
        )


class TestFacetsFromVRep:
    def test_triangle(self):
        h = facets_from_vrep(VRep(2, (qv(0, 0), qv(1, 0), qv(0, 1))))
        got = {(hh.normal.coords, hh.offset) for hh in h.halfspaces}
        assert got == {
            ((rational(-1), rational(0)), rational(0)),
            ((rational(0), rational(-1)), rational(0)),
            ((rational(1), rational(1)), rational(1)),
        }

    def test_non_extreme_points_dropped(self):
        pts = (qv(0, 0), qv(2, 0), qv(0, 2), qv(1, 1), qv(1, rational(1, 2)))
        p = build_polytope(VRep(2, pts))
        assert p.vertices == (qv(0, 0), qv(0, 2), qv(2, 0))

    def test_cube3_from_points_matches_h_input(self):
        """A point inside an edge lies on two facets and is still dropped."""
        corners = [qv(*c) for c in product((1, -1), repeat=3)]
        extra = [
            qv(1, 1, rational(1, 3)),  # relative interior of an edge
            qv(1, rational(1, 2), rational(-1, 2)),  # relative interior of a facet
            qv(rational(1, 2), 0, rational(-1, 3)),  # interior
            qv(-1, -1, -1),  # a vertex again
        ]
        p = build_polytope(VRep(3, corners + extra))
        h = generate("cube", dim=3)
        assert p.vertices == h.vertices
        assert p.halfspaces == h.halfspaces
        assert p.incidence == h.incidence

    def test_lower_dimensional(self):
        with pytest.raises(DegenerateError):
            facets_from_vrep(VRep(2, (qv(0, 0), qv(1, 1), qv(2, 2))))


class TestBuildPolytope:
    def test_cube2_structure(self):
        p = generate("cube", dim=2)
        assert p.vertices == (qv(-1, -1), qv(-1, 1), qv(1, -1), qv(1, 1))
        assert p.incidence == ((0, 1), (0, 2), (1, 3), (2, 3))
        normals = [h.normal for h in p.halfspaces]
        assert normals == [qv(-1, 0), qv(0, -1), qv(0, 1), qv(1, 0)]
        assert all(h.offset == 1 for h in p.halfspaces)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_cube_counts(self, d):
        p = generate("cube", dim=d)
        assert len(p.vertices) == 2**d
        assert len(p.halfspaces) == 2 * d

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_cross_counts(self, d):
        p = generate("cross_polytope", dim=d)
        assert len(p.vertices) == 2 * d
        assert len(p.halfspaces) == 2**d

    def test_cube1_equals_cross1(self):
        c = generate("cube", dim=1)
        x = generate("cross_polytope", dim=1)
        assert c.vertices == x.vertices
        assert c.halfspaces == x.halfspaces

    def test_every_vertex_on_at_least_d_facets(self):
        for p in (generate("cube", dim=3), generate("cross_polytope", dim=3)):
            for i in range(len(p.vertices)):
                on = sum(1 for row in p.incidence if i in row)
                assert on >= p.dim

    def test_vertices_satisfy_all_halfspaces(self):
        p = generate("cross_polytope", dim=3)
        for v in p.vertices:
            assert all(h.normal.dot(v) <= h.offset for h in p.halfspaces)

    def test_incidence_is_exact(self):
        p = generate("cube", dim=3)
        for j, h in enumerate(p.halfspaces):
            expected = tuple(
                i for i, v in enumerate(p.vertices) if h.boundary_contains(v)
            )
            assert p.incidence[j] == expected

    def test_rejects_wrong_type(self):
        with pytest.raises(TypeError):
            build_polytope([qv(0, 0)])


class TestProduct:
    def test_segment_times_diamond(self):
        p = generate(
            "product",
            factors=(generate("cube", dim=1), generate("cross_polytope", dim=2)),
        )
        assert p.dim == 3
        assert len(p.vertices) == 8
        assert len(p.halfspaces) == 6

    def test_product_vertex_count_multiplies(self):
        a = generate("cube", dim=2)
        b = generate("cross_polytope", dim=2)
        p = generate("product", factors=(a, b))
        assert len(p.vertices) == len(a.vertices) * len(b.vertices)
        assert len(p.halfspaces) == len(a.halfspaces) + len(b.halfspaces)

    def test_requires_polytopes(self):
        with pytest.raises(TypeError):
            generate("product", factors=(1, 2))
        with pytest.raises(ValueError):
            generate("product", factors=None)


class TestRandomFamily:
    def test_deterministic_in_seed(self):
        a = generate("random_reflection_symmetric", dim=2, m=3, seed=11)
        b = generate("random_reflection_symmetric", dim=2, m=3, seed=11)
        assert a.vertices == b.vertices
        assert a.halfspaces == b.halfspaces

    def test_seeds_differ(self):
        a = generate("random_reflection_symmetric", dim=2, m=3, seed=11)
        b = generate("random_reflection_symmetric", dim=2, m=3, seed=12)
        assert a.vertices != b.vertices

    @pytest.mark.parametrize("seed", range(6))
    def test_vertex_set_closed_under_sign_flips(self, seed):
        p = generate("random_reflection_symmetric", dim=2, m=2, seed=seed)
        vset = set(p.vertices)
        for signs in product((1, -1), repeat=2):
            assert {QVector(s * c for s, c in zip(signs, v)) for v in vset} == vset

    def test_missing_params(self):
        with pytest.raises(ValueError):
            generate("random_reflection_symmetric", dim=2, m=3)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            generate("zonotope", dim=2)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-4, max_value=4),
            st.integers(min_value=-4, max_value=4),
        ).filter(lambda t: t != (0, 0)),
        min_size=2,
        max_size=6,
    )
)
def test_hull_of_symmetric_points_roundtrips(raw):
    """V -> polytope keeps only extreme points and loses nothing else."""
    pts = []
    for x, y in raw:
        pts.append(qv(x, y))
        pts.append(qv(-x, -y))
    try:
        p = build_polytope(VRep(2, tuple(pts)))
    except DegenerateError:
        return  # collinear sample, nothing to check
    assert set(p.vertices) <= set(pts)
    for v in pts:
        assert all(h.normal.dot(v) <= h.offset for h in p.halfspaces)
    # vertices really are extreme: each is the unique maximizer of some facet
    for i, v in enumerate(p.vertices):
        assert any(
            i in row and len(row) < len(p.vertices) for row in p.incidence
        )
