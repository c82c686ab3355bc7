"""Dual-description conversions, validation, and generators."""

from itertools import combinations, product
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kalai3d import polytope, simplex
from kalai3d.polytope import (
    DegenerateError,
    GeometryError,
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
from reference import basic_point


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
        hs = tuple(hspace(n, 1) for n in ((1, 1), (1, 0), (0, 1)))
        with pytest.raises(UnboundedError):
            vertices_from_hrep(HRep(2, hs))

    @pytest.mark.parametrize(
        "last, corners",
        [
            # the normals sum to zero
            ((-1, -1), ((-2, 1), (1, -2), (1, 1))),
            # they sum to zero only with weights (1, 2, 1)
            ((-1, -2), ((-3, 1), (1, -1), (1, 1))),
        ],
        ids=["sum0", "lp"],
    )
    def test_bounded_without_antiparallel_pairs(self, last, corners):
        hs = tuple(hspace(n, 1) for n in ((1, 0), (0, 1), last))
        p = vertices_from_hrep(HRep(2, hs))
        assert p.vertices == tuple(qv(*c) for c in corners)
        assert len(p.halfspaces) == 3

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

    def test_lower_dimensional_without_antiparallel_pair(self):
        """x >= 0, y >= 0 and x + y <= 0 force x = y = 0, an implicit
        equality that no antiparallel pair of rows states."""
        hs = (
            hspace((-1, 0, 0), 0),
            hspace((0, -1, 0), 0),
            hspace((1, 1, 0), 0),
            hspace((0, 0, 1), 1),
            hspace((0, 0, -1), 1),
        )
        with pytest.raises(DegenerateError, match="lower-dimensional"):
            vertices_from_hrep(HRep(3, hs))

    def test_rows_tight_at_lower_faces_are_not_facets(self):
        """Each extra row touches cube(4) only at a face that lies in a
        facet: a 2-face with d = 4 vertices, an edge and a vertex."""
        cube = generate("cube", dim=4)
        extra = [
            hspace((1, 1, 0, 0), 2),
            hspace((1, 1, 1, 0), 3),
            hspace((1, 1, 1, 1), 4),
        ]
        p = vertices_from_hrep(HRep(4, cube.halfspaces + tuple(extra)))
        assert p.vertices == cube.vertices
        assert p.halfspaces == cube.halfspaces
        assert p.incidence == cube.incidence

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

    @pytest.mark.parametrize(
        "make, extra",
        [
            (
                lambda: generate("cube", dim=3),
                [
                    qv(1, 1, rational(1, 3)),  # inside an edge
                    qv(1, rational(1, 2), rational(-1, 2)),  # inside a facet
                    qv(rational(1, 2), 0, rational(-1, 3)),  # interior
                    qv(-1, -1, -1),  # a vertex again
                ],
            ),
            # every vertex of the H-input lies on 8 facets, so most basic
            # points are found again from other 4-subsets
            (lambda: build_polytope(generate("cross_polytope", dim=4).hrep()), []),
            (lambda: generate("random_reflection_symmetric", dim=3, m=2, seed=1), []),
            (lambda: generate("random_reflection_symmetric", dim=4, m=1, seed=1), []),
        ],
        ids=["cube3", "cross4", "random3", "random4"],
    )
    def test_from_points_matches_h_input(self, make, extra):
        """Non-extreme points are dropped: a point inside an edge lies on
        two facets, and a point strictly between the barycenter and a
        vertex gives a polar row dominated by the vertex's own row."""
        h = make()
        pts = list(h.vertices) + extra
        distinct = set(pts)
        center = rational(1, len(distinct)) * sum(distinct, QVector.zero(h.dim))
        # on the segment from the padded set's barycenter to a vertex, too
        pts.append(rational(1, 2) * (center + h.vertices[0]))
        p = build_polytope(VRep(h.dim, tuple(pts)))
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
                i for i, v in enumerate(p.vertices) if h.normal.dot(v) == h.offset
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


def _recession_by_probes(normals, d):
    """Reference: probe {x : n . x <= 0} along each signed coordinate
    direction, with each free x_i split as x_i+ - x_i-."""
    for j, sign in product(range(d), (1, -1)):
        m = simplex.Model(2 * d)
        for n in normals:
            m.constrain([-c for c in n] + list(n), ">=", 0)
        unit = [int(i == j) for i in range(d)]
        m.constrain(unit + [-c for c in unit], "==", sign)
        if m.maximize([0] * (2 * d)).status == simplex.OPTIMAL:
            return False
    return True


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.lists(
                st.lists(
                    st.integers(min_value=-2, max_value=2), min_size=d, max_size=d
                ).filter(any),
                min_size=1,
                max_size=7,
            ),
        )
    ),
    st.booleans(),
)
def test_recession_test_matches_coordinate_probes(case, paired):
    """With every offset 1 the origin is interior, so the build fails
    exactly when the recession cone is nontrivial."""
    d, normals = case
    if paired:
        normals = normals + [[-c for c in n] for n in normals]
    try:
        build_polytope(HRep(d, tuple(hspace(n, 1) for n in normals)))
        bounded = True
    except UnboundedError:
        bounded = False
    assert bounded == _recession_by_probes(normals, d)


def _subset_loop(d, rows):
    """Reference for _double_description: every basic point of a
    d-subset of rows (q n | p), solved by rational Gauss-Jordan, kept
    when it satisfies every row, after the recession cone is probed
    directly."""
    if not _recession_by_probes([row[:d] for row in rows], d):
        raise UnboundedError(f"unbounded: recession cone is nontrivial (dim {d})")
    out = {}
    for subset in combinations(rows, d):
        x = basic_point(subset)
        if x is None or x in out:
            continue
        nums, den = x
        sides = [sum(map(mul, row, nums)) - row[-1] * den for row in rows]
        if max(sides) <= 0:
            out[x] = tuple(r for r, s in enumerate(sides) if s == 0)
    return list(out.items())


def _build_both_ways(hrep):
    """vertices_from_hrep by double description and by the subset loop:
    each gives the (vertices, halfspaces, incidence) or the
    (class, message) of the error it raised."""
    got = []
    for enumerate_vertices in (polytope._double_description, _subset_loop):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polytope, "_double_description", enumerate_vertices)
            try:
                p = vertices_from_hrep(hrep)
                got.append((p.vertices, p.halfspaces, p.incidence))
            except GeometryError as e:
                got.append((type(e), str(e)))
    return got


# (dimension, [(normal, (offset numerator, denominator))])
CROSS3 = [(n, (1, 1)) for n in product((1, -1), repeat=3)]
TWO_ORBITS = [(n, (2, 1)) for n in product((1, -1), repeat=3)] + [
    ((s, 0, 0), (3, 2)) for s in (1, -1)
]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.lists(
                st.tuples(
                    st.lists(
                        st.integers(min_value=-2, max_value=2),
                        min_size=d,
                        max_size=d,
                    ).filter(any),
                    st.tuples(
                        st.integers(min_value=-1, max_value=3),
                        st.sampled_from((1, 2)),
                    ),
                ),
                min_size=1,
                max_size=8,
            ),
        )
    ),
    st.sampled_from(("plain", "antiparallel", "mirrored", "boxed")),
)
@example((3, CROSS3), "plain")  # every vertex on 4 rows, d = 3
@example((3, TWO_ORBITS), "plain")  # two rows redundant, one a facet
# cuts the 2-face x1 = x4 = -2 off the 4-cube and touches its 2-face
# x2 = x3 = 2: some rays share d - 1 tight rows without being adjacent
@example((4, [((-1, 0, 0, -1), (2, 1)), ((0, 1, 1, 0), (4, 1))]), "boxed")
@example((2, [((1, 0), (-1, 1)), ((-1, 0), (-1, 1)),
              ((0, 1), (1, 1)), ((0, -1), (1, 1))]), "plain")  # empty
@example((2, [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((-1, 0), (1, 1))]),
         "antiparallel")  # lower-dimensional
@example((2, [((1, 1), (1, 1)), ((1, 0), (1, 1)), ((0, 1), (1, 1))]),
         "plain")  # unbounded, no antiparallel pair
@example((2, [((1, 0), (-1, 1)), ((-1, 0), (-1, 1)), ((0, 1), (1, 1))]),
         "plain")  # empty, with a nontrivial recession cone: unbounded
@example((3, [((1, 0, 0), (1, 1)), ((-1, 0, 0), (1, 1)),
              ((0, 1, 0), (1, 1)), ((0, -1, 0), (1, 1))]), "plain")  # rank 2
def test_double_description_matches_subset_loop(case, shape):
    """The built polytope, or the error raised, is the same from double
    description as from the brute force over d-subsets of rows, on rows
    with or without their antiparallel partners (the same offset, or the
    offset drawn for the row after it) or inside the box |x_i| <= 2,
    degenerate vertices, redundant rows, and empty, lower-dimensional
    and unbounded sets."""
    d, rows = case
    if shape == "boxed":
        rows = rows + [
            (tuple(s * int(i == j) for j in range(d)), (2, 1))
            for i in range(d)
            for s in (1, -1)
        ]
    elif shape == "antiparallel":
        rows = rows + [(tuple(-c for c in n), o) for n, o in rows]
    elif shape == "mirrored":
        rows = rows + [
            (tuple(-c for c in n), rows[(i + 1) % len(rows)][1])
            for i, (n, _) in enumerate(rows)
        ]
    hrep = HRep(d, tuple(hspace(n, rational(*o)) for n, o in rows))
    dd, brute = _build_both_ways(hrep)
    assert dd == brute


@pytest.mark.parametrize(
    "make, counts",
    [
        (lambda: build_polytope(generate("cube", dim=6).vrep()), (64, 12)),
        (lambda: build_polytope(generate("cross_polytope", dim=6).hrep()), (12, 64)),
        (
            # 96 rows, so C(96, 6) subsets: too many for the subset loop;
            # floating-point qhull counts the same 36 vertices and 96 facets
            lambda: generate("random_reflection_symmetric", dim=6, m=2, seed=1),
            (36, 96),
        ),
    ],
    ids=["cube6_from_points", "cross6_from_halfspaces", "random6m2"],
)
def test_dimension_six_counts(make, counts):
    """Builds that the subset loop could not finish in a test's time."""
    p = make()
    assert (len(p.vertices), len(p.halfspaces)) == counts
