"""Face lattice enumeration against frozen counts and the LP oracle."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kalai3d import lattice
from kalai3d.lattice import _bits, brute_force_faces, enumerate_faces
from kalai3d.polytope import VRep, build_polytope, generate
from kalai3d.ratgeom import QVector, affine_rank, rational

import reference


def qv(*coords):
    return QVector(coords)


def closure(p, vertex_ids):
    """Smallest face of p containing the given vertices, as vertex ids."""
    vmask = 0
    for i in vertex_ids:
        vmask |= 1 << i
    return frozenset(_bits(reference.closure_mask(p, vmask)))


def lattice_fingerprint(lat):
    return [(f.vertex_ids, f.dim) for f in lat.faces]


# Frozen from the closed forms: a d-cube has binom(d,k) * 2^(d-k) faces of
# dimension k, and the cross polytope mirrors the cube's list.
CUBE_FVECTORS = {
    1: (2, 1),
    2: (4, 4, 1),
    3: (8, 12, 6, 1),
    4: (16, 32, 24, 8, 1),
}
CROSS_FVECTORS = {
    1: (2, 1),
    2: (4, 4, 1),
    3: (6, 12, 8, 1),
    4: (8, 24, 32, 16, 1),
}


class TestClosure:
    def test_square_cases(self):
        p = generate("cube", dim=2)
        # vertices sorted: 0=(-1,-1) 1=(-1,1) 2=(1,-1) 3=(1,1)
        assert closure(p, [0]) == {0}
        assert closure(p, [0, 1]) == {0, 1}
        assert closure(p, [0, 3]) == {0, 1, 2, 3}
        assert closure(p, []) == set()

    def test_monotone_and_idempotent(self):
        p = generate("cross_polytope", dim=3)
        for s in ([0], [0, 1], [2, 4], [0, 1, 2]):
            c = closure(p, s)
            assert set(s) <= c
            assert closure(p, c) == c


# A square whose incidence puts vertices 0 and 1 on the same two facets,
# so neither is its own closure.  Printed: __debug__ and the error.
BROKEN_SQUARE = """
from kalai3d.lattice import enumerate_faces
from kalai3d.polytope import Polytope, generate
sq = generate("cube", dim=2)
bad = Polytope(2, sq.vertices, sq.halfspaces, ((0, 1), (0, 1), (2, 3), (2, 3)))
try:
    enumerate_faces(bad)
except RuntimeError as exc:
    print(__debug__, exc)
"""


class TestEnumerateFaces:
    @pytest.mark.parametrize("flags", [[], ["-O"]])
    def test_broken_incidence_raises(self, flags):
        """The invariant holds under python -O, which strips asserts."""
        src = Path(lattice.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, *flags, "-c", BROKEN_SQUARE],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True,
        )
        assert proc.stdout == f"{not flags} vertex 0 is not its own closure\n"

    @pytest.mark.parametrize("d,expected", sorted(CUBE_FVECTORS.items()))
    def test_cube_fvector(self, d, expected):
        lat = enumerate_faces(generate("cube", dim=d))
        assert lat.f_vector == expected
        assert lat.total == 3**d

    @pytest.mark.parametrize("d,expected", sorted(CROSS_FVECTORS.items()))
    def test_cross_fvector(self, d, expected):
        lat = enumerate_faces(generate("cross_polytope", dim=d))
        assert lat.f_vector == expected
        assert lat.total == 3**d

    def test_triangle(self):
        p = build_polytope(VRep(2, (qv(0, 0), qv(1, 0), qv(0, 1))))
        lat = enumerate_faces(p)
        assert lat.f_vector == (3, 3, 1)
        assert lat.total == 7

    def test_prism_is_combinatorial_cube(self):
        p = generate(
            "product",
            factors=(generate("cube", dim=1), generate("cross_polytope", dim=2)),
        )
        assert enumerate_faces(p).f_vector == (8, 12, 6, 1)

    def test_faces_sorted_and_unique(self):
        lat = enumerate_faces(generate("cross_polytope", dim=3))
        keys = [f.sort_key for f in lat.faces]
        assert keys == sorted(keys)
        assert len(set(f.vertex_ids for f in lat.faces)) == lat.total

    def test_face_closure_fixed_points(self):
        p = generate("cube", dim=3)
        lat = enumerate_faces(p)
        for f in lat.faces:
            assert closure(p, f.vertex_ids) == set(f.vertex_ids)

    def test_facet_faces_match_incidence(self):
        p = generate("cross_polytope", dim=3)
        lat = enumerate_faces(p)
        facet_faces = [f for f in lat.faces if f.dim == p.dim - 1]
        assert sorted(f.vertex_ids for f in facet_faces) == sorted(p.incidence)


def small_polytopes():
    """Cubes, cross-polytopes, their products and random reflection
    symmetric polytopes, of dimension at most 5."""
    family = st.sampled_from(("cube", "cross_polytope"))
    plain = st.builds(lambda f, d: generate(f, dim=d), family, st.integers(1, 5))
    product = st.builds(
        lambda f, g, a, b: generate(
            "product", factors=(generate(f, dim=a), generate(g, dim=b))
        ),
        family, family, st.integers(1, 3), st.integers(1, 2),
    )
    random = st.builds(
        lambda d, m, seed: generate(
            "random_reflection_symmetric", dim=d, m=m, seed=seed
        ),
        st.integers(2, 5), st.integers(1, 2), st.integers(0, 10**6),
    )
    return st.one_of(plain, product, random)


@settings(max_examples=40, deadline=None)
@given(small_polytopes())
def test_matches_closure_per_join(p):
    """The incremental closure finds the faces and dimensions that closing
    every join of a face with a vertex atom one at a time finds."""
    assert lattice_fingerprint(enumerate_faces(p)) == reference.face_lattice(p)


class TestFaceDimensions:
    """Dimensions counted cover by cover against the affine rank of each
    face's vertices, beyond the oracle's reach of dimension 3."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: generate("cube", dim=5),
            lambda: generate("cube", dim=6),
            lambda: generate("cross_polytope", dim=5),
            lambda: generate(
                "product",
                factors=(generate("cube", dim=2), generate("cross_polytope", dim=3)),
            ),
            lambda: generate("random_reflection_symmetric", dim=4, m=2, seed=1),
            lambda: generate("random_reflection_symmetric", dim=5, m=1, seed=1),
        ],
        ids=["cube5", "cube6", "cross5", "cube2xcross3", "random4m2", "random5m1"],
    )
    def test_dim_is_affine_rank(self, make):
        p = make()
        lat = enumerate_faces(p)
        for f in lat.faces:
            assert f.dim == affine_rank([p.vertices[i] for i in f.vertex_ids])


class TestRelintPoint:
    def test_exactly_the_tight_facets(self):
        """The vertex barycenter of a face lies in its relative interior,
        so it sits on a facet boundary iff the face lies in that facet."""
        p = generate("cross_polytope", dim=3)
        lat = enumerate_faces(p)
        for f in lat.faces:
            x = QVector.zero(p.dim)
            for i in f.vertex_ids:
                x = x + p.vertices[i]
            x = rational(1, len(f.vertex_ids)) * x
            for j, h in enumerate(p.halfspaces):
                assert h.normal.dot(x) <= h.offset
                assert (h.normal.dot(x) == h.offset) == (
                    set(f.vertex_ids) <= set(p.incidence[j])
                )


class TestBruteForceOracle:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: generate("cube", dim=1),
            lambda: generate("cube", dim=2),
            lambda: generate("cube", dim=3),
            lambda: generate("cross_polytope", dim=3),
            lambda: build_polytope(VRep(2, (qv(0, 0), qv(1, 0), qv(0, 1)))),
            lambda: build_polytope(
                VRep(2, (qv(2, 1), qv(1, 2), qv(-1, 1), qv(-2, -1), qv(-1, -2), qv(1, -1)))
            ),
        ],
    )
    def test_agrees_with_enumeration(self, make):
        p = make()
        assert lattice_fingerprint(brute_force_faces(p)) == lattice_fingerprint(
            enumerate_faces(p)
        )

    def test_agrees_on_random_instances(self):
        for seed in range(4):
            p = generate("random_reflection_symmetric", dim=2, m=2, seed=seed)
            assert lattice_fingerprint(brute_force_faces(p)) == lattice_fingerprint(
                enumerate_faces(p)
            )

    def test_guardrail(self):
        with pytest.raises(ValueError, match="oracle"):
            brute_force_faces(generate("cube", dim=4))
