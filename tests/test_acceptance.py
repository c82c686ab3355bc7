"""Acceptance gate.

Eight release criteria, each printing one "ACCEPTANCE k PASS/FAIL" line
(run pytest with -s to see them as they go).  Every comparison is exact
rational arithmetic; the only tolerances anywhere are the stated runtime
budgets.
"""

import json
import random
import time
from contextlib import contextmanager
from math import comb

import pytest

from kalai3d.cli import main
from kalai3d.fileio import format_polytope_text
from kalai3d.kalai import certify, enumerate_cones
from kalai3d.lattice import brute_force_faces, enumerate_faces
from kalai3d.polytope import VRep, build_polytope, facets_from_vrep, generate, vertices_from_hrep
from kalai3d.ratgeom import QVector, rational
from kalai3d.symmetry import standard_basis

from reference import reflect
from test_symmetry import HEXAGON_POINTS


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {desc}")
        raise
    print(f"ACCEPTANCE {num} PASS: {desc}")


# Frozen instance specs: (dim, orbit count, seed).  Chosen once so the
# whole gate is deterministic; every seed below was checked to produce a
# bounded instance within the generator's retry budget.
ORACLE_SPECS = tuple(
    ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4))[i % 6] + (1000 + i,)
    for i in range(25)
)
SWEEP_SPECS = (
    tuple((2, (2, 3, 4)[i % 3], 2000 + i) for i in range(40))
    + tuple((3, (1, 2, 3)[i % 3], 3000 + i) for i in range(40))
    + tuple((4, (1, 2)[i % 2], 4000 + i) for i in range(20))
)


def _random_instance(spec):
    d, m, seed = spec
    return generate("random_reflection_symmetric", dim=d, m=m, seed=seed)


@pytest.fixture(scope="module")
def oracle_instances():
    return tuple(_random_instance(s) for s in ORACLE_SPECS)


@pytest.fixture(scope="module")
def sweep_instances():
    return tuple(_random_instance(s) for s in SWEEP_SPECS)


def test_criterion_1_cone_count():
    with criterion(1, "cone count is 3^d - 1 for d = 1..8 in under 1 s"):
        start = time.monotonic()
        for d in range(1, 9):
            assert len(enumerate_cones(d)) == 3**d - 1
        assert time.monotonic() - start < 1.0


def test_criterion_2_cube_family():
    with criterion(2, "cube family certifies exactly for d = 1..5 (d = 5 under 60 s)"):
        elapsed_d5 = None
        for d in range(1, 6):
            start = time.monotonic()
            cert = certify(generate("cube", dim=d), standard_basis(d))
            elapsed = time.monotonic() - start
            assert cert.verdict
            assert cert.total == 3**d
            expected = tuple(comb(d, k) * 2 ** (d - k) for k in range(d)) + (1,)
            assert cert.f_vector == expected
            assert all(w is not None for w in cert.witnesses)
            distinct = {w.face.vertex_ids for w in cert.witnesses}
            assert len(distinct) == 3**d - 1
            if d == 5:
                elapsed_d5 = elapsed
        assert elapsed_d5 < 60.0


def test_criterion_3_cross_polytope_family():
    with criterion(3, "cross-polytope family certifies with total 3^d for d = 1..4 (d = 4 under 60 s)"):
        elapsed_d4 = None
        for d in range(1, 5):
            start = time.monotonic()
            cert = certify(generate("cross_polytope", dim=d), standard_basis(d))
            elapsed = time.monotonic() - start
            assert cert.verdict
            assert cert.total == 3**d
            if d == 3:
                assert cert.f_vector == (6, 12, 8, 1)
            if d == 4:
                elapsed_d4 = elapsed
        assert elapsed_d4 < 60.0


def test_criterion_4_product_closure():
    with criterion(4, "product of cube(2) and cross(2) certifies with total 81 = 9 * 9"):
        a = generate("cube", dim=2)
        b = generate("cross_polytope", dim=2)
        p = generate("product", factors=(a, b))
        cert = certify(p, standard_basis(4))
        assert cert.verdict
        assert cert.total == 3**4 == 81
        total_a = enumerate_faces(a).total
        total_b = enumerate_faces(b).total
        assert cert.total == total_a * total_b


def test_criterion_5_oracle_equivalence(oracle_instances):
    with criterion(5, "face enumeration matches the brute-force oracle on 25 random instances"):
        assert len(oracle_instances) == 25
        mismatches = 0
        for p in oracle_instances:
            fast = [(f.dim, f.vertex_ids) for f in enumerate_faces(p)]
            slow = [(f.dim, f.vertex_ids) for f in brute_force_faces(p)]
            if fast != slow:
                mismatches += 1
        assert mismatches == 0


def test_criterion_6_certification_sweep(sweep_instances):
    with criterion(6, "certificates hold on 100 random instances across d = 2, 3, 4"):
        assert len(sweep_instances) == 100
        assert {p.dim for p in sweep_instances} == {2, 3, 4}
        for p in sweep_instances:
            cert = certify(p, standard_basis(p.dim))
            assert cert.verdict
            assert cert.total >= 3**p.dim
            assert all(w is not None and w.inclusion_ok for w in cert.witnesses)
            assert cert.injective


def test_criterion_7_hypothesis_sensitivity(tmp_path, capsys):
    with criterion(7, "hypothesis failures are reported precisely with exit code 1"):
        simplex = tmp_path / "simplex2.vpoly"
        simplex.write_text("V 2 3\n1 0\n0 1\n-1 -1\n")
        code = main(["certify", str(simplex)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["verdict"] is False
        assert doc["symmetry"]["centrally_symmetric"] is False

        hexagon = tmp_path / "hexagon.vpoly"
        hexagon.write_text(format_polytope_text(VRep(2, HEXAGON_POINTS)))
        code = main(["certify", str(hexagon)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["verdict"] is False
        assert doc["symmetry"]["centrally_symmetric"] is True
        assert doc["symmetry"]["basis_verified"] is False


def test_criterion_8_exact_roundtrips(oracle_instances, sweep_instances):
    with criterion(8, "representation roundtrips and reflections are exact"):
        named = [
            *(generate("cube", dim=d) for d in range(1, 5)),
            *(generate("cross_polytope", dim=d) for d in range(1, 5)),
            generate("product", factors=(generate("cube", dim=2),
                                         generate("cross_polytope", dim=2))),
            build_polytope(VRep(2, HEXAGON_POINTS)),
        ]
        for p in (*named, *oracle_instances, *sweep_instances):
            hrep = facets_from_vrep(VRep(p.dim, p.vertices)).hrep()
            again = vertices_from_hrep(hrep)
            assert again.vertices == p.vertices
            assert again.halfspaces == p.halfspaces
            assert again.incidence == p.incidence

        rng = random.Random(8)

        def random_vector(dim):
            return QVector([
                rational(rng.randint(-100, 100), rng.randint(1, 10))
                for _ in range(dim)
            ])

        checked = 0
        while checked < 1000:
            dim = rng.randint(1, 6)
            x = random_vector(dim)
            v = random_vector(dim)
            if v.is_zero():
                continue
            assert reflect(reflect(x, v), v) == x
            checked += 1
