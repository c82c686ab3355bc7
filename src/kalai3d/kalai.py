"""The witness construction: cones, minimal witness faces, certificates.

For an orthogonal basis b_1..b_d, every sign vector in {+1,-1,0}^d other
than all-zero names a cone: the combinations with weights >= 0 of the
selected signed basis vectors.  There are 3^d - 1 of them.  For each
cone this module finds the face of minimal dimension whose relative
interior meets the cone's relative interior, checks the strict-inclusion
condition on that face by vertex signs, and checks that distinct cones
received distinct faces.  Together with the polytope itself that
exhibits 3^d distinct nonempty faces, which is the whole point.

The witness face is read off vertex signs.  A point of relint(F) is a
combination of F's vertices with all weights positive, so x.b_i is 0 on
relint(F) when every vertex has v.b_i = 0, has the one strict sign when
only that sign occurs, and can be either sign or 0 when both occur.  The
cone of sign vector s can meet relint(F) only if each s_i is allowed in
this way.  When the d reflections R_i across the hyperplanes normal to
b_i are symmetries of P, which certify checks first, the converse holds
too.  If F has vertices of both signs on b_i, some point of relint(F)
has x.b_i = 0; R_i fixes it, so R_i maps F onto itself.  Averaging a
point of relint(F) over those reflections gives one with x.b_i = 0 for
every such i, and moving it a little toward reflected vertices of the
wanted signs gives a point of relint(F) in the open cone.  So the first
proper face in (dim, vertex_ids) order whose signs allow a cone is that
cone's witness, and one exact LP per cone produces the rational witness
point.  An LP that misses is a bug, not a verdict.

The pass runs on tables built once per certify call.  Per basis vector
two vertex bitmasks make a face's allowed signs two ANDs each.  The LP
rows hold only the face's vertex-basis dot products, signed by the
cone, from one integer table, so many cones pose the same integer rows
and the simplex runs once per distinct system.  Its weights, kept as
integers, and the integer vertices give each point coordinate as one
Rational.

Everything is exact: all recorded points are rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from .lattice import Face, enumerate_faces
from .polytope import Polytope
from .ratgeom import QVector, Rational, _integer_table
from .symmetry import SymmetryReport, verify_basis
from . import simplex

__all__ = [
    "ConeWitness",
    "Certificate",
    "enumerate_cones",
    "relint_meets_cone_interior",
    "certify",
]


def enumerate_cones(d: int) -> list:
    """All 3^d - 1 sign vectors, lexicographic with -1 < 0 < +1."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    return [s for s in product((-1, 0, 1), repeat=d) if any(s)]


class _Tables:
    """The integer tables of one certify call.

    verts[v] / den is vertex v; dots[v][i] and norms[i] are v.b_i and
    b_i.b_i times scale > 0, the smallest scale that makes them all
    integers; masks[i] has the vertices with v.b_i > 0 and those with
    v.b_i < 0; lps maps each witness LP to () when it misses, else to
    its integer weights and point denominator.
    """

    def __init__(self, p: Polytope, basis: Sequence[QVector]):
        self.verts, self.den = _integer_table(p.vertices)
        ints, bden = _integer_table(basis)
        scale = self.den * bden * bden
        dots = [[bden * sum(map(mul, x, b)) for b in ints] for x in self.verts]
        norms = [self.den * sum(map(mul, b, b)) for b in ints]
        g = gcd(scale, *norms, *(c for row in dots for c in row))
        self.scale = scale // g
        self.dots = [[c // g for c in row] for row in dots]
        self.norms = [c // g for c in norms]
        self.masks = [
            tuple(sum(1 << v for v, row in enumerate(self.dots) if s * row[i] > 0)
                  for s in (1, -1))
            for i in range(len(basis))
        ]
        self.lps: dict = {}


def relint_meets_cone_interior(
    face: Face, signs: tuple, t: _Tables
) -> Optional[QVector]:
    """Exact decision: does relint(face) meet the open cone?

    Solved as one LP.  Writing the candidate point as a convex
    combination x = sum(lambda_j w_j) of the face's vertices, we need
    every lambda_j >= eps, sum(lambda_j) = 1, x strict against each
    selected direction u = s b_i (x.u >= eps*(u.u)) and exactly zero
    against each unselected one, with eps maximized exactly.  The
    intersection is nonempty iff the optimum eps is positive; x at the
    optimum is then a rational point in both relative interiors.
    Internally lambda is substituted as mu + eps with mu >= 0, which
    shrinks the system without changing the feasible set or the optimum;
    the eps column of a row is then its row sum, less u.u on a selected
    row.

    Every row is the rational one times t.scale, so Bland's rule takes
    the same pivots, and the simplex runs only on integer rows not yet in
    t.lps.  The point is recombined from this face's vertices either way.
    """
    ids = face.vertex_ids
    k = len(ids)
    dots = t.dots
    rows, zero_rows = [], []
    for i, s in enumerate(signs):
        if s:
            row = tuple(s * dots[v][i] for v in ids)
            rows.append(row + (sum(row) - t.norms[i],))
        else:
            row = tuple(dots[v][i] for v in ids)
            zero_rows.append(row + (sum(row),))
    selected = len(rows)
    rows += zero_rows

    key = (selected, *rows)
    found = t.lps.get(key)
    if found is None:
        m = simplex.Model(k + 1)  # mu_1..mu_k, then eps
        m.constrain((t.scale,) * k + (k * t.scale,), simplex.EQ, t.scale)
        for j, row in enumerate(rows):
            m.constrain(row, simplex.GE if j < selected else simplex.EQ, 0)
        result = m.maximize([0] * k + [1])
        found = ()
        if result.status == simplex.OPTIMAL and result.x[-1] > 0:
            weights = [w + result.x[-1] for w in result.x[:-1]]
            lcd = lcm(*(w.denominator for w in weights))
            weights = [w.numerator * (lcd // w.denominator) for w in weights]
            found = weights, lcd * t.den
        elif result.status not in (simplex.OPTIMAL, simplex.INFEASIBLE):
            raise RuntimeError(f"witness LP {result.status}; eps is bounded by 1/k")
        t.lps[key] = found
    if not found:
        return None
    weights, den = found
    return QVector._of(tuple(
        Rational(sum(map(mul, weights, column)), den)
        for column in zip(*(t.verts[v] for v in ids))
    ))


_SIGNS = {(0, 0): (0,), (1, 0): (1,), (0, 1): (-1,), (1, 1): (-1, 0, 1)}


def _face_signs(face: Face, t: _Tables) -> tuple:
    """Per basis vector b_i, the signs x.b_i can take on relint(face):
    (0,) when every vertex has v.b_i = 0, the one strict sign when only
    that sign occurs, and (-1, 0, 1) when both occur."""
    vmask = sum(1 << v for v in face.vertex_ids)
    return tuple(
        _SIGNS[bool(vmask & pos), bool(vmask & neg)] for pos, neg in t.masks
    )


def _inclusion_ok(allowed: tuple, signs: tuple) -> bool:
    """Vertex-sign form of the strict inclusion of relint(face) in the
    open halfspace system of the cone: on every selected direction the
    face's allowed signs are exactly the cone's sign."""
    return all(a == (s,) for a, s in zip(allowed, signs) if s)


@dataclass(frozen=True)
class ConeWitness:
    """The face assigned to the cone of sign vector signs, plus the
    exact meeting point.

    point lies in the relative interior of face and strictly inside the
    cone; inclusion_ok records the vertex-sign check that the whole
    relative interior sits strictly inside the cone's halfspace system.
    """

    signs: tuple
    face: Face
    point: QVector
    inclusion_ok: bool


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable record of the whole construction on one input.

    witnesses holds one entry per cone sign vector, in enumerate_cones
    order, or is empty when a hypothesis fails.  verdict is the conjunction of every
    check, including that the face count reached 3^d.
    """

    dim: int
    symmetry: SymmetryReport
    f_vector: tuple
    total: int
    witnesses: tuple
    injective: bool
    distinct_faces_count: int
    verdict: bool

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "symmetry": self.symmetry.to_json_dict(),
            "f_vector": list(self.f_vector),
            "total": self.total,
            "cones": [
                {
                    "signs": list(w.signs),
                    "face_vertices": list(w.face.vertex_ids),
                    "face_dim": w.face.dim,
                    "witness_point": [str(c) for c in w.point],
                    "inclusion_ok": w.inclusion_ok,
                }
                for w in self.witnesses
            ],
            "injective": self.injective,
            "distinct_faces": self.distinct_faces_count,
            "verdict": self.verdict,
        }


def certify(p: Polytope, basis: Sequence[QVector]) -> Certificate:
    """Run every check and assemble the certificate.

    Hypothesis failures (central symmetry, basis orthogonality, a broken
    reflection) short-circuit the witness search: the certificate then
    carries the face counts, the failure description, and verdict False
    with an empty witness list.

    Otherwise the reflections are symmetries of p, so vertex signs pick
    each cone's witness exactly (see the module docstring): every proper
    face, in lattice order, takes the cones its allowed signs admit and
    no earlier face took.  Every cone is taken, because the ray along
    its sign vector leaves p through the relative interior of a proper
    face.  One LP per cone then yields the witness point, and the
    simplex runs once per distinct LP: the tables of this call hold
    each result, so nothing outlives the call.  A miss raises
    RuntimeError, since it can only be a bug.

    Deterministic end to end.
    """
    report = verify_basis(p, basis)
    lat = enumerate_faces(p)
    bound = 3**p.dim
    witnesses = []
    if report.hypotheses_hold:
        t = _Tables(p, basis)
        taken: dict = {}
        for face in lat.faces:
            if face.dim < p.dim:
                allowed = _face_signs(face, t)
                for signs in product(*allowed):
                    taken.setdefault(signs, (face, allowed))
        for signs in enumerate_cones(p.dim):
            face, allowed = taken[signs]
            point = relint_meets_cone_interior(face, signs, t)
            if point is None:
                raise RuntimeError(
                    f"the witness LP of cone {signs} misses face "
                    f"{face.vertex_ids}, whose vertex signs admit it"
                )
            ok = _inclusion_ok(allowed, signs)
            witnesses.append(ConeWitness(signs, face, point, ok))
    distinct = {w.face.vertex_ids for w in witnesses}
    injective = bool(witnesses) and len(distinct) == len(witnesses)
    # the polytope itself is the 3^d-th face
    distinct_count = len(distinct) + 1 if witnesses else 0
    verdict = (
        injective
        and all(w.inclusion_ok for w in witnesses)
        and distinct_count == bound
        and lat.total >= bound
    )
    return Certificate(
        dim=p.dim,
        symmetry=report,
        f_vector=lat.f_vector,
        total=lat.total,
        witnesses=tuple(witnesses),
        injective=injective,
        distinct_faces_count=distinct_count,
        verdict=verdict,
    )
