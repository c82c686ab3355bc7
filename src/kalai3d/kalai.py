"""The witness construction: cones, minimal witness faces, certificates.

For an orthogonal basis b_1..b_d, every sign vector in {+1,-1,0}^d other
than all-zero names a cone: the combinations with weights >= 0 of the
selected signed basis vectors.  There are 3^d - 1 of them.  For each
cone this module finds the face of minimal dimension whose relative
interior meets the cone's relative interior, checks the strict-inclusion
condition on that face by vertex signs, and checks that distinct cones
received distinct faces.  Together with the polytope itself that
exhibits 3^d distinct nonempty faces, which is the whole point.

Everything is exact: the meeting question is one rational LP per
(face, cone) pair, and all recorded points are rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

from .lattice import Face, FaceLattice, enumerate_faces
from .polytope import Polytope
from .ratgeom import QVector, format_rational
from .symmetry import SymmetryReport, verify_basis
from . import simplex

__all__ = [
    "SignedSubset",
    "ConeWitness",
    "Certificate",
    "enumerate_cones",
    "relint_meets_cone_interior",
    "WitnessSearch",
    "certify",
]


@dataclass(frozen=True)
class SignedSubset:
    """A choice of sign (+1, -1, or absent) for each basis vector."""

    signs: tuple

    def __post_init__(self):
        signs = tuple(int(s) for s in self.signs)
        if not signs:
            raise ValueError("empty sign vector")
        if any(s not in (-1, 0, 1) for s in signs):
            raise ValueError(f"signs must be -1, 0, or +1: {signs}")
        if not any(signs):
            raise ValueError("all-zero sign vector selects no cone")
        object.__setattr__(self, "signs", signs)

    def selected(self) -> tuple:
        """(index, sign) pairs for the nonzero entries."""
        return tuple((i, s) for i, s in enumerate(self.signs) if s)

    def unselected(self) -> tuple:
        return tuple(i for i, s in enumerate(self.signs) if not s)

    def __len__(self) -> int:
        return len(self.signs)


def enumerate_cones(d: int) -> list:
    """All 3^d - 1 sign vectors, lexicographic with -1 < 0 < +1."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    return [
        SignedSubset(signs)
        for signs in product((-1, 0, 1), repeat=d)
        if any(signs)
    ]


def relint_meets_cone_interior(
    face: Face,
    subset: SignedSubset,
    dots: Sequence,
    norms: Sequence,
    p: Polytope,
) -> Optional[QVector]:
    """Exact decision: does relint(face) meet the open cone?

    dots[v][i] is the dot product of vertex v with basis vector b_i and
    norms[i] is b_i.b_i, as WitnessSearch holds them.  Solved as one LP.
    Writing the candidate point as a convex combination
    x = sum(lambda_j w_j) of the face's vertices, we need every
    lambda_j >= eps, sum(lambda_j) = 1, x strict against each selected
    direction u = s b_i (x.u >= eps*(u.u)) and exactly zero against each
    unselected one, with eps maximized exactly.  The intersection is
    nonempty iff the optimum eps is positive; x at the optimum is then a
    rational point in both relative interiors.  Internally lambda is
    substituted as mu + eps with mu >= 0, which shrinks the system
    without changing the feasible set or the optimum; the eps column of
    a row is then its row sum, less u.u on a selected row.
    """
    ids = face.vertex_ids
    k = len(ids)

    m = simplex.Model(k + 1)  # mu_1..mu_k, then eps
    m.constrain([1] * k + [k], "==", 1)
    for i, s in subset.selected():
        row = [s * dots[v][i] for v in ids]
        m.constrain(row + [sum(row) - norms[i]], ">=", 0)
    for i in subset.unselected():
        row = [dots[v][i] for v in ids]
        m.constrain(row + [sum(row)], "==", 0)

    result = m.maximize([0] * k + [1])
    if result.status == simplex.INFEASIBLE:
        return None
    if result.status != simplex.OPTIMAL:
        raise RuntimeError(f"witness LP {result.status}; eps is bounded by 1/k")
    eps_star = result.x[-1]
    if eps_star <= 0:
        return None
    x = QVector.zero(p.dim)
    for j, v in enumerate(ids):
        x = x + (result.x[j] + eps_star) * p.vertices[v]
    return x


class WitnessSearch:
    """Face scanner for one (polytope, lattice, basis) triple.

    Holds every vertex-basis dot product, the squared basis norms, and
    per-face min/max ranges of the dot products.  That one table feeds
    the cheap sign screens shared by all 3^d - 1 cones, the witness LP of
    each face that passes them, and the inclusion check on the face
    found.  The screens are necessary conditions, so they never change
    which face is selected, only how fast it is found.
    """

    def __init__(self, p: Polytope, lat: FaceLattice, basis: Sequence[QVector]):
        self.p = p
        self.lat = lat
        self._dots = [[v.dot(b) for b in basis] for v in p.vertices]
        self._norms = [b.dot(b) for b in basis]
        self._ranges: dict = {}

    def _range(self, face_index: int, basis_index: int) -> tuple:
        key = (face_index, basis_index)
        cached = self._ranges.get(key)
        if cached is None:
            vals = [
                self._dots[v][basis_index]
                for v in self.lat.faces[face_index].vertex_ids
            ]
            cached = (min(vals), max(vals))
            self._ranges[key] = cached
        return cached

    def _screens_pass(self, face_index: int, subset: SignedSubset) -> bool:
        for i, s in subset.selected():
            lo, hi = self._range(face_index, i)
            # x.u > 0 for a positive convex combination needs a positive term
            if (hi if s > 0 else -lo) <= 0:
                return False
        for i in subset.unselected():
            lo, hi = self._range(face_index, i)
            # x.b = 0 with all-positive weights needs mixed or all-zero signs
            if not (lo < 0 < hi or (lo == 0 and hi == 0)):
                return False
        return True

    def inclusion_holds(self, face_index: int, subset: SignedSubset) -> bool:
        """Vertex-sign form of the strict inclusion of relint(face) in
        the open halfspace system of the cone: against every selected
        direction no vertex is negative and some vertex is positive."""
        for i, s in subset.selected():
            lo, hi = self._range(face_index, i)
            if s < 0:
                lo, hi = -hi, -lo
            if lo < 0 or hi <= 0:
                return False
        return True

    def find(self, subset: SignedSubset) -> Optional["ConeWitness"]:
        """First proper face, in (dim, vertex_ids) order, whose relative
        interior meets the open cone; None when there is none."""
        for fi, face in enumerate(self.lat.faces):
            if face.dim >= self.p.dim:
                break  # faces are sorted by dimension; only the top remains
            if not self._screens_pass(fi, subset):
                continue
            point = relint_meets_cone_interior(
                face, subset, self._dots, self._norms, self.p
            )
            if point is not None:
                return ConeWitness(
                    subset=subset,
                    face=face,
                    point=point,
                    inclusion_ok=self.inclusion_holds(fi, subset),
                )
        return None


@dataclass(frozen=True)
class ConeWitness:
    """The face assigned to one cone, plus the exact meeting point.

    point lies in the relative interior of face and strictly inside the
    cone; inclusion_ok records the vertex-sign check that the whole
    relative interior sits strictly inside the cone's halfspace system.
    """

    subset: SignedSubset
    face: Face
    point: QVector
    inclusion_ok: bool


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable record of the whole construction on one input.

    witnesses holds one entry per cone in enumerate_cones order; an
    entry is None when no face was found (hypothesis violation).
    verdict is the conjunction of every check, including that the face
    count reached 3^d.
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
        cones = []
        for subset, w in zip(enumerate_cones(self.dim), self.witnesses):
            if w is None:
                cones.append(
                    {
                        "signs": list(subset.signs),
                        "face_vertices": None,
                        "face_dim": None,
                        "witness_point": None,
                        "inclusion_ok": None,
                    }
                )
            else:
                cones.append(
                    {
                        "signs": list(w.subset.signs),
                        "face_vertices": list(w.face.vertex_ids),
                        "face_dim": w.face.dim,
                        "witness_point": [format_rational(c) for c in w.point],
                        "inclusion_ok": w.inclusion_ok,
                    }
                )
        return {
            "dim": self.dim,
            "symmetry": self.symmetry.to_json_dict(),
            "f_vector": list(self.f_vector),
            "total": self.total,
            "cones": cones,
            "injective": self.injective,
            "distinct_faces": self.distinct_faces_count,
            "verdict": self.verdict,
        }


def certify(p: Polytope, basis: Sequence[QVector]) -> Certificate:
    """Run every check and assemble the certificate.

    Hypothesis failures (central symmetry, basis orthogonality, a broken
    reflection) short-circuit the witness scan: the certificate then
    carries the face counts, the failure description, and verdict False
    with an empty witness list.

    Deterministic end to end; distinct cones could be dispatched in
    parallel without changing the result, since the face lattice and
    polytope are immutable and assembly is order-independent.
    """
    report = verify_basis(p, basis)
    lat = enumerate_faces(p)
    bound = 3**p.dim

    if not report.hypotheses_hold:
        return Certificate(
            dim=p.dim,
            symmetry=report,
            f_vector=lat.f_vector,
            total=lat.total,
            witnesses=(),
            injective=False,
            distinct_faces_count=0,
            verdict=False,
        )

    search = WitnessSearch(p, lat, basis)
    witnesses = tuple(search.find(subset) for subset in enumerate_cones(p.dim))
    found = [w for w in witnesses if w is not None]
    all_found = len(found) == len(witnesses)
    distinct = {w.face.vertex_ids for w in found}
    injective = all_found and len(distinct) == len(found)
    distinct_count = len(distinct) + 1  # the polytope itself is the 3^d-th face

    verdict = (
        all_found
        and all(w.inclusion_ok for w in found)
        and injective
        and distinct_count == bound
        and lat.total >= bound
    )
    return Certificate(
        dim=p.dim,
        symmetry=report,
        f_vector=lat.f_vector,
        total=lat.total,
        witnesses=witnesses,
        injective=injective,
        distinct_faces_count=distinct_count,
        verdict=verdict,
    )
