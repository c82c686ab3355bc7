"""Hypothesis checks: hyperplane reflection symmetry and central symmetry.

The one hypothesis is that reflecting across the hyperplane normal to
each of d pairwise orthogonal basis vectors permutes the vertex set.
Those d reflections compose to -I, so when they all hold the vertex set
also equals its own negation: central symmetry follows and needs no
separate test.  It is tested only when a reflection check fails, so
that the report can still say whether the polytope is centrally
symmetric.

The checks run in integers, on the vertices and the basis each scaled
by the lcm of its denominators.  A reflection divides by b.b only, so
for integer rows x and b every image (b.b) x - 2 (x.b) b must lie in
the set of the (b.b) x: that is the rational image x - 2 (x.b)/(b.b) b
times b.b and the vertex denominator.  The test is an exact set
comparison, never a tolerance test.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Optional, Sequence

from .polytope import InputError, Polytope
from .ratgeom import QVector, _integer_table

__all__ = [
    "SymmetryReport",
    "standard_basis",
    "is_centrally_symmetric",
    "verify_basis",
]


@dataclass(frozen=True)
class SymmetryReport:
    """Outcome of the two hypothesis checks on one polytope.

    failing_vector is the index of the first basis vector that broke
    either orthogonality or reflection symmetry, or None.  details is a
    human-readable account of the first failure (or of success).
    """

    centrally_symmetric: bool
    basis_verified: bool
    failing_vector: Optional[int]
    details: str

    @property
    def hypotheses_hold(self) -> bool:
        return self.centrally_symmetric and self.basis_verified

    def to_json_dict(self) -> dict:
        return {
            "centrally_symmetric": self.centrally_symmetric,
            "basis_verified": self.basis_verified,
            "failing_vector": self.failing_vector,
            "details": self.details,
        }


def standard_basis(dim: int) -> tuple:
    """The coordinate basis e_1 .. e_dim."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    return tuple(QVector.unit(dim, i) for i in range(dim))


def is_centrally_symmetric(p: Polytope) -> bool:
    """Whether the vertex set equals its pointwise negation."""
    vset = set(p.vertices)
    return {-v for v in vset} == vset


def verify_basis(p: Polytope, basis: Sequence[QVector]) -> SymmetryReport:
    """Check every hypothesis the witness construction relies on.

    This is the one check of a basis: a zero or non-orthogonal vector is
    reported as a failed check, not raised, so a user-supplied basis
    gets a report.  A wrong vector count or length is still an error:
    there is nothing meaningful to report against the wrong dimension.
    """
    if len(basis) != p.dim:
        raise InputError(f"expected {p.dim} basis vectors, got {len(basis)}")
    if any(len(v) != p.dim for v in basis):
        raise InputError("basis vector length differs from polytope dimension")

    def report(failing: int, details: str) -> SymmetryReport:
        central = is_centrally_symmetric(p)
        if not central:
            details = f"the vertex set is not centrally symmetric; {details}"
        return SymmetryReport(
            centrally_symmetric=central,
            basis_verified=False,
            failing_vector=failing,
            details=details,
        )

    ints, _ = _integer_table(basis)
    for i, b in enumerate(ints):
        if not any(b):
            return report(i, f"basis vector {i} is zero")
    for i in range(len(ints)):
        for j in range(i + 1, len(ints)):
            if sum(map(mul, ints[i], ints[j])):
                return report(j, f"basis vectors {i} and {j} are not orthogonal")

    verts, _ = _integer_table(p.vertices)
    for i, b in enumerate(ints):
        bb = sum(map(mul, b, b))
        scaled = {tuple(bb * c for c in x) for x in verts}
        for x in verts:
            t = 2 * sum(map(mul, x, b))
            if tuple(bb * c - t * e for c, e in zip(x, b)) not in scaled:
                return report(
                    i,
                    f"reflection across the hyperplane normal to basis vector {i} "
                    "does not preserve the vertex set",
                )

    return SymmetryReport(
        centrally_symmetric=True,
        basis_verified=True,
        failing_vector=None,
        details=(
            "centrally symmetric; "
            f"all {len(basis)} reflection symmetries verified"
        ),
    )
