"""Face lattice enumeration and an independent definition-level oracle.

The production path (enumerate_faces) is purely combinatorial: faces are
exactly the closed vertex sets under the incidence closure operator, and
every face is reachable by joining vertex atoms one at a time.  The
oracle path (brute_force_faces) never looks at the incidence table; it
goes back to supporting hyperplanes and exact linear programs, so the two
can disagree only if one of them is wrong.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .polytope import Polytope
from .ratgeom import QVector, affine_rank, kernel_basis
from . import simplex

__all__ = [
    "Face",
    "FaceLattice",
    "enumerate_faces",
    "brute_force_faces",
]


@dataclass(frozen=True)
class Face:
    """One nonempty face, recorded by its vertex ids (sorted).

    facet_ids lists every facet whose vertex set contains this face; it
    is empty exactly for the whole polytope.
    """

    vertex_ids: tuple
    dim: int
    facet_ids: tuple

    @property
    def sort_key(self):
        return (self.dim, self.vertex_ids)


class FaceLattice:
    """All nonempty faces of a polytope, the whole polytope included.

    faces are sorted by (dim, vertex_ids); f_vector[k] counts faces of
    dimension k for k = 0..dim, and total is their sum.  The empty face
    is never represented.
    """

    __slots__ = ("dim", "faces", "f_vector", "total")

    def __init__(self, dim: int, faces: Iterable[Face]):
        self.dim = dim
        self.faces = tuple(sorted(faces, key=lambda f: f.sort_key))
        counts = [0] * (dim + 1)
        for f in self.faces:
            counts[f.dim] += 1
        self.f_vector = tuple(counts)
        self.total = len(self.faces)

    def __iter__(self):
        return iter(self.faces)

    def __len__(self) -> int:
        return self.total

    def __repr__(self) -> str:
        return f"FaceLattice(dim={self.dim}, f_vector={self.f_vector})"


def _closure_mask(p: Polytope, vmask: int) -> tuple:
    """Closure of a vertex set as (vertex mask, facet mask).

    The closure is the intersection of all facets containing the set;
    when no facet contains it the closure is the whole polytope.
    """
    fmask = -1
    vfm = p.vertex_facet_masks
    rest = vmask
    while rest:
        low = rest & -rest
        fmask &= vfm[low.bit_length() - 1]
        rest ^= low
    if fmask == -1:
        fmask = (1 << len(p.halfspaces)) - 1
    if fmask == 0:
        return (1 << len(p.vertices)) - 1, 0
    out = -1
    fvm = p.facet_vertex_masks
    rest = fmask
    while rest:
        low = rest & -rest
        out &= fvm[low.bit_length() - 1]
        rest ^= low
    return out, fmask


def _bits(mask: int) -> tuple:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _face_from_vmask(p: Polytope, vmask: int) -> Face:
    ids = _bits(vmask)
    fmask = -1
    for i in ids:
        fmask &= p.vertex_facet_masks[i]
    if fmask == -1:
        fmask = 0
    dim = affine_rank([p.vertices[i] for i in ids])
    return Face(vertex_ids=ids, dim=dim, facet_ids=_bits(fmask))


def enumerate_faces(p: Polytope) -> FaceLattice:
    """Every nonempty face of p, by closing joins of vertex atoms.

    Breadth-first: start from the vertices, repeatedly adjoin one more
    atom and close.  Each chain of joins climbs the lattice, so every
    face is reached.
    """
    n = len(p.vertices)
    full = (1 << n) - 1
    atoms = []
    for i in range(n):
        amask, _ = _closure_mask(p, 1 << i)
        if amask != 1 << i:
            raise RuntimeError(f"vertex {i} is not its own closure")
        atoms.append(amask)

    known = set(atoms)
    queue = deque(atoms)
    while queue:
        cur = queue.popleft()
        if cur == full:
            continue
        for amask in atoms:
            if amask & cur:
                continue
            joined, _ = _closure_mask(p, cur | amask)
            if joined not in known:
                known.add(joined)
                queue.append(joined)
    known.add(full)

    faces = [_face_from_vmask(p, vmask) for vmask in known]
    lat = FaceLattice(p.dim, faces)
    if lat.f_vector[p.dim] != 1 or lat.f_vector[0] != n:
        raise RuntimeError(
            f"f-vector {lat.f_vector} needs one top face and {n} vertices"
        )
    return lat


# --- Definition-level oracle -------------------------------------------------

_ORACLE_MAX_DIM = 3
_ORACLE_MAX_VERTICES = 40


def _aff_complement_basis(points: list) -> list:
    """Basis of the orthogonal complement of the affine hull's directions.

    For a single point that is the whole space.  A point x lies in the
    affine hull iff (x - points[0]) is orthogonal to every basis vector.
    """
    d = len(points[0])
    if len(points) == 1:
        return [QVector.unit(d, i) for i in range(d)]
    base = points[0]
    return kernel_basis([q - base for q in points[1:]])


def _supports_exactly(p: Polytope, member_ids: frozenset, comp_basis: list) -> bool:
    """Whether some hyperplane through these vertices supports p with
    contact exactly this set.

    Equivalent separation form: such a hyperplane exists iff the affine
    hull of the set misses the hull of the remaining vertices, which is
    one exact feasibility question.
    """
    verts = p.vertices
    base = verts[min(member_ids)]
    others = [i for i in range(len(verts)) if i not in member_ids]

    m = simplex.Model()
    lam = {i: m.var(nonneg=True) for i in others}
    m.constrain({v: 1 for v in lam.values()}, "==", 1)
    for u in comp_basis:
        coeffs = {}
        for i in others:
            c = verts[i].dot(u)
            if c:
                coeffs[lam[i]] = c
        m.constrain(coeffs, "==", base.dot(u))
    return m.maximize({}).status == simplex.INFEASIBLE


def brute_force_faces(p: Polytope) -> FaceLattice:
    """Faces recomputed straight from the supporting-hyperplane definition.

    For every affinely independent seed subset of up to dim vertices,
    collect all vertices on the seed's affine hull, then decide by exact
    LP whether a hyperplane through that hull supports the polytope with
    exactly that contact set.  Completeness: a face of dimension k has
    an independent spanning subset of k+1 of its vertices, and the hull
    collection recovers the full vertex set of the face.

    Deliberately restricted to small instances; it exists to check
    enumerate_faces, not to replace it.
    """
    n = len(p.vertices)
    if p.dim > _ORACLE_MAX_DIM or n > _ORACLE_MAX_VERTICES:
        raise ValueError(
            f"oracle limited to dim <= {_ORACLE_MAX_DIM} and "
            f"{_ORACLE_MAX_VERTICES} vertices, got dim={p.dim}, n={n}"
        )
    verts = p.vertices

    candidates = {}
    for size in range(1, p.dim + 1):
        for seed in combinations(range(n), size):
            pts = [verts[i] for i in seed]
            if affine_rank(pts) != size - 1:
                continue
            comp = _aff_complement_basis(pts)
            base = pts[0]
            members = frozenset(
                i
                for i in range(n)
                if all((verts[i] - base).dot(u) == 0 for u in comp)
            )
            if members not in candidates:
                candidates[members] = comp

    face_masks = []
    for members in sorted(candidates, key=sorted):
        if _supports_exactly(p, members, candidates[members]):
            vmask = 0
            for i in members:
                vmask |= 1 << i
            face_masks.append(vmask)
    face_masks.append((1 << n) - 1)

    return FaceLattice(p.dim, [_face_from_vmask(p, vm) for vm in face_masks])
