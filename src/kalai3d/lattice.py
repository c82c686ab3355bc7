"""Face lattice enumeration and an independent definition-level oracle.

The production path (enumerate_faces) is purely combinatorial: it reads
only the vertex-facet incidence, as bitmasks.  The faces are exactly the
closed vertex sets under the incidence closure operator, every face is
reachable by joining vertex atoms one at a time, and a face's dimension
is its height in the lattice, counted cover by cover.  Each face is
known by the mask of the facets containing it, so a join is one AND of
facet masks, and each distinct join is closed once.  Only the oracle path
(brute_force_faces) uses geometry: it never looks at the incidence table
but goes back to supporting hyperplanes, exact linear programs and the
affine rank of each face's vertices, so the two can disagree only if one
of them is wrong.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .polytope import Polytope, _bits
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
    """One nonempty face, recorded by its vertex ids (sorted)."""

    vertex_ids: tuple
    dim: int

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


def _vertex_mask(p: Polytope, fmask: int) -> int:
    """Vertex mask of the vertices on every facet in fmask; every vertex
    when fmask is 0, since then the face is the whole polytope."""
    out = (1 << len(p.vertices)) - 1
    fvm = p.facet_vertex_masks
    while fmask:
        low = fmask & -fmask
        out &= fvm[low.bit_length() - 1]
        fmask ^= low
    return out


def enumerate_faces(p: Polytope) -> FaceLattice:
    """Every nonempty face of p, by climbing covers from the vertices.

    Breadth-first, after Kaibel & Pfetsch (2002), with each face keyed by
    its facet mask.  The join of a face F with a vertex atom a has facet
    mask F & vfm[a], which is F's own for an atom of F.  The atoms are
    counted per distinct mask, and each mask is closed once.  A join H
    covers F exactly when every vertex of H outside F closes with F to
    H, that is, when H is reached |H| - |F| times; a face strictly
    between F and H would capture some of those vertices.  Only covers
    are queued, one dimension above F.  Every face lies on a chain of
    covers from a vertex, so every face is reached.
    """
    n = len(p.vertices)
    vfm = p.vertex_facet_masks
    closed = {}  # facet mask -> vertex mask of every face met so far
    for i, fmask in enumerate(vfm):
        closed[fmask] = _vertex_mask(p, fmask)
        if closed[fmask] != 1 << i:
            raise RuntimeError(f"vertex {i} is not its own closure")

    dims = dict.fromkeys(vfm, 0)  # facet mask -> dimension, per face found
    queue = deque(vfm)
    while queue:
        fmask = queue.popleft()
        size = closed[fmask].bit_count()
        for jmask, count in Counter(map(fmask.__and__, vfm)).items():
            if jmask in dims:
                continue
            if jmask not in closed:
                closed[jmask] = _vertex_mask(p, jmask)
            if count == closed[jmask].bit_count() - size:
                dims[jmask] = dims[fmask] + 1
                queue.append(jmask)

    faces = [Face(vertex_ids=_bits(closed[f]), dim=k) for f, k in dims.items()]
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

    m = simplex.Model(len(others))  # one weight per other vertex
    m.constrain([1] * len(others), "==", 1)
    for u in comp_basis:
        m.constrain([verts[i].dot(u) for i in others], "==", base.dot(u))
    return m.maximize([0] * len(others)).status == simplex.INFEASIBLE


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

    faces = [tuple(range(n))] + [
        tuple(sorted(members))
        for members, comp in candidates.items()
        if _supports_exactly(p, members, comp)
    ]
    return FaceLattice(
        p.dim, [Face(ids, affine_rank([verts[i] for i in ids])) for ids in faces]
    )
