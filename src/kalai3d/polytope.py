"""Polytopes with exact dual descriptions and the conversions between them.

A polytope here is always bounded and full-dimensional.  Vertex
enumeration is brute force over basic solutions: every full-rank d-subset
of halfspace boundaries contributes one candidate point, and the feasible
candidates are exactly the vertices.  That is the right tool at this
package's scale (dimension up to about six, tens of halfspaces) and it
keeps every step exact and auditable.  The reverse conversion goes
through the polar polytope around the barycenter, so facets of the input
are read off as vertices of the polar.  A V-input's vertices are then
the input points whose tight facet normals have full rank, so each
build runs one enumeration (H-input) or one polar enumeration (V-input).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

from .ratgeom import (
    QVector,
    Rational,
    affine_rank,
    rank,
    rational,
    _reduced_echelon,
)
from . import simplex

__all__ = [
    "GeometryError",
    "UnboundedError",
    "DegenerateError",
    "Halfspace",
    "canonical_halfspace",
    "HRep",
    "VRep",
    "Polytope",
    "vertices_from_hrep",
    "facets_from_vrep",
    "build_polytope",
    "generate",
    "FAMILIES",
]


class GeometryError(ValueError):
    """The input does not describe a bounded full-dimensional polytope."""


class UnboundedError(GeometryError):
    """The halfspace intersection has a nontrivial recession cone."""


class DegenerateError(GeometryError):
    """The described set is empty or lower-dimensional."""


@dataclass(frozen=True)
class Halfspace:
    """Closed halfspace {x : x . normal <= offset}."""

    normal: QVector
    offset: object

    def __post_init__(self):
        if not isinstance(self.normal, QVector):
            object.__setattr__(self, "normal", QVector(self.normal))
        object.__setattr__(self, "offset", Rational(self.offset))
        if self.normal.is_zero():
            raise ValueError("halfspace normal must be nonzero")

    def boundary_contains(self, point: QVector) -> bool:
        return self.normal.dot(point) == self.offset


def canonical_halfspace(h: Halfspace) -> Halfspace:
    """Rescale so the normal is a primitive integer vector.

    The scaling factor is positive, so the halfspace itself is unchanged;
    two halfspaces bound the same side of parallel hyperplanes exactly
    when their canonical normals are equal.
    """
    dens = lcm(*(int(c.denominator) for c in h.normal))
    nums = [int(c * dens) for c in h.normal]
    g = gcd(*(abs(n) for n in nums))
    scale = rational(dens, g)
    return Halfspace(QVector(n // g for n in nums), h.offset * scale)


@dataclass(frozen=True)
class HRep:
    """A list of halfspaces in R^dim, not yet validated as a polytope."""

    dim: int
    halfspaces: tuple

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        hs = tuple(self.halfspaces)
        if not hs:
            raise ValueError("HRep needs at least one halfspace")
        for h in hs:
            if not isinstance(h, Halfspace):
                raise TypeError("HRep entries must be Halfspace")
            if len(h.normal) != self.dim:
                raise ValueError(
                    f"normal of length {len(h.normal)} in dimension {self.dim}"
                )
        object.__setattr__(self, "halfspaces", hs)


@dataclass(frozen=True)
class VRep:
    """A list of points in R^dim, intended as the vertex set of their hull."""

    dim: int
    vertices: tuple

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        vs = tuple(
            v if isinstance(v, QVector) else QVector(v) for v in self.vertices
        )
        if not vs:
            raise ValueError("VRep needs at least one point")
        for v in vs:
            if len(v) != self.dim:
                raise ValueError(
                    f"point of length {len(v)} in dimension {self.dim}"
                )
        object.__setattr__(self, "vertices", vs)


class Polytope:
    """Bounded full-dimensional polytope with both exact descriptions.

    Built through build_polytope, which establishes the invariants the
    rest of the package leans on: vertices are sorted lexicographically
    and are exactly the extreme points; halfspaces are canonical,
    irredundant (each supports a facet), and sorted by their incident
    vertex tuples; incidence[j] lists the vertex ids on facet j.
    """

    __slots__ = ("dim", "vertices", "halfspaces", "incidence", "_fmasks", "_vmasks")

    def __init__(self, dim, vertices, halfspaces, incidence):
        self.dim = dim
        self.vertices = tuple(vertices)
        self.halfspaces = tuple(halfspaces)
        self.incidence = tuple(tuple(row) for row in incidence)
        self._fmasks = None
        self._vmasks = None

    @property
    def facet_vertex_masks(self) -> tuple:
        """Per facet, a bitmask over vertex ids (internal helper)."""
        if self._fmasks is None:
            masks = []
            for row in self.incidence:
                m = 0
                for i in row:
                    m |= 1 << i
                masks.append(m)
            self._fmasks = tuple(masks)
        return self._fmasks

    @property
    def vertex_facet_masks(self) -> tuple:
        """Per vertex, a bitmask over facet ids (internal helper)."""
        if self._vmasks is None:
            masks = [0] * len(self.vertices)
            for j, row in enumerate(self.incidence):
                for i in row:
                    masks[i] |= 1 << j
            self._vmasks = tuple(masks)
        return self._vmasks

    def vrep(self) -> VRep:
        return VRep(self.dim, self.vertices)

    def hrep(self) -> HRep:
        return HRep(self.dim, self.halfspaces)

    def __repr__(self) -> str:
        return (
            f"Polytope(dim={self.dim}, vertices={len(self.vertices)}, "
            f"facets={len(self.halfspaces)})"
        )


def _dedup_dominated(halfspaces: Iterable[Halfspace]) -> list:
    """Canonicalize and drop halfspaces dominated by a parallel one.

    Among halfspaces with the same canonical normal only the smallest
    offset can be tight, so the rest are redundant.  Output order is the
    sorted canonical form, which keeps everything downstream
    deterministic regardless of input order.
    """
    best = {}
    for h in halfspaces:
        ch = canonical_halfspace(h)
        key = ch.normal.coords
        cur = best.get(key)
        if cur is None or ch.offset < cur.offset:
            best[key] = ch
    return [best[k] for k in sorted(best)]


def _recession_is_trivial(halfspaces: Sequence[Halfspace], dim: int) -> bool:
    """Whether {x : n_i . x <= 0 for all i} is just the origin.

    When every normal appears together with its negation (true for every
    centrally symmetric description) the recession cone is the kernel of
    the normal matrix, so a rank computation settles it.  Otherwise fall
    back to 2d exact feasibility probes, one per signed coordinate
    direction.
    """
    normal_keys = {h.normal.coords for h in halfspaces}
    if all((-h.normal).coords in normal_keys for h in halfspaces):
        return rank([h.normal for h in halfspaces]) == dim

    for j, sign in product(range(dim), (1, -1)):
        m = simplex.Model()
        xs = [m.var() for _ in range(dim)]
        for h in halfspaces:
            coeffs = {xs[i]: h.normal[i] for i in range(dim) if h.normal[i]}
            m.constrain(coeffs, "<=", 0)
        m.constrain({xs[j]: 1}, "==", sign)
        if m.maximize({}).status == simplex.OPTIMAL:
            return False
    return True


def vertices_from_hrep(hrep: HRep) -> VRep:
    """All vertices of the intersection, sorted lexicographically.

    Raises UnboundedError when the recession cone is nontrivial and
    DegenerateError when the intersection is empty or has affine rank
    below the ambient dimension.
    """
    d = hrep.dim
    hs = _dedup_dominated(hrep.halfspaces)
    if not _recession_is_trivial(hs, d):
        raise UnboundedError(f"unbounded: recession cone is nontrivial (dim {d})")

    normal_rows = [list(h.normal.coords) for h in hs]
    offsets = [h.offset for h in hs]

    # A subset containing two antiparallel boundaries with mismatched
    # offsets can never have a common point; skip it without eliminating.
    # For centrally symmetric inputs this prunes most subsets.
    key_index = {tuple(row): i for i, row in enumerate(normal_rows)}
    conflicts = set()
    for i, row in enumerate(normal_rows):
        j = key_index.get(tuple(-c for c in row))
        if j is not None and j > i and offsets[i] != -offsets[j]:
            conflicts.add((i, j))

    points = set()
    for subset in combinations(range(len(hs)), d):
        if any(
            (subset[a], subset[b]) in conflicts
            for a in range(d)
            for b in range(a + 1, d)
        ):
            continue
        aug = [normal_rows[i] + [offsets[i]] for i in subset]
        pivots = _reduced_echelon(aug)
        if len(pivots) != d or pivots[-1] == d:
            continue  # not a basic point: rank-deficient or inconsistent
        x = tuple(aug[r][-1] for r in range(d))
        feasible = True
        for row, off in zip(normal_rows, offsets):
            s = Rational(0)
            for a, b in zip(row, x):
                s += a * b
            if s > off:
                feasible = False
                break
        if feasible:
            points.add(x)

    if not points:
        raise DegenerateError("empty: no feasible basic point exists")
    verts = sorted(QVector(p) for p in points)
    if len(verts) < d + 1 or affine_rank(verts) < d:
        raise DegenerateError(
            f"lower-dimensional: affine rank below ambient dimension {d}"
        )
    return VRep(d, verts)


def facets_from_vrep(vrep: VRep) -> HRep:
    """Irredundant facet halfspaces of the convex hull of the points.

    Works by polarity around the barycenter: after translating the
    barycenter to the origin, vertices of the polar polytope correspond
    exactly to facets of the hull.  Points that are not extreme only add
    redundant polar constraints, so they are tolerated and dropped.
    """
    d = vrep.dim
    pts = sorted(set(vrep.vertices))
    if affine_rank(pts) < d:
        raise DegenerateError(
            f"lower-dimensional: affine rank below ambient dimension {d}"
        )
    center = QVector.zero(d)
    for p in pts:
        center = center + p
    center = rational(1, len(pts)) * center

    polar_halfspaces = []
    for p in pts:
        shifted = p - center
        if not shifted.is_zero():  # the barycenter itself is never extreme
            polar_halfspaces.append(Halfspace(shifted, 1))
    polar_vertices = vertices_from_hrep(HRep(d, polar_halfspaces)).vertices

    facets = [
        canonical_halfspace(Halfspace(y, 1 + y.dot(center))) for y in polar_vertices
    ]
    facets.sort(key=lambda h: (h.normal.coords, h.offset))
    return HRep(d, facets)


def build_polytope(rep: Union[HRep, VRep]) -> Polytope:
    """Validate a representation and assemble the dual description.

    H-input: the vertices are enumerated and the input halfspaces are the
    facet candidates.  V-input: the facets come from facets_from_vrep,
    and an input point is a vertex exactly when the normals of the facets
    through it have rank d, so no second enumeration is needed.  Either
    way the result carries sorted vertices, an irredundant canonical
    facet list, and the exact incidence table.
    """
    if isinstance(rep, HRep):
        verts = vertices_from_hrep(rep).vertices
        candidates = _dedup_dominated(rep.halfspaces)
    elif isinstance(rep, VRep):
        candidates = facets_from_vrep(rep).halfspaces
        verts = tuple(
            v
            for v in sorted(set(rep.vertices))
            if rank([h.normal for h in candidates if h.boundary_contains(v)])
            == rep.dim
        )
    else:
        raise TypeError(f"expected HRep or VRep, got {type(rep).__name__}")

    d = rep.dim
    kept = []
    for h in candidates:
        onset = tuple(i for i, v in enumerate(verts) if h.boundary_contains(v))
        if len(onset) < d:
            continue  # touches too few vertices to support a facet
        if affine_rank([verts[i] for i in onset]) == d - 1:
            kept.append((onset, h))
    kept.sort(key=lambda t: t[0])

    incidence = tuple(onset for onset, _ in kept)
    if len(set(incidence)) != len(incidence):
        raise RuntimeError("two facets have the same vertex set")
    counts = [0] * len(verts)
    for onset in incidence:
        for i in onset:
            counts[i] += 1
    if any(c < d for c in counts):
        raise RuntimeError(f"a vertex lies on fewer than {d} facets")

    return Polytope(d, verts, tuple(h for _, h in kept), incidence)


def _cube(dim: int) -> HRep:
    hs = []
    for i in range(dim):
        for sign in (1, -1):
            hs.append(Halfspace(sign * QVector.unit(dim, i), 1))
    return HRep(dim, hs)


def _cross_polytope(dim: int) -> VRep:
    pts = []
    for i in range(dim):
        e = QVector.unit(dim, i)
        pts.extend([e, -e])
    return VRep(dim, pts)


def _product(p: Polytope, q: Polytope) -> HRep:
    dim = p.dim + q.dim
    zeros_q = [0] * q.dim
    zeros_p = [0] * p.dim
    hs = [
        Halfspace(QVector(list(h.normal.coords) + zeros_q), h.offset)
        for h in p.halfspaces
    ]
    hs += [
        Halfspace(QVector(zeros_p + list(h.normal.coords)), h.offset)
        for h in q.halfspaces
    ]
    return HRep(dim, hs)


def _random_reflection_symmetric(dim: int, m: int, seed) -> HRep:
    """m random halfspace orbits under all coordinate sign flips.

    Every offset is positive, so the origin is strictly interior and the
    result can only fail to be a polytope by being unbounded; the caller
    retries in that case.
    """
    rng = random.Random(seed)
    hs = []
    for _ in range(m):
        while True:
            normal = [
                rational(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(dim)
            ]
            if any(normal):
                break
        offset = rational(rng.randint(1, 4), rng.choice((1, 2)))
        for signs in product((1, -1), repeat=dim):
            flipped = QVector(s * c for s, c in zip(signs, normal))
            hs.append(Halfspace(flipped, offset))
    return HRep(dim, hs)


FAMILIES = ("cube", "cross_polytope", "product", "random_reflection_symmetric")

_RANDOM_ATTEMPTS = 64


def generate(
    family: str,
    *,
    dim: Optional[int] = None,
    m: Optional[int] = None,
    seed=None,
    factors: Optional[tuple] = None,
) -> Polytope:
    """Construct a polytope from one of the named families.

    cube and cross_polytope take dim; product takes factors=(P, Q);
    random_reflection_symmetric takes dim, m (orbit count), and seed, and
    retries fresh samples until the intersection is bounded.
    """
    if family == "cube":
        if dim is None:
            raise ValueError("cube requires dim")
        return build_polytope(_cube(dim))
    if family == "cross_polytope":
        if dim is None:
            raise ValueError("cross_polytope requires dim")
        return build_polytope(_cross_polytope(dim))
    if family == "product":
        if factors is None or len(factors) != 2:
            raise ValueError("product requires factors=(P, Q)")
        p, q = factors
        if not isinstance(p, Polytope) or not isinstance(q, Polytope):
            raise TypeError("product factors must be Polytope instances")
        return build_polytope(_product(p, q))
    if family == "random_reflection_symmetric":
        if dim is None or m is None or seed is None:
            raise ValueError("random_reflection_symmetric requires dim, m, seed")
        rng = random.Random(seed)
        for _ in range(_RANDOM_ATTEMPTS):
            sub_seed = rng.getrandbits(64)
            try:
                return build_polytope(_random_reflection_symmetric(dim, m, sub_seed))
            except UnboundedError:
                continue
        raise DegenerateError(
            f"no bounded instance found in {_RANDOM_ATTEMPTS} attempts "
            f"(dim={dim}, m={m}, seed={seed})"
        )
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
