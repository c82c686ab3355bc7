"""Polytopes with exact dual descriptions and the conversions between them.

A polytope here is always bounded and full-dimensional.  One
enumeration builds every Polytope: exact double description on the cone
over the halfspaces, which adds the halfspaces one at a time and keeps
the extreme rays of the cone cut out so far, so its work follows the
output rather than the number of d-subsets of halfspaces.  It runs in
integers: each canonical row n . x <= p/q becomes the integer row
(q n | p), each ray is an integer vector with the bitmask of the rows
tight at it, and two rays are combined only when that bitmask test says
they are adjacent.  Rationals are built only for the final rays, which
are the vertices; their tight rows give the rest as vertex bitmasks.
The set is full-dimensional exactly when no row is tight at every
vertex, since such implicit equalities cut out its affine hull; a row
is a facet exactly when its tight set is maximal, since every facet has
a defining row and every proper face lies in a facet.  A V-input is the
same enumeration run on its polar around the barycenter, read back
transposed: polar vertices are facets and vice versa.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Union

from .ratgeom import InputError, QVector, Rational, affine_rank, echelon, rational

__all__ = [
    "InputError",
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


class GeometryError(InputError):
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

    Built by vertices_from_hrep (directly, or on the polar through
    facets_from_vrep), which establishes the invariants the rest of the
    package leans on: vertices are sorted lexicographically and are
    exactly the extreme points; halfspaces are canonical, irredundant
    (each supports a facet), and sorted by their incident vertex tuples;
    incidence[j] lists the vertex ids on facet j.
    """

    __slots__ = ("dim", "vertices", "halfspaces", "incidence",
                 "facet_vertex_masks", "vertex_facet_masks")

    def __init__(self, dim, vertices, halfspaces, incidence):
        self.dim = dim
        self.vertices = tuple(vertices)
        self.halfspaces = tuple(halfspaces)
        self.incidence = tuple(tuple(row) for row in incidence)
        # per facet a mask over vertex ids, per vertex one over facet ids
        fvm, vfm = [0] * len(self.incidence), [0] * len(self.vertices)
        for j, row in enumerate(self.incidence):
            for i in row:
                fvm[j] |= 1 << i
                vfm[i] |= 1 << j
        self.facet_vertex_masks, self.vertex_facet_masks = tuple(fvm), tuple(vfm)

    def vrep(self) -> VRep:
        return VRep(self.dim, self.vertices)

    def hrep(self) -> HRep:
        return HRep(self.dim, self.halfspaces)

    def __repr__(self) -> str:
        return (
            f"Polytope(dim={self.dim}, vertices={len(self.vertices)}, "
            f"facets={len(self.halfspaces)})"
        )


def _bits(mask: int) -> tuple:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


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


def _assemble(d: int, verts: list, kept: list) -> Polytope:
    """The Polytope of the (vertex ids, facet) pairs, sorted by vertex ids.

    A RuntimeError here is a bug in this module, never a bad input.
    """
    kept.sort(key=lambda t: t[0])
    incidence = tuple(onset for onset, _ in kept)
    if len(set(incidence)) != len(incidence):
        raise RuntimeError("two facets have the same vertex set")
    p = Polytope(d, verts, tuple(h for _, h in kept), incidence)
    if any(m.bit_count() < d for m in p.vertex_facet_masks):
        raise RuntimeError(f"a vertex lies on fewer than {d} facets")
    return p


def _double_description(d: int, rows: list) -> list:
    """The vertices of {x : q n . x <= p for each row (q n | p)}, exactly.

    Double description (Motzkin et al.; Fukuda and Prodon, 1996) on the
    cone {(x, t) : p t - q n . x >= 0 for each row, t >= 0}, whose rays
    with t > 0 are the vertices (x / t).  It starts from the first d + 1
    independent rows, t >= 0 first: their cone is simplicial, with one
    ray per row, where that row is 1 and the others are 0.  It adds the
    other rows in order: rays on a row's positive side or boundary stay,
    and each adjacent pair with values s_p > 0 > s_n on it gives the ray
    s_p r_n - s_n r_p on its boundary, divided by the gcd of its entries.
    Rays are integer vectors and each carries the bitmask of the added
    rows it is tight at.  Two rays are adjacent exactly when their common
    tight rows number at least d - 1 and no third ray is tight at all of
    them.  The rays kept are exactly the extreme rays of the cone cut
    out so far, so each vertex comes out once.

    Returns ((numerators, positive denominator) in lowest terms, tight
    row ids) per vertex.  Raises UnboundedError when the rows have rank
    below d or some ray has t = 0: the recession cone is nontrivial.
    """
    cone = [[-c for c in row[:d]] + [row[d]] for row in rows] + [[0] * d + [1]]
    # the first d + 1 independent rows, t >= 0 first, are the pivot
    # columns of the transposed rows taken in that order
    order = [len(rows), *range(len(rows))]
    start = [order[c] for c in echelon(list(zip(*(cone[i] for i in order))))]
    if len(start) <= d:
        raise UnboundedError(f"unbounded: recession cone is nontrivial (dim {d})")

    # [S | I] reduces to D [I | S^-1]: column j of D S^-1 is the start
    # ray tight at every start row but the j-th
    work = [cone[i] + [int(i == j) for j in start] for i in start]
    echelon(work)
    rays = []  # (integer vector, mask of the added rows tight at it)
    for j, col in zip(start, zip(*(row[d + 1:] for row in work))):
        g = gcd(*col)
        rays.append((
            tuple(c // g for c in col), sum(1 << i for i in start if i != j)
        ))
    for i, row in enumerate(cone[:-1]):  # the last, t >= 0, starts them all
        if i in start:
            continue
        bit = 1 << i
        kept, pos, neg = [], [], []
        for r, z in rays:
            s = sum(map(mul, row, r))
            if s > 0:
                kept.append((r, z))
                pos.append((r, z, s))
            elif s < 0:
                neg.append((r, z, s))
            else:
                kept.append((r, z | bit))
        masks = [z for _, z in rays]
        for rp, zp, sp in pos:
            for rn, zn, sn in neg:
                common = zp & zn
                if common.bit_count() < d - 1 or any(
                    z & common == common and z != zp and z != zn for z in masks
                ):
                    continue
                r = [sp * b - sn * a for a, b in zip(rp, rn)]
                g = gcd(*r)
                kept.append((tuple(c // g for c in r), common | bit))
        rays = kept

    if any(r[d] == 0 for r, _ in rays):
        raise UnboundedError(f"unbounded: recession cone is nontrivial (dim {d})")
    return [((r[:d], r[d]), _bits(z)) for r, z in rays]


def vertices_from_hrep(hrep: HRep) -> Polytope:
    """The polytope of an intersection of halfspaces.

    Each canonical row n . x <= p/q becomes the integer row (q n | p),
    and _double_description finds the vertices as numerators over a
    positive denominator, with the rows tight at each.  Only vertices
    become QVectors of rationals.  Then each row's tight set is one
    vertex bitmask.  The intersection is full-dimensional iff no row is
    tight at every vertex: such implicit equalities cut out its affine
    hull.  A canonical row is a facet iff no other row is tight at a
    strict superset of its vertices: every facet has a defining row and
    every proper face lies in a facet.

    Raises UnboundedError when the recession cone is nontrivial and
    DegenerateError when the intersection is empty or has affine rank
    below the ambient dimension.
    """
    d = hrep.dim
    hs = _dedup_dominated(hrep.halfspaces)
    # n . x <= p/q with n primitive integer becomes the integer row (q n | p)
    rows = [
        [h.offset.denominator * int(c) for c in h.normal] + [h.offset.numerator]
        for h in hs
    ]
    accepted = sorted(
        (QVector._of(tuple(Rational(n, den) for n in nums)), on)
        for (nums, den), on in _double_description(d, rows)
    )
    verts = [v for v, _ in accepted]
    if not verts:
        raise DegenerateError("empty: no feasible basic point exists")
    masks = [0] * len(hs)  # per row, the vertices it is tight at
    for i, (_, on) in enumerate(accepted):
        for r in on:
            masks[r] |= 1 << i
    if (1 << len(verts)) - 1 in masks:
        raise DegenerateError(
            f"lower-dimensional: affine rank below ambient dimension {d}"
        )
    kept = [
        (_bits(m), h)
        for m, h in zip(masks, hs)
        if not any(m != other and m & other == m for other in masks)
    ]
    return _assemble(d, verts, kept)


def facets_from_vrep(vrep: VRep) -> Polytope:
    """The polytope of the convex hull of the points.

    vertices_from_hrep builds the polar around the barycenter c, whose
    rows are (p - c) . y <= 1, and its result is read back by duality:
    each polar vertex y gives the facet y . x <= 1 + y . c, each polar
    facet (n, o) gives the vertex c + n / o (exactly the point it came
    from), and the incidence is the polar's, transposed.  A point that is
    not extreme gives a redundant or dominated polar row and is dropped.
    """
    d = vrep.dim
    pts = sorted(set(vrep.vertices))
    if affine_rank(pts) < d:
        raise DegenerateError(
            f"lower-dimensional: affine rank below ambient dimension {d}"
        )
    center = rational(1, len(pts)) * sum(pts, QVector.zero(d))

    # the barycenter itself is never extreme
    polar_halfspaces = [Halfspace(p - center, 1) for p in pts if p != center]
    polar = vertices_from_hrep(HRep(d, polar_halfspaces))

    found = sorted(
        (center + rational(1, h.offset) * h.normal, row)
        for h, row in zip(polar.halfspaces, polar.incidence)
    )
    onsets = [[] for _ in polar.vertices]
    for i, (_, row) in enumerate(found):
        for k in row:
            onsets[k].append(i)
    kept = [
        (tuple(onset), canonical_halfspace(Halfspace(y, 1 + y.dot(center))))
        for onset, y in zip(onsets, polar.vertices)
    ]
    return _assemble(d, [v for v, _ in found], kept)


def build_polytope(rep: Union[HRep, VRep]) -> Polytope:
    """Validate a representation and assemble the dual description.

    An HRep goes to vertices_from_hrep, a VRep to facets_from_vrep, which
    runs the same enumeration on the polar.
    """
    if isinstance(rep, HRep):
        return vertices_from_hrep(rep)
    if isinstance(rep, VRep):
        return facets_from_vrep(rep)
    raise TypeError(f"expected HRep or VRep, got {type(rep).__name__}")


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
    if dim is not None and dim < 1:
        raise InputError(f"dimension must be positive, got {dim}")
    if family == "cube":
        if dim is None:
            raise InputError("cube requires dim")
        return build_polytope(_cube(dim))
    if family == "cross_polytope":
        if dim is None:
            raise InputError("cross_polytope requires dim")
        return build_polytope(_cross_polytope(dim))
    if family == "product":
        if factors is None or len(factors) != 2:
            raise InputError("product requires factors=(P, Q)")
        p, q = factors
        if not isinstance(p, Polytope) or not isinstance(q, Polytope):
            raise TypeError("product factors must be Polytope instances")
        return build_polytope(_product(p, q))
    if family == "random_reflection_symmetric":
        if dim is None or m is None or seed is None:
            raise InputError("random_reflection_symmetric requires dim, m, seed")
        if m < 1:
            raise InputError(f"orbit count must be positive, got {m}")
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
    raise InputError(f"unknown family {family!r}; expected one of {FAMILIES}")
