"""Polytopes with exact dual descriptions and the conversions between them.

A polytope here is always bounded and full-dimensional.  One
enumeration builds every Polytope: brute force over basic solutions, where
every full-rank d-subset of halfspace boundaries gives one candidate point
and the feasible candidates are exactly the vertices.  That is the right
tool at this package's scale (dimension up to about six, tens of
halfspaces) and keeps every step exact and auditable.  The enumeration
runs in integers: each canonical row n . x <= p/q becomes the integer row
(q n | p), each basic point comes out of fraction-free (Bareiss)
elimination as integer numerators over one positive denominator, and
feasibility is a comparison of integers.  Rationals are built only for
the points accepted as vertices.  The rows tight at each vertex,
recorded while testing feasibility, give the rest as vertex bitmasks.
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
from itertools import combinations, product
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence, Union

from .ratgeom import (
    QVector,
    Rational,
    affine_rank,
    rank,
    rational,
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


def _recession_is_trivial(halfspaces: Sequence[Halfspace], dim: int) -> bool:
    """Whether {x : n_i . x <= 0 for all i} is just the origin.

    By Farkas' lemma that holds exactly when the normals positively span
    R^dim: they have rank dim and some weights w_i >= 1 give
    sum_i w_i n_i = 0.  With w_i = 1 + mu_i that is one LP over mu >= 0,
    sum_i mu_i n_i = -sum_i n_i.  When the normals already sum to zero,
    as they do whenever they come in +/- pairs, mu = 0 solves it.
    """
    normals = [h.normal for h in halfspaces]
    if rank(normals) < dim:
        return False
    total = sum(normals, QVector.zero(dim))
    if total.is_zero():
        return True
    m = simplex.Model(len(normals))
    for column, t in zip(zip(*normals), total):
        m.constrain(column, "==", -t)
    return m.maximize([0] * len(normals)).status == simplex.OPTIMAL


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


def _basic_point(rows: list) -> Optional[tuple]:
    """The solution of the integer system [A | b] with A square, in integers.

    Fraction-free Gauss-Jordan elimination (Bareiss): the pivot is the
    first nonzero entry of its column, and each step replaces every other
    row by (pivot * row - entry * pivot row) / previous pivot, a division
    that is always exact.  At the end every diagonal entry is the last
    pivot D = +/-det A and column d holds D x.  Only the columns right of
    the current one are kept, since the rest are then 0 or D.  Returns
    (numerators, denominator) with the denominator positive and the gcd
    of all of them 1, or None when A is singular.
    """
    m = list(rows)  # the swaps must not reorder the caller's list
    d = len(m)
    prev = 1
    for k in range(d):
        # m[i] holds columns k..d of row i
        i = next((i for i in range(k, d) if m[i][0]), None)
        if i is None:
            return None
        m[k], m[i] = m[i], m[k]
        pivot, lead = m[k][0], m[k][1:]
        m = [
            lead if i == k
            else [(pivot * a - row[0] * b) // prev for a, b in zip(row[1:], lead)]
            for i, row in enumerate(m)
        ]
        prev = pivot
    nums = [row[0] for row in m]
    if prev < 0:
        prev, nums = -prev, [-n for n in nums]
    g = gcd(prev, *nums)
    return tuple(n // g for n in nums), prev // g


def vertices_from_hrep(hrep: HRep) -> Polytope:
    """The polytope of an intersection of halfspaces.

    Each full-rank d-subset of boundaries gives a basic point, solved in
    integers by _basic_point on the rows (q n | p) of n . x <= p/q, as
    numerators over a positive denominator in lowest terms.  The pass
    that tests a point compares row . nums with p den for every row and
    records the rows tight at it, or None when some row rejects it; a
    point already tested is not tested again.  Only accepted points
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
    if not _recession_is_trivial(hs, d):
        raise UnboundedError(f"unbounded: recession cone is nontrivial (dim {d})")

    # n . x <= p/q with n primitive integer becomes the integer row (q n | p)
    rows = [
        [h.offset.denominator * int(c) for c in h.normal] + [h.offset.numerator]
        for h in hs
    ]

    # A subset containing two antiparallel boundaries with mismatched
    # offsets can never have a common point; skip it without eliminating.
    # For centrally symmetric inputs this prunes most subsets.
    key_index = {h.normal.coords: i for i, h in enumerate(hs)}
    conflicts = set()
    for i, h in enumerate(hs):
        j = key_index.get((-h.normal).coords)
        if j is not None and j > i and h.offset != -hs[j].offset:
            conflicts.add((i, j))

    tight = {}  # (nums, den) -> ids of the rows tight at it, None if infeasible
    for subset in combinations(range(len(hs)), d):
        if any(
            (subset[a], subset[b]) in conflicts
            for a in range(d)
            for b in range(a + 1, d)
        ):
            continue
        x = _basic_point([rows[i] for i in subset])
        if x is None or x in tight:
            continue
        nums, den = x
        on = []
        for r, row in enumerate(rows):
            s = sum(map(mul, row, nums))
            rhs = row[-1] * den
            if s > rhs:
                on = None
                break
            if s == rhs:
                on.append(r)
        tight[x] = on

    accepted = sorted(
        (QVector(rational(n, den) for n in nums), on)
        for (nums, den), on in tight.items()
        if on is not None
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
        raise ValueError(f"dimension must be positive, got {dim}")
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
