"""Seeded input generator for the benchmark.

Every instance is built here in closed form with ``fractions.Fraction``,
without importing ``kalai3d``: the program under test receives only the
files written by ``write_corpus``.  Each operation carries the answer the
checker expects, so that a wrong verdict, exit code, f-vector or
conversion counts as a failed operation.

Instances whose certificate is fixed by a short key (the family and its
parameters) carry that key, and ``golden.json`` maps it to the sha256 of
the certificate produced at the commit that defined the benchmark.  Row
order in the files is shuffled by the seed; the program sorts its input,
so the shuffle changes the bytes it reads but not the certificate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, lcm
from pathlib import Path
from typing import Optional

WORKLOADS = ("witness", "hv-convert", "sweep")


@dataclass(frozen=True)
class Poly:
    """One polytope with both descriptions known exactly.

    ``v`` holds the vertices (extreme points only) and ``h`` rows
    ``(normal..., offset)`` of valid inequalities, every one a facet.
    ``f`` is the f-vector including the polytope itself.
    """

    dim: int
    v: tuple
    h: tuple
    f: tuple


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the answer the checker expects.

    ``argv`` names corpus files relative to the corpus directory.
    ``group`` ties operations whose outputs are compared with each other
    (``same:`` groups must print identical certificates, ``polar:``
    groups hold a polytope and its polar).
    """

    argv: tuple
    command: str
    dim: int
    exit_code: int
    basis: tuple
    poly: Optional[Poly] = None
    key: Optional[str] = None
    group: Optional[str] = None
    role: str = ""
    hypotheses: tuple = (True, True)
    input_rows: tuple = ()


# ---------------------------------------------------------------- helpers


def _identity(d: int) -> tuple:
    return tuple(tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d))


def _fmt(x) -> str:
    return str(Fraction(x))


def _poly_text(kind: str, dim: int, rows, rng: random.Random) -> str:
    rows = list(rows)
    rng.shuffle(rows)
    lines = [f"{kind} {dim} {len(rows)}"]
    lines += [" ".join(_fmt(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def _basis_text(basis) -> str:
    lines = [f"B {len(basis)}"]
    lines += [" ".join(_fmt(c) for c in row) for row in basis]
    return "\n".join(lines) + "\n"


def _sign_orbit(point) -> tuple:
    return tuple(sorted({
        tuple(s * c for s, c in zip(signs, point))
        for signs in product((1, -1), repeat=len(point))
    }))


def cube_f(d: int) -> tuple:
    return tuple(comb(d, k) * 2 ** (d - k) for k in range(d)) + (1,)


def cross_f(d: int) -> tuple:
    return tuple(2 ** (k + 1) * comb(d, k + 1) for k in range(d)) + (1,)


def product_f(fp: tuple, fq: tuple) -> tuple:
    """f-vector of P x Q: faces are products of faces, dimensions add."""
    out = [0] * (len(fp) + len(fq) - 1)
    for i, a in enumerate(fp):
        for j, b in enumerate(fq):
            out[i + j] += a * b
    return tuple(out)


def box(axes) -> Poly:
    d = len(axes)
    verts = sorted(product(*[(-Fraction(a), Fraction(a)) for a in axes]))
    rows = []
    for i, a in enumerate(axes):
        for s in (1, -1):
            rows.append(tuple(Fraction(s * (i == j)) for j in range(d)) + (Fraction(a),))
    return Poly(d, tuple(verts), tuple(rows), cube_f(d))


def cross(axes) -> Poly:
    d = len(axes)
    verts = []
    for i, a in enumerate(axes):
        for s in (1, -1):
            verts.append(tuple(Fraction(s * a * (i == j)) for j in range(d)))
    scale = lcm(*axes)
    rows = [
        tuple(Fraction(s * scale, a) for s, a in zip(signs, axes)) + (Fraction(scale),)
        for signs in product((1, -1), repeat=d)
    ]
    return Poly(d, tuple(sorted(verts)), tuple(rows), cross_f(d))


def prod(p: Poly, q: Poly) -> Poly:
    verts = sorted(a + b for a in p.v for b in q.v)
    zq = (Fraction(0),) * q.dim
    zp = (Fraction(0),) * p.dim
    rows = [r[:-1] + zq + r[-1:] for r in p.h] + [zp + r for r in q.h]
    return Poly(p.dim + q.dim, tuple(verts), tuple(rows), product_f(p.f, q.f))


def polygon(points) -> Poly:
    """Convex hull of planar points (monotone chain, collinear dropped)."""
    pts = sorted(set(tuple(Fraction(c) for c in p) for p in points))

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and turn(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    ring = half(pts) + half(reversed(pts))
    rows = []
    for a, b in zip(ring, ring[1:] + ring[:1]):
        nx, ny = b[1] - a[1], a[0] - b[0]
        rows.append((nx, ny, nx * a[0] + ny * a[1]))
    n = len(ring)
    return Poly(2, tuple(sorted(ring)), tuple(rows), (n, n, 1))


def bipyramid(p: Poly, height) -> Poly:
    """Free sum of a planar polygon (origin inside) with a segment."""
    h = Fraction(height)
    verts = [v + (Fraction(0),) for v in p.v]
    verts += [(Fraction(0), Fraction(0), h), (Fraction(0), Fraction(0), -h)]
    rows = [r[:-1] + (s * r[-1] / h, r[-1]) for r in p.h for s in (1, -1)]
    n = p.f[0]
    return Poly(3, tuple(sorted(verts)), tuple(rows), (n + 2, 3 * n, 2 * n, 1))


def rotated_cube(d: int, pairs) -> tuple:
    """cube(d) turned by a 3-4-5 rotation in each given coordinate pair.

    Returns the polytope and its rotated (scaled, orthogonal) basis.
    """
    basis = []
    for i, j in pairs:
        u = [Fraction(0)] * d
        u[i], u[j] = Fraction(3), Fraction(4)
        w = [Fraction(0)] * d
        w[i], w[j] = Fraction(-4), Fraction(3)
        basis += [tuple(u), tuple(w)]
    paired = {i for pair in pairs for i in pair}
    basis += [tuple(Fraction(5 * (i == k)) for i in range(d)) for k in range(d) if k not in paired]
    rows = [tuple(s * c for c in b) + (Fraction(5),) for b in basis for s in (1, -1)]
    verts = sorted(
        tuple(sum(s * b[k] / 5 for s, b in zip(signs, basis)) for k in range(d))
        for signs in product((1, -1), repeat=d)
    )
    return Poly(d, tuple(verts), tuple(rows), cube_f(d)), tuple(basis)


def _pairings(items) -> list:
    """Every way to split items into disjoint pairs, at most one left over."""
    items = list(items)
    if len(items) < 2:
        return [()]
    out = [] if len(items) % 2 == 0 else _pairings(items[1:])
    first, rest = items[0], items[1:]
    for k, other in enumerate(rest):
        for tail in _pairings(rest[:k] + rest[k + 1:]):
            out.append(((first, other),) + tail)
    return out


WITNESS_DIM = 5
# The rotations of cube(5): two rotated coordinate pairs, one axis kept.
ROTATIONS = _pairings(range(WITNESS_DIM))


# ------------------------------------------------------------ key space
#
# A key names one certificate.  ``instance(key)`` rebuilds its polytope
# and basis, so golden.py can enumerate the finite key space.


def _ints(text: str) -> tuple:
    return tuple(int(x) for x in text.split(",")) if text else ()


def instance(key: str) -> tuple:
    """(Poly, basis rows, hypotheses (central, basis)) for a key."""
    family, _, arg = key.partition(":")
    if family == "box":
        p = box(_ints(arg))
        return p, _identity(p.dim), (True, True)
    if family == "cross":
        p = cross(_ints(arg))
        return p, _identity(p.dim), (True, True)
    if family == "cube2xcross3":
        p = prod(box((1, 1)), cross((1, 1, 1)))
        return p, _identity(5), (True, True)
    if family == "cross3xcube2":
        p = prod(cross((1, 1, 1)), box((1, 1)))
        return p, _identity(5), (True, True)
    if family == "rot345":
        p, basis = rotated_cube(WITNESS_DIM, ROTATIONS[int(arg)])
        return p, basis, (True, True)
    if family == "octagon":
        a, b, c, e = _ints(arg)
        p = polygon(_sign_orbit((a, b)) + _sign_orbit((c, e)))
        return p, _identity(2), (True, True)
    if family == "prism":
        a, b, c, e, h = _ints(arg)
        p = prod(instance(f"octagon:{a},{b},{c},{e}")[0], box((h,)))
        return p, _identity(3), (True, True)
    if family == "bipyramid":
        a, b, c, e, h = _ints(arg)
        p = bipyramid(instance(f"octagon:{a},{b},{c},{e}")[0], h)
        return p, _identity(3), (True, True)
    if family == "triangle":
        a, b, c = _ints(arg)
        p = polygon(((a, 0), (-b, c), (-b, -c - 1)))
        return p, _identity(2), (False, False)
    if family == "hexagon":
        a, b = _ints(arg)
        p = polygon(((a, 0), (a, b), (0, b), (-a, 0), (-a, -b), (0, -b)))
        return p, _identity(2), (True, False)
    if family == "diagbasis":
        a, b = _ints(arg)
        one = Fraction(1)
        return box((a, b)), ((one, one), (-one, one)), (True, False)
    if family == "skewbasis":
        a, b = _ints(arg)
        one, zero = Fraction(1), Fraction(0)
        return box((a, b)), ((one, zero), (one, one)), (True, False)
    raise ValueError(f"unknown instance key {key!r}")


def _grid(lo: int, hi: int, n: int) -> list:
    return [",".join(map(str, t)) for t in product(range(lo, hi + 1), repeat=n)]


def golden_keys() -> list:
    """Every key the generator can emit for witness and sweep."""
    keys = ["box:1,1,1,1,1", "cube2xcross3", "cross3xcube2"]
    keys += [f"rot345:{i}" for i in range(len(ROTATIONS))]
    keys += [f"box:{g}" for g in _grid(1, 3, 2) + _grid(1, 3, 3)]
    keys += [f"cross:{g}" for g in _grid(1, 3, 2) + _grid(1, 3, 3)]
    octs = _grid(1, 3, 4)
    keys += [f"octagon:{g}" for g in octs]
    keys += [f"{fam}:{g},{h}" for fam in ("prism", "bipyramid") for g in octs for h in (1, 2)]
    keys += [f"triangle:{g}" for g in _grid(1, 3, 3)]
    keys += [f"hexagon:{g}" for g in _grid(1, 3, 2)]
    keys += [f"{fam}:{a},{b}" for fam in ("diagbasis", "skewbasis")
             for a in range(1, 4) for b in range(1, 4) if a != b]
    return keys


# ------------------------------------------------------------- workloads


class Writer:
    """Writes corpus files and builds the operations that read them."""

    def __init__(self, root: Path, rng: random.Random):
        root.mkdir(parents=True, exist_ok=True)
        self.root = root
        self.rng = rng
        self.ops: list = []
        self._n = 0

    def write(self, suffix: str, text: str) -> str:
        self._n += 1
        name = f"{self._n:04d}{suffix}"
        (self.root / name).write_text(text, encoding="utf-8")
        return name

    def instance_files(self, p: Poly, basis) -> tuple:
        vfile = self.write(".vpoly", _poly_text("V", p.dim, p.v, self.rng))
        hfile = self.write(".hpoly", _poly_text("H", p.dim, p.h, self.rng))
        bargs = () if basis == _identity(p.dim) else (
            "--basis", self.write(".basis", _basis_text(basis)))
        return vfile, hfile, bargs

    def add(self, command, path, bargs, *, p, basis, hyp, key, group, role,
            input_rows=()):
        ok = all(hyp)
        exit_code = 0 if command in ("convert", "fvector") or ok else 1
        argv = (command, path) + (bargs if command in ("certify", "symmetry") else ())
        self.ops.append(Op(
            argv=argv, command=command, dim=p.dim if p else len(basis),
            exit_code=exit_code, basis=basis, poly=p, key=key, group=group,
            role=role, hypotheses=hyp, input_rows=input_rows,
        ))

    def keyed(self, key: str, forms: tuple, extra: Optional[str] = None) -> None:
        """Certify a keyed instance from each form, plus an optional extra."""
        p, basis, hyp = instance(key)
        vfile, hfile, bargs = self.instance_files(p, basis)
        group = f"same:{len(self.ops)}"
        files = {"v": vfile, "h": hfile}
        for form in forms:
            self.add("certify", files[form], bargs, p=p, basis=basis, hyp=hyp,
                     key=key, group=group, role=f"certify-{form}")
        if extra is not None:
            command, form = extra.split("-")
            self.add(command, files[form], bargs, p=p, basis=basis, hyp=hyp,
                     key=None, group=None, role=extra)


def _witness(w: Writer, rng: random.Random) -> None:
    w.keyed("box:1,1,1,1,1", ("h",))
    w.keyed("cube2xcross3", ("h",))
    w.keyed(f"rot345:{rng.randrange(len(ROTATIONS))}", ("h",))
    # A small V-input polytope, so that the V path and the formatter are
    # measured on this workload too; its golden hash was made from the
    # H-file, so it also ties the two inputs together.
    axes = ",".join(str(rng.randint(1, 3)) for _ in range(3))
    w.keyed(f"cross:{axes}", ("v",), extra="convert-v")


HV_INSTANCES = 2


def _hv_convert(w: Writer, rng: random.Random) -> None:
    """Point orbits P (V-file) and the same numbers as halfspaces (H-file).

    Orbit a has full support, so its 16 points are the vertices of a box;
    orbit b is the 2 points +-b_k e_k.  In the first instance b lies
    outside the box and caps two of its facets (18 vertices, 18 facets);
    in the second it lies inside, so the V-file has 2 points that are not
    vertices and the H-file 2 redundant rows.  Fixing the combinatorial
    types keeps the cost of a pass steady across seeds while the
    coordinates vary.

    The H-file {y : x . y <= 1 for every point x} is the polar of P, so
    the two inputs are tied exactly: the f-vectors are reversed and the
    facets a . x <= b of P are the vertices a / b of the polar.
    """
    d = 4
    for i in range(HV_INSTANCES):
        a = tuple(Fraction(rng.randint(1, 6)) for _ in range(d))
        k = rng.randrange(d)
        if i == 0:
            bk = a[k] + rng.randint(1, 3)
        else:
            bk = a[k] * Fraction(rng.randint(1, 3), 4)
        b = tuple(bk if j == k else Fraction(0) for j in range(d))
        points = sorted(set(_sign_orbit(a) + _sign_orbit(b)))
        one = Fraction(1)
        hrows = tuple(pt + (one,) for pt in points)
        vfile = w.write(".vpoly", _poly_text("V", d, points, rng))
        hfile = w.write(".hpoly", _poly_text("H", d, hrows, rng))
        group = f"polar:{i}"
        std = _identity(d)
        for command in ("convert", "certify"):
            for form, path, rows in (("v", vfile, tuple(points)), ("h", hfile, hrows)):
                w.add(command, path, (), p=None, basis=std, hyp=(True, True),
                      key=None, group=group, role=f"{command}-{form}",
                      input_rows=rows)


# Instances per family in one sweep pass.  Fixed counts (only the
# parameters and the order are drawn) keep the cost of a pass steady
# across seeds; the last three families violate a hypothesis.  Every
# d=3 certify takes several times longer than any other op, so the
# counts put the median op 20 places inside that group rather than at
# its edge, where op_p50_s would jump between the two groups.
SWEEP_PLAN = (
    ("box2", 6), ("box3", 10), ("cross2", 6), ("cross3", 10),
    ("octagon", 14), ("prism", 26), ("bipyramid", 26),
    ("triangle", 4), ("hexagon", 4), ("wrongbasis", 4),
)
SWEEP_EXTRAS = ("fvector-v", "fvector-h", "convert-v", "convert-h",
                "symmetry-v", "symmetry-h")


def _sweep_key(family: str, rng: random.Random) -> str:
    def draw(n, hi=3):
        return ",".join(str(rng.randint(1, hi)) for _ in range(n))

    if family in ("box2", "box3", "cross2", "cross3"):
        return f"{family[:-1]}:{draw(int(family[-1]))}"
    if family == "octagon":
        return f"octagon:{draw(4)}"
    if family in ("prism", "bipyramid"):
        return f"{family}:{draw(4)},{rng.randint(1, 2)}"
    if family == "triangle":
        return f"triangle:{draw(3)}"
    if family == "hexagon":
        return f"hexagon:{draw(2)}"
    a, b = rng.sample(range(1, 4), 2)
    return f"{rng.choice(('diagbasis', 'skewbasis'))}:{a},{b}"


def _sweep(w: Writer, rng: random.Random) -> None:
    families = [family for family, count in SWEEP_PLAN for _ in range(count)]
    rng.shuffle(families)
    for i, family in enumerate(families):
        extra = rng.choice(SWEEP_EXTRAS) if i % 4 == 0 else None
        w.keyed(_sweep_key(family, rng), ("v", "h"), extra=extra)


def warmup_ops(root: Path) -> list:
    """A few tiny operations touching every command, run before timing."""
    w = Writer(root, random.Random(0))
    w.keyed("box:1,2,3", ("v", "h"), extra="convert-v")
    w.keyed("octagon:1,2,2,1", ("v",), extra="fvector-h")
    w.keyed("hexagon:1,2", ("h",), extra="symmetry-v")
    return w.ops


def write_corpus(workload: str, seed: int, root: Path) -> list:
    """Write the workload's files for this seed into root; return its ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    w = Writer(root, rng)
    {"witness": _witness, "hv-convert": _hv_convert, "sweep": _sweep}[workload](w, rng)
    return w.ops
