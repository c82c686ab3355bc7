"""Output checker for the benchmark, independent of ``kalai3d``.

``check_op`` judges one operation from its exit code and standard output
against the answer ``corpus`` recorded; ``check_group`` compares the
outputs of operations that read the same (or the polar) polytope.  Both
return a list of error strings, empty when the output is right.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import product
from math import gcd, lcm


def parse_table(text: str) -> tuple:
    """(kind, dim, rows) from the program's polytope text format."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    kind, dim, count = lines[0][0], int(lines[0][1]), int(lines[0][2])
    rows = [tuple(Fraction(tok) for tok in ln) for ln in lines[1:]]
    if len(rows) != count:
        raise ValueError(f"header says {count} rows, found {len(rows)}")
    return kind, dim, rows


def normalize_halfspace(row) -> tuple:
    """Scale a row (normal..., offset) to a primitive integer normal."""
    normal = row[:-1]
    den = lcm(*(c.denominator for c in normal))
    nums = [int(c * den) for c in normal]
    g = gcd(*nums)
    return tuple(Fraction(n, g) for n in nums) + (row[-1] * den / g,)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def cone_signs(d: int) -> list:
    return [list(s) for s in product((-1, 0, 1), repeat=d) if any(s)]


def _check_cones(op, doc) -> list:
    d = op.dim
    cones = doc["cones"]
    if len(cones) != 3**d - 1:
        return [f"{len(cones)} cones, expected {3**d - 1}"]
    errors = []
    if [c["signs"] for c in cones] != cone_signs(d):
        errors.append("cone sign vectors are not the 3^d - 1 in order")
    faces = [c["face_vertices"] for c in cones]
    if any(f is None for f in faces):
        return errors + ["a cone has no witness face"]
    if len({tuple(f) for f in faces}) != len(faces):
        errors.append("two cones share a witness face")
    if not (doc["injective"] and doc["distinct_faces"] == 3**d):
        errors.append("certificate does not claim 3^d distinct faces")
    faces_of = _vertex_facets(op.poly) if op.poly is not None else None
    for cone in cones:
        point = [Fraction(t) for t in cone["witness_point"]]
        for s, b in zip(cone["signs"], op.basis):
            if _sign(_dot(b, point)) != s:
                errors.append(f"witness point of cone {cone['signs']} is outside the open cone")
                break
        if not cone["inclusion_ok"]:
            errors.append(f"inclusion check false on cone {cone['signs']}")
        if faces_of is not None and not _in_relint(point, cone["face_vertices"], faces_of, op.poly.h):
            errors.append(f"witness point of cone {cone['signs']} is not inside its face")
    return errors


def _vertex_facets(poly) -> list:
    """For each vertex id (lexicographic order, as the program numbers
    them), the set of inequality rows tight at it."""
    return [{j for j, r in enumerate(poly.h) if _dot(r[:-1], v) == r[-1]}
            for v in sorted(poly.v)]


def _in_relint(point, face_ids, faces_of, hrows) -> bool:
    """Whether point lies in the relative interior of the face spanned by
    the listed vertex ids: it lies in P, and the vertices tight on every
    inequality tight at the point are exactly the face's vertices."""
    tight = set()
    for j, row in enumerate(hrows):
        value = _dot(row[:-1], point)
        if value > row[-1]:
            return False
        if value == row[-1]:
            tight.add(j)
    smallest = [i for i, rows in enumerate(faces_of) if tight <= rows]
    return smallest == list(face_ids)


def _check_certify(op, out, golden) -> list:
    doc = json.loads(out)
    errors = []
    if doc["dim"] != op.dim:
        errors.append(f"dim {doc['dim']}, expected {op.dim}")
    if op.poly is not None and tuple(doc["f_vector"]) != op.poly.f:
        errors.append(f"f-vector {doc['f_vector']}, expected {list(op.poly.f)}")
    if doc["total"] != sum(doc["f_vector"]):
        errors.append("total is not the sum of the f-vector")
    central, basis_ok = op.hypotheses
    sym = doc["symmetry"]
    if (sym["centrally_symmetric"], sym["basis_verified"]) != (central, basis_ok):
        errors.append(f"symmetry report {sym}, expected {op.hypotheses}")
    if doc["verdict"] != (central and basis_ok):
        errors.append(f"verdict {doc['verdict']}")
    if central and basis_ok:
        errors += _check_cones(op, doc)
    elif doc["cones"] or doc["injective"]:
        errors.append("a failed hypothesis must skip the witness scan")
    if op.key in golden:
        digest = hashlib.sha256(out.encode()).hexdigest()
        if digest != golden[op.key]:
            errors.append(f"certificate sha256 {digest[:12]} differs from golden for {op.key}")
    return errors


def _check_fvector(op, out) -> list:
    counts = {}
    for line in out.splitlines():
        k, _, n = line.partition(":")
        counts[k.strip()] = int(n)
    want = {str(k): n for k, n in enumerate(op.poly.f)}
    want["total"] = sum(op.poly.f)
    return [] if counts == want else [f"f-vector output {counts}, expected {want}"]


def _check_symmetry(op, out) -> list:
    fields = dict(line.split(": ", 1) for line in out.splitlines())
    got = (fields["centrally_symmetric"] == "true", fields["basis_verified"] == "true")
    return [] if got == op.hypotheses else [f"symmetry output {got}, expected {op.hypotheses}"]


def _check_convert(op, out) -> list:
    kind, dim, rows = parse_table(out)
    from_v = op.role.endswith("-v")
    if (kind, dim) != ("H" if from_v else "V", op.dim):
        return [f"convert printed a {kind} table of dimension {dim}"]
    if op.poly is not None:
        if from_v:
            ok = {normalize_halfspace(r) for r in rows} == {
                normalize_halfspace(r) for r in op.poly.h}
        else:
            ok = set(rows) == set(op.poly.v) and len(rows) == len(op.poly.v)
        return [] if ok else ["converted rows differ from the closed form"]
    # Only the input is known: every output row must be valid for it and
    # be a basic solution, i.e. tight on at least dim input rows.
    for row in rows:
        if from_v:
            vals = [_dot(row[:-1], x) - row[-1] for x in op.input_rows]
        else:
            vals = [_dot(h[:-1], row) - h[-1] for h in op.input_rows]
        if max(vals) > 0 or sum(1 for v in vals if v == 0) < dim:
            return [f"converted row {row} is not a facet/vertex of the input"]
    return []


def check_op(op, code: int, out: str, golden: dict) -> list:
    """Errors in one operation's result; [] when it is right."""
    if code != op.exit_code:
        return [f"exit code {code}, expected {op.exit_code}"]
    try:
        if op.command == "certify":
            return _check_certify(op, out, golden)
        if op.command == "fvector":
            return _check_fvector(op, out)
        if op.command == "symmetry":
            return _check_symmetry(op, out)
        if op.command == "convert":
            return _check_convert(op, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable {op.command} output: {exc!r}"]
    return [f"unknown command {op.command}"]


def check_group(group: str, results: list) -> list:
    """Cross-checks between operations of one group.

    results holds (op, exit code, stdout) for every op of the group.
    """
    by_role = {op.role: out for op, _, out in results}
    try:
        if group.startswith("same:"):
            certs = {out for op, _, out in results if op.command == "certify"}
            return [] if len(certs) == 1 else ["H-input and V-input certificates differ"]
        if group.startswith("polar:"):
            return _check_polar(by_role)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return [f"unreadable group output: {exc!r}"]
    return [f"unknown group {group}"]


def _check_polar(by_role: dict) -> list:
    """P from its points, Q = {y : x . y <= 1} from the same numbers.

    Q is the polar of P, so f_k(Q) = f_{d-1-k}(P) and every facet
    a . x <= b of P is the vertex a / b of Q.
    """
    fp = json.loads(by_role["certify-v"])["f_vector"]
    fq = json.loads(by_role["certify-h"])["f_vector"]
    d = len(fp) - 1
    errors = []
    if fq[:d] != fp[:d][::-1]:
        errors.append(f"polar f-vectors {fp} and {fq} are not reversed")
    _, _, facets = parse_table(by_role["convert-v"])
    _, _, polar_vertices = parse_table(by_role["convert-h"])
    dual = {tuple(c / row[-1] for c in row[:-1]) for row in facets}
    if dual != set(polar_vertices) or len(facets) != fp[d - 1]:
        errors.append("facets of P are not the vertices of its polar")
    return errors
