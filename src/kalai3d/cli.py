"""Command line interface.

Subcommands:

    convert    read a polytope file, emit the other representation
    fvector    face counts by dimension
    symmetry   check central symmetry and the reflection hypotheses
    certify    full certificate for the 3^d face-count bound (JSON)
    generate   write an instance from one of the built-in families
    selftest   run the built-in consistency checks

Exit codes: 0 on success (certify: verdict true; symmetry: both checks
pass), 1 when a check or the certificate verdict fails, 2 on malformed
input or I/O trouble, 3 on an internal error (a bug, never a verdict).
Parse errors point at the offending line and column.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from math import comb
from typing import Optional

from .fileio import (
    format_polytope_text,
    parse_polytope_text,
    polytope_json_dict,
    read_basis,
    read_polytope,
)
from .kalai import certify, enumerate_cones
from .lattice import brute_force_faces, enumerate_faces
from .polytope import FAMILIES, HRep, Polytope, VRep, build_polytope, generate
from .ratgeom import QVector, rational
from .symmetry import standard_basis, verify_basis

__all__ = ["main"]


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _polytope_text(p: Polytope, rep_kind: str, as_json: bool) -> str:
    rep = p.hrep() if rep_kind == "h" else p.vrep()
    return _json_text(polytope_json_dict(rep)) if as_json else format_polytope_text(rep)


def _load_basis(source: str, dim: int):
    """"std" means the coordinate basis; anything else is a file path."""
    if source == "std":
        return standard_basis(dim)
    return read_basis(source)


def _cmd_convert(args) -> int:
    rep = read_polytope(args.input)
    p = build_polytope(rep)
    out_kind = "v" if isinstance(rep, HRep) else "h"
    _emit(_polytope_text(p, out_kind, args.json), args.out)
    return 0


def _cmd_fvector(args) -> int:
    p = build_polytope(read_polytope(args.input))
    lat = enumerate_faces(p)
    if args.json:
        doc = {"f_vector": list(lat.f_vector), "total": lat.total}
        sys.stdout.write(_json_text(doc))
    else:
        for k, count in enumerate(lat.f_vector):
            print(f"{k}: {count}")
        print(f"total: {lat.total}")
    return 0


def _cmd_symmetry(args) -> int:
    p = build_polytope(read_polytope(args.input))
    report = verify_basis(p, _load_basis(args.basis, p.dim))
    if args.json:
        sys.stdout.write(_json_text(report.to_json_dict()))
    else:
        print(f"centrally_symmetric: {str(report.centrally_symmetric).lower()}")
        print(f"basis_verified: {str(report.basis_verified).lower()}")
        print(f"details: {report.details}")
    return 0 if report.hypotheses_hold else 1


def _cmd_certify(args) -> int:
    p = build_polytope(read_polytope(args.input))
    cert = certify(p, _load_basis(args.basis, p.dim))
    _emit(_json_text(cert.to_json_dict()), args.out)
    return 0 if cert.verdict else 1


def _cmd_generate(args) -> int:
    factors = None
    if args.inputs:
        factors = tuple(build_polytope(read_polytope(path)) for path in args.inputs)
    p = generate(args.family, dim=args.dim, m=args.m, seed=args.seed, factors=factors)
    _emit(_polytope_text(p, args.rep, args.json), args.out)
    return 0


def _check(label: str, ok: bool, failures: list) -> None:
    print(f"{'ok' if ok else 'FAIL'}: {label}")
    if not ok:
        failures.append(label)


def _cmd_selftest(args) -> int:
    failures: list = []

    for d in range(1, 7):
        _check(
            f"cone count in dimension {d} is 3^{d} - 1",
            len(enumerate_cones(d)) == 3**d - 1,
            failures,
        )

    for d in range(1, 5):
        p = generate("cube", dim=d)
        expected = tuple(comb(d, k) * 2 ** (d - k) for k in range(d)) + (1,)
        _check(
            f"cube({d}) f-vector matches the closed form",
            enumerate_faces(p).f_vector == expected,
            failures,
        )

    for rep_kind in ("h", "v"):
        p = generate("cross_polytope", dim=3)
        text = _polytope_text(p, rep_kind, as_json=False)
        again = build_polytope(parse_polytope_text(text))
        _check(
            f"cross_polytope(3) {rep_kind.upper()}-rep round-trips exactly",
            again.vertices == p.vertices and again.halfspaces == p.halfspaces,
            failures,
        )

    oracle_cases = [
        ("cube(2)", generate("cube", dim=2)),
        ("cube(3)", generate("cube", dim=3)),
        ("cross_polytope(3)", generate("cross_polytope", dim=3)),
        ("random(2, m=2, seed=11)",
         generate("random_reflection_symmetric", dim=2, m=2, seed=11)),
        ("random(3, m=1, seed=5)",
         generate("random_reflection_symmetric", dim=3, m=1, seed=5)),
    ]
    for label, p in oracle_cases:
        fast = enumerate_faces(p)
        slow = brute_force_faces(p)
        same = [f.vertex_ids for f in fast] == [f.vertex_ids for f in slow]
        _check(f"face enumeration matches the brute-force oracle on {label}", same, failures)

    for label, p, expect in [
        ("cube(3)", generate("cube", dim=3), True),
        ("cross_polytope(3)", generate("cross_polytope", dim=3), True),
        ("a 2-simplex", build_polytope(VRep(2, (
            QVector([rational(1), rational(0)]),
            QVector([rational(0), rational(1)]),
            QVector([rational(-1), rational(-1)]),
        ))), False),
    ]:
        cert = certify(p, standard_basis(p.dim))
        _check(f"certificate verdict for {label} is {str(expect).lower()}",
               cert.verdict is expect, failures)

    if failures:
        print(f"{len(failures)} check(s) failed")
        return 1
    print("all checks passed")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kalai3d",
        description="Exact face-count certificates for reflection-symmetric polytopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    def add_basis(p):
        p.add_argument(
            "--basis", default="std", metavar="std|PATH",
            help="reflection basis: 'std' for the coordinate basis, "
                 "or a basis file (default: std)",
        )

    p = sub.add_parser("convert", help="translate between H and V representations")
    p.add_argument("input", help="polytope file (H or V)")
    p.add_argument("--out", help="write here instead of stdout")
    add_json(p)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("fvector", help="count faces by dimension")
    p.add_argument("input", help="polytope file (H or V)")
    add_json(p)
    p.set_defaults(func=_cmd_fvector)

    p = sub.add_parser("symmetry", help="check the symmetry hypotheses")
    p.add_argument("input", help="polytope file (H or V)")
    add_basis(p)
    add_json(p)
    p.set_defaults(func=_cmd_symmetry)

    p = sub.add_parser(
        "certify",
        help="emit a JSON certificate for the 3^d bound (exit 0 iff verdict holds)",
    )
    p.add_argument("input", help="polytope file (H or V)")
    add_basis(p)
    p.add_argument("--out", help="write the certificate here instead of stdout")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("generate", help="write an instance from a built-in family")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--dim", type=int, help="ambient dimension (cube, cross, random)")
    p.add_argument("--m", type=int, help="orbit count (random family)")
    p.add_argument("--seed", type=int, help="RNG seed (random family)")
    p.add_argument(
        "inputs", nargs="*", metavar="FACTOR",
        help="two polytope files (product family only)",
    )
    p.add_argument("--rep", choices=("h", "v"), default="h",
                   help="which representation to emit (default: h)")
    p.add_argument("--out", help="write here instead of stdout")
    add_json(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("selftest", help="run the built-in consistency checks")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (OSError, ValueError, TypeError) as exc:
        # ValueError includes ParseError and GeometryError (unbounded,
        # empty, degenerate); TypeError comes from bad family/basis
        # combinations
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
