"""Text formats for polytopes and bases.

Polytope files: header "H d m" or "V d m", then m rows of whitespace
separated rationals (d normal entries plus an offset for H, d coordinates
for V).  Basis files: header "B d", then d rows of d rationals.
Rationals are "p/q" or "p", base 10, q > 0, no embedded whitespace.

Every parse failure carries the 1-based line and column of the offending
token, so CLI diagnostics can point at the exact spot.
"""

from __future__ import annotations

import re
from typing import Optional, Union

from .polytope import Halfspace, HRep, InputError, VRep
from .ratgeom import QVector, format_rational, parse_rational

__all__ = [
    "ParseError",
    "parse_polytope_text",
    "parse_basis_text",
    "read_polytope",
    "read_basis",
    "format_polytope_text",
    "polytope_json_dict",
]


class ParseError(InputError):
    """Malformed input file, with position information."""

    def __init__(
        self,
        message: str,
        *,
        path: str = "<input>",
        line: Optional[int] = None,
        col: Optional[int] = None,
    ):
        self.path = path
        self.line = line
        self.col = col
        super().__init__(message)

    def __str__(self) -> str:
        where = self.path
        if self.line is not None:
            where += f":{self.line}"
            if self.col is not None:
                where += f":{self.col}"
        return f"{where}: {self.args[0]}"


_TOKEN = re.compile(r"\S+")
_INTEGER = re.compile(r"[0-9]+")


def _tokenize(text: str):
    """Nonblank lines as (line_number, [(col, token), ...]), 1-based."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = [(m.start() + 1, m.group()) for m in _TOKEN.finditer(line)]
        if tokens:
            out.append((lineno, tokens))
    return out


def _parse_header_int(tok, path, lineno, what: str, minimum: int) -> int:
    col, text = tok
    if not _INTEGER.fullmatch(text):
        raise ParseError(
            f"{what} must be a base-10 integer, got {text!r}",
            path=path, line=lineno, col=col,
        )
    try:
        value = int(text)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"{what} has too many digits ({len(text)})",
                         path=path, line=lineno, col=col) from None
    if value < minimum:
        raise ParseError(
            f"{what} must be at least {minimum}, got {value}",
            path=path, line=lineno, col=col,
        )
    return value


def _parse_row(tokens, width, path, lineno, what: str):
    if len(tokens) != width:
        if len(tokens) > width:
            col = tokens[width][0]
        else:
            col = tokens[-1][0] + len(tokens[-1][1])
        raise ParseError(
            f"expected {width} values per {what} row, got {len(tokens)}",
            path=path, line=lineno, col=col,
        )
    values = []
    for col, text in tokens:
        try:
            values.append(parse_rational(text))
        except ValueError:
            raise ParseError(
                f"not a rational: {text!r} (expected \"p\" or \"p/q\" with q > 0)",
                path=path, line=lineno, col=col,
            ) from None
    return values


def _parse_table(text: str, path: str, kinds: tuple):
    lines = _tokenize(text)
    if not lines:
        raise ParseError("empty input", path=path, line=1, col=1)
    lineno, header = lines[0]
    col, kind = header[0]
    if kind not in kinds:
        expected = " or ".join(repr(k) for k in kinds)
        raise ParseError(
            f"unknown format {kind!r}, expected {expected}",
            path=path, line=lineno, col=col,
        )
    return lines, lineno, header, kind


def _body(lines, count: int, path: str, what: str):
    """The lines after the header, which must number exactly count."""
    body = lines[1:]
    if len(body) != count:
        where = body[count][0] if len(body) > count else lines[-1][0] + 1
        raise ParseError(
            f"expected {count} {what} rows, found {len(body)}",
            path=path, line=where,
        )
    return body


def parse_polytope_text(text: str, path: str = "<input>") -> Union[HRep, VRep]:
    """Parse "H d m" / "V d m" plus m data rows into a representation.

    Validation here is purely syntactic; geometric validation (bounded,
    full-dimensional) happens in build_polytope.
    """
    lines, lineno, header, kind = _parse_table(text, path, ("H", "V"))
    if len(header) != 3:
        raise ParseError(
            f"header must be {kind!r} followed by dimension and row count",
            path=path, line=lineno, col=header[-1][0],
        )
    dim = _parse_header_int(header[1], path, lineno, "dimension", 1)
    m = _parse_header_int(header[2], path, lineno, "row count", 1)

    body = _body(lines, m, path, "data")
    width = dim + 1 if kind == "H" else dim
    rows = [
        _parse_row(tokens, width, path, ln, "data")
        for ln, tokens in body
    ]
    if kind == "H":
        halfspaces = []
        for (ln, tokens), row in zip(body, rows):
            normal, offset = row[:dim], row[dim]
            if all(c == 0 for c in normal):
                raise ParseError(
                    "halfspace normal is the zero vector",
                    path=path, line=ln, col=tokens[0][0],
                )
            halfspaces.append(Halfspace(QVector._of(tuple(normal)), offset))
        return HRep(dim, tuple(halfspaces))
    return VRep(dim, tuple(QVector._of(tuple(row)) for row in rows))


def parse_basis_text(text: str, path: str = "<input>") -> tuple:
    """Parse "B d" plus d rows of d rationals into raw basis vectors.

    Orthogonality is deliberately not enforced here: symmetry.verify_basis
    turns a bad basis into a reported failure instead of a crash.
    """
    lines, lineno, header, _ = _parse_table(text, path, ("B",))
    if len(header) != 2:
        raise ParseError(
            "header must be 'B' followed by the dimension",
            path=path, line=lineno, col=header[0][0],
        )
    dim = _parse_header_int(header[1], path, lineno, "dimension", 1)
    return tuple(
        QVector._of(tuple(_parse_row(tokens, dim, path, ln, "basis")))
        for ln, tokens in _body(lines, dim, path, "basis")
    )


def _read_text(path: str) -> str:
    """The file as UTF-8 text; a byte that is not UTF-8 is a ParseError
    at its line and column."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # a sentinel after the valid prefix stands where the bad byte is
        rows = (data[:exc.start].decode("utf-8") + "x").splitlines()
        raise ParseError(f"not UTF-8 text (byte {data[exc.start]:#04x})",
                         path=path, line=len(rows), col=len(rows[-1])) from None


def read_polytope(path: str) -> Union[HRep, VRep]:
    return parse_polytope_text(_read_text(path), path=path)


def read_basis(path: str) -> tuple:
    return parse_basis_text(_read_text(path), path=path)


def _table(rep: Union[HRep, VRep]):
    """(kind, rows of rational strings): an H row is normal then offset."""
    if isinstance(rep, HRep):
        return "H", [
            [format_rational(c) for c in (*h.normal, h.offset)]
            for h in rep.halfspaces
        ]
    if isinstance(rep, VRep):
        return "V", [[format_rational(c) for c in v] for v in rep.vertices]
    raise TypeError(f"expected HRep or VRep, got {type(rep).__name__}")


def format_polytope_text(rep: Union[HRep, VRep]) -> str:
    """Serialize a representation back to the text format."""
    kind, rows = _table(rep)
    lines = [f"{kind} {rep.dim} {len(rows)}"] + [" ".join(row) for row in rows]
    return "\n".join(lines) + "\n"


def polytope_json_dict(rep: Union[HRep, VRep]) -> dict:
    """The same table as JSON: {"kind", "dim", "rows"} with string cells."""
    kind, rows = _table(rep)
    return {"kind": kind, "dim": rep.dim, "rows": rows}
