"""Parsing and serialization of the polytope and basis text formats."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kalai3d.fileio import (
    ParseError,
    format_polytope_text,
    parse_basis_text,
    parse_polytope_text,
    polytope_json_dict,
    read_basis,
    read_polytope,
)
from kalai3d.polytope import Halfspace, HRep, VRep, generate
from kalai3d.ratgeom import QVector, rational


def qv(*coords):
    return QVector([rational(c) for c in coords])


# --- happy paths -----------------------------------------------------------

def test_parse_vrep():
    rep = parse_polytope_text("V 2 3\n1 0\n0 1\n-1 -1\n")
    assert isinstance(rep, VRep)
    assert rep.dim == 2
    assert rep.vertices == (qv(1, 0), qv(0, 1), qv(-1, -1))


def test_parse_hrep():
    rep = parse_polytope_text("H 2 2\n1 0 1\n-1/2 3 5/7\n")
    assert isinstance(rep, HRep)
    assert rep.halfspaces == (
        Halfspace(qv(1, 0), rational(1)),
        Halfspace(QVector([rational(-1, 2), rational(3)]), rational(5, 7)),
    )


def test_blank_lines_and_stray_whitespace_ignored():
    text = "\n  V 2 2  \n\n  1   0\n\n0 1\n\n"
    rep = parse_polytope_text(text)
    assert rep.vertices == (qv(1, 0), qv(0, 1))


def test_crlf_line_endings():
    rep = parse_polytope_text("V 1 2\r\n1\r\n-1\r\n")
    assert rep.vertices == (qv(1), qv(-1))


def test_parse_basis():
    vectors = parse_basis_text("B 2\n1 -1\n1 1\n")
    assert vectors == (qv(1, -1), qv(1, 1))


@pytest.mark.parametrize("family,kwargs", [
    ("cube", {"dim": 3}),
    ("cross_polytope", {"dim": 3}),
    ("random_reflection_symmetric", {"dim": 2, "m": 3, "seed": 4}),
])
def test_roundtrip_both_reps(family, kwargs):
    p = generate(family, **kwargs)
    for rep in (p.hrep(), p.vrep()):
        again = parse_polytope_text(format_polytope_text(rep))
        assert again == rep


def test_file_io_roundtrip(tmp_path):
    p = generate("cube", dim=2)
    poly_path = tmp_path / "cube2.hpoly"
    poly_path.write_text(format_polytope_text(p.hrep()), encoding="utf-8")
    assert read_polytope(str(poly_path)) == p.hrep()

    basis_path = tmp_path / "diag.basis"
    basis_path.write_text("B 2\n1 -1\n1 1\n", encoding="utf-8")
    assert read_basis(str(basis_path)) == (qv(1, -1), qv(1, 1))


@given(st.lists(
    st.lists(st.fractions(min_value=-30, max_value=30, max_denominator=40),
             min_size=2, max_size=2),
    min_size=1, max_size=6,
))
def test_vrep_text_roundtrip_property(rows):
    rep = VRep(2, tuple(QVector([rational(c) for c in row]) for row in rows))
    assert parse_polytope_text(format_polytope_text(rep)) == rep


def test_json_dict_shapes():
    p = generate("cube", dim=2)
    hdoc = polytope_json_dict(p.hrep())
    assert hdoc["kind"] == "H" and hdoc["dim"] == 2
    assert all(len(row) == 3 for row in hdoc["rows"])
    assert all(isinstance(cell, str) for row in hdoc["rows"] for cell in row)
    vdoc = polytope_json_dict(p.vrep())
    assert vdoc["kind"] == "V" and len(vdoc["rows"]) == 4
    assert vdoc["rows"][0] == ["-1", "-1"]


# --- diagnostics -----------------------------------------------------------

def err(text, **kwargs):
    with pytest.raises(ParseError) as info:
        parse_polytope_text(text, **kwargs)
    return info.value


def test_empty_input():
    e = err("")
    assert (e.line, e.col) == (1, 1)
    assert str(e).startswith("<input>:1:1:")


def test_unknown_kind():
    e = err("X 2 2\n1 0\n0 1\n", path="weird.poly")
    assert str(e).startswith("weird.poly:1:1:")
    assert "'X'" in str(e) and "'H' or 'V'" in str(e)


def test_not_utf8_points_at_the_byte(tmp_path):
    path = tmp_path / "bytes.hpoly"
    path.write_bytes(b"H 2 1\n1 \xff 0\n")
    with pytest.raises(ParseError) as info:
        read_polytope(str(path))
    assert (info.value.line, info.value.col) == (2, 3)
    assert "not UTF-8 text (byte 0xff)" in str(info.value)


def test_header_digits_are_ascii():
    e = err("V \u0662 4\n1 0\n-1 0\n0 1\n0 -1\n")
    assert (e.line, e.col) == (1, 3)
    assert "dimension must be a base-10 integer" in str(e)


def test_header_too_short():
    e = err("H 2\n1 0 1\n")
    assert e.line == 1
    assert "header" in str(e)


def test_zero_dimension_rejected():
    e = err("V 0 1\n\n")
    assert e.col == 3
    assert "dimension" in str(e)


def test_noninteger_row_count():
    e = err("V 2 x\n1 0\n")
    assert (e.line, e.col) == (1, 5)
    assert "row count" in str(e)


def test_bad_rational_points_at_token():
    e = err("V 2 2\n1 0\n0 1.5\n")
    assert (e.line, e.col) == (3, 3)
    assert "'1.5'" in str(e)


def test_rejects_denominator_zero():
    e = err("V 1 1\n3/0\n")
    assert "3/0" in str(e)


def test_row_too_wide():
    e = err("V 2 1\n1 0 7\n")
    # column of the first surplus token
    assert (e.line, e.col) == (2, 5)
    assert "expected 2 values" in str(e)


def test_row_too_narrow():
    e = err("H 2 1\n1 0\n")
    assert e.line == 2
    assert "expected 3 values" in str(e)


def test_missing_rows():
    e = err("V 2 3\n1 0\n0 1\n")
    assert e.line == 4 and e.col is None
    assert "expected 3 data rows, found 2" in str(e)
    assert str(e).startswith("<input>:4:")


def test_surplus_row():
    e = err("V 2 1\n1 0\n0 1\n")
    assert e.line == 3
    assert "expected 1 data rows, found 2" in str(e)


def test_zero_normal_rejected():
    e = err("H 2 2\n1 0 1\n0 0 1\n")
    assert (e.line, e.col) == (3, 1)
    assert "zero" in str(e)


def test_basis_wrong_row_count():
    with pytest.raises(ParseError) as info:
        parse_basis_text("B 3\n1 0 0\n0 1 0\n")
    assert "expected 3 basis rows, found 2" in str(info.value)


def test_basis_rejects_polytope_header():
    with pytest.raises(ParseError) as info:
        parse_basis_text("V 2 2\n1 0\n0 1\n")
    assert "'B'" in str(info.value)


def test_basis_row_width():
    with pytest.raises(ParseError) as info:
        parse_basis_text("B 2\n1 0\n1\n")
    assert info.value.line == 3


def test_format_rejects_other_types():
    with pytest.raises(TypeError):
        format_polytope_text("V 1 1\n0\n")
    with pytest.raises(TypeError):
        polytope_json_dict(42)
