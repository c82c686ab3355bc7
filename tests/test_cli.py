"""End-to-end CLI behavior: output formats and the exit code contract.

Everything runs in-process through main(argv) except one subprocess smoke
test for the module entry point.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kalai3d import cli
from kalai3d.cli import main
from kalai3d.fileio import format_polytope_text, parse_polytope_text
from kalai3d.polytope import VRep, generate
from kalai3d.ratgeom import QVector, rational


def qv(*coords):
    return QVector([rational(c) for c in coords])


@pytest.fixture
def run(capsys):
    def go(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return go


@pytest.fixture
def cross3_path(tmp_path):
    path = tmp_path / "cross3.vpoly"
    path.write_text(format_polytope_text(generate("cross_polytope", dim=3).vrep()))
    return str(path)


@pytest.fixture
def cube2_path(tmp_path):
    path = tmp_path / "cube2.hpoly"
    path.write_text(format_polytope_text(generate("cube", dim=2).hrep()))
    return str(path)


@pytest.fixture
def simplex2_path(tmp_path):
    path = tmp_path / "simplex2.vpoly"
    path.write_text("V 2 3\n1 0\n0 1\n-1 -1\n")
    return str(path)


@pytest.fixture
def hexagon_path(tmp_path):
    points = (qv(2, 1), qv(1, 2), qv(-1, 1), qv(-2, -1), qv(-1, -2), qv(1, -1))
    path = tmp_path / "hexagon.vpoly"
    path.write_text(format_polytope_text(VRep(2, points)))
    return str(path)


@pytest.fixture
def diagonal_basis_path(tmp_path):
    path = tmp_path / "diag.basis"
    path.write_text("B 2\n1 -1\n1 1\n")
    return str(path)


# --- fvector ---------------------------------------------------------------

def test_fvector_text(run, cross3_path):
    code, out, err = run("fvector", cross3_path)
    assert code == 0 and err == ""
    assert out == "0: 6\n1: 12\n2: 8\n3: 1\ntotal: 27\n"


def test_fvector_json(run, cross3_path):
    code, out, _ = run("fvector", cross3_path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"f_vector": [6, 12, 8, 1], "total": 27}


# --- convert ---------------------------------------------------------------

def test_convert_h_to_v(run, cube2_path):
    code, out, _ = run("convert", cube2_path)
    assert code == 0
    rep = parse_polytope_text(out)
    assert rep.vertices == (qv(-1, -1), qv(-1, 1), qv(1, -1), qv(1, 1))


def test_convert_is_an_involution(run, cube2_path, tmp_path):
    vpath = str(tmp_path / "cube2.vpoly")
    code, out, _ = run("convert", cube2_path, "--out", vpath)
    assert code == 0 and out == ""
    code, out, _ = run("convert", vpath)
    assert code == 0
    assert out == format_polytope_text(generate("cube", dim=2).hrep())


def test_convert_json(run, cross3_path):
    code, out, _ = run("convert", cross3_path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "H" and doc["dim"] == 3 and len(doc["rows"]) == 8
    assert all(len(row) == 4 for row in doc["rows"])


# --- symmetry --------------------------------------------------------------

def test_symmetry_pass(run, cross3_path):
    code, out, _ = run("symmetry", cross3_path)
    assert code == 0
    assert "centrally_symmetric: true" in out
    assert "basis_verified: true" in out


def test_symmetry_fail_exit_code(run, simplex2_path):
    code, out, _ = run("symmetry", simplex2_path)
    assert code == 1
    assert "centrally_symmetric: false" in out


def test_symmetry_json(run, simplex2_path):
    code, out, _ = run("symmetry", simplex2_path, "--json")
    assert code == 1
    doc = json.loads(out)
    assert set(doc) == {"centrally_symmetric", "basis_verified", "failing_vector", "details"}
    assert doc["centrally_symmetric"] is False


def test_symmetry_basis_file(run, hexagon_path, diagonal_basis_path):
    code, out, _ = run("symmetry", hexagon_path)
    assert code == 1
    code, out, _ = run("symmetry", hexagon_path, "--basis", diagonal_basis_path)
    assert code == 0
    assert "basis_verified: true" in out


# --- certify ---------------------------------------------------------------

def test_certify_cube(run, cube2_path):
    code, out, _ = run("certify", cube2_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] is True
    assert doc["dim"] == 2 and doc["total"] == 9 and doc["distinct_faces"] == 9
    assert doc["injective"] is True
    assert len(doc["cones"]) == 8
    assert doc["symmetry"]["centrally_symmetric"] is True


def test_certify_failure(run, simplex2_path):
    code, out, _ = run("certify", simplex2_path)
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] is False
    assert doc["cones"] == []


def test_certify_out_file(run, cross3_path, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, out, _ = run("certify", cross3_path, "--out", str(cert_path))
    assert code == 0 and out == ""
    doc = json.loads(cert_path.read_text())
    assert doc["verdict"] is True and doc["total"] == 27


def test_certify_with_basis_file(run, hexagon_path, diagonal_basis_path):
    code, out, _ = run("certify", hexagon_path, "--basis", diagonal_basis_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["symmetry"]["basis_verified"] is True
    assert doc["verdict"] is True
    assert doc["total"] == 13


def test_certify_output_is_deterministic(run, cross3_path):
    _, first, _ = run("certify", cross3_path)
    _, second, _ = run("certify", cross3_path)
    assert first == second


# --- generate --------------------------------------------------------------

def test_generate_product(run, cube2_path, tmp_path):
    seg = tmp_path / "segment.hpoly"
    seg.write_text(format_polytope_text(generate("cube", dim=1).hrep()))
    code, out, _ = run("generate", "--family", "product", cube2_path, str(seg), "--rep", "v")
    assert code == 0
    rep = parse_polytope_text(out)
    assert rep.dim == 3 and len(rep.vertices) == 8


def test_generate_random_deterministic(run, tmp_path):
    a = tmp_path / "a.hpoly"
    b = tmp_path / "b.hpoly"
    for path in (a, b):
        code, out, _ = run(
            "generate", "--family", "random_reflection_symmetric",
            "--dim", "2", "--m", "3", "--seed", "7", "--out", str(path),
        )
        assert code == 0
    assert a.read_text() == b.read_text()


def test_generate_missing_params(run):
    code, out, err = run("generate", "--family", "cube")
    assert code == 2
    assert "error:" in err and "dim" in err


@pytest.mark.parametrize("dim", ["0", "-2"])
def test_generate_rejects_nonpositive_dim(dim):
    """A subprocess with a timeout, so a sampler that never returns fails."""
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "kalai3d", "generate",
         "--family", "random_reflection_symmetric",
         "--dim", dim, "--m", "1", "--seed", "1"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert f"dimension must be positive, got {dim}" in proc.stderr


def test_generate_rejects_nonpositive_orbit_count(run):
    code, out, err = run(
        "generate", "--family", "random_reflection_symmetric",
        "--dim", "2", "--m", "0", "--seed", "1",
    )
    assert code == 2 and out == ""
    assert "orbit count must be positive, got 0" in err


def test_generate_unknown_family(run):
    code, _, err = run("generate", "--family", "orthoplex")
    assert code == 2
    assert "invalid choice" in err


# --- error handling --------------------------------------------------------

def test_parse_error_diagnostic(run, tmp_path):
    path = tmp_path / "bad.vpoly"
    path.write_text("V 2 2\n1 0\n0 1.5\n")
    code, out, err = run("fvector", str(path))
    assert code == 2 and out == ""
    assert f"{path}:3:3:" in err and "1.5" in err


def test_missing_file(run):
    code, _, err = run("fvector", "/nonexistent/thing.vpoly")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("fvector", "BYTES"),
        ("convert", "BYTES"),
        ("certify", "BYTES"),
        ("symmetry", "CROSS3", "--basis", "BYTES"),
        ("generate", "--family", "product", "CROSS3", "BYTES"),
    ],
    ids=["fvector", "convert", "certify", "basis", "factor"],
)
def test_file_not_utf8(run, cross3_path, tmp_path, argv):
    path = tmp_path / "bytes.vpoly"
    path.write_bytes(b"\xff\xfe")
    names = {"BYTES": str(path), "CROSS3": cross3_path}
    code, out, err = run(*(names.get(a, a) for a in argv))
    assert code == 2 and out == ""
    assert f"{path}:1:1: not UTF-8 text" in err


@pytest.mark.parametrize(
    "text",
    ["V \u0662 4\n1 0\n-1 0\n0 1\n0 -1\n", "V 2 4\n\u0661 0\n-1 0\n0 1\n0 -1\n"],
    ids=["header", "numerator"],
)
def test_digits_that_are_not_ascii(run, tmp_path, text):
    path = tmp_path / "arabic.vpoly"
    path.write_text(text, encoding="utf-8")
    code, out, err = run("fvector", str(path))
    assert code == 2 and out == ""
    assert f"{path}:" in err


@pytest.fixture
def int_digit_limit():
    """Python's default limit on int/str conversion, which the inputs
    below exceed; set here so an environment override cannot lift it."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def test_header_with_too_many_digits(run, tmp_path, int_digit_limit):
    path = tmp_path / "long.hpoly"
    path.write_text("H " + "1" * 5000 + " 1\n1 1\n")
    code, out, err = run("fvector", str(path))
    assert code == 2 and out == ""
    assert f"{path}:1:3: dimension has too many digits (5000)" in err


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_result_too_large_to_write(run, tmp_path, int_digit_limit, json_flag):
    # a square whose vertex coordinates have denominators of about 5000
    # digits, from coefficients of 2501 digits that parse fine
    a, b = 3 * 10**2500 + 1, 2 * 10**2500 + 1
    path = tmp_path / "square.hpoly"
    path.write_text(
        f"H 2 4\n{a} {b} 1\n{-b} {a} 1\n{-a} {-b} 1\n{b} {-a} 1\n"
    )
    code, out, err = run("convert", str(path), *json_flag)
    assert code == 2 and out == ""
    assert "result too large to write" in err


def test_unbounded_input(run, tmp_path):
    path = tmp_path / "halfplane.hpoly"
    path.write_text("H 2 1\n1 0 1\n")
    code, _, err = run("fvector", str(path))
    assert code == 2
    assert "unbounded" in err


def test_bad_basis_length(run, cross3_path, tmp_path):
    path = tmp_path / "short.basis"
    path.write_text("B 2\n1 0\n0 1\n")
    code, _, err = run("certify", cross3_path, "--basis", str(path))
    assert code == 2
    assert "error:" in err


def test_help_exits_zero(run):
    code, out, _ = run("--help")
    assert code == 0
    assert "certify" in out


def test_missing_subcommand(run):
    code, _, err = run()
    assert code == 2


@pytest.mark.parametrize("error", [RuntimeError, TypeError, ValueError])
def test_internal_error_exit_code(run, cube2_path, monkeypatch, error):
    """A bug must not pass for a false verdict (1) or bad input (2).  Bad
    input raises InputError; no command input reaches a TypeError or any
    other ValueError, which only guard library misuse."""
    def broken(*args):
        raise error("boom")

    monkeypatch.setattr(cli, "certify", broken)
    code, out, err = run("certify", cube2_path)
    assert code == 3 and out == ""
    assert err.startswith("internal error:\n")
    assert f"{error.__name__}: boom" in err


# --- JSON writer -----------------------------------------------------------

def reference_json(doc):
    """What every JSON output must equal byte for byte."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


json_docs = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.text(),
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.dictionaries(st.text(), inner),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(json_docs)
# mixed scalar lists: a formatter picked from the first element's type
# would print True for these
@example([1, True])
@example([True, 1])
@example(["a", 1, None])
@example({"": [], "b": {}, "a": [[], {}], "c": ()})
@example([-(2**64) - 1, 2**64 + 1, 0])
@example({"\u00e9\"\\\x00\x1f\u2028\ud800": "\t\u00ff\U0001f600"})
def test_writer_matches_json_dumps(doc):
    assert cli._json_text(doc) == reference_json(doc)


def test_every_json_output_matches_json_dumps(run, tmp_path, cross3_path, cube2_path,
                                              simplex2_path, hexagon_path,
                                              diagonal_basis_path):
    cube3_path = tmp_path / "cube3.hpoly"
    cube3_path.write_text(format_polytope_text(generate("cube", dim=3).hrep()))
    commands = [
        ("fvector", cross3_path, "--json"),
        ("convert", cross3_path, "--json"),
        ("convert", cube2_path, "--json"),
        ("symmetry", simplex2_path, "--json"),
        ("symmetry", hexagon_path, "--json"),
        ("symmetry", hexagon_path, "--basis", diagonal_basis_path, "--json"),
        ("generate", "--family", "cross_polytope", "--dim", "3", "--rep", "v", "--json"),
        ("certify", str(cube3_path)),
        ("certify", simplex2_path),
    ]
    for argv in commands:
        code, out, _ = run(*argv)
        assert code in (0, 1), argv
        assert out == reference_json(json.loads(out)), argv


@pytest.mark.parametrize(
    "bad",
    [{1: "a"}, {None: 1}, 1.5, {"a"}, object(), [1, 2.0]],
    ids=["int_key", "none_key", "float", "set", "object", "float_in_list"],
)
def test_writer_failure_is_internal_error(run, cube2_path, tmp_path, monkeypatch, bad):
    """A document the writer cannot write is a bug: exit 3, and nothing
    reaches stdout or the --out file."""
    class Unwritable:
        verdict = True

        def to_json_dict(self):
            return {"cones": [bad], "verdict": True}

    monkeypatch.setattr(cli, "certify", lambda p, basis: Unwritable())
    code, out, err = run("certify", cube2_path)
    assert code == 3 and out == ""
    assert err.startswith("internal error:\n") and "RuntimeError" in err

    cert_path = tmp_path / "cert.json"
    code, out, _ = run("certify", cube2_path, "--out", str(cert_path))
    assert code == 3 and out == ""
    assert not cert_path.exists()


# --- selftest and module entry ---------------------------------------------

def test_selftest(run):
    code, out, _ = run("selftest")
    assert code == 0
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_module_entry_point(cross3_path):
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "kalai3d", "fvector", cross3_path],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.endswith("total: 27\n")
