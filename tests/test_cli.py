"""End-to-end CLI behavior: output formats and the exit code contract.

Everything runs in-process through main(argv) except one subprocess smoke
test for the module entry point.
"""

import json
import subprocess
import sys

import pytest

from kalai3d import cli
from kalai3d.cli import main
from kalai3d.fileio import format_basis_text, format_polytope_text, parse_polytope_text
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
    path.write_text(format_basis_text((qv(1, -1), qv(1, 1))))
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


def test_internal_error_exit_code(run, cube2_path, monkeypatch):
    """A bug must not pass for a false verdict (1) or bad input (2)."""
    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "certify", broken)
    code, out, err = run("certify", cube2_path)
    assert code == 3 and out == ""
    assert err.startswith("internal error:\n")
    assert "RuntimeError: boom" in err


# --- selftest and module entry ---------------------------------------------

def test_selftest(run):
    code, out, _ = run("selftest")
    assert code == 0
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_module_entry_point(cross3_path):
    proc = subprocess.run(
        [sys.executable, "-m", "kalai3d", "fvector", cross3_path],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.endswith("total: 27\n")
