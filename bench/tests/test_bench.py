"""Tests of the benchmark itself: generator, checker and tracer.

    python3 -m pytest bench/tests -q
"""

import hashlib
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

PROGRAM = run.load_program()
CLI = PROGRAM[0]


def _tree(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_generator_is_byte_deterministic_per_seed(tmp_path, workload):
    first = corpus.write_corpus(workload, 7, tmp_path / "a")
    again = corpus.write_corpus(workload, 7, tmp_path / "b")
    other = corpus.write_corpus(workload, 8, tmp_path / "c")
    assert first == again
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")
    assert first != other


def _certify(tmp_path, key):
    writer = corpus.Writer(tmp_path, random.Random(0))
    writer.keyed(key, ("h",))
    (op,) = writer.ops
    code, out, _ = run.run_op(CLI, run.argv_for(op, tmp_path))
    return op, code, out


def _reprint(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_checker_counts_a_swapped_face_and_a_flipped_sign(tmp_path):
    op, code, out = _certify(tmp_path, "prism:1,2,2,1,1")
    golden = {op.key: hashlib.sha256(out.encode()).hexdigest()}
    assert check.check_op(op, code, out, golden) == []

    swapped = json.loads(out)
    a, b = swapped["cones"][0], swapped["cones"][-1]
    a["face_vertices"], b["face_vertices"] = b["face_vertices"], a["face_vertices"]
    errors = check.check_op(op, code, _reprint(swapped), {})
    assert any("not inside its face" in e for e in errors)
    assert check.check_op(op, code, _reprint(swapped), golden)

    flipped = json.loads(out)
    point = flipped["cones"][0]["witness_point"]
    i = next(i for i, c in enumerate(point) if c != "0")
    point[i] = point[i][1:] if point[i].startswith("-") else "-" + point[i]
    errors = check.check_op(op, code, _reprint(flipped), {})
    assert any("outside the open cone" in e for e in errors)

    counted = run.Run(golden)
    counted.record([(op, code, out)])
    counted.record([(op, code, _reprint(flipped))])
    assert (counted.attempted, counted.failed) == (2, 1)


def test_checker_counts_a_wrong_exit_code_and_verdict(tmp_path):
    op, code, out = _certify(tmp_path, "hexagon:1,2")
    assert code == 1 and check.check_op(op, code, out, {}) == []
    assert check.check_op(op, 0, out, {})
    doc = json.loads(out)
    doc["verdict"] = True
    assert check.check_op(op, code, _reprint(doc), {})


def test_tracing_leaves_certificate_bytes_and_functions_unchanged(tmp_path):
    cli, kalai, lattice, polytope, _, simplex = PROGRAM
    op, code, plain = _certify(tmp_path, "bipyramid:1,3,2,2,2")
    tr = tracer.Tracer(cli, polytope, lattice, kalai, simplex)
    before = [vars(owner)[attr] for owner, attr, _, _ in tr._targets]
    tr.install()
    try:
        traced = run.run_op(CLI, run.argv_for(op, tmp_path))
    finally:
        tr.restore()
    assert traced[:2] == (code, plain)
    assert [vars(owner)[attr] for owner, attr, _, _ in tr._targets] == before

    roots = [end - start for _, start, end, parent in tr.spans if parent < 0]
    assert len(roots) == 1
    assert sum(tr.self_times().values()) == pytest.approx(roots[0])
    assert tr.counts["kalai.cones"] == 26 <= tr.counts["kalai.lp_calls"]


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench")
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
