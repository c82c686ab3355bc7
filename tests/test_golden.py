"""Byte identity of certificates, and the names the benchmark tracer wraps.

Every key in bench/golden.json is certified from its H-file, written by
bench/corpus.py, and its certificate's sha256 must match the recorded
one.  One key of each family up to d = 3 is also certified from its
V-file against the same hash, so the V path is held to the same bytes.
The tracer test pins each function bench/tracer.py replaces, so
that removing one fails here instead of in a traced benchmark run.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import tracer  # noqa: E402

from kalai3d import cli, kalai, lattice, polytope, simplex  # noqa: E402

GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
V_FAMILIES = ("box", "cross", "octagon", "prism", "bipyramid", "triangle",
              "hexagon", "diagbasis", "skewbasis")
V_KEYS = [min(k for k in GOLDEN if k.split(":")[0] == fam) for fam in V_FAMILIES]


@pytest.fixture(scope="module")
def writer(tmp_path_factory):
    return corpus.Writer(tmp_path_factory.mktemp("golden"), random.Random(0))


def test_golden_covers_every_key():
    assert sorted(GOLDEN) == sorted(corpus.golden_keys())


def certify_hash(writer, key, form):
    writer.ops.clear()
    writer.keyed(key, (form,))
    (op,) = writer.ops
    argv = [a if a.startswith("--") else str(writer.root / a) for a in op.argv[1:]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([op.argv[0], *argv])
    assert code == op.exit_code
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_certificate(writer, key):
    assert certify_hash(writer, key, "h") == GOLDEN[key]


@pytest.mark.parametrize("key", V_KEYS)
def test_golden_certificate_from_v(writer, key):
    assert certify_hash(writer, key, "v") == GOLDEN[key]


def test_tracer_targets_exist():
    tr = tracer.Tracer(cli, polytope, lattice, kalai, simplex)
    for owner, attr, _, _ in tr._targets:
        assert attr in vars(owner), f"{owner.__name__}.{attr}"
