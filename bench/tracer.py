"""Per-layer tracing for the benchmark.

``Tracer.install`` replaces the public functions of each ``kalai3d``
module with timing wrappers, at the name the caller looks up (``kalai``
imports ``enumerate_faces`` into its own namespace, so the wrapper goes
on ``kalai.enumerate_faces`` as well as on ``cli.enumerate_faces``).
Each call records a span ``[name, start, end, parent]`` in memory and
bumps the layer's counters; ``restore`` puts every original back.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans add up to the time spent in
``cli.main``.  What the operation's timer saw outside ``cli.main`` is
reported as ``other``.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from math import comb

# Layers reported as self time in seconds, in the order they are printed.
LAYERS = (
    "fileio.read", "fileio.format",
    "polytope.build", "polytope.vertices_from_hrep", "polytope.facets_from_vrep",
    "ratgeom.affine_rank", "symmetry.verify_basis", "lattice.enumerate_faces",
    "kalai.search", "kalai.relint", "simplex.maximize",
    "cli.serialize", "cli.self",
)

COUNTERS = (
    "fileio.read_calls", "polytope.vertices_from_hrep_calls", "polytope.subsets",
    "polytope.vertices_out", "polytope.facets_out", "ratgeom.affine_rank_calls",
    "symmetry.verify_basis_calls", "lattice.faces", "kalai.lp_calls", "kalai.cones",
    "kalai.faces_scanned", "kalai.screen_rejects", "simplex.maximize_calls",
)


class Tracer:
    """Wraps the program's layers; one instance per benchmark run."""

    def __init__(self, cli, polytope, lattice, kalai, simplex):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._saved: list = []
        self._certified: list = []
        self._lattice = None
        count = self.counts

        def read(args, result):
            count["fileio.read_calls"] += 1

        def vertices(args, result):
            hrep = args[0]
            count["polytope.vertices_from_hrep_calls"] += 1
            count["polytope.subsets"] += comb(len(hrep.halfspaces), hrep.dim)
            count["polytope.vertices_out"] += len(result.vertices)

        def facets(args, result):
            count["polytope.facets_out"] += len(result.halfspaces)

        def rank(args, result):
            count["ratgeom.affine_rank_calls"] += 1

        def symmetry(args, result):
            count["symmetry.verify_basis_calls"] += 1

        def faces(args, result):
            count["lattice.faces"] += result.total
            self._lattice = result

        def certify(args, result):
            count["kalai.cones"] += len(result.witnesses)
            self._certified.append((result, self._lattice))

        def relint(args, result):
            count["kalai.lp_calls"] += 1

        def maximize(args, result):
            count["simplex.maximize_calls"] += 1

        self._targets = (
            (cli, "main", "cli.self", None),
            (cli, "read_polytope", "fileio.read", read),
            (cli, "read_basis", "fileio.read", read),
            (cli, "format_polytope_text", "fileio.format", None),
            (cli, "build_polytope", "polytope.build", None),
            (polytope, "vertices_from_hrep", "polytope.vertices_from_hrep", vertices),
            (polytope, "facets_from_vrep", "polytope.facets_from_vrep", facets),
            (polytope, "affine_rank", "ratgeom.affine_rank", rank),
            (lattice, "affine_rank", "ratgeom.affine_rank", rank),
            (cli, "verify_basis", "symmetry.verify_basis", symmetry),
            (kalai, "verify_basis", "symmetry.verify_basis", symmetry),
            (cli, "enumerate_faces", "lattice.enumerate_faces", faces),
            (kalai, "enumerate_faces", "lattice.enumerate_faces", faces),
            (cli, "certify", "kalai.search", certify),
            (kalai, "relint_meets_cone_interior", "kalai.relint", relint),
            (simplex.Model, "maximize", "simplex.maximize", maximize),
            (kalai.Certificate, "to_json_dict", "cli.serialize", None),
        )

    def _wrap(self, fn, name, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for owner, attr, name, after in self._targets:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, after))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict:
        """Seconds per layer with the time of nested spans taken out."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - children[i]
        return out

    def derived_counts(self) -> dict:
        """Counters read off the certificates and their lattices.

        The witness scan tests faces in lattice order up to the first hit,
        so a cone scans (index of its witness face + 1) faces, or every
        proper face when it has none.  Each scanned face is one screen
        test; the faces that reach the LP are the lp_calls.
        """
        scanned = found = 0
        for cert, lat in self._certified:
            if not cert.witnesses:
                continue
            index = {f.vertex_ids: i for i, f in enumerate(lat.faces)}
            proper = sum(1 for f in lat.faces if f.dim < lat.dim)
            for w in cert.witnesses:
                if w is None:
                    scanned += proper
                else:
                    scanned += index[w.face.vertex_ids] + 1
                    found += 1
        lp_calls = self.counts["kalai.lp_calls"]
        return {
            "kalai.faces_scanned": scanned,
            "kalai.screen_rejects": scanned - lp_calls,
            "kalai.lp_hit_ratio": found / lp_calls if lp_calls else 0.0,
        }

    def dump(self, path, extra: dict) -> None:
        """Write every span and counter as JSON, with the run's metadata."""
        counts = {**self.counts, **self.derived_counts()}
        doc = {**extra, "counts": counts, "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
