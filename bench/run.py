"""kalai3d benchmark: time to verdict on three seeded corpora.

Run from the repository root:

    python3 bench/run.py --workload witness --seed 1 --seconds 40 --trace 0

The benchmark writes the workload's inputs for ``--seed`` (see corpus.py),
then calls ``kalai3d.cli.main`` on them one operation at a time in this
process: a closed loop with one client and no extra threads.  It repeats
whole passes over the operation list and stops at the pass end nearest
to ``--seconds``, checks every output (check.py), and prints one
``name: value unit`` line per metric, a stamp line, and, last, one JSON
object with the result.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` untraced and traced passes alternate and the metrics are
the per-layer numbers of the traced passes (tracer.py), per pass.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import check
import corpus
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_run"
SETUP_ROUNDS = 3
MAX_ERRORS_SHOWN = 5


def load_program():
    """Import kalai3d from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    if not (src / "kalai3d" / "cli.py").is_file():
        sys.exit(f"error: no kalai3d sources under {src}")
    sys.path.insert(0, str(src))
    modules = import_program()
    if Path(modules[0].__file__).resolve().parent != src / "kalai3d":
        sys.exit(f"error: imported kalai3d from {modules[0].__file__}, not from {src}")
    return modules


def import_program():
    """Import kalai3d afresh, dropping any earlier import of it."""
    for name in [n for n in sys.modules if n.split(".")[0] == "kalai3d"]:
        del sys.modules[name]
    from kalai3d import cli, kalai, lattice, polytope, ratgeom, simplex

    return cli, kalai, lattice, polytope, ratgeom, simplex


def git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_op(cli, argv: list) -> tuple:
    """(exit code or error text, stdout, seconds) for one CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # an op that raises is a failed op
            code = f"raised {exc!r}"
        seconds = time.perf_counter() - start
    return code, out.getvalue(), seconds


def execute(cli, ops: list, argvs: list) -> tuple:
    """Run every op once; return the outputs and the per-op seconds."""
    results, times = [], []
    for op, argv in zip(ops, argvs):
        code, out, seconds = run_op(cli, argv)
        results.append((op, code, out))
        times.append(seconds)
    return results, times


def verify(results: list, golden: dict) -> dict:
    """Map of failed op index to its errors, after op and group checks."""
    failed = {}
    groups: dict = {}
    for i, (op, code, out) in enumerate(results):
        if isinstance(code, int):
            errors = check.check_op(op, code, out, golden)
        else:
            errors = [code]
        if errors:
            failed[i] = errors
        if op.group is not None:
            groups.setdefault(op.group, []).append(i)
    for group, members in groups.items():
        errors = check.check_group(group, [results[i] for i in members])
        for i in members if errors else ():
            failed.setdefault(i, []).extend(errors)
    return failed


def argv_for(op, corpus_dir: Path) -> list:
    return [op.argv[0]] + [a if a.startswith("--") else str(corpus_dir / a)
                           for a in op.argv[1:]]


class Run:
    """Counts of attempted and failed ops, and the first errors seen."""

    def __init__(self, golden: dict):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def record(self, results: list) -> None:
        failed = verify(results, self.golden)
        self.attempted += len(results)
        self.failed += len(failed)
        for i, errors in failed.items():
            if len(self.errors) < MAX_ERRORS_SHOWN:
                self.errors.append(f"{' '.join(results[i][0].argv)}: {errors[0]}")


def setup(workload: str, seed: int, corpus_dir: Path, run: Run) -> tuple:
    """One set-up round: import the program, write the corpus, warm up.

    Returns the freshly imported modules, the ops and the round's seconds.
    """
    start = time.perf_counter()
    modules = import_program()
    shutil.rmtree(corpus_dir, ignore_errors=True)
    ops = corpus.write_corpus(workload, seed, corpus_dir / "ops")
    warm = corpus.warmup_ops(corpus_dir / "warmup")
    results, _ = execute(modules[0], warm, [argv_for(op, corpus_dir / "warmup") for op in warm])
    seconds = time.perf_counter() - start
    run.record(results)
    return modules, ops, seconds


def another_pass(elapsed: float, passes: int, seconds: float) -> bool:
    """Whether one more whole pass ends nearer to `seconds` than now."""
    return passes == 0 or elapsed + 0.5 * elapsed / passes < seconds


def end_to_end(ops: list, passes: list) -> tuple:
    """End-to-end metrics from the per-op seconds of every pass.

    Each op counts at its best time over the run's passes.  A shared
    virtual machine can alternate between two CPU speeds (1.6x apart on
    the one this was written on) in stretches of seconds; the best of
    several passes filters the slow stretches, where a median flips
    between the two speeds.
    """
    best = [min(samples) for samples in zip(*passes)]
    certify = [(op, t) for op, t in zip(ops, best) if op.command == "certify"]
    metrics = {
        "wall_s": (sum(best), "s"),
        "op_p50_s": (statistics.median(best), "s"),
        "cones_per_s": (sum(3**op.dim - 1 for op, _ in certify) / sum(t for _, t in certify),
                        "1/s"),
    }
    notes = {
        "wall_median_of_passes_s": (sum(statistics.median(x) for x in zip(*passes)), "s"),
        "ops_per_pass": (len(ops), "count"),
        "passes": (len(passes), "count"),
    }
    if len(ops) >= 200:
        notes["op_p95_s"] = (statistics.quantiles(best, n=100)[94], "s")
    full = [t for op, t in certify if all(op.hypotheses)]
    short = [t for op, t in certify if not all(op.hypotheses)]
    if full and short:
        notes["certify_full_p50_s"] = (statistics.median(full), "s")
        notes["certify_short_circuit_p50_s"] = (statistics.median(short), "s")
    return metrics, notes


def per_layer(tr: tracer.Tracer, traced: list, untraced: list) -> dict:
    """Per-pass layer self times and counters of the traced passes."""
    n = len(traced)
    wall = sum(map(sum, traced)) / n
    self_times = tr.self_times()
    counts = {**tr.counts, **tr.derived_counts()}
    metrics = {f"{name}_s": (self_times[name] / n, "s") for name in tracer.LAYERS}
    metrics.update({name: (counts.get(name, 0) / n, "count") for name in tracer.COUNTERS})
    metrics["kalai.lp_hit_ratio"] = (counts["kalai.lp_hit_ratio"], "ratio")
    metrics["trace.other_s"] = (wall - sum(self_times.values()) / n, "s")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_ratio"] = (wall / (sum(map(sum, untraced)) / len(untraced)), "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_at_start = os.getloadavg()

    load_program()
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
    run = Run(golden)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    corpus_dir = WORK / f"corpus-{tag}-{os.getpid()}"
    try:
        # Set-up rounds before and after the passes; the median is setup_s.
        rounds = [setup(args.workload, args.seed, corpus_dir, run)
                  for _ in range(SETUP_ROUNDS)]
        modules, ops, _ = rounds[-1]
        cli, kalai, lattice, polytope, ratgeom, simplex = modules
        argvs = [argv_for(op, corpus_dir / "ops") for op in ops]

        untraced, traced = [], []
        tr = tracer.Tracer(cli, polytope, lattice, kalai, simplex)
        start = time.perf_counter()
        while another_pass(time.perf_counter() - start, len(untraced), args.seconds):
            results, times = execute(cli, ops, argvs)
            untraced.append(times)
            run.record(results)
            if args.trace:
                tr.install()
                try:
                    results, times = execute(cli, ops, argvs)
                finally:
                    tr.restore()
                traced.append(times)
                run.record(results)
        rounds += [setup(args.workload, args.seed, corpus_dir, run)
                   for _ in range(SETUP_ROUNDS)]
        setup_s = statistics.median(seconds for _, _, seconds in rounds)
    finally:
        shutil.rmtree(corpus_dir, ignore_errors=True)

    stamp = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "backend": ratgeom.Rational.__module__,
        "nproc": os.cpu_count(), "git_sha": git_sha(), "loadavg_1m_at_start": load_at_start[0],
    }
    if args.trace:
        metrics = per_layer(tr, traced, untraced)
        notes = {}
        WORK.mkdir(exist_ok=True)
        tr.dump(WORK / f"trace-{tag}.json", {"stamp": stamp, "passes": len(traced)})
    else:
        metrics, notes = end_to_end(ops, untraced)
        metrics["setup_s"] = (setup_s, "s")
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mib"] = (peak_kib / 1024, "MiB")
    notes["failed_ops"] = (run.failed / run.attempted, "share")

    for error in run.errors:
        print(f"FAILED {error}", file=sys.stderr)
    for name, (value, unit) in {**metrics, **notes}.items():
        print(f"{name}: {value:.6g} {unit}")
    print("stamp: " + json.dumps(stamp))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
