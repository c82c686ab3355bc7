"""Write golden.json: the certificate sha256 of every keyed instance.

    python3 bench/golden.py

Run it only at the commit that defines the benchmark's expected
certificates; later commits must reproduce these hashes byte for byte.
Each key is certified from its H-file; run.py checks that the V-file
gives the same bytes.
"""

import hashlib
import json
import random
import shutil
import sys

import corpus
import run


def main() -> int:
    cli = run.load_program()[0]
    work = run.WORK / "golden"
    shutil.rmtree(work, ignore_errors=True)
    writer = corpus.Writer(work, random.Random(0))
    golden = {}
    try:
        for key in corpus.golden_keys():
            writer.ops.clear()
            writer.keyed(key, ("h",))
            (op,) = writer.ops
            code, out, _ = run.run_op(cli, run.argv_for(op, work))
            failed = run.verify([(op, code, out)], {})
            if failed:
                print(f"{key}: {failed[0][0]}", file=sys.stderr)
                return 1
            golden[key] = hashlib.sha256(out.encode()).hexdigest()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = run.BENCH / "golden.json"
    path.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} hashes to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
