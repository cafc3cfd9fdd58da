#!/usr/bin/env python3
"""Run one biolock benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload door --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Human-readable lines come first: environment, every
metric by name and unit, the correctness checks and the digests.  The last
line is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The program is imported from ``src/`` and the fixture
generator from ``tests/synthgen.py`` of the same checkout; without them the
script exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# Printed next to the generic metrics under the names a reader of each
# workload looks for.
ALIASES = {
    "door": {"op_mean_ms": "access_mean_ms", "op_p50_ms": "access_p50_ms",
             "op_p90_ms": "access_p90_ms"},
    "search": {"op_mean_ms": "identify_mean_ms", "op_p50_ms": "identify_p50_ms"},
    "enroll": {"op_mean_ms": "enroll_mean_ms", "op_p50_ms": "enroll_p50_ms"},
}


def _pin_threads() -> None:
    """One BLAS/OpenMP thread: the benchmark is one client on a 2-core box."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("door", "search", "enroll"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "biolock" / "__init__.py",
                           ROOT / "tests" / "synthgen.py") if not p.is_file()]
    if missing:
        print(f"error: program sources not found: {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    _pin_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import bench

    res = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)

    print(f"workload {res.workload} seed {res.seed} trace {args.trace}")
    print(f"why {bench.WHY[res.workload]}")
    for key, value in bench.environment().items():
        print(f"env.{key} {value}")
    aliases = ALIASES[res.workload]
    for name, m in res.metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
        if name in aliases:
            print(f"{aliases[name]} {m['value']} {m['unit']}")
    for note in res.notes:
        print(note)
        name, _, rest = note.partition(" ")
        if name in aliases:
            print(f"{aliases[name]} {rest}")
    for name, ok in res.checks.items():
        print(f"check {name} {'PASS' if ok else 'FAIL'}")
    for name, digest in res.digests.items():
        print(f"digest.{name} {digest}")
    print(json.dumps({"correct": res.correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": res.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
