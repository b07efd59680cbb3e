"""The adhocsv benchmark: one command for every workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds the workload's inputs from the seed, runs it for S seconds with
the library from ``src/``, checks the outputs and prints one JSON object as
the last line of standard output: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` the library is wrapped and the per-layer ones are
reported instead.  Workloads and metrics are listed in BENCHMARK.json.
Records, checkpoints and span files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS thread: deterministic timings, and never more threads than cores.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    if BLAS_THREADS > nproc:
        print(f"perfbench: {BLAS_THREADS} BLAS threads exceed the {nproc} usable cores", file=sys.stderr)
        return 2
    for var in BLAS_ENV:  # must precede the first numpy import
        os.environ[var] = str(BLAS_THREADS)

    if not (SRC / "adhocsv" / "__init__.py").is_file():
        print(f"perfbench: no adhocsv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import adhocsv

    if Path(adhocsv.__file__).resolve().parent != SRC / "adhocsv":
        print(f"perfbench: imported adhocsv from {adhocsv.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                       HERE / "out", BLAS_THREADS)
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    produced = {name: m["unit"] for name, m in result["metrics"].items()}
    if produced != declared:
        print(f"perfbench: metrics {produced} do not match BENCHMARK.json {declared}", file=sys.stderr)
        return 3
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
