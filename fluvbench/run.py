"""Benchmark entry point.

    python3 fluvbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Imports fluvinv from ``src`` of the same
checkout and nothing else; without those sources it exits with status 2
and prints no result. Earlier lines of standard output hold the run
manifest (and, with ``--trace 1``, the per-layer report); the last line is
the JSON result. The exit status is 1 when a correctness check failed.
"""

import os
import sys

# one process, one BLAS thread: pinned before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    p = argparse.ArgumentParser(description="fluvinv benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    src = ROOT / "src"
    if not (src / "fluvinv" / "__init__.py").is_file():
        print(f"fluvbench: no fluvinv sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import fluvinv

    if Path(fluvinv.__file__).resolve().parent != src / "fluvinv":
        print(f"fluvbench: fluvinv imported from {fluvinv.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from fluvbench import cases, harness

    if args.workload not in cases.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(cases.WORKLOADS)}")
    result, manifest, report = harness.measure(cases.WORKLOADS[args.workload], args.seed,
                                               args.seconds, bool(args.trace), ROOT)
    print(json.dumps({"manifest": manifest}))
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
