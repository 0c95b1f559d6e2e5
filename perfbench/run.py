"""Benchmark entry point.

    python3 perfbench/run.py --workload desk-short --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the workload's inputs from --seed,
measures for about --seconds, checks the program's outputs, prints readable
lines and, as the last line, one JSON object with the keys correct,
attempted, failed and metrics (end-to-end metrics with --trace 0, per-layer
ones with --trace 1). Scratch files go to .perfbench/ under the root; the
span trace of a traced run is left there.
"""
import os
import sys
from pathlib import Path

# BLAS threads are fixed before NumPy loads: one thread keeps runs steady on a
# shared machine and is at or below any nproc
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent


def main():
    if not (ROOT / "src" / "momentspot" / "__init__.py").is_file():
        print(f"perfbench: no momentspot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench
    return bench.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
