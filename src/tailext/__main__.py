"""The ``tailext`` command, run as ``python -m tailext`` or through the
console script.

It pins BLAS to one thread before numpy loads, overriding any value already
set: the thread count changes the order of BLAS's floating-point sums, and
the CLI's outputs must be the same bytes on every machine. Runs are spread
over the CPUs by forked processes instead (``core._map_runs``).
"""
import os
import sys


def main(argv=None) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
