"""The ``gdclab`` command, run as ``python -m gdclab`` or the console script.

OpenBLAS and OpenMP run on one thread unless the caller sets their thread
counts: the convolutions already run whole bands on one worker per CPU
(layers.WORKERS), and BLAS threads beside them oversubscribe the CPUs.
The counts must be set before numpy loads, so the command line is imported
inside main.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def main():
    from .cli import main as run
    return run()


if __name__ == "__main__":
    raise SystemExit(main())
