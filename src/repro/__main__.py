"""``python -m repro`` and ``repro`` entry point.

OpenBLAS and OpenMP start their worker threads when NumPy is imported,
and those threads busy-wait on the other cores, where the two-thread
Table 1 simulation and EP sampling want to run.  No ``repro`` command
does work that a threaded BLAS speeds up, so :func:`main` defaults both
pools to one thread before anything imports NumPy; a value the user set
still wins.  The library import (``import repro``) leaves the
environment alone.
"""

import os
from collections.abc import Sequence

__all__ = ["main"]


def main(argv: Sequence[str] | None = None) -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
