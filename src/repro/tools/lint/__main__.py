"""Entry point for ``python -m repro.tools.lint``."""

import os
import sys

from .engine import main

if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader (a pager, ``head``) closed the pipe before the
        # report or graph dump was written out.  Point stdout at devnull
        # so the flush at interpreter exit does not raise again, and
        # exit 1: the output did not reach its reader in full.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 1
    sys.exit(code)
