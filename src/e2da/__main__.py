"""The process entry of `python -m e2da` and of the `e2da` console script."""

import gc
import sys


def run() -> None:
    """Run the command line and exit with its code.

    Every object alive when main returns dies with the process, so they are
    frozen out of the collector first: finalization then skips the full
    collections it would run over them.  cli.main itself, which callers may
    run in process, leaves the collector alone."""
    from .cli import main

    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
