"""The process entry of ``python -m postscore`` and of the ``postscore``
console script."""

import gc
import sys

from .cli import main


def run() -> None:
    """Run the command, then exit with its code. Before exiting, every object
    the interpreter tracks moves to gc's permanent generation, so the
    collections at interpreter exit do not walk numpy's and the command's
    objects again (README gives the time saved). No cyclic garbage is
    collected at exit then, and nothing here relies on a finalizer running:
    every file is closed by its ``with`` block. ``cli.main`` does not
    freeze, so callers in the same process keep a normal collector."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
