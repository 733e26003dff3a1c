"""Process entry of ``python -m hyptri`` and of the ``hyptri`` console script.

``run()`` calls ``cli.main()``, then ``gc.freeze()``, and returns the exit
code. The freeze moves every object the collector tracks into its permanent
generation, so the interpreter's last collection at exit, a pass over every
object still alive that only frees memory the OS takes back anyway, finds
nothing to scan. The rest of the shutdown still runs: atexit handlers, the
flush of the std streams and module teardown. The freeze comes after
``main`` returns, when every output is written and closed and ``scan``'s
forked child is reaped.

Call ``cli.main(argv)`` itself to run a command in a long-lived process: it
never freezes, so that process's garbage is still collected.
"""

import gc
import sys

from .cli import main


def run() -> int:
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
