"""Run ``curator serve-depot`` with the depot's entry points traced.

Usage: python -u bench/depot_launcher.py SPANS_PATH -- serve-depot ARGS...

The launcher wraps ``Depot.handle``, the depot's contract operations,
``Depot.__init__`` and ``Depot._save``, then hands the remaining
arguments to ``curator.cli.run``. SIGTERM stops the server the way an
interrupt would, and the recorded spans are written to SPANS_PATH before
the process exits. ``curator`` is imported from ``src/`` of the current
directory.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def _interrupt(_signum, _frame):
    raise KeyboardInterrupt


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    import curator.cli as cli
    from curator.depot import Depot

    from tracing import Tracer, instrument_depot

    tracer = Tracer()
    instrument_depot(tracer, Depot)
    tracer.active = True
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        return cli.run(argv[2:])
    finally:
        tracer.active = False
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
