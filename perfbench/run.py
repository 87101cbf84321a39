"""Entry point: ``python3 perfbench/run.py --workload NAME --seed N``.

Run from the repository root.  The benchmark imports the package under
test from ``src/`` next to this directory; without it there is nothing
to measure and the run fails before printing a result.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no package to measure under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:1] = [ROOT, SRC]
    from perfbench.suite import main

    raise SystemExit(main())
