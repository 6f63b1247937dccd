"""Entry point: ``python3 perfbench/run.py --workload NAME [--seed N]
[--seconds S] [--trace 0|1]``, run from the repository root.

Puts the repository root on ``sys.path`` (for the ``perfbench``
package; the harness adds ``src/`` once it has checked it exists) and
hands over to :func:`perfbench.harness.main`.
"""

import pathlib
import sys

if __name__ == "__main__":
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
    from perfbench.harness import main

    sys.exit(main())
