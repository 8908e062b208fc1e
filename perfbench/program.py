"""Locate and import the helmpert sources of the checkout the benchmark sits in.

The benchmark measures the program from the checkout's own ``src/``
directory and nothing else: an installed copy elsewhere must not stand in
for a missing or broken checkout.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load():
    """Import helmpert from ``ROOT/src``; ImportError when it is not there."""
    if not (SRC / "helmpert" / "__init__.py").is_file():
        raise ImportError(f"no helmpert package under {SRC}")
    sys.path.insert(0, str(SRC))
    import helmpert

    origin = Path(helmpert.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"helmpert was imported from {origin}, not {SRC}")
    return helmpert
