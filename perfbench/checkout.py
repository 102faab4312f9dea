"""Locate the checkout the benchmark measures and import its package.

The benchmark runs from the root of a checkout and measures the package
under ``src/`` there, never an installed copy.  Without that source tree it
stops with exit code 2 before measuring anything.
"""

from __future__ import annotations

import os
import sys


def import_qtdelta(root=None):
    """Import ``qtdelta`` from ``<root>/src``; exit 2 when it is missing."""
    root = os.path.abspath(root or os.getcwd())
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qtdelta", "__init__.py")):
        print(f"perfbench: no qtdelta source tree under {src}",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    import qtdelta
    if os.path.dirname(os.path.dirname(os.path.abspath(qtdelta.__file__))) != src:
        print(f"perfbench: imported qtdelta from {qtdelta.__file__}, "
              f"not from {src}", file=sys.stderr)
        sys.exit(2)
    return root
