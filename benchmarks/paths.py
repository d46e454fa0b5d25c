"""Locate the grs sources of the checkout the benchmark sits in."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_repo_grs() -> None:
    """Import grs from ``<root>/src``, never from an installed copy.

    Exits with code 2 when the checkout has no grs sources, so a bare
    copy of the benchmark prints no result.
    """
    if not (SRC / "grs" / "__init__.py").is_file():
        sys.exit(f"error: no grs sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import grs

    if Path(grs.__file__).resolve().parent != SRC / "grs":
        sys.exit(f"error: imported grs from {grs.__file__}, not {SRC}")
