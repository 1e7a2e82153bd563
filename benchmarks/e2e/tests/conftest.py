"""Self-tests of the benchmark (``pytest benchmarks/e2e/tests``; not
part of tier-1).  They import the benchmark as ``benchmarks.e2e`` from
the repository root and the library from ``src/``."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)
