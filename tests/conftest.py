"""Shared test configuration.

The process backend refuses single-core hosts by default (real processes
only time-slice there, so the threaded engine wins — see
``process_fallback_reason``).  CI runners and dev containers are often
single-core, which would silently skip every real-process test; forcing
the backend keeps the process suite exercised everywhere.  Set before
any test module imports, because skip markers evaluate
``process_fallback_reason`` at import time.
"""

import os

os.environ.setdefault("REPRO_PARALLEL_FORCE", "1")
