"""Benchmark collection configuration."""

import sys
from pathlib import Path

# Make `harness` importable regardless of pytest rootdir, and the test
# suite's dense reference oracle (tests/dense_reference.py) with it.
sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(1, str(Path(__file__).parent.parent / "tests"))
