"""Make the benchmark's modules and the library importable from its tests:
    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]
