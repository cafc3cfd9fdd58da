"""Import paths for the benchmark's own tests: the program, its fixture
generator and the benchmark modules.  Run with ``python3 -m pytest perfbench``
from the root of the repository."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "tests", ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
