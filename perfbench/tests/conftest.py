"""Make ``perfbench`` and the program under ``src/`` importable."""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
for path in (str(_ROOT / "src"), str(_ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)
