import sys
from pathlib import Path

# the benchmark modules are run as scripts, not installed; kslyap comes from src/
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]
