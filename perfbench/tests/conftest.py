"""Put the benchmark modules on the import path, as the scripts have them."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
