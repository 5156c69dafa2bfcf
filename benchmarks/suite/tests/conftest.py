"""Put the suite's modules and the program under test on the path."""

import os
import sys

SUITE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(os.path.dirname(SUITE))
for path in (os.path.join(REPO, "src"), SUITE):
    if path not in sys.path:
        sys.path.insert(0, path)
