"""Put the benchmark modules and the checkout's ikdlab on the import path."""

import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import ikdlab.cli  # noqa: E402,F401  (the tracer patches every loaded module)
