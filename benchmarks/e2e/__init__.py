"""The wire-to-block benchmark: the repo's one end-to-end benchmark.

    python -m benchmarks.e2e run [--workload NAME] [--seed N] [--trace]
    python -m benchmarks.e2e list
    python -m benchmarks.e2e compare A.json B.json

A single generator process starts the system under test (service +
front door, and shard workers where a workload needs them) as child
processes, drives it over loopback sockets, checks every reply against
a serial in-process reference and prints every metric by name with its
unit.  See ``README.md`` in this directory for the metric tables, the
layer -> metric -> workload predictions and the sandbox caveats.

Nothing under ``src/`` knows about this package; tracing is installed
from here (``trace.py``), around each layer's public entry points.
"""

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))
SRC_DIR = os.path.join(REPO_ROOT, "src")


def ensure_importable():
    """Put the repo's ``src/`` on ``sys.path``; exit 2 when it is absent.

    Entry points call this before importing ``repro`` so the registered
    command needs no ``PYTHONPATH``.  A checkout that holds only the
    benchmark has no program to measure: that is an error, not a result.
    """
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        sys.stderr.write(
            "benchmarks.e2e: no program to measure (%s/repro is missing)\n"
            % SRC_DIR
        )
        raise SystemExit(2)
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)
