"""Run metrics: simulated time, per-phase attribution, counters.

The miner labels stages with a *phase* (``"candidate_pruning"``,
``"ancestor_generation"``, ``"gain"``, ``"iterative_scaling"``, ...)
so benchmarks can break simulated time down the way thesis Figures 3.1
and 3.2 do.  The memory timeline records (simulated time, cached bytes)
pairs for the Figure 4.3/4.4 plots.

Accumulation is thread-safe: ``charge`` / ``increment`` / ``merge``
take an internal lock so a registry shared across threads (a cluster
reused by concurrent service jobs) never loses updates.  The *phase
stack* stays driver-owned — stage kernels never push or pop phases;
all stage-level charges are applied on the driver thread in partition
order, which is what keeps parallel and serial runs bit-identical.
"""

import threading

from collections import OrderedDict


class MetricsRegistry:
    """Accumulates simulated time and engine counters for one run."""

    def __init__(self):
        self.simulated_seconds = 0.0
        self.phase_seconds = OrderedDict()
        self.counters = OrderedDict()
        self.memory_timeline = []
        self._phase_stack = []
        self._lock = threading.RLock()

    # -- phases --------------------------------------------------------

    def push_phase(self, name):
        with self._lock:
            self._phase_stack.append(name)

    def pop_phase(self):
        with self._lock:
            self._phase_stack.pop()

    @property
    def current_phase(self):
        return self._phase_stack[-1] if self._phase_stack else "unattributed"

    def charge(self, seconds):
        """Advance simulated time, attributing it to the current phase."""
        with self._lock:
            self.simulated_seconds += seconds
            phase = self.current_phase
            self.phase_seconds[phase] = (
                self.phase_seconds.get(phase, 0.0) + seconds
            )

    # -- counters ------------------------------------------------------

    def increment(self, name, amount=1):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def counter(self, name):
        return self.counters.get(name, 0)

    # -- memory timeline -----------------------------------------------

    def record_memory(self, cached_bytes):
        with self._lock:
            self.memory_timeline.append((self.simulated_seconds, cached_bytes))

    # -- views -----------------------------------------------------------

    def phase(self, name):
        return self.phase_seconds.get(name, 0.0)

    def snapshot(self):
        """Immutable copy of all metrics, for diffing before/after."""
        with self._lock:
            return {
                "simulated_seconds": self.simulated_seconds,
                "phase_seconds": dict(self.phase_seconds),
                "counters": dict(self.counters),
            }

    def merge(self, other):
        """Fold another registry's totals into this one."""
        theirs = other.snapshot()
        with self._lock:
            self.simulated_seconds += theirs["simulated_seconds"]
            for name, seconds in theirs["phase_seconds"].items():
                self.phase_seconds[name] = (
                    self.phase_seconds.get(name, 0.0) + seconds
                )
            for name, amount in theirs["counters"].items():
                self.counters[name] = self.counters.get(name, 0) + amount
        return self
