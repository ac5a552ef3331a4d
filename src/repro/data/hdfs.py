"""Simulated HDFS block store.

The thesis stores inputs as CSV in HDFS with a replication factor of 3
(§5.1.2) and attributes much of Hive's slowdown to materializing
intermediate results back to HDFS between MapReduce jobs (§5.2).  The
platform simulators need a disk layer whose I/O can be metered; this
module provides exactly that — named files made of fixed-size blocks,
with counters for bytes read and written.

Payloads are held in memory (this is a simulator), but every access is
accounted so cost models can convert bytes to simulated seconds.
"""

from repro.common.errors import DataError

DEFAULT_BLOCK_SIZE = 128 * 1024 * 1024
DEFAULT_REPLICATION = 3


class HdfsFile:
    """A file: an ordered list of blocks plus total logical size."""

    def __init__(self, name, size_bytes, block_size, replication, payload=None):
        self.name = name
        self.size_bytes = size_bytes
        self.block_size = block_size
        self.replication = replication
        self.payload = payload

    @property
    def num_blocks(self):
        if self.size_bytes == 0:
            return 0
        return -(-self.size_bytes // self.block_size)  # ceil division


class SimulatedHdfs:
    """In-memory stand-in for an HDFS namespace with I/O accounting."""

    def __init__(self, block_size=DEFAULT_BLOCK_SIZE, replication=DEFAULT_REPLICATION):
        if block_size <= 0:
            raise DataError("block size must be positive")
        if replication < 1:
            raise DataError("replication factor must be at least 1")
        self.block_size = block_size
        self.replication = replication
        self._files = {}
        self.bytes_written = 0
        self.bytes_read = 0

    def write(self, name, size_bytes, payload=None):
        """Create or replace a file; counts replicated write bytes."""
        if size_bytes < 0:
            raise DataError("file size must be non-negative")
        self._files[name] = HdfsFile(
            name, size_bytes, self.block_size, self.replication, payload
        )
        self.bytes_written += size_bytes * self.replication
        return self._files[name]

    def read(self, name):
        """Read a file back; counts one copy's worth of read bytes."""
        try:
            f = self._files[name]
        except KeyError:
            raise DataError("no such HDFS file: %r" % name) from None
        self.bytes_read += f.size_bytes
        return f

    def delete(self, name):
        self._files.pop(name, None)

    def exists(self, name):
        return name in self._files

    def read_metadata(self, name):
        """Like :meth:`read` but without charging I/O (namenode lookup)."""
        try:
            return self._files[name]
        except KeyError:
            raise DataError("no such HDFS file: %r" % name) from None

    def listing(self):
        return sorted(self._files)

    def reset_counters(self):
        self.bytes_written = 0
        self.bytes_read = 0
