"""The correctness oracle: reference answers and reply fingerprints.

The generator keeps its own in-RAM copy of every dataset and computes
each distinct request's reference with a serial in-process run
(``repro.core.miner.mine`` / ``SqlEngine.query``).  Every reply from the
SUT is fingerprinted the same way and compared; execution mode, storage
and the wire must be unobservable, so the comparison is byte-exact.
"""

import hashlib

from repro.core.miner import mine
from repro.data.generators import income_table
from repro.data.schema import Schema
from repro.data.table import Table
from repro.sql.engine import SqlEngine

from benchmarks.e2e.workloads import (
    TABLE_SEED,
    dim_rows,
    mine_pool,
    query_pool,
)


def build_table(spec):
    """The in-RAM table a dataset spec describes."""
    if spec["generator"] == "income":
        return income_table(num_rows=spec["rows"], seed=TABLE_SEED)
    if spec["generator"] == "dim":
        return Table.from_rows(Schema(["Key", "Region"], "Weight"),
                               dim_rows()[:spec["rows"]])
    raise ValueError("unknown generator %r" % spec["generator"])


def mining_fingerprint(result):
    """Digest of everything a mining reply must reproduce exactly."""
    digest = hashlib.sha256()
    digest.update(repr([
        (tuple(m.rule.values), m.avg_measure, m.count, m.gain, m.iteration)
        for m in result.rule_set
    ]).encode())
    digest.update(result.lambdas.tobytes())
    digest.update(result.estimates.tobytes())
    digest.update(repr(list(result.kl_trace)).encode())
    digest.update(repr(result.simulated_seconds).encode())
    return digest.hexdigest()


def rows_fingerprint(result_set):
    """Digest of a SQL reply: column names and rows, floats by repr."""
    return hashlib.sha256(repr(
        (list(result_set.columns), [tuple(row) for row in result_set.rows])
    ).encode()).hexdigest()


def fingerprint(kind, result):
    return (mining_fingerprint(result) if kind == "mine"
            else rows_fingerprint(result))


def references(workload, tables):
    """``{("mine"|"query", pool_index): fingerprint}`` for the pools."""
    expected = {}
    for index, params in enumerate(mine_pool(workload)):
        expected[("mine", index)] = mining_fingerprint(
            mine(tables["income"], parallelism=1, **params)
        )
    queries = query_pool(workload)
    if queries:
        engine = SqlEngine()
        for name, table in tables.items():
            engine.register_table(name, table)
        for index, (_, sql) in enumerate(queries):
            expected[("query", index)] = rows_fingerprint(engine.query(sql))
    return expected
