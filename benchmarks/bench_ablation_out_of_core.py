"""Ablation — in-RAM vs out-of-core (file-backed) mining.

The data layer's buffer pool (PR 6) lets the miner run over a colfile
whose decoded size exceeds the pool: blocks stream through a bounded
LRU pool (`REPRO_BUFFER_POOL_BYTES`), evicting and re-faulting as
needed, and process-mode jobs attach mmap-backed partition blocks
instead of receiving the table's rows in every batch.

This ablation mines one synthetic workload three ways and verifies the
out-of-core determinism guarantee — bit-identical rules, lambdas,
estimates, KL trace and simulated metrics between the in-RAM and
file-backed paths:

1. in-RAM vs file-backed wall-clock, single process (the streaming
   overhead of the pool);
2. process-mode peak RSS, measured inside a fresh child process per
   mode (``ru_maxrss`` is monotonic per process).  The in-RAM run ships
   each partition's rows in the stage batch, the file-backed run ships
   mmap descriptors; neither may add a ``/dev/shm`` entry, and the RSS
   numbers in the JSON line show what the two paths cost.

The pool is deliberately sized at a quarter of the decoded table, so
eviction and re-fault paths are exercised, not just the happy path.
Emits ``OUT_OF_CORE_JSON``; ``REPRO_BENCH_SMOKE=1`` shrinks the
workload, keeping every assertion.
"""

import multiprocessing
import os
import resource
import time

from repro.bench import (
    bench_smoke_enabled,
    json_result_line,
    mining_results_identical,
    print_table,
    run_variant,
)
from repro.data.colfile import write_colfile
from repro.data.generators import SyntheticSpec, generate
from repro.data.table import Table

SMOKE = bench_smoke_enabled()

ROWS = 3000 if SMOKE else 30_000
CARDINALITIES = [8, 6, 5, 4]
BLOCK_ROWS = 512
NUM_PARTITIONS = 8
PARALLELISM = 4
VARIANT = "optimized"
K = 4
SAMPLE_SIZE = 32


def build_table():
    spec = SyntheticSpec(
        num_rows=ROWS,
        cardinalities=CARDINALITIES,
        skew=0.4,
        num_planted_rules=4,
        planted_arity=2,
        effect_scale=20.0,
        noise_scale=1.0,
        base_measure=50.0,
    )
    table, _ = generate(spec, seed=7)
    return table


def pool_bytes(table):
    """A pool a quarter the decoded table: must evict to finish."""
    return max(4096, table.estimated_bytes() // 4)


def mine_once(table, executor="thread", parallelism=1):
    started = time.perf_counter()
    result = run_variant(
        table, VARIANT, parallelism=parallelism, executor=executor,
        k=K, sample_size=SAMPLE_SIZE, seed=0,
        num_partitions=NUM_PARTITIONS,
    )
    return result, time.perf_counter() - started


def _shm_entries():
    """``/dev/shm`` entries named for this process (``repro-<pid>-*``)."""
    prefix = "repro-%d-" % os.getpid()
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith(prefix)}
    except OSError:  # no /dev/shm on this platform
        return set()


def _process_mode_child(queue, colpath, capacity, in_ram):
    """Mine in process mode and report this child's peak RSS.

    Runs in a fresh child so ``ru_maxrss`` (monotonic per process)
    reflects this mode's own footprint, not a previous run's.
    """
    from repro.data.colfile import read_colfile

    if in_ram:
        table = read_colfile(colpath)
    else:
        table = Table.open_colfile(colpath, capacity_bytes=capacity)
    before = _shm_entries()
    result, wall = mine_once(table, executor="process",
                             parallelism=PARALLELISM)
    # Read while the table is alive: nothing the job made may outlive
    # it there.
    shm_added = sorted(_shm_entries() - before)
    queue.put({
        "wall_seconds": wall,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "shm_added": shm_added,
        "rules": [tuple(m.rule.values) for m in result.rule_set],
        "lambdas": [float(v) for v in result.lambdas],
        "simulated_seconds": result.simulated_seconds,
    })


def measure_process_mode(colpath, capacity, in_ram):
    queue = multiprocessing.Queue()
    child = multiprocessing.Process(
        target=_process_mode_child, args=(queue, colpath, capacity, in_ram)
    )
    child.start()
    payload = queue.get(timeout=600)
    child.join(timeout=60)
    return payload


def run_comparison(colpath, table):
    capacity = pool_bytes(table)

    in_ram_result, in_ram_wall = mine_once(table)
    file_table = Table.open_colfile(colpath, capacity_bytes=capacity)
    file_result, file_wall = mine_once(file_table)

    ram_run = measure_process_mode(colpath, capacity, in_ram=True)
    mmap_run = measure_process_mode(colpath, capacity, in_ram=False)

    return {
        "identical": mining_results_identical(in_ram_result, file_result),
        "in_ram_wall": in_ram_wall,
        "file_wall": file_wall,
        "pool": file_table.buffer_pool.stats(),
        "decoded_bytes": table.estimated_bytes(),
        "capacity_bytes": capacity,
        "ram_run": ram_run,
        "mmap_run": mmap_run,
        "process_identical": (
            ram_run["rules"] == mmap_run["rules"]
            and ram_run["lambdas"] == mmap_run["lambdas"]
            and ram_run["simulated_seconds"] == mmap_run["simulated_seconds"]
        ),
    }


def test_ablation_out_of_core(once, tmp_path):
    table = build_table()
    colpath = str(tmp_path / "workload.col")
    write_colfile(table, colpath, block_rows=BLOCK_ROWS)
    out = once(lambda: run_comparison(colpath, table))

    pool = out["pool"]
    ram_rss = out["ram_run"]["peak_rss_kib"]
    mmap_rss = out["mmap_run"]["peak_rss_kib"]
    print_table(
        "Ablation — in-RAM vs file-backed mining "
        "(pool %d of %d decoded bytes)" % (
            out["capacity_bytes"], out["decoded_bytes"],
        ),
        ["path", "wall seconds", "peak RSS KiB (process mode)"],
        [
            ["in-RAM (rows in the batch)", out["in_ram_wall"], ram_rss],
            ["file-backed (mmap)", out["file_wall"], mmap_rss],
        ],
        note="bit-identical: %s; pool hits/misses/evictions: %d/%d/%d" % (
            out["identical"] and out["process_identical"],
            pool["hits"], pool["misses"], pool["evictions"],
        ),
    )
    print(json_result_line("OUT_OF_CORE_JSON", {
        "rows": ROWS,
        "block_rows": BLOCK_ROWS,
        "parallelism": PARALLELISM,
        "decoded_bytes": out["decoded_bytes"],
        "pool_capacity_bytes": out["capacity_bytes"],
        "in_ram_wall_seconds": out["in_ram_wall"],
        "file_backed_wall_seconds": out["file_wall"],
        "process_in_ram_peak_rss_kib": ram_rss,
        "process_file_backed_peak_rss_kib": mmap_rss,
        "process_rss_delta_kib": ram_rss - mmap_rss,
        "pool_hit_rate": pool["hit_rate"],
        "pool_evictions": pool["evictions"],
        "bit_identical": out["identical"] and out["process_identical"],
        "in_ram_shm_added": out["ram_run"]["shm_added"],
        "file_backed_shm_added": out["mmap_run"]["shm_added"],
    }))
    # Out-of-core determinism: the storage mode is invisible in results.
    assert out["identical"]
    assert out["process_identical"]
    # The undersized pool really streamed (evicted and stayed bounded).
    assert pool["evictions"] > 0
    assert pool["resident_bytes"] <= pool["capacity_bytes"]
    # Neither process-mode run puts anything in /dev/shm: in-RAM rows
    # cross in the batch, file-backed blocks as mmap descriptors.
    assert out["ram_run"]["shm_added"] == []
    assert out["mmap_run"]["shm_added"] == []
