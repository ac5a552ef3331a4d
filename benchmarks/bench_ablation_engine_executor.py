"""Ablation — process-pool vs thread-pool executor on GIL-bound kernels.

The engine's thread mode only speeds up kernels that release the GIL
inside NumPy.  A table whose domains are too wide for the 63-bit packed
codec — forced here — mines through the same kernels with Python-int
keys in ``object`` arrays: every key shift, mask and ``np.unique``
comparison is a Python-level operation that holds the GIL.  Threads
serialize on it, while ``executor="process"`` ships the same kernels to
worker processes and uses the cores.

This ablation mines one wide-domain synthetic workload in serial,
thread and process modes, verifies bit-identity (rules, lambdas, KL
trace, every simulated metric), and reports wall-clock.  The
acceptance floor — process beats thread — needs at least 2 real cores;
narrower hosts skip the floor with a reason but still verify identity
and report measured numbers in the JSON line
(``ENGINE_EXECUTOR_JSON``).
"""

import os
import time

from repro.bench import (
    json_result_line,
    mining_results_identical,
    print_table,
    run_variant,
    speedup,
)
from repro.core.codec import RowCodec
from repro.data.generators import SyntheticSpec, generate

ROWS = 20_000
#: 8 attributes x ~9-10 bits each: past the packed codec's 63-bit
#: budget, so candidate generation keys with Python ints.
CARDINALITIES = [500] * 8
NUM_PARTITIONS = 8
PARALLELISM = 4
VARIANT = "fastpruning"
K = 3
SAMPLE_SIZE = 32


def build_workload():
    spec = SyntheticSpec(
        num_rows=ROWS,
        cardinalities=CARDINALITIES,
        skew=0.6,
        num_planted_rules=4,
        planted_arity=2,
        effect_scale=20.0,
        noise_scale=1.0,
        base_measure=50.0,
    )
    table, _ = generate(spec, seed=7)
    assert not RowCodec.from_table(table).fits, (
        "workload must overflow the 63-bit codec to key with Python ints"
    )
    return table


def mine_once(table, parallelism, executor):
    started = time.perf_counter()
    result = run_variant(
        table, VARIANT, parallelism=parallelism, executor=executor,
        k=K, sample_size=SAMPLE_SIZE, seed=0,
        num_partitions=NUM_PARTITIONS,
    )
    wall = time.perf_counter() - started
    return result, wall


def run_comparison():
    table = build_workload()
    serial_result, serial_wall = mine_once(table, 1, "thread")
    thread_result, thread_wall = mine_once(table, PARALLELISM, "thread")
    process_result, process_wall = mine_once(table, PARALLELISM, "process")
    return {
        "serial_wall": serial_wall,
        "thread_wall": thread_wall,
        "process_wall": process_wall,
        "thread_speedup": speedup(serial_wall, thread_wall),
        "process_speedup": speedup(serial_wall, process_wall),
        "identical_thread": mining_results_identical(serial_result,
                                                     thread_result),
        "identical_process": mining_results_identical(serial_result,
                                                      process_result),
        "simulated_seconds": serial_result.simulated_seconds,
    }


def test_ablation_engine_executor(once):
    cores = len(os.sched_getaffinity(0))
    out = once(run_comparison)
    print_table(
        "Ablation — executor kind on Python-int-keyed kernels "
        "(%d workers)" % PARALLELISM,
        ["mode", "wall seconds", "speedup vs serial"],
        [
            ["serial", out["serial_wall"], 1.0],
            ["thread x%d" % PARALLELISM, out["thread_wall"],
             out["thread_speedup"]],
            ["process x%d" % PARALLELISM, out["process_wall"],
             out["process_speedup"]],
        ],
        note="bit-identical across all modes: %s; host cores: %d" % (
            out["identical_thread"] and out["identical_process"], cores,
        ),
    )
    print(json_result_line("ENGINE_EXECUTOR_JSON", {
        "rows": ROWS,
        "partitions": NUM_PARTITIONS,
        "parallelism": PARALLELISM,
        "host_cores": cores,
        "serial_wall_seconds": out["serial_wall"],
        "thread_wall_seconds": out["thread_wall"],
        "process_wall_seconds": out["process_wall"],
        "thread_speedup": out["thread_speedup"],
        "process_speedup": out["process_speedup"],
        "bit_identical": out["identical_thread"] and
        out["identical_process"],
        "simulated_seconds": out["simulated_seconds"],
        "executor": "thread+process",
    }))
    assert out["identical_thread"]
    assert out["identical_process"]
    # The GIL-sidestep only materializes with real cores under the
    # worker processes; identity and measured numbers stand regardless.
    if cores < 2:
        import pytest

        pytest.skip(
            "process-beats-thread floor needs >=2 cores; host has %d "
            "(bit-identity verified above)" % cores
        )
    assert out["process_wall"] < out["thread_wall"]
