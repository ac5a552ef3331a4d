"""Self-check of the benchmark; run explicitly, it is not tier-1:

    python -m pytest benchmarks/e2e/test_selfcheck.py -q

Asserts that ``BENCHMARK.json``, ``bounds.py`` and what ``run`` prints
name the same workloads and metrics, that a shrunk ``run --check`` of
all five workloads is correct and leak-free, that the registered
command ends with the contract's JSON object, and that ``compare``
reaches each of its three verdicts.
"""

import json
import os
import shutil
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

from benchmarks.e2e import bounds, compare  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402


def _run(*argv, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e"] + list(argv),
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_benchmark_json_is_the_bounds_table():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as source:
        committed = json.load(source)
    assert committed == bounds.benchmark_json(WORKLOADS)
    assert committed["run_seconds"] == bounds.RUN_SECONDS


def test_check_run_is_correct_and_names_match(tmp_path):
    out = tmp_path / "check.json"
    done = _run("run", "--check", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    assert "check: ok" in done.stdout
    result = json.loads(out.read_text())
    assert list(result["workloads"]) == list(WORKLOADS)
    end_to_end = {row[0] for row in bounds.END_TO_END}
    per_layer = set(bounds.per_layer_units())
    for name, entry in result["workloads"].items():
        assert entry["problems"] == [], (name, entry["problems"])
        for run in entry["untraced"]:
            assert run["failed"] == 0 and run["leaks"] == []
            printed = set(run["end_to_end"])
            assert printed <= end_to_end, (name, printed - end_to_end)
            assert set(bounds.REGISTERED_END_TO_END) <= printed
            for metric in run["end_to_end"].values():
                assert metric["n"] >= 1  # every timing states its count
        traced = entry["traced"]
        assert traced["failed"] == 0 and traced["leaks"] == []
        assert set(traced["per_layer"]) <= per_layer
        # Size-independent predictions must hold even when shrunk.
        for check in traced["predictions"]:
            if "% of the op" not in check["prediction"]:
                assert check["holds"], (name, check)


def test_registered_command_ends_with_the_contract_object():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as source:
        registered = json.load(source)
    assert registered["command"][:3] == ["python3", "-m", "benchmarks.e2e"]
    tail = registered["command"][3:]
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        done = _run(*tail, "--workload", "sql_churn", "--seed", "7",
                    "--seconds", "1", "--trace", trace)
        assert done.returncode == 0, done.stdout + done.stderr
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert last["attempted"] >= 1
        assert list(last["metrics"]) == [m["name"]
                                         for m in registered[section]]
        units = {m["name"]: m["unit"] for m in registered[section]}
        for name, metric in last["metrics"].items():
            assert metric["unit"] == units[name]


def test_bare_checkout_is_an_error_not_a_result(tmp_path):
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(REPO_ROOT, "benchmarks", "e2e"),
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _run("run", "--workload", "mine_cold", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def _result(values_by_metric):
    return {"workloads": {"w": {"untraced": [
        {"end_to_end": {metric: {"value": value}
                        for metric, value in run.items()}}
        for run in values_by_metric
    ]}}}


def test_compare_reaches_each_verdict():
    steady = [{"op_p50_ms": v, "throughput_ops_s": 100.0}
              for v in (10.0, 10.1, 9.9, 10.0)]
    slower = [{"op_p50_ms": v, "throughput_ops_s": 100.0}
              for v in (13.0, 13.1, 12.9, 13.0)]
    noisy = [{"op_p50_ms": v, "throughput_ops_s": 100.0}
             for v in (8.0, 12.0, 9.0, 11.5)]
    faster_noisy = [{"op_p50_ms": v, "throughput_ops_s": 100.0}
                    for v in (8.0, 11.0, 9.0, 10.5)]

    def verdicts(a, b):
        return {row["metric"]: row["verdict"]
                for row in compare.compare(_result(a), _result(b))}

    assert verdicts(steady, steady) == {"op_p50_ms": "ok",
                                        "throughput_ops_s": "ok"}
    assert verdicts(steady, slower)["op_p50_ms"] == "worse"
    assert verdicts(steady, noisy)["op_p50_ms"] == "unresolved"
    # Faster on every run is resolved however wide the spread.
    assert verdicts(slower, faster_noisy)["op_p50_ms"] == "ok"
