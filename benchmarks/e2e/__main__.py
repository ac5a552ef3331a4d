"""Command line of the wire-to-block benchmark.

    python -m benchmarks.e2e run [--workload NAME] [--seed N] [--trace]
                                 [--seconds S | --ops N] [--repeats R]
                                 [--check] [--out FILE]
    python -m benchmarks.e2e list
    python -m benchmarks.e2e compare A.json B.json

``run`` prints every metric by name with its unit and sample count.
``--trace`` adds a traced run per workload (per-layer metrics and the
tracing overhead); ``--trace 0`` / ``--trace 1`` run only the untraced
or only the traced one, which is how ``BENCHMARK.json``'s command is
driven — with one ``--workload`` the last line of output is then one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

from benchmarks.e2e import REPO_ROOT, ensure_importable

ensure_importable()

import numpy  # noqa: E402

from benchmarks.e2e import bounds, compare, driver, metrics  # noqa: E402
from benchmarks.e2e.workloads import (  # noqa: E402
    MODE_EQUIVALENT,
    WORKLOADS,
    describe,
    shrunk,
)


def _commit():
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, check=True,
            capture_output=True, text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"  # the driver's checkout is not a git repository


def _workload(name, check):
    return shrunk(WORKLOADS[name]) if check else WORKLOADS[name]


def _header(args):
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "seed": args.seed,
        "seconds": None if args.ops else args.seconds,
        "ops": args.ops,
        "check": args.check,
        "sizes": {name: _workload(name, args.check)["datasets"]
                  for name in args.workloads},
    }


def _print_metrics(title, table, order):
    print("  %s" % title)
    for name in order:
        if name not in table:
            continue
        entry = table[name]
        notes = ["n=%d" % entry["n"]] if "n" in entry else []
        if "which" in entry:
            notes.append("%s, %d beyond" % (entry["which"], entry["beyond"]))
        print("    %-28s %14.6g %-6s %s" % (
            name, entry["value"], entry["unit"],
            ("(%s)" % "; ".join(notes)) if notes else "",
        ))


def _replies(run, seen):
    """Fold a run's reply fingerprints into ``{"kind:index": [digests]}``."""
    for record in run["window"]["records"]:
        if record.fingerprint is not None:
            key = "%s:%d" % (record.kind, record.index)
            if record.fingerprint not in seen.setdefault(key, []):
                seen[key].append(record.fingerprint)


def _count(run):
    records = run["window"]["records"]
    failures = [r.failure for r in records if r.failure is not None]
    return len(records), failures


def _mode_observable(entries):
    """Requests the mode-equivalent workloads answered differently."""
    present = [entries[name]["replies"] for name in MODE_EQUIVALENT
               if name in entries]
    differing = set()
    for replies in present:
        for key in replies:
            answers = {digest for other in present
                       for digest in other.get(key, ())}
            if len(answers) > 1:
                differing.add(key)
    return sorted(differing)


def predictions(name, layer):
    """The README's written predictions, checked against one traced run.

    Returns ``[(sentence, holds)]`` for the predictions that apply to
    workload ``name``.
    """
    def value(metric, default=0.0):
        return layer.get(metric, {}).get("value", default)

    checks = []
    shipped = value("net.bytes_shipped")
    if name == "mine_remote":
        checks.append(("net.bytes_shipped > 0", shipped > 0))
    else:
        checks.append(("net.bytes_shipped = 0", shipped == 0))
    if name == "mine_cold":
        per_op = (value("net.front_door_self_s")
                  + value("service.execute_s"))
        share = value("core.lca_s") / per_op if per_op else 0.0
        checks.append(("core.lca_s >= 60%% of the op (is %.0f%%)"
                       % (100 * share), share >= 0.6))
    if name == "serve_hot":
        checks.append(("service.cache_hit_rate >= 0.95",
                       value("service.cache_hit_rate") >= 0.95))
        checks.append(("core.mine_s = 0", value("core.mine_s") == 0))
    if name == "sql_churn":
        checks.append(("sql.plan_cache_hit_rate = 0",
                       value("sql.plan_cache_hit_rate", None) == 0))
        per_op = (value("net.front_door_self_s")
                  + value("service.execute_s"))
        share = value("sql.exec_s") / per_op if per_op else 0.0
        checks.append(("sql.exec_s >= 80%% of the op (is %.0f%%)"
                       % (100 * share), share >= 0.8))
    return checks


def _run_workload(name, args):
    """All requested runs of one workload; returns its output entry."""
    workload = _workload(name, args.check)
    max_ops = workload["check"]["ops"] if args.check else args.ops
    print("%s — %s" % (name, workload["why"]))
    entry = {"why": workload["why"], "untraced": [], "traced": None,
             "problems": [], "replies": {}}
    expected = None
    throughput = None
    if args.trace in ("0", "both"):
        for repeat in range(args.repeats):
            run = driver.measure(
                name, workload, args.seed, seconds=args.seconds,
                max_ops=max_ops, traced=False, expected=expected,
                setup_repeats=1 if args.check else bounds.SETUP_REPEATS,
            )
            expected = run["expected"]
            _replies(run, entry["replies"])
            table = metrics.end_to_end(run, workload)
            attempted, failures = _count(run)
            throughput = table["throughput_ops_s"]["value"]
            entry["untraced"].append({
                "attempted": attempted, "failed": len(failures),
                "end_to_end": table, "leaks": run["leaks"],
                "oracle_s": run["oracle_seconds"],
            })
            entry["problems"] += failures[:5] + run["leaks"]
            if not args.check:
                _print_metrics(
                    "untraced run %d: %d ops, %d failed"
                    % (repeat + 1, attempted, len(failures)),
                    table, [row[0] for row in bounds.END_TO_END])
    if args.trace in ("1", "both"):
        run = driver.measure(
            name, workload, args.seed, seconds=args.seconds,
            max_ops=max_ops, traced=True, expected=expected,
        )
        _replies(run, entry["replies"])
        layer, shares = metrics.per_layer(run, throughput)
        attempted, failures = _count(run)
        checks = predictions(name, layer)
        entry["traced"] = {
            "attempted": attempted, "failed": len(failures),
            "per_layer": layer, "layer_shares": shares,
            "leaks": run["leaks"],
            "predictions": [{"prediction": text, "holds": holds}
                            for text, holds in checks],
        }
        entry["problems"] += failures[:5] + run["leaks"]
        if not args.check:
            _print_metrics(
                "traced run: %d ops, %d failed" % (attempted, len(failures)),
                layer, sorted(layer))
            print("    self time by layer / client wall: %s" % ", ".join(
                "%s %.1f%%" % (k, 100 * v) for k, v in shares.items()))
            for text, holds in checks:
                print("    prediction %-44s %s"
                      % (text, "holds" if holds else "DOES NOT HOLD"))
    for problem in entry["problems"]:
        print("  PROBLEM: %s" % problem)
    return entry


def _contract_line(entry, trace):
    """The one JSON object the registered command must end with."""
    if trace == "1":
        side = entry["traced"]
        names = [row[0] for row in bounds.PER_LAYER]
        units = bounds.per_layer_units()
        # The contract wants every registered name on every workload;
        # a per-layer metric with no samples here reads 0.
        table = {
            name: side["per_layer"].get(
                name, {"value": 0.0, "unit": units[name]})
            for name in names
        }
    else:
        side = entry["untraced"][-1]
        table = {name: side["end_to_end"][name]
                 for name in bounds.REGISTERED_END_TO_END}
    return {
        "correct": not entry["problems"],
        "attempted": side["attempted"],
        "failed": side["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in table.items()},
    }


def cmd_run(args):
    args.workloads = [args.workload] if args.workload else list(WORKLOADS)
    if args.check:
        args.trace = "both"
    output = {"header": _header(args), "workloads": {}}
    print("header: %s" % json.dumps(output["header"], sort_keys=True))
    for name in args.workloads:
        output["workloads"][name] = _run_workload(name, args)
    problems = [p for entry in output["workloads"].values()
                for p in entry["problems"]]
    differing = _mode_observable(output["workloads"])
    if differing:
        problems.append("execution mode is observable: %s answer "
                        "differently across %s"
                        % (", ".join(differing), ", ".join(MODE_EQUIVALENT)))
        print("PROBLEM: %s" % problems[-1])
    if args.out:
        with open(args.out, "w") as out:
            json.dump(output, out, indent=1, sort_keys=True)
            out.write("\n")
    if args.check:
        print("check: %s (shrunk sizes; no timing here is a result)"
              % ("FAILED" if problems else "ok"))
    if args.workload and args.trace != "both":
        print(json.dumps(_contract_line(
            output["workloads"][args.workload], args.trace)))
    return 1 if problems else 0


def cmd_list(args):
    for name in WORKLOADS:
        print(describe(name))
        print()
    print("end-to-end metrics (bound = allowed worsening):")
    for name, unit, better, bound, meaning in bounds.END_TO_END:
        print("  %-18s %-6s %-6s %4.0f%%  %s"
              % (name, unit, better, 100 * bound, meaning))
    print("per-layer metrics (-> what each should move):")
    for name, unit, better, moves in bounds.PER_LAYER:
        print("  %-28s %-6s -> %s" % (name, unit, moves))
    return 0


def cmd_compare(args):
    with open(args.a) as source:
        a = json.load(source)
    with open(args.b) as source:
        b = json.load(source)
    rows = compare.compare(a, b)
    print(compare.render(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run workloads, print metrics")
    run.add_argument("--workload", choices=sorted(WORKLOADS))
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--trace", nargs="?", const="both", default="0",
                     choices=("0", "1", "both"))
    run.add_argument("--seconds", type=float, default=bounds.RUN_SECONDS)
    run.add_argument("--ops", type=int, default=None,
                     help="stop after this many ops instead of --seconds, "
                          "so counters repeat exactly")
    run.add_argument("--repeats", type=int, default=1,
                     help="untraced runs per workload")
    run.add_argument("--check", action="store_true",
                     help="shrunk sizes: every assertion, no timing result")
    run.add_argument("--out", help="write the full result as JSON")
    run.set_defaults(handler=cmd_run)
    commands.add_parser("list", help="print workloads and metrics") \
        .set_defaults(handler=cmd_list)
    cmp_parser = commands.add_parser(
        "compare", help="apply the bounds to two result files")
    cmp_parser.add_argument("a")
    cmp_parser.add_argument("b")
    cmp_parser.set_defaults(handler=cmd_compare)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
