"""The workloads, as data, and the op stream each one generates.

Everything the system under test is configured with and asked to do is
in :data:`WORKLOADS`; ``python -m benchmarks.e2e list`` prints it.

Datasets and request pools are part of a workload's *definition* and do
not change with ``--seed``: on this host one mining request costs
0.15-0.35 s depending on the sample it draws, and a table regenerated
from another seed moves the median by a third, so pools drawn per seed
would put more spread into every metric than any change under test.
``--seed`` drives what the SUT sees *when*: the order requests are
issued in, the skewed draws of ``serve_hot``, the shuffle inside each
``sql_churn`` epoch.

All workloads are closed loops: each client sends its next request only
after the previous reply is decoded and checked.
"""

import random

from collections import Counter

#: Generator seed of the ``income`` table (the generator's own default).
TABLE_SEED = 101

_MINE_ROWS = 10_000
_MINE_POOL = 16
#: One mining request of the three ``mine_*`` workloads; ``seed`` is
#: the pool index.
_MINE_PARAMS = {"k": 3, "sample_size": 32, "variant": "optimized"}
#: Four of the 16 pool requests (seeds 0, 6, 8, 12) cost 1.4x the other
#: twelve, so p75 sits on the jump between the two groups and flips
#: with the sample; p90 lies inside the expensive quarter.  A 10 s
#: window holds 25-60 of these ops, fewer than the ten-beyond rule
#: wants for any tail — the run prints how many lie beyond.
_MINE_TAIL = 90

_FILE_INCOME = {
    "generator": "income", "rows": _MINE_ROWS, "storage": "file",
    "block_rows": 1024, "pool_fraction": 0.25,
}

WORKLOADS = {
    "mine_cold": {
        "why": "every request misses the result cache on a serial "
               "engine, so core does the work; the LCA kernel shows here",
        "datasets": {"income": {
            "generator": "income", "rows": _MINE_ROWS, "storage": "ram",
        }},
        # A result cache of one entry under a 16-request cycle: every
        # submission executes.
        "service": {"num_workers": 2, "cache_capacity": 1,
                    "engine_parallelism": 1, "engine_executor": "thread"},
        "shard_workers": 0,
        "clients": 1,
        "stream": "cycle",
        "mine_pool": _MINE_POOL, "mine_params": _MINE_PARAMS,
        "query_pool": 0,
        "warmup": "two",
        "tail": _MINE_TAIL,
        "check": {"rows": 1200, "ops": 6},
    },
    "mine_procs": {
        "why": "the same requests on a file-backed table through a "
               "2-process engine: pickled kernels, mmap attach, budget "
               "grant and block reads sit on the blocking path",
        "datasets": {"income": _FILE_INCOME},
        "service": {"num_workers": 2, "cache_capacity": 1,
                    "engine_parallelism": 2, "engine_executor": "process",
                    "max_engine_workers": 2},
        "shard_workers": 0,
        "clients": 1,
        "stream": "cycle",
        "mine_pool": _MINE_POOL, "mine_params": _MINE_PARAMS,
        "query_pool": 0,
        "warmup": "two",
        "tail": _MINE_TAIL,
        "check": {"rows": 1200, "ops": 6},
    },
    "mine_remote": {
        "why": "the same requests on 2 shared-nothing shard workers "
               "whose block cache holds a quarter of the file: worker "
               "framing and base64 block shipping on every job",
        "datasets": {"income": _FILE_INCOME},
        "service": {"num_workers": 2, "cache_capacity": 1,
                    "engine_executor": "remote"},
        "shard_workers": 2,
        "worker_cache_fraction": 0.25,
        "clients": 1,
        "stream": "cycle",
        "mine_pool": _MINE_POOL, "mine_params": _MINE_PARAMS,
        "query_pool": 0,
        "warmup": "two",
        "tail": _MINE_TAIL,
        "check": {"rows": 1200, "ops": 6},
    },
    "serve_hot": {
        "why": "2 tenants re-issue a skewed mix of 8 mining requests "
               "and 24 queries that are all cached: front door, wire "
               "codec and result cache do the work, core does none",
        "datasets": {"income": {
            "generator": "income", "rows": _MINE_ROWS, "storage": "ram",
        }},
        "service": {"num_workers": 2, "cache_capacity": 256,
                    "engine_parallelism": 1, "engine_executor": "thread"},
        "shard_workers": 0,
        "clients": 2,
        "stream": "skewed",
        "mine_share": 0.3,
        "mine_pool": 8,
        "mine_params": {"k": 3, "sample_size": 16, "variant": "optimized"},
        "query_pool": 24,
        # Every pool entry once, so the timed window is all hits.
        "warmup": "pool",
        # p99 has 70 samples beyond it but is the host's hiccups, not
        # the program's: over ten seeds it spread 25 % where p95
        # spread 16 % and the median 12 %.
        "tail": 95,
        "check": {"rows": 1200, "ops": 300},
    },
    "sql_churn": {
        "why": "epochs of 16 distinct SQL queries, each ended by a "
               "re-registration that invalidates result and plan "
               "caches: sql executes everything, writes sit beside reads",
        "datasets": {
            "income": {
                "generator": "income", "rows": 100_000, "storage": "file",
                "block_rows": 4096, "pool_fraction": 0.25,
            },
            "dim": {"generator": "dim", "rows": 30, "storage": "ram"},
        },
        "service": {"num_workers": 2, "cache_capacity": 256,
                    "engine_parallelism": 1, "engine_executor": "thread"},
        "shard_workers": 0,
        "clients": 1,
        "stream": "epochs",
        "mine_pool": 0,
        "query_pool": 16,
        "join": True,
        "warmup": "two",
        # The two joins are 2/17 of an epoch and 7x the next kind:
        # p90 would sit on that jump, p95 lies inside the join group.
        "tail": 95,
        "check": {"rows": 4000, "ops": 2 * 17},
    },
}

#: The three workloads whose replies must be byte-equal to one another.
MODE_EQUIVALENT = ("mine_cold", "mine_procs", "mine_remote")


def shrunk(workload):
    """The seconds-long ``--check`` size: same shape, fewer rows."""
    small = dict(workload)
    rows = workload["check"]["rows"]
    small["datasets"] = {}
    for name, spec in workload["datasets"].items():
        spec = dict(spec, rows=min(spec["rows"], rows))
        if "block_rows" in spec:
            spec["block_rows"] = min(spec["block_rows"], 256)
        small["datasets"][name] = spec
    return small


def mine_pool(workload):
    """The workload's distinct mining requests (keyword dicts)."""
    return [dict(workload["mine_params"], seed=i)
            for i in range(workload["mine_pool"])]


def _value(dimension, code):
    # The income generator names dimension j's values "Inc<j>=v<code>".
    return "Inc%d=v%d" % (dimension, code)


#: SQL templates by kind: (text over one literal, the literal's dimension).
_SQL = {
    "count": ("SELECT COUNT(*) FROM income WHERE Inc0 = '%s' "
              "AND HighIncome > 0", 0),
    "group": ("SELECT Inc1, Inc3, COUNT(*), AVG(HighIncome) FROM income "
              "WHERE Inc6 <> '%s' GROUP BY Inc1, Inc3", 6),
    "sort": ("SELECT Inc5, Inc8, HighIncome FROM income WHERE Inc2 = '%s' "
             "ORDER BY Inc8 DESC, Inc5 LIMIT 20", 2),
    "join": ("SELECT d.Region, COUNT(*), SUM(d.Weight) FROM income i "
             "JOIN dim d ON i.Inc0 = d.Key WHERE i.Inc4 = '%s' "
             "GROUP BY d.Region", 4),
}

#: Kinds per 8 queries: 3 filtered COUNT, 2 two-column GROUP BY,
#: 2 filter + ORDER BY ... LIMIT, 1 unique-key JOIN + GROUP BY.
_KINDS_WITH_JOIN = ("count", "count", "count", "group", "group",
                    "sort", "sort", "join")
_KINDS_NO_JOIN = ("count", "count", "count", "group", "group",
                  "sort", "sort", "count")


def query_pool(workload):
    """The workload's distinct queries as ``(kind, sql)`` pairs."""
    kinds = _KINDS_WITH_JOIN if workload.get("join") else _KINDS_NO_JOIN
    pool = []
    issued = Counter()
    for i in range(workload["query_pool"]):
        kind = kinds[i % len(kinds)]
        template, dimension = _SQL[kind]
        # The n-th query of a kind filters on code n: distinct text per
        # query, and low codes are the frequent values under the
        # generator's Zipf skew, so every filter selects real rows.
        pool.append((kind, template % _value(dimension, issued[kind])))
        issued[kind] += 1
    return pool


def dim_rows():
    """The 30-row unique-key ``dim`` table joined on ``income.Inc0``."""
    return [(_value(0, i), "r%d" % (i % 4), float(i + 1))
            for i in range(30)]


def _skewed_index(rng, size):
    # Pareto(1.2) rank: entry 0 is drawn over half the time, the last
    # entries rarely — a small hot set over a long tail.
    return min(int(rng.paretovariate(1.2)) - 1, size - 1)


def op_stream(name, seed, client):
    """Endless ``(kind, pool_index)`` ops of one client, from ``seed``.

    ``kind`` is ``"mine"``, ``"query"`` or ``"register"`` (index None).
    """
    workload = WORKLOADS[name]
    rng = random.Random("%s:%d:%d" % (name, seed, client))
    stream = workload["stream"]
    if stream == "cycle":
        # Shuffled passes over the pool; no request twice in a row, so
        # the one-entry result cache never hits.
        last = None
        while True:
            order = list(range(workload["mine_pool"]))
            rng.shuffle(order)
            if order[0] == last:
                order.reverse()
            for index in order:
                yield ("mine", index)
            last = order[-1]
    elif stream == "skewed":
        while True:
            if rng.random() < workload["mine_share"]:
                yield ("mine", _skewed_index(rng, workload["mine_pool"]))
            else:
                yield ("query", _skewed_index(rng, workload["query_pool"]))
    elif stream == "epochs":
        while True:
            order = list(range(workload["query_pool"]))
            rng.shuffle(order)
            for index in order:
                yield ("query", index)
            yield ("register", None)
    else:
        raise ValueError("unknown stream %r" % stream)


def warmup_ops(name, client):
    """The untimed ops one connection issues before the window opens."""
    workload = WORKLOADS[name]
    if workload["warmup"] == "pool":
        ops = [("mine", i) for i in range(workload["mine_pool"])]
        ops += [("query", i) for i in range(workload["query_pool"])]
        return ops[client::workload["clients"]]
    kind = "mine" if workload["mine_pool"] else "query"
    return [(kind, 0), (kind, 1)]


def describe(name):
    """One printable block per workload for ``list``."""
    w = WORKLOADS[name]
    lines = ["%s — %s" % (name, w["why"])]
    for dataset, spec in sorted(w["datasets"].items()):
        lines.append("  dataset %-7s %s" % (dataset, ", ".join(
            "%s=%s" % item for item in sorted(spec.items()))))
    lines.append("  service         %s" % ", ".join(
        "%s=%s" % item for item in sorted(w["service"].items())))
    lines.append(
        "  clients=%d shard_workers=%d stream=%s mine_pool=%d "
        "query_pool=%d warmup=%s tail=p%d"
        % (w["clients"], w["shard_workers"], w["stream"], w["mine_pool"],
           w["query_pool"], w["warmup"], w["tail"])
    )
    if w["mine_pool"]:
        lines.append("  mine request    %s, seed=<pool index>" % ", ".join(
            "%s=%s" % item for item in sorted(w["mine_params"].items())))
    return "\n".join(lines)
