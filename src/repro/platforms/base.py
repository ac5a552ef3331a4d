"""Platform registry and the shared SIRUM-on-a-platform runner."""

from repro.common.errors import ConfigError
from repro.core.config import variant_config
from repro.core.miner import Sirum

from repro.platforms.spark_platform import spark_cluster
from repro.platforms.postgres_sim import postgres_cluster
from repro.platforms.hive_sim import hive_cluster
from repro.platforms.sparksql_sim import sparksql_cluster

#: Registered platform builders: name -> cluster factory.
PLATFORMS = {
    "spark": spark_cluster,
    "postgres": postgres_cluster,
    "hive": hive_cluster,
    "sparksql": sparksql_cluster,
}


def make_platform_cluster(name, num_executors=16, **kwargs):
    """Build a :class:`ClusterContext` configured as platform ``name``.

    A platform is a cost regime, not an execution mode: whatever
    ``parallelism`` / ``executor`` / ``workers`` / ``budget_grant``
    arrive in ``kwargs`` reach the cluster unchanged.
    """
    try:
        factory = PLATFORMS[name]
    except KeyError:
        raise ConfigError(
            "unknown platform %r; choose from %s"
            % (name, ", ".join(sorted(PLATFORMS)))
        ) from None
    return factory(num_executors=num_executors, **kwargs)


def make_sql_engine(platform, num_executors=16, catalog=None,
                    **cluster_kwargs):
    """A :class:`~repro.sql.engine.SqlEngine` metered as platform ``name``.

    Returns ``(engine, cluster)``: every SQL operator the engine runs
    charges the platform's cost regime per batch, so ad-hoc SQL
    workloads are directly comparable with the §5.2 SIRUM runs.

    Pass ``catalog`` to meter queries over relations registered
    elsewhere (e.g. a mining service's shared catalog) without
    re-registering them — the engine is cheap, the catalog is not.
    """
    from repro.sql.engine import SqlEngine

    cluster = make_platform_cluster(
        platform, num_executors=num_executors, **cluster_kwargs
    )
    engine = SqlEngine(catalog=catalog, cluster=cluster)
    return engine, cluster


def run_baseline_sirum(platform, table, k=10, sample_size=16,
                       num_executors=16, seed=0, **cluster_kwargs):
    """Run Baseline (BJ) SIRUM on a named platform (the §5.2 setup).

    Returns ``(mining_result, cluster)``; the platform's simulated
    seconds are ``mining_result.simulated_seconds``.
    """
    cluster = make_platform_cluster(
        platform, num_executors=num_executors, **cluster_kwargs
    )
    config = variant_config(
        "baseline", k=k, sample_size=sample_size, seed=seed
    )
    result = Sirum(config).mine(table, cluster=cluster)
    return result, cluster

