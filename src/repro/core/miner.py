"""The SIRUM mining driver — thesis Algorithms 2 and 3 with every
Chapter 4 optimization behind a configuration flag.

Structure of one mining run (:meth:`Sirum.mine`):

1. *load* — first pass over the partitioned input (charged as HDFS
   reads; subsequent passes hit the storage cache unless evicted).
2. Add the all-wildcards rule and scale it (§2.2 requires it first).
3. Repeat until k rules (or the KL target of a *-variant) are reached:
   candidate pruning -> ancestor generation -> gain scoring -> select
   one or more disjoint rules (§4.4) -> iterative scaling (Algorithm 1
   against D, or Algorithm 3 against the RCT).

Candidates live as packed rule keys (:class:`~repro.core.codec.RowCodec`)
from the LCA kernel to the gain scores: ``int64`` when the table's
codec fits 63 bits, Python ints in ``object`` arrays past that.  The
width picks the key dtype, never the algorithm — one pipeline, the same
bytes.

Use :func:`mine` for the one-call API, or construct a
:class:`Sirum` with a :class:`~repro.core.config.SirumConfig` /
:func:`~repro.core.config.variant_config` preset.
"""

from functools import partial

import numpy as np

from repro.common.errors import ConfigError, DataError
from repro.common.rng import make_rng
from repro.common.timing import Stopwatch
from repro.core import candidates as cand
from repro.core import lattice
from repro.core.config import SirumConfig, VARIANT_FLAGS, variant_config
from repro.core.divergence import kl_divergence
from repro.core.index import SampleInvertedIndex
from repro.core.rct import iterative_scale_rct, unique_coverage
from repro.core.result import MinedRule, MiningResult, RuleSet
from repro.core.rule import Rule
from repro.core.codec import GroupPlan, plan_groups, planned
from repro.core.lattice_packed import (
    generate_ancestors_packed,
    match_counts_packed,
    pack_rule_rows,
)
from repro.core.sampling import draw_sample_rows, lca_aggregates_packed
from repro.core.scaling import iterative_scale
from repro.core.session import MiningSession
from repro.engine.cluster import ClusterContext
from repro.engine.cost import ClusterSpec, CostModel
from repro.engine.task import job_slot

#: Serialized size estimate of one combiner-output (rule, aggregates)
#: pair — a packed rule key plus aggregate deltas.
PAIR_BYTES = 8

#: Cost units (in comparisons) of emitting one ancestor instance into
#: the combiner: hash probe plus aggregate add.
EMIT_UNITS = 1

#: Named optimization bundles (thesis Table 4.2).
VARIANTS = dict(VARIANT_FLAGS)

# ``benchmarks/e2e/trace.py`` wraps these names on this module; both
# pruning variants run the one packed LCA kernel.
lca_aggregates_fast = lca_aggregates_baseline = lca_aggregates_packed


# ----------------------------------------------------------------------
# Stage kernels
#
# Module-level functions bound with ``functools.partial`` rather than
# closures: a bound kernel pickles, so the same kernel object runs on
# the serial driver loop, the thread pool, or a process-pool worker.
# Session-wide arrays are bound in directly and pickled into the batch
# on the way to a process child or a remote worker.
#
# Kernels that only meter — they charge costs derived from the
# partition's size and read no column — run on the driver
# (``on_driver=True``) in every mode: the charges are the same bytes
# wherever a kernel runs, and a worker round trip would buy nothing.
#
# The kernels are pure up to a job-scoped memo: ``job`` is the
# session's token, and under it the process that runs a task keeps the
# task's estimate-independent plan (``repro.engine.task.job_slot``,
# keyed by stage, round and partition index), so iterations 2..k redo
# only the SUM(m-hat) column.  A lost memo rebuilds.
# ----------------------------------------------------------------------


def _scan_kernel(tc, part):
    """One metered pass over a partition's rows (load / RCT write-back)."""
    tc.add_records(part.num_rows)
    return None


def _prune_kernel(tc, part, measure, estimates, sample_rows, codec,
                  sample_index, job=None):
    """Per-partition LCA aggregation over the candidate-pruning sample.

    The LCA table is consumed by the ancestor mappers in place (a
    narrow dependency) -- no shuffle here.
    """
    measure = measure[part.start:part.stop]
    estimates = estimates[part.start:part.stop]
    # The columns go in unread: with the plan retained a file-backed
    # partition faults no block in.
    return lca_aggregates_packed(
        lambda: part.columns, measure, estimates, sample_rows, codec,
        index=sample_index, tc=tc,
        state=job_slot(job, ("prune", 0, tc.partition_id)),
    )


def _ancestor_packed_kernel(tc, chunk, codec, group, weighted, job=None,
                            round_index=0):
    """Vectorized ancestor generation over one packed (keys, aggs) chunk."""
    in_keys, in_aggs = chunk
    out_keys, out_aggs, emitted = generate_ancestors_packed(
        in_keys, in_aggs, codec, group=group, instance_weighted=weighted,
        state=job_slot(job, ("ancestors", round_index, tc.partition_id)),
    )
    tc.add_ops(emitted * EMIT_UNITS)
    # Combiner output is candidate-scale: its shuffle is negligible at
    # real data sizes, so only the mapper CPU (ops above) is charged.
    tc.add_light_ops(in_keys.size + out_keys.size)
    return out_keys, out_aggs, emitted


def _match_counts_packed_kernel(tc, keys, sample_keys, codec, job=None):
    """Packed-key sample-multiplicity counts for one candidate chunk."""
    counts = match_counts_packed(
        keys, sample_keys, codec,
        state=job_slot(job, ("match", 0, tc.partition_id)),
    )
    tc.add_light_ops(keys.size * (sample_keys.size + 1))
    return counts


def _exhaustive_kernel(tc, part, measure, estimates, codec, job=None):
    """Full-cube candidate generation over one partition."""
    measure = measure[part.start:part.stop]
    estimates = estimates[part.start:part.stop]
    plan = planned(
        job_slot(job, ("cube", 0, tc.partition_id)),
        lambda: cand.cube_plan(part.columns, measure, codec),
    )
    # Each tuple emits 2^d cuboid cells; hash-add per emission.
    tc.add_ops(plan.tally * 2)
    tc.add_records(measure.size)
    tc.add_light_ops(plan.keys.size)
    return plan.keys, plan.apply(estimates), plan.tally


def _rct_build_kernel(tc, part, words):
    """RCT pass 1: local group-by over coverage words + tiny shuffle."""
    tc.add_records(part.num_rows)
    tc.add_ops(part.num_rows)
    local_groups = unique_coverage(words[part.start:part.stop]).shape[0]
    tc.add_output_bytes(local_groups * PAIR_BYTES)
    return None


def _baseline_sums_kernel(tc, part, num_rules, arity):
    """Algorithm 1 pass A: every m-hat(r), re-tested attribute-wise."""
    tc.add_records(part.num_rows)
    tc.add_ops(part.num_rows * num_rules * arity)
    tc.add_output_bytes(num_rules * PAIR_BYTES)
    return None


def _baseline_update_kernel(tc, part):
    """Algorithm 1 pass B: update t[m-hat] with one scan of D."""
    tc.add_records(part.num_rows)
    tc.add_ops(part.num_rows)
    return None


def make_default_cluster(
    num_executors=4,
    cores_per_executor=4,
    executor_memory_bytes=512 * 1024**2,
    straggler_sigma=0.0,
    seed=7,
    cost_model=None,
    parallelism=None,
    executor=None,
    budget_grant=None,
    workers=None,
):
    """A small local cluster suitable for tests and examples.

    ``parallelism`` sets the number of real workers partition kernels
    execute on and ``executor`` the pool kind (``"thread"``,
    ``"process"`` or ``"remote"``; None means a ``budget_grant``'s
    granted degree when one is given, else serial, on threads);
    ``workers`` lists shard-worker addresses for the remote executor.
    Results and simulated metrics are identical across settings.
    """
    spec = ClusterSpec(
        num_executors=num_executors,
        cores_per_executor=cores_per_executor,
        executor_memory_bytes=executor_memory_bytes,
        straggler_sigma=straggler_sigma,
        seed=seed,
    )
    return ClusterContext(spec, cost_model or CostModel(),
                          parallelism=parallelism, executor=executor,
                          budget_grant=budget_grant, workers=workers)


def mine(table, k=10, variant="optimized", cluster=None, prior_rules=None,
         parallelism=None, executor=None, workers=None,
         **config_overrides):
    """One-call mining API.

    >>> result = mine(flight_table(), k=3, variant="optimized")

    ``variant`` is a Table 4.2 preset name; extra keyword arguments
    override any :class:`SirumConfig` field.  ``parallelism`` and
    ``executor`` set the real worker count and pool kind of the
    default cluster and ``workers`` lists shard-worker addresses for
    ``executor="remote"`` (all ignored when an explicit
    ``cluster`` is passed, which the caller then owns).  An internally
    created cluster is closed before returning — no worker threads or
    processes outlive the call.
    """
    config = variant_config(variant, k=k, **config_overrides)
    owns_cluster = cluster is None
    if cluster is None:
        cluster = make_default_cluster(parallelism=parallelism,
                                       executor=executor, workers=workers)
    try:
        return Sirum(config).mine(table, cluster=cluster,
                                  prior_rules=prior_rules)
    finally:
        if owns_cluster:
            cluster.close()


class Sirum:
    """Configured miner; see the module docstring for the pipeline."""

    def __init__(self, config=None):
        self.config = config or SirumConfig()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def mine(self, table, cluster=None, prior_rules=None,
             sample_rows=None, dataset_state=None):
        """Mine informative rules from ``table``.

        Parameters
        ----------
        table:
            The input :class:`~repro.data.table.Table`.
        cluster:
            A :class:`ClusterContext`; a small default is created if
            omitted.  Metrics accumulate in the cluster across calls —
            pass a fresh one (or call ``reset_metrics``) per experiment.
        prior_rules:
            Rules representing knowledge the user already has (data
            cube exploration, thesis Table 1.3); they are scaled in
            before mining and do not count toward ``k``.
        sample_rows:
            Encoded dimension tuples to use as the candidate-pruning
            sample s instead of drawing one from the table.
        dataset_state:
            Optional object with ``table``, ``codec`` and ``transform``
            attributes (e.g. the mining service's dataset handle).
            When its table *is* the mined table, the precomputed codec
            and measure transform are reused instead of being refit —
            two O(n) passes saved per repeated job on a dataset.
        """
        wall = Stopwatch().start()
        cfg = self.config
        owns_cluster = cluster is None
        cluster = cluster or make_default_cluster()
        rng = make_rng(cfg.seed)

        mined_table = table
        if cfg.sample_data_fraction is not None and cfg.sample_data_fraction < 1.0:
            mined_table = table.sample_fraction(cfg.sample_data_fraction, rng)

        codec = transform = None
        if dataset_state is not None and dataset_state.table is mined_table:
            codec = dataset_state.codec
            transform = dataset_state.transform
        session = MiningSession(
            cluster, mined_table, cfg.num_partitions,
            codec=codec, transform=transform,
        )
        try:
            return self._mine(table, mined_table, session, cluster,
                              prior_rules, sample_rows, rng, wall)
        finally:
            # The job's retained plans die with the session; an
            # internally created cluster's worker pools die with the
            # call.
            session.close()
            if owns_cluster:
                cluster.close()

    def _mine(self, table, mined_table, session, cluster, prior_rules,
              sample_rows, rng, wall):
        """The mining loop proper; ``mine`` owns setup and cleanup."""
        cfg = self.config
        self._load(session)

        arity = mined_table.schema.arity
        sample_index = sample_keys = None
        if cfg.exhaustive:
            sample_rows = None
        else:
            if sample_rows is None:
                sample_rows = draw_sample_rows(
                    mined_table, cfg.sample_size, rng
                )
            else:
                sample_rows = [tuple(int(v) for v in row)
                               for row in sample_rows]
            if cfg.use_fast_pruning:
                sample_index = SampleInvertedIndex(sample_rows, arity)
            # Kernels take the sample as an int64 matrix (and as packed
            # keys), built once per job, not on every partition call.
            sample_rows = np.asarray(sample_rows, dtype=np.int64)
            sample_keys = pack_rule_rows(sample_rows, session.codec)
        column_groups = None
        if cfg.num_column_groups is not None:
            column_groups = lattice.make_column_groups(
                arity, min(cfg.num_column_groups, arity), seed=cfg.seed
            )

        rules = [Rule.all_wildcards(arity)]
        gains = [0.0]
        iteration_added = [0]
        charge_phase = "iterative_scaling" if cfg.use_rct else None
        session.add_rule_coverage(rules[0], charge_phase=charge_phase)
        lambdas = np.ones(1)
        lambdas, iters = self._scale(session, lambdas)
        scaling_iterations = iters

        num_prior = 0
        if prior_rules:
            for rule in prior_rules:
                rule = rule if isinstance(rule, Rule) else Rule(rule)
                if rule.arity != arity:
                    raise ConfigError("prior rule arity mismatch")
                if rule in rules:
                    continue
                rules.append(rule)
                gains.append(0.0)
                iteration_added.append(0)
                session.add_rule_coverage(rule, charge_phase=charge_phase)
            num_prior = len(rules) - 1
            lambdas = np.concatenate(
                [lambdas, np.ones(len(rules) - lambdas.size)]
            )
            lambdas, iters = self._scale(session, lambdas)
            scaling_iterations += iters

        kl_trace = [kl_divergence(session.measure, session.estimates)]
        ancestors_emitted = 0
        candidates_scored = 0
        iteration = 0
        while self._should_continue(len(rules) - 1 - num_prior, kl_trace[-1]):
            iteration += 1
            candidate_set = self._generate_candidates(
                session, sample_rows, sample_keys, sample_index,
                column_groups,
            )
            ancestors_emitted += candidate_set.emitted_pairs
            candidates_scored += len(candidate_set)
            picked = cand.select_rules(
                candidate_set,
                rules,
                rules_per_iteration=cfg.rules_per_iteration,
                top_fraction=cfg.top_fraction,
                min_gain_ratio=cfg.min_gain_ratio,
            )
            if not picked:
                break
            for rule, gain in picked:
                rules.append(rule)
                gains.append(gain)
                iteration_added.append(iteration)
                session.add_rule_coverage(rule, charge_phase=charge_phase)
            lambdas = np.concatenate([lambdas, np.ones(len(picked))])
            lambdas, iters = self._scale(session, lambdas)
            scaling_iterations += iters
            kl_trace.append(kl_divergence(session.measure, session.estimates))

        return self._build_result(
            table,
            mined_table,
            session,
            rules,
            gains,
            iteration_added,
            lambdas,
            kl_trace,
            cluster,
            wall,
            scaling_iterations,
            ancestors_emitted,
            candidates_scored,
        )

    # ------------------------------------------------------------------
    # Pipeline pieces
    # ------------------------------------------------------------------

    def _should_continue(self, num_generated, kl):
        cfg = self.config
        if num_generated >= cfg.max_rules:
            return False
        if num_generated < cfg.k:
            return True
        if cfg.target_kl is not None and kl > cfg.target_kl:
            return True
        return False

    def _load(self, session):
        """Initial scan: every partition is read from (simulated) HDFS."""
        session.run_over_data(_scan_kernel, phase="load", on_driver=True)

    def _generate_candidates(self, session, sample_rows, sample_keys,
                             sample_index, column_groups):
        if self.config.exhaustive:
            candidates = self._generate_exhaustive(session)
        else:
            candidates = self._generate_pruned(
                session, sample_rows, sample_keys, sample_index,
                column_groups,
            )
        if self.config.eliminate_redundant:
            from repro.core.redundancy import filter_candidate_set

            with session.cluster.phase("gain"):
                before = len(candidates)
                candidates = filter_candidate_set(candidates)
                session.cluster.metrics.charge(
                    before * (session.table.schema.arity + 1)
                    * session.cluster.cost.light_op_seconds
                )
                session.cluster.metrics.increment(
                    "redundant_candidates", before - len(candidates)
                )
        return candidates

    def _generate_pruned(self, session, sample_rows, sample_keys,
                         sample_index, column_groups):
        """Sample-pruned generation: LCAs -> ancestors -> gains.

        Runs on packed rule keys in ``codec.key_dtype``: int64 when
        the table's codec fits 63 bits (every thesis dataset does),
        Python ints past that — one pipeline either way.
        """
        cfg = self.config
        cluster = session.cluster
        arity = session.table.schema.arity
        codec = session.codec

        with cluster.phase("candidate_pruning"):
            if cfg.use_broadcast_join:
                payload = len(sample_rows) * arity * 8
                if sample_index is not None:
                    payload += sample_index.estimated_bytes()
                cluster.broadcast(None, payload)

            prune_kernel = partial(
                _prune_kernel,
                measure=session.measure,
                estimates=session.estimates,
                sample_rows=sample_rows,
                codec=codec,
                sample_index=sample_index,
                job=session.job,
            )
            stage = session.run_over_data(
                prune_kernel,
                shuffle_data=not cfg.use_broadcast_join,
            )
            partition_lcas = stage.outputs

        with cluster.phase("ancestor_generation"):
            keys, aggs, emitted = self._ancestor_stages(
                cluster, session, partition_lcas, column_groups, codec
            )

        with cluster.phase("gain"):
            return self._score_candidates(
                cluster, session, keys, aggs, emitted, sample_keys, codec
            )

    def _ancestor_stages(self, cluster, session, partition_lcas,
                         column_groups, codec):
        """Ancestor generation over packed keys (see
        :mod:`repro.core.lattice_packed`).

        The first round runs over each data partition's own LCA table --
        the same mappers that produced the LCAs walk their |s| x n_p
        pair instances -- so emission work is spread the way the real
        pipeline spreads it.  Later rounds (column grouping) run over
        chunks of the previous round's reduced output.
        """
        rounds = [None] if column_groups is None else list(column_groups)
        emitted_total = 0
        keys = aggs = None
        for round_index, group in enumerate(rounds):
            if round_index == 0:
                chunks = list(partition_lcas)
            else:
                chunks = _chunk_arrays(keys, aggs, session.num_partitions)
            kernel = partial(
                _ancestor_packed_kernel, codec=codec, group=group,
                weighted=round_index == 0, job=session.job,
                round_index=round_index,
            )
            stage = cluster.run_stage(
                kernel, chunks, name="ancestor_generation",
            )
            # The reduce-side merge is a group-by like the kernels':
            # its plan stays with the driver, its apply is one bincount.
            plan = planned(
                job_slot(session.job, ("merge", round_index, 0)),
                _merge_plan, stage.outputs, codec.total_bits,
            )
            keys = plan.keys
            aggs = plan.apply(
                np.concatenate([a[:, 1] for _, a, _ in stage.outputs])
            )
            emitted_total += plan.tally
        return keys, aggs, emitted_total

    def _score_candidates(self, cluster, session, keys, aggs, emitted,
                          sample_keys, codec):
        """Multiplicity correction (§3.1.1) + Eq. 2.2 gains, chunked."""
        # Each task's partition is its own chunk of the keys, so the
        # keys cross to workers once per stage in total.
        chunks = [keys[start:stop] for start, stop
                  in _chunk_bounds(keys.size, session.num_partitions)]
        kernel = partial(
            _match_counts_packed_kernel, sample_keys=sample_keys,
            codec=codec, job=session.job,
        )
        stage = cluster.run_stage(kernel, chunks, name="gain")
        return cand.score_packed(
            keys, aggs, np.concatenate(stage.outputs), emitted, codec
        )

    def _generate_exhaustive(self, session):
        """Full-cube candidate generation (cube-exploration mode)."""
        cluster = session.cluster
        codec = session.codec

        with cluster.phase("ancestor_generation"):
            kernel = partial(
                _exhaustive_kernel,
                measure=session.measure,
                estimates=session.estimates,
                codec=codec,
                job=session.job,
            )
            stage = session.run_over_data(kernel)
            plan = planned(
                job_slot(session.job, ("merge", 0, 0)),
                _merge_plan, stage.outputs, codec.total_bits, True,
            )
            aggs = plan.apply(
                np.concatenate([a[:, 1] for _, a, _ in stage.outputs])
            )

        with cluster.phase("gain"):
            candidate_set = cand.score_aggregates(
                plan.keys, aggs, plan.tally, codec
            )
            cluster.metrics.charge(
                len(candidate_set) * cluster.cost.light_op_seconds
            )
        return candidate_set

    # ------------------------------------------------------------------
    # Iterative scaling (Algorithm 1 vs Algorithm 3)
    # ------------------------------------------------------------------

    def _scale(self, session, lambdas):
        cfg = self.config
        if cfg.reset_lambdas:
            # Prior-work behaviour ([29], §5.6.2): forget all multipliers
            # and re-scale the full rule set from scratch.
            lambdas = np.ones(len(session.masks))
            session.estimates[:] = 1.0
        if cfg.use_rct:
            return self._scale_rct(session, lambdas)
        return self._scale_baseline(session, lambdas)

    def _scale_rct(self, session, lambdas):
        """Algorithm 3: two passes over D, loop over the RCT."""
        cluster = session.cluster
        with cluster.phase("iterative_scaling"):
            # Pass 1: build the RCT (local group-by + tiny shuffle).
            # Metered on the driver, where the coverage words live.
            build_kernel = partial(_rct_build_kernel,
                                   words=session.bit_matrix._words)
            session.run_over_data(build_kernel, shuffle_output=True,
                                  on_driver=True)

            result = iterative_scale_rct(
                session.bit_matrix,
                session.measure,
                session.estimates,
                lambdas,
                epsilon=self.config.epsilon,
                max_iterations=self.config.max_scaling_iterations,
            )
            # Driver-side loop over the broadcast RCT (candidate-scale).
            cluster.metrics.charge(
                result.iterations
                * result.rct.num_groups
                * max(len(lambdas), 1)
                * cluster.cost.light_op_seconds
            )
            cluster.metrics.increment("rct_groups", result.rct.num_groups)

            # Pass 2: write the converged estimates back.
            session.run_over_data(_scan_kernel, on_driver=True)
            session.estimates[:] = result.estimates
        return result.lambdas, result.iterations

    def _scale_baseline(self, session, lambdas):
        """Algorithm 1 against D: two metered passes per loop iteration."""
        cfg = self.config
        cluster = session.cluster
        result = iterative_scale(
            session.masks,
            session.measure,
            lambdas=lambdas,
            estimates=session.estimates,
            epsilon=cfg.epsilon,
            max_iterations=cfg.max_scaling_iterations,
        )
        num_rules = len(session.masks)
        arity = session.table.schema.arity
        with cluster.phase("iterative_scaling"):
            if cfg.use_broadcast_join:
                cluster.broadcast(None, num_rules * (arity + 1) * 8)
            sums_kernel = partial(
                _baseline_sums_kernel, num_rules=num_rules, arity=arity,
            )
            for _ in range(result.iterations):
                # Pass A: compute every m-hat(r) — evaluates t matches r
                # attribute by attribute for all rules (§4.1 notes this
                # re-testing is what the bit arrays remove).
                session.run_over_data(
                    sums_kernel,
                    shuffle_data=not cfg.use_broadcast_join,
                    shuffle_output=True,
                    on_driver=True,
                )

                # Pass B: update t[m-hat] for tuples matching the scaled
                # rule (charged as a full pass, as the baseline scans D).
                session.run_over_data(_baseline_update_kernel,
                                      on_driver=True)
        session.estimates[:] = result.estimates
        return result.lambdas, result.iterations

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------

    def _build_result(
        self,
        full_table,
        mined_table,
        session,
        rules,
        gains,
        iteration_added,
        lambdas,
        kl_trace,
        cluster,
        wall,
        scaling_iterations,
        ancestors_emitted,
        candidates_scored,
    ):
        # Evaluate on the full table: identical to the mining table
        # except in SIRUM-on-sample-data mode, where rules mined from
        # the sample are re-fit against all of D (uncharged, §5.7.3).
        if mined_table is full_table:
            estimates = session.estimates.copy()
            measure = session.measure
            transform = session.transform
            kl_final = kl_trace[-1]
        else:
            measure, estimates, transform = _fit_rules(
                full_table, rules, self.config
            )
            kl_final = kl_divergence(measure, estimates)
        kl_root = kl_divergence(measure, np.ones_like(measure))
        info_gain = kl_root - kl_final

        mined_rules = []
        original_measure = full_table.measure
        for rule, gain, iteration in zip(rules, gains, iteration_added):
            mask = rule.match_mask(full_table)
            count = int(mask.sum())
            avg = float(original_measure[mask].mean()) if count else float("nan")
            mined_rules.append(MinedRule(rule, avg, count, gain, iteration))

        wall.stop()
        return MiningResult(
            rule_set=RuleSet(mined_rules),
            lambdas=lambdas,
            estimates=transform.inverse(estimates),
            kl_trace=kl_trace,
            information_gain=info_gain,
            metrics=cluster.metrics.snapshot(),
            wall_seconds=wall.elapsed,
            scaling_iterations=scaling_iterations,
            ancestors_emitted=ancestors_emitted,
            candidates_scored=candidates_scored,
            config=self.config,
        )


def _fit_rules(table, rules, config):
    """Scale a fixed rule list against ``table`` (no mining, no charges)."""
    from repro.core.measure import MeasureTransform

    transform = MeasureTransform.fit(table.measure)
    masks = [rule.match_mask(table) for rule in rules]
    kept_masks = []
    for mask in masks:
        if not mask.any():
            raise DataError("a mined rule covers no tuples of the full table")
        kept_masks.append(mask)
    result = iterative_scale(
        kept_masks,
        transform.transformed,
        epsilon=config.epsilon,
        max_iterations=config.max_scaling_iterations,
    )
    return transform.transformed, result.estimates, transform


def _merge_plan(outputs, key_bits, first_seen=False):
    """The estimate-independent half of a reduce-side merge.

    ``outputs`` are the stage's ``(keys, aggs, emitted)`` task outputs
    in partition order; the tally is the stage's emission count.  Keys
    come out sorted, or with ``first_seen`` in the order they first
    appear in the concatenated outputs — the exhaustive cube's
    candidate order, (partition, cuboid, key), by which gain ties
    break.  Each key sums in partition order either way.
    """
    all_keys = np.concatenate([k for k, _, _ in outputs])
    all_aggs = np.concatenate([a for _, a, _ in outputs])
    uniq, group_ids, positions = plan_groups(all_keys, key_bits)
    if first_seen:
        first = np.full(uniq.size, all_keys.size)
        np.minimum.at(
            first, group_ids,
            np.arange(all_keys.size) if positions is None else positions,
        )
        order = np.argsort(first)
        uniq, group_ids = uniq[order], np.argsort(order)[group_ids]
    return GroupPlan(
        uniq, group_ids, positions, all_aggs[:, 0], all_aggs[:, 2],
        sum(e for _, _, e in outputs),
    )


def _chunk_arrays(keys, aggs, num_chunks):
    """Split aligned (keys, aggs) arrays into chunk pairs."""
    return [
        (keys[start:stop], aggs[start:stop])
        for start, stop in _chunk_bounds(keys.size, num_chunks)
    ]


def _chunk_bounds(n, num_chunks):
    num_chunks = max(1, min(num_chunks, n))
    bounds = [n * i // num_chunks for i in range(num_chunks + 1)]
    return [
        (bounds[i], bounds[i + 1])
        for i in range(num_chunks)
        if bounds[i] < bounds[i + 1]
    ]
