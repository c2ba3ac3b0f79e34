"""Execution-plan IR: levelization, wave dispatch, and invalidation.

Covers the scheduler satellites:

* a hypothesis property test that levelized plans are *valid schedules*
  (every operand is produced in a strictly earlier wave) and that
  wave-by-wave execution reproduces bitwise the CLAs of running the
  un-levelized post-order descriptor one op at a time, for every
  registered backend;
* a regression test that after SPR/NNI moves the planned waves contain
  exactly the signature-stale nodes (and none of the untouched pruned
  subtree);
* unit coverage of the wave statistics, the parallel drivers' wave
  accounting, and the scheduling cost model.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ExecutionPlan,
    LikelihoodEngine,
    Wave,
    WaveStats,
    available_backends,
    levelize,
)
from repro.core.partitioned import Partition
from repro.parallel import PartitionedEngine
from repro.parallel.distributed import DistributedEngine
from repro.parallel.forkjoin import ForkJoinEngine
from repro.phylo import Alignment, GammaRates, gtr, random_topology

TAXA = [f"t{i}" for i in range(8)]


def make_case(n_taxa=8, n_sites=60, seed=0):
    rng = np.random.default_rng(seed)
    names = [f"t{i}" for i in range(n_taxa)]
    data = rng.choice([1, 2, 4, 8], size=(n_taxa, n_sites)).astype(np.uint32)
    patterns = Alignment(names, data).compress()
    tree = random_topology(names, rng)
    return patterns, tree


def make_engine(seed=0, backend=None, **kw):
    patterns, tree = make_case(seed=seed, **kw)
    return LikelihoodEngine(patterns, tree, gtr(), GammaRates(0.7, 4),
                            backend=backend)


# ----------------------------------------------------------------------
# hypothesis: plans are valid schedules; waves == post-order CLAs
# ----------------------------------------------------------------------
@st.composite
def plan_cases(draw):
    n_taxa = draw(st.integers(4, 9))
    n_sites = draw(st.integers(4, 40))
    seed = draw(st.integers(0, 2**31))
    return n_taxa, n_sites, seed


class TestLevelizeProperties:
    @given(plan_cases())
    @settings(max_examples=25, deadline=None)
    def test_plan_is_valid_schedule(self, case):
        """Every operand of wave k is a tip or produced in a wave < k."""
        n_taxa, n_sites, seed = case
        engine = make_engine(seed=seed, n_taxa=n_taxa, n_sites=n_sites)
        plan = engine.plan_execution(engine.default_edge())
        tree = engine.tree
        produced_at: dict[int, int] = {}
        for wave in plan.waves:
            for op in wave.ops:
                assert op.node not in produced_at, "node scheduled twice"
                for child in (op.child1, op.child2):
                    if not tree.is_leaf(child):
                        assert child in produced_at, "operand never produced"
                        assert produced_at[child] < wave.index
                produced_at[op.node] = wave.index
        # a fresh engine must schedule every internal directed node
        internal = {
            node
            for node, _p, _e in tree.postorder(plan.root_edge)
            if not tree.is_leaf(node)
        }
        assert set(produced_at) == internal
        assert plan.depth == len(plan.waves)
        assert plan.max_width == max(w.width for w in plan.waves)

    @given(plan_cases())
    @settings(max_examples=10, deadline=None)
    def test_wave_execution_matches_per_op_path(self, case):
        """Levelized waves == un-levelized post-order, bitwise, every backend.

        Executing the plan wave by wave must yield exactly the CLAs of
        running the flat post-order descriptor one op at a time.
        """
        n_taxa, n_sites, seed = case
        for info in available_backends():
            waved = make_engine(seed=seed, n_taxa=n_taxa,
                                n_sites=n_sites, backend=info.name)
            per_op = make_engine(seed=seed, n_taxa=n_taxa,
                                 n_sites=n_sites, backend=info.name)
            root = waved.default_edge()
            waved.ensure_valid(root)
            for op in per_op.plan_traversal(root).ops:
                per_op._run_op(op)
            assert len(waved.store) == len(per_op.store)
            for node, (z_w, sc_w) in waved.store.items():
                z_p, sc_p = per_op.store.get(node)
                np.testing.assert_array_equal(
                    z_w, z_p,
                    err_msg=f"{info.name}: CLA mismatch at node {node}",
                )
                np.testing.assert_array_equal(sc_w, sc_p)
            assert waved.log_likelihood(root) == per_op.log_likelihood(root)


# ----------------------------------------------------------------------
# invalidation: planned waves == signature-stale nodes
# ----------------------------------------------------------------------
def stale_nodes(engine, root_edge):
    """Oracle: directed nodes whose cached validity entry is outdated."""
    tree = engine.tree
    sigs = engine._signatures(root_edge)
    return {
        node
        for node, _p, up in tree.postorder(root_edge)
        if not tree.is_leaf(node)
        and engine._valid.get(node) != (up, sigs[(node, up)])
    }


def planned_nodes(plan):
    return {op.node for op in plan.iter_ops()}


class TestMoveInvalidation:
    def test_revalidation_plans_nothing(self):
        engine = make_engine(seed=3)
        root = engine.default_edge()
        engine.log_likelihood(root)
        plan = engine.plan_execution(root)
        assert plan.n_ops == 0
        assert plan.depth == 0

    def test_nni_plans_exactly_stale_nodes(self):
        engine = make_engine(seed=5)
        tree = engine.tree
        root = engine.default_edge()
        engine.log_likelihood(root)
        r_ends = {tree.edge(root).u, tree.edge(root).v}
        internal = [
            eid for eid in tree.edge_ids
            if not tree.is_leaf(tree.edge(eid).u)
            and not tree.is_leaf(tree.edge(eid).v)
            and eid != root
            and not ({tree.edge(eid).u, tree.edge(eid).v} & r_ends)
        ]
        eid = internal[0]
        u, v = tree.edge(eid).u, tree.edge(eid).v
        tree.nni_swap(eid, 0)
        expected = stale_nodes(engine, root)
        plan = engine.plan_execution(root)
        got = planned_nodes(plan)
        assert got == expected
        # semantic floor: both endpoints of the swapped edge re-run
        assert {u, v} <= got
        # independent containment oracle: a replanned node either touches
        # the swapped edge or sees it inside its directed subtree
        for node, _p, up in tree.postorder(root):
            if tree.is_leaf(node) or node not in got:
                continue
            below = set(tree.dfs_from(node, up))
            touches_swap = bool(below & {u, v}) or any(
                tree.edge(e).other(node) in (u, v)
                for e in tree.incident_edges(node)
            )
            assert touches_swap, f"node {node} replanned without cause"
        # after execution the plan drains
        engine.ensure_valid(root)
        assert engine.plan_execution(root).n_ops == 0

    def test_spr_plans_exactly_stale_nodes_and_spares_pruned_subtree(self):
        engine = make_engine(seed=8, n_taxa=10)
        tree = engine.tree
        root = engine.default_edge()
        engine.log_likelihood(root)
        r_u = tree.edge(root).u
        # pick an internal-internal edge whose away-from-root side holds a
        # multi-node subtree, and a regraft target on the root side
        pend = target = sub_root = None
        for eid in tree.edge_ids:
            e = tree.edge(eid)
            if tree.is_leaf(e.u) or tree.is_leaf(e.v) or eid == root:
                continue
            # side away from the root edge
            away = e.u if r_u not in tree.dfs_from(e.u, eid) else e.v
            if tree.degree(e.other(away)) != 3:
                continue
            inner = {
                n for n in tree.dfs_from(away, eid)
                if not tree.is_leaf(n) and n != away
            }
            cands = [
                c for c in tree.spr_candidates(eid, radius=4, subtree_root=away)
                if c != root
            ]
            if inner and cands:
                pend, target, sub_root, interior = eid, cands[-1], away, inner
                break
        assert pend is not None, "no suitable SPR case in this topology"
        tree.spr(pend, target, subtree_root=sub_root)
        expected = stale_nodes(engine, root)
        plan = engine.plan_execution(root)
        assert planned_nodes(plan) == expected
        # the untouched interior of the pruned subtree is NOT recomputed
        assert not (planned_nodes(plan) & interior)
        # executing the incremental plan reproduces a from-scratch engine
        engine.ensure_valid(root)
        fresh = LikelihoodEngine(
            engine.patterns, tree, engine.model, engine.rates_model
        )
        assert engine.log_likelihood(root) == pytest.approx(
            fresh.log_likelihood(root), abs=1e-9
        )


# ----------------------------------------------------------------------
# wave statistics and executors
# ----------------------------------------------------------------------
class TestWaveStats:
    def test_stats_accumulate_and_reset(self):
        engine = make_engine(seed=1)
        root = engine.default_edge()
        engine.log_likelihood(root)
        stats = engine.wave_stats
        assert stats.plans == 1
        assert stats.ops == engine.tree.n_leaves - 2
        assert stats.max_width >= 1
        assert stats.mean_width == pytest.approx(stats.ops / stats.waves)
        assert sum(stats.kernel_mix.values()) == stats.ops
        # cumulative across runs
        engine.drop_caches()
        engine.log_likelihood(root)
        assert engine.wave_stats.plans == 2
        engine.reset_profile()
        empty = engine.wave_stats
        assert empty.plans == 0 and empty.ops == 0 and empty.seconds == 0.0
        assert engine.counters.total_calls() == 0

    def test_stats_roundtrip_and_merge(self):
        a = WaveStats(plans=1, waves=2, ops=5, max_width=3,
                      seconds=0.5, bytes_moved=100,
                      kernel_mix={"newview_tip_tip": 5})
        # payloads written before stacked dispatch was removed carry a
        # ``batched_ops`` key; they must still load
        b = WaveStats.from_dict({**a.to_dict(), "batched_ops": 3})
        assert b.ops == 5 and b.max_width == 3
        assert b.to_dict() == a.to_dict()
        b.merge(a)
        assert b.ops == 10 and b.plans == 2 and b.max_width == 3
        b.reset()
        assert b.ops == 0 and b.kernel_mix == {}

    def test_trace_carries_wave_summary(self):
        from repro.perf.trace import KernelTrace, trace_from_profile

        engine = make_engine(seed=4)
        engine.reset_profile()
        engine.log_likelihood()
        trace = trace_from_profile(
            engine.backend.profile,
            n_taxa=engine.tree.n_leaves,
            traced_sites=engine.patterns.n_patterns,
            wave_stats=engine.wave_stats,
        )
        assert trace.wave_summary is not None
        assert trace.wave_summary["ops"] == engine.wave_stats.ops
        again = KernelTrace.from_json(trace.to_json())
        assert again.wave_summary == trace.wave_summary


class TestFusionAndParallelDrivers:
    def test_partitioned_engine_wave_stats(self):
        patterns, tree = make_case(seed=13)
        parts = [
            Partition("g1", patterns, gtr(), GammaRates(0.9, 4)),
            Partition("g2", make_case(seed=14)[0], gtr(), GammaRates(1.3, 4)),
        ]
        pe = PartitionedEngine(parts, tree)
        pe.log_likelihood()
        stats = pe.wave_stats
        assert stats.ops == 2 * (tree.n_leaves - 2)
        pe.reset_profile()
        assert pe.wave_stats.ops == 0

    def test_forkjoin_one_region_per_wave(self):
        patterns, tree = make_case(seed=15, n_sites=40)
        fj = ForkJoinEngine(patterns, tree, gtr(), GammaRates(1.0, 4),
                            n_threads=2)
        depth = fj.slices[0].plan_execution(fj.default_edge()).depth
        assert depth > 0
        fj.log_likelihood()
        # depth wave regions + 1 evaluate region
        assert fj.parallel_regions == depth + 1
        assert fj.wave_stats.ops == 2 * (tree.n_leaves - 2)

    def test_distributed_counts_wave_boundaries_without_comm(self):
        patterns, tree = make_case(seed=16, n_sites=40)
        de = DistributedEngine(patterns, tree, gtr(), GammaRates(1.0, 4),
                               n_ranks=2)
        comm0 = de.comm_seconds
        de.ensure_valid(de.default_edge())
        assert de.wave_boundaries > 0
        assert de.comm_seconds == comm0  # no message between newviews
        de.log_likelihood()
        assert de.comm_seconds > comm0  # only the evaluate AllReduce pays


# ----------------------------------------------------------------------
# scheduling cost model
# ----------------------------------------------------------------------
class TestWaveCostModel:
    def test_wave_time_batching_amortises_serial_overhead(self):
        from repro.perf import XEON_PHI_5110P_1S, CostModel

        model = CostModel(XEON_PHI_5110P_1S)
        per_op = model.wave_time("newview", 10_000, width=8, batched=False)
        batched = model.wave_time("newview", 10_000, width=8, batched=True)
        assert batched < per_op
        saved = per_op - batched
        assert saved == pytest.approx(7 * model.serial_overhead_s("newview"))
        assert model.wave_time("newview", 10_000, width=0) == 0.0
        with pytest.raises(KeyError):
            model.wave_time("bogus", 100, width=1)

    def test_wave_schedule_costs_decomposition(self):
        from repro.perf import XEON_PHI_5110P_1S, CostModel, wave_schedule_costs

        model = CostModel(XEON_PHI_5110P_1S)
        engine = make_engine(seed=17)
        engine.log_likelihood()
        costs = wave_schedule_costs(model, engine.wave_stats, sites=100_000)
        assert costs["ops"] == engine.wave_stats.ops
        assert costs["waves"] == engine.wave_stats.waves
        assert costs["batch_saving_s"] == pytest.approx(
            costs["per_op_serial_s"] - costs["serial_depth_s"]
        )
        assert costs["batched_total_s"] <= costs["per_op_total_s"]
        # dict payload (as attached to a trace) is accepted too
        again = wave_schedule_costs(
            model, engine.wave_stats.to_dict(), sites=100_000
        )
        assert again == costs


class TestLevelizeUnit:
    def test_levelize_shapes_and_compat(self):
        engine = make_engine(seed=18)
        desc = engine.plan_traversal(engine.default_edge())
        plan = levelize(desc)
        assert isinstance(plan, ExecutionPlan)
        assert isinstance(plan.waves[0], Wave)
        assert plan.n_ops == len(desc.ops)
        assert [op.node for op in plan.iter_ops()].sort() == [
            op.node for op in desc.ops
        ].sort()
        engine.execute_plan(plan)
        assert engine.plan_execution(engine.default_edge()).n_ops == 0
