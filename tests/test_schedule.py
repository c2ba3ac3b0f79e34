"""Execution-plan IR: levelization, wave dispatch, and invalidation.

Covers the scheduler satellites:

* a hypothesis property test that levelized plans are *valid schedules*
  (every operand is produced in a strictly earlier wave) and that
  wave-by-wave execution reproduces bitwise the CLAs of running the
  un-levelized post-order descriptor one op at a time, for every
  registered backend;
* regression tests that after SPR/NNI moves, length changes, undos,
  model changes and random sequences of them the planned waves contain
  exactly the nodes an outside oracle calls stale (and none of the
  untouched pruned subtree), and that a capped subtree-id table changes
  no search result;
* unit coverage of the kernel counters and the parallel drivers' wave
  accounting.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ExecutionPlan,
    LikelihoodEngine,
    NewviewOp,
    Wave,
    available_backends,
    levelize,
)
from repro.core import engine as engine_module
from repro.core import make_engine as make_store_engine
from repro.core.partitioned import Partition
from repro.parallel import PartitionedEngine
from repro.parallel.distributed import DistributedEngine
from repro.parallel.forkjoin import ForkJoinEngine
from repro.phylo import (
    Alignment,
    GammaRates,
    Tree,
    gtr,
    random_topology,
    simulate_dataset,
)
from repro.search import ml_search

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
            for op in per_op.plan_traversal(root):
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
def subtree_signatures(tree, root_edge):
    """Reference signature of every directed ``(node, up_edge)`` below the
    root: a leaf's name, or its children's ``(edge id, length, signature)``.
    Equal signatures imply equal subtree likelihood content."""
    sigs = {}

    def sign(node, up_edge):
        if tree.is_leaf(node):
            sig = tree.name(node)
        else:
            sig = tuple(
                (eid, tree.edge(eid).length, sign(child, eid))
                for child, eid in tree.children(node, up_edge)
            )
        sigs[(node, up_edge)] = sig
        return sig

    edge = tree.edge(root_edge)
    sign(edge.u, root_edge)
    sign(edge.v, root_edge)
    return sigs


class ExecutedPlans:
    """Oracle that reads no engine internals: it wraps ``engine``'s public
    ``execute_plan`` to record ``(up_edge, signature)`` for every node of
    every post-order plan the engine runs, and its ``set_model`` (which
    ``set_alpha`` goes through) to forget them all.  A directed node is
    stale when its current record differs."""

    def __init__(self, engine):
        self.record = {}
        execute_plan, set_model = engine.execute_plan, engine.set_model

        def recording_execute_plan(plan):
            sigs = subtree_signatures(engine.tree, plan.root_edge)
            execute_plan(plan)
            for op in plan.iter_ops():
                if type(op) is NewviewOp:
                    self.record[op.node] = (
                        op.up_edge, sigs[(op.node, op.up_edge)]
                    )

        def forgetting_set_model(*args, **kwargs):
            self.record.clear()
            set_model(*args, **kwargs)

        engine.execute_plan = recording_execute_plan
        engine.set_model = forgetting_set_model
        self.engine = engine

    def stale_nodes(self, root_edge):
        tree = self.engine.tree
        sigs = subtree_signatures(tree, root_edge)
        return {
            node
            for node, _p, up in tree.postorder(root_edge)
            if not tree.is_leaf(node)
            and self.record.get(node) != (up, sigs[(node, up)])
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
        executed = ExecutedPlans(engine)
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
        expected = executed.stale_nodes(root)
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
        executed = ExecutedPlans(engine)
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
        expected = executed.stale_nodes(root)
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

    @pytest.mark.parametrize("max_resident", [None, 3])
    def test_lengths_model_and_spr_undo_plan_exactly_stale_nodes(
        self, max_resident
    ):
        """Planned nodes == oracle-stale nodes after every kind of change,
        with every CLA resident or at most three of them."""
        patterns, tree = make_case(seed=9, n_taxa=10)
        engine = make_store_engine(
            patterns, tree, gtr(), GammaRates(0.7, 4), max_resident=max_resident
        )
        executed = ExecutedPlans(engine)
        root = engine.default_edge()
        internal = len(tree.internal_nodes())

        def replan():
            expected = executed.stale_nodes(root)
            assert planned_nodes(engine.plan_execution(root)) == expected
            lnl = engine.log_likelihood(root)
            assert engine.plan_execution(root).n_ops == 0
            return expected, lnl

        stale, lnl0 = replan()
        assert len(stale) == internal
        # branch lengths: the root edge is below no CLA; any other edge
        # stales exactly the path from it to the root, both ways
        t_root = tree.edge(root).length
        tree.edge(root).length = 2.0 * t_root
        assert not replan()[0]
        tree.edge(root).length = t_root
        assert not replan()[0]
        leaf = tree.leaves()[-1]
        pend = tree.incident_edges(leaf)[0]
        t_pend = tree.edge(pend).length
        tree.edge(pend).length = 1.5 * t_pend
        stale, _ = replan()
        assert 0 < len(stale) < internal
        tree.edge(pend).length = t_pend
        assert replan()[0] == stale
        # model changes drop every CLA
        engine.set_alpha(1.3)
        assert len(replan()[0]) == internal
        engine.set_model(engine.model)
        assert len(replan()[0]) == internal
        engine.set_alpha(0.7)
        stale, lnl = replan()
        assert lnl == lnl0
        # a trial SPR and its undo
        pendant = tree.incident_edges(leaf)[0]
        target = tree.spr_candidates(pendant, radius=5, subtree_root=leaf)[-1]
        _, undo = tree.spr(pendant, target, subtree_root=leaf)
        assert replan()[0]
        undo()
        stale, lnl = replan()
        assert stale and lnl == lnl0

    @pytest.mark.parametrize("max_resident", [None, 3])
    def test_random_move_sequences_plan_exactly_stale_nodes(
        self, max_resident
    ):
        """30 random sequences of NNI, trial SPR + undo, accepted SPR,
        length change + restore and ``set_alpha``: at every step the plan
        holds exactly the oracle-stale nodes and the lnL equals a fresh
        engine's, bit for bit.  (The oracle does not model the engine's
        sweep of retired nodes, which starts past 48 cached nodes on 12
        taxa: six moves cannot get there.)"""
        for seed in range(30):
            rng = np.random.default_rng(seed)
            patterns, tree = make_case(seed=seed, n_taxa=12, n_sites=40)
            engine = make_store_engine(
                patterns, tree, gtr(), GammaRates(0.7, 4),
                max_resident=max_resident,
            )
            executed = ExecutedPlans(engine)

            def step():
                root = engine.default_edge()
                expected = executed.stale_nodes(root)
                assert planned_nodes(engine.plan_execution(root)) == expected
                fresh = make_store_engine(
                    patterns, tree.copy(), engine.model, engine.rates_model
                )
                assert engine.log_likelihood(root) == fresh.log_likelihood(root)

            def random_spr():
                while True:
                    eid = int(rng.choice(tree.edge_ids))
                    edge = tree.edge(eid)
                    sub = (edge.u, edge.v)[int(rng.integers(2))]
                    targets = tree.spr_candidates(eid, radius=3, subtree_root=sub)
                    if targets:
                        target = targets[int(rng.integers(len(targets)))]
                        return tree.spr(eid, target, subtree_root=sub)[1]

            step()
            for move in rng.choice(
                ["nni", "trial_spr", "spr", "length", "alpha"], size=6
            ):
                if move == "nni":
                    inner = [
                        e.id for e in tree.edges
                        if not tree.is_leaf(e.u) and not tree.is_leaf(e.v)
                    ]
                    tree.nni_swap(int(rng.choice(inner)), int(rng.integers(2)))
                elif move == "trial_spr":
                    undo = random_spr()
                    step()
                    undo()
                elif move == "spr":
                    random_spr()
                elif move == "length":
                    edge = tree.edge(int(rng.choice(tree.edge_ids)))
                    t = edge.length
                    edge.length = 1.5 * t
                    step()
                    edge.length = t
                else:
                    engine.set_alpha(float(rng.uniform(0.3, 2.0)))
                step()

    def test_capped_subtree_ids_change_no_result(self, monkeypatch):
        """Clearing the interned-id table (here whenever it holds more
        than 8 ids) costs recomputation, never a result: a search ends on
        the uncapped run's lnL and tree, bit for bit."""
        aln = simulate_dataset(n_taxa=6, n_sites=150, seed=11).alignment
        uncapped = ml_search(aln, backend="reference")
        monkeypatch.setattr(engine_module, "MAX_SUBTREE_IDS", 8)
        capped = ml_search(aln, backend="reference")
        assert capped.lnl == uncapped.lnl
        assert capped.newick == uncapped.newick
        assert (
            capped.counters.merged()["newview"]
            > uncapped.counters.merged()["newview"]
        )

    def test_one_postorder_walk_per_evaluation(self, monkeypatch):
        """Signatures and the plan come out of the same tree walk."""
        engine = make_engine(seed=4)
        tree = engine.tree
        engine.log_likelihood()
        tree.edge(tree.edge_ids[3]).length *= 1.5
        walks = []
        postorder = Tree.postorder

        def counted(self, root_edge):
            walks.append(root_edge)
            return postorder(self, root_edge)

        monkeypatch.setattr(Tree, "postorder", counted)
        engine.log_likelihood()
        assert len(walks) == 1


# ----------------------------------------------------------------------
# accounting and parallel drivers
# ----------------------------------------------------------------------
class TestWaveStats:
    def test_stats_accumulate_and_reset(self):
        engine = make_engine(seed=1)
        root = engine.default_edge()
        engine.log_likelihood(root)
        once = engine.counters.total_calls()
        assert engine.counters.merged()["newview"] == engine.tree.n_leaves - 2
        # cumulative across runs
        engine.drop_caches()
        engine.log_likelihood(root)
        assert engine.counters.total_calls() == 2 * once
        engine.reset_profile()
        assert engine.counters.total_calls() == 0
        assert engine.profile.total_calls() == 0


class TestParallelDrivers:
    def test_partitioned_engine_wave_stats(self):
        patterns, tree = make_case(seed=13)
        other = make_case(seed=14)[0]
        parts = [
            Partition("g1", patterns, gtr(), GammaRates(0.9, 4)),
            Partition("g2", other, gtr(), GammaRates(1.3, 4)),
        ]
        pe = PartitionedEngine(parts, tree)
        pe.log_likelihood()
        counters = pe.counters
        assert counters.merged()["newview"] == tree.n_leaves - 2
        assert sum(counters.site_units.values()) == (
            tree.n_leaves - 1
        ) * (patterns.n_patterns + other.n_patterns)
        pe.reset_profile()
        assert pe.counters.total_calls() == 0

    def test_forkjoin_one_region_per_wave(self):
        patterns, tree = make_case(seed=15, n_sites=40)
        fj = ForkJoinEngine(patterns, tree, gtr(), GammaRates(1.0, 4),
                            n_threads=2)
        depth = fj.slices[0].plan_execution(fj.default_edge()).depth
        assert depth > 0
        fj.log_likelihood()
        # depth wave regions + 1 evaluate region
        assert fj.parallel_regions == depth + 1
        assert fj.counters.merged()["newview"] == tree.n_leaves - 2

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

    def test_distributed_gradient_counts_every_executed_wave(self):
        """A cold all-branch gradient charges one boundary per down-sweep
        wave and one per up-sweep wave — exactly the serial plan's."""
        patterns, tree = make_case(seed=16, n_sites=40)
        serial = LikelihoodEngine(patterns, tree.copy(), gtr(),
                                  GammaRates(1.0, 4))
        plan = serial.plan_gradient(serial.default_edge())
        assert plan.down.depth > 0 and plan.up.depth > 0
        de = DistributedEngine(patterns, tree, gtr(), GammaRates(1.0, 4),
                               n_ranks=2)
        before = de.wave_boundaries
        de.all_branch_gradients(serial.default_edge())
        assert de.wave_boundaries - before == plan.down.depth + plan.up.depth


class TestLevelizeUnit:
    def test_levelize_shapes_and_compat(self):
        engine = make_engine(seed=18)
        root = engine.default_edge()
        ops = engine.plan_traversal(root)
        plan = levelize(root, ops)
        assert isinstance(plan, ExecutionPlan)
        assert isinstance(plan.waves[0], Wave)
        assert plan.n_ops == len(ops)
        assert sorted(op.node for op in plan.iter_ops()) == sorted(
            op.node for op in ops
        )
        engine.execute_plan(plan)
        assert engine.plan_execution(engine.default_edge()).n_ops == 0
