"""Fault injection, retry/backoff, crash-safe checkpointing, recovery.

Four layers under test:

* the deterministic :class:`~repro.faults.FaultPlan` schedule and the
  :class:`~repro.faults.retry.RetryPolicy` backoff math,
* the instrumented call sites — offload retry loop, AllReduce
  timeout/retry, rank-death degrade-or-abort,
* the crash-safe checkpoint machinery (atomic writes, rotation,
  kill-mid-write, corrupt-snapshot handling — including a hypothesis
  sweep: *any* single-byte corruption must surface as ``ValueError``),
* end-to-end recovery: a search killed by an injected crash resumes
  from its checkpoint and reaches the *identical* final topology and
  likelihood as an uninterrupted run (the acceptance criterion).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LikelihoodEngine
from repro.faults import (
    AllReduceTimeout,
    DeviceReset,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    OffloadGaveUp,
    RankFailure,
    RetryPolicy,
    TransferTimeout,
    available_plans,
    make_plan,
    plan_from_json,
)
from repro.mic.offload import OffloadRuntime
from repro.parallel import DistributedEngine, SimMPI
from repro.phylo import GammaRates, gtr, simulate_dataset
from repro.search import SearchConfig, ml_search
from repro.search.checkpoint import (
    Checkpoint,
    CheckpointWriter,
    load_checkpoint,
    load_latest_checkpoint,
    rotation_slots,
    save_checkpoint,
)
from repro.util import atomic_write_text


@pytest.fixture(scope="module")
def problem():
    sim = simulate_dataset(n_taxa=8, n_sites=300, seed=55)
    pat = sim.alignment.compress()
    return sim, pat


def small_config(**kw):
    return SearchConfig(radii=(2, 3), max_spr_rounds=4, seed=55, **kw)


# ----------------------------------------------------------------------
# FaultPlan / FaultSpec
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="gamma-ray")

    def test_inert_spec_rejected(self):
        with pytest.raises(ValueError, match="inert"):
            FaultSpec(kind="transfer-timeout")

    def test_probability_range(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(kind="transfer-timeout", probability=1.5)

    def test_scheduled_fires_exact_calls(self):
        plan = FaultPlan(
            (FaultSpec(kind="transfer-timeout", at_calls=(1, 3)),), seed=0
        )
        hits = [
            plan.consult("transfer-timeout") is not None for _ in range(6)
        ]
        assert hits == [False, True, False, True, False, False]

    def test_stochastic_is_deterministic_per_seed(self):
        def draw(seed):
            plan = FaultPlan(
                (FaultSpec(kind="transfer-timeout", probability=0.3),),
                seed=seed,
            )
            return [
                plan.consult("transfer-timeout") is not None
                for _ in range(50)
            ]

        assert draw(7) == draw(7)
        assert draw(7) != draw(8)  # astronomically unlikely to collide

    def test_max_fires_budget(self):
        plan = FaultPlan(
            (
                FaultSpec(
                    kind="transfer-timeout", probability=1.0, max_fires=2
                ),
            ),
            seed=0,
        )
        fired = sum(
            plan.consult("transfer-timeout") is not None for _ in range(10)
        )
        assert fired == 2

    def test_step_matching_and_once_only(self):
        plan = FaultPlan((FaultSpec(kind="crash-at-step", step=4),), seed=0)
        assert not plan.crash_at_step(3)
        assert plan.crash_at_step(4)
        # a crash spec fires once: the restarted process passes step 4
        assert not plan.crash_at_step(4)
        assert plan.summary() == {"crash-at-step": 1}

    def test_rank_death_names_victim(self):
        plan = FaultPlan(
            (FaultSpec(kind="rank-death", at_calls=(0,), rank=2),), seed=0
        )
        assert plan.rank_death(4) == 2
        assert plan.rank_death(4) is None

    def test_event_log(self):
        plan = FaultPlan(
            (FaultSpec(kind="crash-in-write", at_calls=(0,)),), seed=0
        )
        plan.crash_in_write("ck.json")
        (event,) = plan.events
        assert event.kind == "crash-in-write"
        assert event.detail["target"] == "ck.json"
        assert plan.n_fired == 1
        assert plan.consults("crash-in-write") == 1


class TestRetryPolicy:
    def test_backoff_grows_then_caps(self):
        policy = RetryPolicy(
            base_delay_s=1e-4, multiplier=2.0, max_delay_s=4e-4, jitter=0.0
        )
        rng = np.random.default_rng(0)
        delays = [policy.backoff_s(a, rng) for a in (1, 2, 3, 4, 5)]
        assert delays == [1e-4, 2e-4, 4e-4, 4e-4, 4e-4]

    def test_jitter_bounded(self):
        policy = RetryPolicy(base_delay_s=1e-4, jitter=0.25)
        rng = np.random.default_rng(1)
        for _ in range(200):
            d = policy.backoff_s(1, rng)
            assert 0.75e-4 <= d <= 1.25e-4

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestNamedPlans:
    def test_registry_round_trip(self):
        names = [info.name for info in available_plans()]
        assert "crash-midsearch" in names and "flaky-pcie" in names
        plan = make_plan("crash-midsearch", seed=3)
        assert plan.name == "crash-midsearch"

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown fault plan"):
            make_plan("nonexistent")

    def test_plan_from_json_dict(self):
        plan = plan_from_json(
            {
                "seed": 7,
                "specs": [
                    {"kind": "transfer-timeout", "probability": 0.05},
                    {"kind": "crash-at-step", "step": 2},
                ],
            }
        )
        assert len(plan.specs) == 2 and plan.seed == 7

    def test_plan_from_json_bad_spec(self):
        with pytest.raises(ValueError, match="bad spec #0"):
            plan_from_json({"specs": [{"kind": "not-a-kind", "step": 1}]})


# ----------------------------------------------------------------------
# Offload retry loop
# ----------------------------------------------------------------------
class TestOffloadRetry:
    def test_no_plan_cost_matches_plain(self):
        plain = OffloadRuntime()
        faulty = OffloadRuntime(fault_plan=FaultPlan((), seed=0))
        a = plain.invoke(1e-3, bytes_to_card=1e6, bytes_from_card=1e5)
        b = faulty.invoke(1e-3, bytes_to_card=1e6, bytes_from_card=1e5)
        assert a == b

    def test_retries_then_succeeds(self):
        plan = FaultPlan(
            (FaultSpec(kind="transfer-timeout", at_calls=(0, 1)),), seed=0
        )
        rt = OffloadRuntime(fault_plan=plan)
        baseline = OffloadRuntime().invoke(1e-3)
        t = rt.invoke(1e-3)
        assert rt.retries == 2 and rt.giveups == 0
        # the successful attempt costs the fault-free price, plus waste
        assert t == pytest.approx(
            baseline + rt.seconds_in_faults + rt.seconds_in_backoff
        )
        assert rt.seconds_in_faults == pytest.approx(2 * rt.timeout_s)

    def test_gives_up_after_budget(self):
        plan = FaultPlan(
            (FaultSpec(kind="transfer-timeout", probability=1.0),), seed=0
        )
        rt = OffloadRuntime(fault_plan=plan, retry=RetryPolicy(max_attempts=3))
        with pytest.raises(OffloadGaveUp, match="3 attempts"):
            rt.invoke(1e-3)
        assert rt.giveups == 1 and rt.retries == 2

    def test_device_reset_costs_more(self):
        plan = FaultPlan(
            (FaultSpec(kind="device-reset", at_calls=(0,)),), seed=0
        )
        rt = OffloadRuntime(fault_plan=plan)
        rt.invoke(1e-3)
        assert rt.device_resets == 1
        assert rt.seconds_in_faults == pytest.approx(rt.reset_cost_s)

    def test_overhead_includes_fault_time(self):
        plan = FaultPlan(
            (FaultSpec(kind="transfer-timeout", at_calls=(0,)),), seed=0
        )
        rt = OffloadRuntime(fault_plan=plan)
        rt.invoke(1e-3)
        assert rt.overhead_seconds >= rt.seconds_in_faults


# ----------------------------------------------------------------------
# Collectives: AllReduce timeout + rank death
# ----------------------------------------------------------------------
class TestCollectiveFaults:
    def test_allreduce_retries_then_succeeds(self):
        plan = FaultPlan(
            (FaultSpec(kind="allreduce-timeout", at_calls=(0,)),), seed=0
        )
        mpi = SimMPI(3, fault_plan=plan)
        out = mpi.allreduce_sum([np.ones(4)] * 3)
        np.testing.assert_allclose(out, 3 * np.ones(4))
        assert mpi.allreduce_retries == 1
        assert mpi.seconds_in_faults > 0

    def test_allreduce_timeout_exhaustion(self):
        plan = FaultPlan(
            (FaultSpec(kind="allreduce-timeout", probability=1.0),), seed=0
        )
        mpi = SimMPI(3, fault_plan=plan, retry=RetryPolicy(max_attempts=2))
        with pytest.raises(AllReduceTimeout):
            mpi.allreduce_sum([np.ones(2)] * 3)

    def test_rank_death_raises(self):
        plan = FaultPlan(
            (FaultSpec(kind="rank-death", at_calls=(0,), rank=1),), seed=0
        )
        mpi = SimMPI(4, fault_plan=plan)
        with pytest.raises(RankFailure) as info:
            mpi.allreduce_sum([np.ones(2)] * 4)
        assert info.value.rank == 1

    def test_degrade_still_matches_serial(self, problem):
        sim, pat = problem
        model, gamma = gtr(), GammaRates(0.7, 4)
        serial = LikelihoodEngine(pat, sim.tree.copy(), model, gamma)
        plan = FaultPlan(
            (FaultSpec(kind="rank-death", at_calls=(1,), rank=1),), seed=0
        )
        dist = DistributedEngine(
            pat, sim.tree.copy(), model, gamma,
            n_ranks=3, mpi=SimMPI(3, fault_plan=plan),
            on_rank_failure="degrade",
        )
        first = dist.log_likelihood()  # collective 0: clean
        dist.tree.edge(dist.tree.edge_ids[0]).length *= 1.5
        serial.tree.edge(serial.tree.edge_ids[0]).length *= 1.5
        second = dist.log_likelihood()  # collective 1: rank 1 dies
        assert dist.dead_ranks == {1}
        assert dist.adoptions == {1: 0}
        assert dist.rank_failures == 1
        assert dist.recovery_seconds > 0
        assert second - serial.log_likelihood() == 0.0
        assert np.isfinite(first)  # the pre-death collective was clean

    def test_abort_policy_propagates(self, problem):
        sim, pat = problem
        plan = FaultPlan(
            (FaultSpec(kind="rank-death", at_calls=(0,), rank=1),), seed=0
        )
        dist = DistributedEngine(
            pat, sim.tree.copy(), gtr(), GammaRates(0.7, 4),
            n_ranks=3, mpi=SimMPI(3, fault_plan=plan),
            on_rank_failure="abort",
        )
        with pytest.raises(RankFailure):
            dist.log_likelihood()

    def test_bad_policy_rejected(self, problem):
        sim, pat = problem
        with pytest.raises(ValueError, match="on_rank_failure"):
            DistributedEngine(
                pat, sim.tree.copy(), gtr(), GammaRates(0.7, 4),
                n_ranks=2, on_rank_failure="panic",
            )


# ----------------------------------------------------------------------
# Atomic writes + checkpoint crash safety
# ----------------------------------------------------------------------
class TestAtomicWrite:
    def test_basic_write_and_overwrite(self, tmp_path):
        p = tmp_path / "f.txt"
        atomic_write_text(p, "one")
        atomic_write_text(p, "two")
        assert p.read_text() == "two"
        assert list(tmp_path.iterdir()) == [p]  # no tmp litter

    def test_failed_write_leaves_original(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("original")

        def boom(tmp):
            raise RuntimeError("killed")

        with pytest.raises(RuntimeError):
            atomic_write_text(p, "replacement", pre_replace_hook=boom)
        assert p.read_text() == "original"
        assert list(tmp_path.iterdir()) == [p]  # tmp cleaned up


class TestCheckpointCorruption:
    def test_truncated_json(self):
        with pytest.raises(ValueError, match="corrupt checkpoint"):
            Checkpoint.from_json('{"format_version": 2, "newick": "((a')

    def test_non_object(self):
        with pytest.raises(ValueError, match="corrupt checkpoint"):
            Checkpoint.from_json("[1, 2, 3]")

    def test_missing_field(self):
        doc = json.dumps({"format_version": 2, "newick": "(a,b);"})
        with pytest.raises(ValueError, match="corrupt checkpoint"):
            Checkpoint.from_json(doc)

    def test_load_checkpoint_names_path(self, tmp_path):
        p = tmp_path / "ck.json"
        p.write_text("not json at all")
        with pytest.raises(ValueError, match=str(p)):
            load_checkpoint(p)
        with pytest.raises(ValueError, match="cannot read"):
            load_checkpoint(tmp_path / "missing.json")

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_any_single_byte_corruption_is_valueerror(
        self, data, problem, tmp_path_factory
    ):
        """Flip/overwrite one byte anywhere: always ValueError, never a
        raw KeyError/JSONDecodeError (or a silent success with the same
        payload)."""
        sim, pat = problem
        engine = LikelihoodEngine(
            pat, sim.tree.copy(), gtr(), GammaRates(0.7, 4)
        )
        path = tmp_path_factory.mktemp("hyp") / "ck.json"
        save_checkpoint(engine, path, lnl=-1.0, stage="spr", step=3)
        raw = bytearray(path.read_bytes())
        pos = data.draw(st.integers(0, len(raw) - 1), label="position")
        new_byte = data.draw(st.integers(0, 255), label="byte")
        old = raw[pos]
        raw[pos] = new_byte
        path.write_bytes(bytes(raw))
        try:
            ckpt = load_checkpoint(path)
        except ValueError:
            pass  # the required failure mode
        else:
            # corruption may happen to stay parseable (e.g. digit swap
            # or same byte): the loader must still return a Checkpoint
            assert isinstance(ckpt, Checkpoint)
            if new_byte == old:
                assert ckpt.step == 3


class TestRotationAndKillMidWrite:
    def make_engine(self, problem):
        sim, pat = problem
        return LikelihoodEngine(
            pat, sim.tree.copy(), gtr(), GammaRates(0.7, 4)
        )

    def test_rotation_keeps_last_k(self, problem, tmp_path):
        engine = self.make_engine(problem)
        path = tmp_path / "ck.json"
        writer = CheckpointWriter(path, every=1, keep=3)
        for step in range(5):
            writer.write(engine, lnl=-float(step), stage="spr", step=step)
        slots = rotation_slots(path, keep=3)
        assert [s.exists() for s in slots] == [True, True, True]
        assert not (tmp_path / "ck.json.3").exists()
        steps = [load_checkpoint(s).step for s in slots]
        assert steps == [4, 3, 2]  # newest first

    def test_maybe_write_period(self, problem, tmp_path):
        engine = self.make_engine(problem)
        writer = CheckpointWriter(tmp_path / "ck.json", every=2)
        assert writer.maybe_write(engine, None, "spr", 1) is None
        assert writer.maybe_write(engine, None, "spr", 2) is not None
        disabled = CheckpointWriter(tmp_path / "off.json", every=0)
        assert disabled.maybe_write(engine, None, "spr", 2) is None

    def test_kill_mid_write_leaves_previous_slot_loadable(
        self, problem, tmp_path
    ):
        """The ISSUE's crash-safety test: a process killed between fsync
        and rename never corrupts the rotation."""
        engine = self.make_engine(problem)
        path = tmp_path / "ck.json"
        plan = FaultPlan(
            (FaultSpec(kind="crash-in-write", at_calls=(1,)),), seed=0
        )
        writer = CheckpointWriter(path, every=1, keep=3, fault_plan=plan)
        writer.write(engine, lnl=-10.0, stage="spr", step=0)
        with pytest.raises(InjectedCrash) as info:
            writer.write(engine, lnl=-9.0, stage="spr", step=1)
        assert info.value.where == "checkpoint-write"
        # the kill happened after rotation: slot .1 holds step 0 and the
        # primary slot is gone — load_latest_checkpoint must fall back
        ckpt, slot = load_latest_checkpoint(path, keep=3)
        assert ckpt.step == 0 and ckpt.lnl == -10.0
        assert slot == tmp_path / "ck.json.1"
        # no half-written tmp file survives the crash
        assert not list(tmp_path.glob("*.tmp*"))

    def test_corrupt_primary_falls_back(self, problem, tmp_path):
        engine = self.make_engine(problem)
        path = tmp_path / "ck.json"
        writer = CheckpointWriter(path, every=1, keep=2)
        writer.write(engine, lnl=-10.0, stage="spr", step=0)
        writer.write(engine, lnl=-9.0, stage="spr", step=1)
        path.write_bytes(path.read_bytes()[:40])  # disk fault
        ckpt, slot = load_latest_checkpoint(path, keep=2)
        assert ckpt.step == 0
        assert slot.name == "ck.json.1"

    def test_no_loadable_slot_reports_all(self, tmp_path):
        with pytest.raises(ValueError, match="no loadable checkpoint"):
            load_latest_checkpoint(tmp_path / "ck.json")

    def test_writer_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointWriter(tmp_path / "x", every=-1)
        with pytest.raises(ValueError):
            CheckpointWriter(tmp_path / "x", keep=0)


# ----------------------------------------------------------------------
# End-to-end: crash -> resume -> identical result
# ----------------------------------------------------------------------
class TestCrashResumeParity:
    def test_resume_reaches_identical_result(self, problem, tmp_path):
        sim, pat = problem
        ck = tmp_path / "ck.json"
        baseline = ml_search(pat, config=small_config())

        plan = FaultPlan((FaultSpec(kind="crash-at-step", step=3),), seed=0)
        with pytest.raises(InjectedCrash):
            ml_search(
                pat,
                config=small_config(checkpoint_path=ck, checkpoint_every=1),
                fault_plan=plan,
            )
        ckpt, _ = load_latest_checkpoint(ck)
        assert ckpt.step < 3  # the killed step was never persisted
        resumed = ml_search(
            pat,
            config=small_config(checkpoint_path=ck, checkpoint_every=1),
            resume_from=ckpt,
            fault_plan=plan,  # same machine lifetime: crash spec is spent
        )
        assert resumed.lnl == pytest.approx(baseline.lnl, abs=1e-8)
        assert resumed.tree.to_newick(precision=10) == baseline.tree.to_newick(
            precision=10
        )
        # the resumed trajectory *continues* (threads lnl/stage through)
        label, lnl0 = resumed.lnl_trajectory[0]
        assert label.startswith("resume:")
        assert lnl0 == ckpt.lnl
        stages = [s for s, _ in resumed.lnl_trajectory]
        assert "start" not in stages  # completed stages are skipped

    def test_resume_after_a_ring_round_is_bitwise(self, tmp_path):
        """Killed after the radius-5 round accepted nothing, the resumed
        search scores its radius-10 round in full where the uninterrupted
        one scores only the ring: same lnL and Newick all the same."""
        sim = simulate_dataset(n_taxa=16, n_sites=200, seed=56)
        pat = sim.alignment.compress()
        ck = tmp_path / "ck.json"

        def config(**kw):
            return SearchConfig(radii=(5, 10), seed=56, **kw)

        baseline = ml_search(pat, config=config(), starting_tree=sim.tree)
        first, ring = baseline.spr_history[:2]
        assert (first.radius, first.moves_accepted) == (5, 0)
        assert ring.radius == 10 and ring.moves_tried > 0

        plan = FaultPlan((FaultSpec(kind="crash-at-step", step=4),), seed=0)
        with pytest.raises(InjectedCrash):
            ml_search(
                pat, config=config(checkpoint_path=ck), fault_plan=plan,
                starting_tree=sim.tree,
            )
        ckpt, _ = load_latest_checkpoint(ck)
        assert (ckpt.stage, ckpt.spr_round, ckpt.spr_radius_idx) == ("spr", 0, 1)
        resumed = ml_search(pat, config=config(), resume_from=ckpt)
        assert resumed.spr_history[0].moves_tried > ring.moves_tried
        assert resumed.lnl == baseline.lnl
        assert resumed.tree.to_newick(precision=17) == baseline.tree.to_newick(
            precision=17
        )

    def test_resume_before_a_rescue_is_bitwise(self, search_wide_rep63, tmp_path):
        """Killed after the radius-5 round accepted nothing, the resumed
        search collects in one full radius-10 round the lazy trials the
        uninterrupted one collected over two, and rescues the same move."""
        alignment, _ = search_wide_rep63
        ck = tmp_path / "ck.json"
        baseline = ml_search(alignment)
        assert [(h.radius, h.moves_accepted) for h in baseline.spr_history[:2]] == [
            (5, 0), (10, 1)
        ]
        plan = FaultPlan((FaultSpec(kind="crash-at-step", step=4),), seed=0)
        with pytest.raises(InjectedCrash):
            ml_search(
                alignment, config=SearchConfig(checkpoint_path=ck),
                fault_plan=plan,
            )
        ckpt, _ = load_latest_checkpoint(ck)
        assert (ckpt.stage, ckpt.spr_round, ckpt.spr_radius_idx) == ("spr", 0, 1)
        resumed = ml_search(alignment, resume_from=ckpt)
        assert resumed.spr_history[0].moves_accepted == 1
        assert resumed.lnl == baseline.lnl
        assert resumed.tree.to_newick(precision=17) == baseline.tree.to_newick(
            precision=17
        )

    def test_fault_abort_writes_emergency_checkpoint(self, problem, tmp_path):
        sim, pat = problem
        ck = tmp_path / "ck.json"
        # rank-death isn't possible here, but OffloadGaveUp-style faults
        # escape the driver via the FaultError branch; simulate one by
        # raising AllReduceTimeout from the crash hook's sibling path:
        # easiest realistic route is a dying SPR via monkeypatched plan.
        plan = FaultPlan((FaultSpec(kind="crash-at-step", step=2),), seed=0)
        with pytest.raises(InjectedCrash):
            ml_search(
                pat,
                config=small_config(checkpoint_path=ck, checkpoint_every=5),
                fault_plan=plan,
            )
        # periodic writes only fire on step%5==0, yet step 0 landed
        ckpt, _ = load_latest_checkpoint(ck)
        assert ckpt.stage == "start"

    def test_runner_survives_and_verifies(self, problem):
        _, pat = problem
        from repro.faults.runner import run_search_with_faults

        plan = make_plan("double-crash", seed=55)
        report = run_search_with_faults(
            pat, plan, small_config(), max_restarts=4, verify=True
        )
        assert report.survived
        assert report.crashes == 2 and report.restarts == 2
        assert report.fault_summary == {"crash-at-step": 2}
        assert report.lnl_delta == pytest.approx(0.0, abs=1e-8)
        assert report.topology_match and report.verified

    def test_runner_gives_up_when_budget_exhausted(self, problem):
        _, pat = problem
        from repro.faults.runner import run_search_with_faults

        plan = FaultPlan(
            (
                FaultSpec(
                    kind="crash-at-step", step=2, max_fires=10
                ),
            ),
            seed=0,
        )
        report = run_search_with_faults(
            pat, plan, small_config(), max_restarts=2
        )
        assert not report.survived
        assert report.crashes == 3  # initial process + 2 restarts
