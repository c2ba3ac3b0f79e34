"""Observability subsystem tests: spans, metrics, exporters, parity.

Four angles:

* property-based (hypothesis): randomly generated span *trees* must
  always export to structurally valid Chrome-trace JSON — globally
  sorted timestamps, matched ``B``/``E`` pairs per track — and
  histograms must preserve their bucket invariants under any
  observation stream;
* parity: the span-derived per-kernel seconds must agree with the
  backend profile's :class:`KernelProfile` measurements (same clock,
  same intervals — the kernel seam records the *pre-measured* t0/t1);
* lifecycle: enable/disable gating, the shared null-span singleton,
  ``reset_all_observability``;
* round-trip: ``--trace``'d CLI run -> saved JSON -> ``repro trace``
  validation/summary.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.phylo import GammaRates, gtr, simulate_dataset


@pytest.fixture(autouse=True)
def _obs_clean():
    """Every test starts and ends with tracing off and metrics empty."""
    obs.disable()
    obs.get_registry().clear()
    yield
    obs.disable()
    obs.get_registry().clear()


@pytest.fixture()
def traced_engine():
    """A small reference-backend engine with tracing on (fresh tracer)."""
    from repro.core import LikelihoodEngine

    sim = simulate_dataset(n_taxa=8, n_sites=150, seed=21)
    obs.enable("test")
    engine = LikelihoodEngine(
        sim.alignment.compress(), sim.tree.copy(),
        gtr(
            np.array([1.2, 3.1, 0.9, 1.1, 3.4, 1.0]),
            np.array([0.3, 0.2, 0.2, 0.3]),
        ),
        GammaRates(0.8, 4),
        backend="reference",
    )
    return engine


# ----------------------------------------------------------------------
# hypothesis: random span trees -> valid Chrome traces
# ----------------------------------------------------------------------
@st.composite
def span_trees(draw):
    """A random forest of nested spans plus instants on random tracks.

    Returns ``(spans, instants)`` where spans are ``(name, track, t0,
    t1)`` with proper nesting per track (children strictly inside
    parents), generated by recursive interval subdivision.
    """
    names = st.sampled_from(["alpha", "beta", "gamma", "kernel.evaluate"])
    tracks = draw(
        st.lists(
            st.sampled_from(["main", "rank-0", "rank-1", "thread-3"]),
            min_size=1, max_size=3, unique=True,
        )
    )
    spans: list[tuple[str, str, float, float]] = []
    instants: list[tuple[str, str, float]] = []

    def subdivide(track: str, t0: float, t1: float, depth: int) -> None:
        if depth <= 0 or t1 - t0 < 1e-6:
            return
        n_children = draw(st.integers(min_value=0, max_value=3))
        if n_children == 0:
            return
        cuts = sorted(
            draw(
                st.lists(
                    st.floats(
                        min_value=0.0, max_value=1.0,
                        allow_nan=False, allow_infinity=False,
                    ),
                    min_size=2 * n_children, max_size=2 * n_children,
                )
            )
        )
        for i in range(n_children):
            c0 = t0 + (t1 - t0) * cuts[2 * i]
            c1 = t0 + (t1 - t0) * cuts[2 * i + 1]
            if c1 <= c0:
                continue
            spans.append((draw(names), track, c0, c1))
            subdivide(track, c0, c1, depth - 1)

    for ti, track in enumerate(tracks):
        n_roots = draw(st.integers(min_value=0, max_value=3))
        for r in range(n_roots):
            base = ti * 100.0 + r * 10.0
            width = draw(
                st.floats(
                    min_value=1e-3, max_value=5.0,
                    allow_nan=False, allow_infinity=False,
                )
            )
            spans.append((draw(names), track, base, base + width))
            subdivide(track, base, base + width, depth=3)
        n_instants = draw(st.integers(min_value=0, max_value=3))
        for _ in range(n_instants):
            instants.append(
                (
                    "mark",
                    track,
                    draw(
                        st.floats(
                            min_value=0.0, max_value=400.0,
                            allow_nan=False, allow_infinity=False,
                        )
                    ),
                )
            )
    return spans, instants


class TestChromeExport:
    @settings(max_examples=60, deadline=None)
    @given(tree=span_trees())
    def test_random_span_trees_export_to_valid_chrome_json(self, tree):
        spans, instants = tree
        tracer = obs_spans.Tracer(description="prop")
        for name, track, t0, t1 in spans:
            tracer.add_complete(name, t0, t1, track=track)
        for name, track, ts in instants:
            tracer.instant(name, track=track, ts=ts)
        payload = obs.to_chrome(tracer, include_metrics=False)
        # serialisable and structurally valid
        payload = json.loads(json.dumps(payload))
        assert obs.validate_chrome(payload) == []
        # every span surfaced as exactly one B/E pair
        timed = [
            e for e in payload["traceEvents"] if e.get("ph") in ("B", "E")
        ]
        assert len(timed) == 2 * len(spans)

    @settings(max_examples=30, deadline=None)
    @given(tree=span_trees())
    def test_summary_self_time_is_conservative(self, tree):
        spans, instants = tree
        tracer = obs_spans.Tracer()
        for name, track, t0, t1 in spans:
            tracer.add_complete(name, t0, t1, track=track)
        payload = obs.to_chrome(tracer, include_metrics=False)
        summary = obs.summarize_chrome(payload)
        assert sum(a.count for a in summary.spans.values()) == len(spans)
        for agg in summary.spans.values():
            assert 0.0 <= agg.self_us <= agg.total_us + 1e-6
            assert agg.min_us <= agg.max_us
            assert sum(agg.bucket_counts) == agg.count

    def test_validator_rejects_malformed_traces(self):
        bad = {
            "traceEvents": [
                {"ph": "B", "name": "a", "ts": 2.0, "pid": 1, "tid": 0},
                {"ph": "E", "name": "b", "ts": 3.0, "pid": 1, "tid": 0},
            ]
        }
        problems = obs.validate_chrome(bad)
        assert any("closes" in p for p in problems)
        unsorted = {
            "traceEvents": [
                {"ph": "i", "name": "x", "ts": 5.0, "pid": 1, "tid": 0},
                {"ph": "i", "name": "y", "ts": 1.0, "pid": 1, "tid": 0},
            ]
        }
        assert any("<" in p for p in obs.validate_chrome(unsorted))
        with pytest.raises(ValueError):
            obs.summarize_chrome(unsorted)

    def test_flamegraph_self_times_sum_to_span_time(self):
        tracer = obs_spans.Tracer()
        tracer.add_complete("outer", 0.0, 10.0)
        tracer.add_complete("inner", 2.0, 5.0)
        tracer.add_complete("inner2", 6.0, 7.0)
        folded = obs.flame_folded(tracer)
        assert folded["main;outer"] == pytest.approx(6.0 * 1e6)
        assert folded["main;outer;inner"] == pytest.approx(3.0 * 1e6)
        total = sum(folded.values())
        assert total == pytest.approx(10.0 * 1e6)
        text = obs.flame_text(tracer)
        assert "main;outer;inner" in text


# ----------------------------------------------------------------------
# hypothesis: histogram invariants
# ----------------------------------------------------------------------
class TestMetrics:
    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(
            st.floats(
                min_value=0.0, max_value=1e4,
                allow_nan=False, allow_infinity=False,
            ),
            max_size=50,
        )
    )
    def test_histogram_bucket_invariants(self, values):
        h = obs_metrics.Histogram("h", bounds=obs_metrics.log_buckets())
        for v in values:
            h.observe(v)
        assert h.count == len(values)
        assert sum(h.bucket_counts) + h.overflow == h.count
        assert h.total == pytest.approx(sum(values))
        cumulative = h.cumulative()
        assert cumulative == sorted(cumulative)  # monotone
        assert cumulative[-1] == h.count
        if values:
            assert h.vmin == min(values)
            assert h.vmax == max(values)
            # every value lands in the bucket whose bound first covers it
            for v in values:
                idx = next(
                    (i for i, b in enumerate(h.bounds) if v <= b), None
                )
                if idx is not None:
                    assert h.bucket_counts[idx] >= 1
                    break

    def test_log_buckets_are_geometric(self):
        bounds = obs_metrics.log_buckets(1e-6, 1.0, per_decade=2)
        ratios = [b2 / b1 for b1, b2 in zip(bounds, bounds[1:])]
        assert all(r == pytest.approx(10 ** 0.5) for r in ratios)
        assert bounds[0] == pytest.approx(1e-6)
        assert bounds[-1] >= 1.0
        with pytest.raises(ValueError):
            obs_metrics.log_buckets(1.0, 0.5)

    def test_registry_get_or_create_and_type_guard(self):
        reg = obs_metrics.MetricsRegistry()
        c = reg.counter("x", "help")
        assert reg.counter("x") is c
        with pytest.raises(TypeError):
            reg.gauge("x")
        c.inc(2)
        with pytest.raises(ValueError):
            c.inc(-1)
        g = reg.gauge("g")
        g.set(5.0)
        g.inc(-2.0)
        assert g.value == 3.0
        snap = reg.snapshot()
        assert snap["x"]["value"] == 2.0
        text = reg.to_prometheus()
        # Counters are exposed under the _total convention even when
        # registered without the suffix.
        assert "# TYPE x_total counter" in text
        assert "x_total 2" in text
        reg.reset()
        assert reg.counter("x").value == 0.0
        assert len(reg) == 2

    def test_prometheus_histogram_exposition(self):
        reg = obs_metrics.MetricsRegistry()
        h = reg.histogram("lat", bounds=(1.0, 10.0))
        h.observe(0.5)
        h.observe(5.0)
        h.observe(100.0)
        text = reg.to_prometheus()
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="10"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_count 3" in text

    def test_help_text_is_escaped(self):
        reg = obs_metrics.MetricsRegistry()
        reg.counter("odd_total", "line one\nline two \\ backslash").inc()
        text = reg.to_prometheus()
        assert "# HELP odd_total line one\\nline two \\\\ backslash" in text
        assert "\nline two" not in text  # no raw newline inside HELP

    def test_exposition_round_trips_through_strict_parser(self):
        reg = obs_metrics.MetricsRegistry()
        reg.counter("jobs", "done jobs\nwith a newline").inc(3)
        reg.counter("done_total", "already suffixed").inc(1)
        reg.gauge("depth", "queue depth").set(-2.5)
        h = reg.histogram("lat_seconds", "latency", bounds=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        families = obs_metrics.parse_prometheus_text(reg.to_prometheus())
        assert set(families) == {
            "jobs_total", "done_total", "depth", "lat_seconds"
        }
        assert families["jobs_total"]["type"] == "counter"
        assert families["jobs_total"]["samples"] == [
            ("jobs_total", {}, 3.0)
        ]
        assert families["jobs_total"]["help"] == "done jobs\\nwith a newline"
        assert families["depth"]["samples"] == [("depth", {}, -2.5)]
        hist = families["lat_seconds"]
        assert hist["type"] == "histogram"
        buckets = [
            (labels["le"], v)
            for name, labels, v in hist["samples"]
            if name == "lat_seconds_bucket"
        ]
        assert buckets == [("0.1", 1.0), ("1", 2.0), ("+Inf", 3.0)]

    def test_strict_parser_rejects_malformed_exposition(self):
        parse = obs_metrics.parse_prometheus_text
        with pytest.raises(ValueError):
            parse("# TYPE x counter\nx 1")  # counter without _total
        with pytest.raises(ValueError):
            parse("orphan 1")  # sample with no TYPE block
        with pytest.raises(ValueError):
            parse("# TYPE x_total counter\nx_total nope")
        with pytest.raises(ValueError):
            parse("# HELP only help text")  # HELP without TYPE
        with pytest.raises(ValueError):
            parse(
                "# TYPE h histogram\n"
                'h_bucket{le="1"} 5\nh_bucket{le="+Inf"} 3\n'
                "h_sum 1\nh_count 3"
            )  # bucket counts not cumulative

    def test_lint_flags_nonconforming_names(self):
        reg = obs_metrics.MetricsRegistry()
        reg.counter("good_total")
        reg.counter("bad_counter")
        reg.gauge("colliding_sum")
        reg.histogram("ok_seconds")
        problems = obs_metrics.lint_metric_names(reg)
        assert any("bad_counter" in p for p in problems)
        assert any("colliding_sum" in p for p in problems)
        assert not any("good_total" in p for p in problems)
        assert not any("ok_seconds" in p for p in problems)

    def test_default_registry_exposition_is_lint_clean(self, traced_engine):
        # Drive real instrumented code so the process-wide registry
        # holds the metrics the /metrics endpoint would actually serve.
        traced_engine.log_likelihood()
        reg = obs.get_registry()
        assert obs_metrics.lint_metric_names(reg) == []
        obs_metrics.parse_prometheus_text(reg.to_prometheus())


# ----------------------------------------------------------------------
# gating and zero-cost promises
# ----------------------------------------------------------------------
class TestGating:
    def test_disabled_span_is_shared_null_singleton(self):
        assert obs_spans.span("a") is obs_spans.span("b")
        assert obs_spans.track_scope("t") is obs_spans.span("c")
        with obs_spans.span("noop"):
            pass  # must not raise, must not record

    def test_enable_starts_fresh_and_disable_keeps_tracer_readable(self):
        t1 = obs.enable("one")
        with obs.span("s"):
            pass
        assert obs.is_enabled()
        assert len(t1.spans) == 1
        obs.disable()
        assert not obs.is_enabled()
        assert obs.get_tracer() is t1  # still readable
        t2 = obs.enable("two")
        assert t2 is not t1
        assert t2.spans == []

    def test_instants_and_track_scopes_record_only_when_enabled(self):
        obs_spans.instant("nope")
        tracer = obs.enable()
        obs_spans.instant("yes", detail=1)
        with obs_spans.track_scope("rank-7"):
            with obs.span("inner"):
                pass
        assert [i.name for i in tracer.instants] == ["yes"]
        assert tracer.spans[0].track == "rank-7"
        assert tracer.current_track == "main"

    def test_traced_decorator(self):
        @obs_spans.traced("custom", flavour="x")
        def f(a, b):
            return a + b

        assert f(1, 2) == 3  # disabled: plain call
        tracer = obs.enable()
        assert f(3, 4) == 7
        assert tracer.spans[0].name == "custom"
        assert tracer.spans[0].args == {"flavour": "x"}

    def test_reset_all_observability(self, traced_engine):
        engine = traced_engine
        engine.log_likelihood()
        reg = obs.get_registry()
        assert reg.counter("repro_kernel_dispatch_total").value > 0
        assert obs.get_tracer().n_events > 0
        engine.reset_all_observability()
        assert reg.counter("repro_kernel_dispatch_total").value == 0
        assert obs.get_tracer().n_events == 0
        assert engine.profile.total_calls() == 0
        assert engine.counters.total_calls() == 0


# ----------------------------------------------------------------------
# parity: spans vs the measuring profile
# ----------------------------------------------------------------------
class TestKernelParity:
    def test_span_seconds_match_profile_seconds(self, traced_engine):
        """The 5%-agreement acceptance criterion, on the reference
        backend (the shadow backend dispatches kernels twice)."""
        from repro.core.traversal import KernelKind

        engine = traced_engine
        engine.log_likelihood()
        root = engine.default_edge()
        sumbufs = engine.edge_sum_buffer(root)
        engine.branch_derivatives(sumbufs, 0.1)

        payload = obs.to_chrome(obs.get_tracer())
        summary = obs.summarize_chrome(payload)
        kernels = summary.kernel_aggregates()
        assert set(kernels)  # something was dispatched
        for name, agg in kernels.items():
            kind = KernelKind(name)
            assert agg.count == engine.profile.calls[kind]
            profile_s = engine.profile.seconds[kind]
            # identical intervals modulo the exporter's 1ns µs rounding
            assert agg.total_us / 1e6 == pytest.approx(
                profile_s, rel=0.05, abs=1e-6
            )

    def test_wave_spans_match_wave_stats(self, traced_engine):
        """One ``wave`` span per executed wave, as wide as the wave."""
        engine = traced_engine
        plan = engine.plan_execution(engine.default_edge())
        engine.log_likelihood()
        payload = obs.to_chrome(obs.get_tracer())
        # traces saved before stacked dispatch was removed carry a
        # ``batched`` arg on every wave span; they must still load
        for event in payload["traceEvents"]:
            if event.get("name") == "wave" and event.get("ph") == "B":
                event["args"]["batched"] = True
        summary = obs.summarize_chrome(payload)
        assert plan.depth > 0
        assert len(summary.wave_timeline) == plan.depth
        assert [w for _, _, w in summary.wave_timeline] == [
            wave.width for wave in plan.waves
        ]
        assert "wave timeline" in obs.render_summary(summary)


# ----------------------------------------------------------------------
# parallel tracks and instants
# ----------------------------------------------------------------------
class TestParallelInstrumentation:
    def test_distributed_run_emits_rank_tracks_and_allreduces(self):
        from repro.parallel.distributed import DistributedEngine

        sim = simulate_dataset(n_taxa=8, n_sites=120, seed=5)
        obs.enable()
        engine = DistributedEngine(
            sim.alignment.compress(), sim.tree.copy(), gtr(),
            GammaRates(1.0, 4), n_ranks=2,
        )
        engine.log_likelihood()
        tracer = obs.get_tracer()
        tracks = tracer.tracks()
        assert "rank-0" in tracks and "rank-1" in tracks
        names = {i.name for i in tracer.instants}
        assert "allreduce" in names and "wave_boundary" in names
        reg = obs.get_registry()
        assert reg.counter("repro_allreduce_total").value == 1
        assert (
            reg.counter("repro_wave_boundaries_total").value
            == engine.wave_boundaries
        )
        assert obs.validate_chrome(obs.to_chrome(tracer)) == []
        engine.reset_all_observability()
        assert engine.wave_boundaries == 0

    def test_forkjoin_run_emits_thread_tracks_and_regions(self):
        from repro.parallel.forkjoin import ForkJoinEngine

        sim = simulate_dataset(n_taxa=8, n_sites=120, seed=6)
        obs.enable()
        engine = ForkJoinEngine(
            sim.alignment.compress(), sim.tree.copy(), gtr(),
            GammaRates(1.0, 4), n_threads=2,
        )
        engine.log_likelihood()
        tracer = obs.get_tracer()
        assert "thread-0" in tracer.tracks()
        reg = obs.get_registry()
        assert (
            reg.counter("repro_forkjoin_regions_total").value
            == engine.parallel_regions
        )
        assert obs.validate_chrome(obs.to_chrome(tracer)) == []

    def test_memsave_emits_eviction_and_recompute_events(self):
        from repro.core import make_engine

        sim = simulate_dataset(n_taxa=12, n_sites=80, seed=9)
        obs.enable()
        engine = make_engine(
            sim.alignment.compress(), sim.tree.copy(), gtr(),
            GammaRates(1.0, 4), max_resident=3,
        )
        for root in engine.tree.edge_ids:
            engine.log_likelihood(root)
        engine.drop_caches()  # the caller's own forgetting: not counted
        engine.log_likelihood(root)
        reg = obs.get_registry()
        assert reg.counter("repro_cla_evictions_total").value > 0
        assert (
            reg.counter("repro_cla_recomputes_total").value
            == engine.store.recomputed
            > 0
        )
        names = {i.name for i in obs.get_tracer().instants}
        assert "cla_evict" in names


# ----------------------------------------------------------------------
# search telemetry and CLI round-trip
# ----------------------------------------------------------------------
class TestEndToEnd:
    def test_traced_search_records_phases_and_progress(self):
        from repro.search import SearchConfig, ml_search

        sim = simulate_dataset(n_taxa=6, n_sites=120, seed=30)
        obs.enable()
        ml_search(
            sim.alignment,
            config=SearchConfig(radii=(3,), max_spr_rounds=2),
            backend="reference",
        )
        payload = obs.to_chrome(obs.get_tracer())
        assert obs.validate_chrome(payload) == []
        summary = obs.summarize_chrome(payload)
        for phase in (
            "search.ml_search", "search.initial_branch_opt",
            "search.model_opt", "search.spr", "search.spr_round",
            "search.final_polish", "search.branch_opt",
        ):
            assert phase in summary.spans, phase
        assert summary.instants.get("search.progress", 0) >= 5
        # the ml_search umbrella span covers every kernel second
        umbrella = summary.spans["search.ml_search"].total_us
        kernel_total = sum(
            a.total_us for a in summary.kernel_aggregates().values()
        )
        assert umbrella >= kernel_total

    def test_cli_trace_roundtrip(self, tmp_path, capsys):
        from repro.cli import main
        from repro.phylo import simulate_dataset, write_phylip

        sim = simulate_dataset(n_taxa=6, n_sites=150, seed=40)
        aln = tmp_path / "aln.phy"
        write_phylip(sim.alignment, aln)
        trace_path = tmp_path / "out.json"
        rc = main(
            [
                "search", str(aln), "--radius", "3",
                "--trace", str(trace_path),
                "--out", str(tmp_path / "t.nwk"),
            ]
        )
        assert rc == 0
        assert trace_path.exists()
        assert not obs.is_enabled()  # CLI disables on the way out
        payload = obs.load_chrome(trace_path)
        assert obs.validate_chrome(payload) == []
        assert "metrics" in payload["otherData"]
        capsys.readouterr()
        assert main(["trace", str(trace_path), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "valid Chrome trace" in out
        assert "top" in out and "kernel" in out

    def test_cli_trace_rejects_invalid_file(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "traceEvents": [
                        {"ph": "E", "name": "x", "ts": 1.0},
                    ]
                }
            )
        )
        assert main(["trace", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_env_var_enables_tracing_for_any_subcommand(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        trace_path = tmp_path / "env.json"
        monkeypatch.setenv(obs_spans.TRACE_ENV, str(trace_path))
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert trace_path.exists()
        assert "metrics registry" in out  # snapshot printed when tracing
        assert obs.validate_chrome(obs.load_chrome(trace_path)) == []
