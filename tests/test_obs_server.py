"""Live observability plane tests: endpoint, progress ETA, profiler.

Four angles:

* property-based (hypothesis): the ``/progress`` ETA is never negative
  and strictly decreases as steps complete under constant per-step
  cost, for arbitrary step counts and costs (driven on a synthetic
  clock — every mutator takes ``now``);
* real sockets: a served :class:`~repro.obs.server.ObsServer` answers
  ``/metrics`` (strict-parser valid), ``/healthz`` (200 ok / 503
  degraded), and ``/progress`` over actual HTTP — including *mid-run*,
  polled from a thread while ``ml_search`` executes;
* gating: the server hooks are no-ops while disabled, and their guard
  is the same ~20 ns module-flag discipline the tracer uses (the
  quality gates hold the cost bound);
* profiler: background sampling attributes wall time to the open span
  stack and survives start/stop cycles.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import server as obs_server
from repro.obs import spans as obs_spans
from repro.obs.metrics import parse_prometheus_text
from repro.obs.profiler import SamplingProfiler
from repro.obs.server import HealthState, ProgressState
from repro.phylo import simulate_dataset


@pytest.fixture(autouse=True)
def _server_clean():
    """Every test starts and ends with the live plane fully torn down."""
    srv = obs_server.get_server()
    if srv is not None:
        srv.stop()
    obs_server.ENABLED = False
    obs_server.progress().reset()
    obs_server.health().reset()
    obs.disable()
    obs.get_registry().clear()
    yield
    srv = obs_server.get_server()
    if srv is not None:
        srv.stop()
    obs_server.ENABLED = False
    obs_server.progress().reset()
    obs_server.health().reset()
    obs.disable()
    obs.get_registry().clear()


def _get(url: str) -> tuple[int, bytes]:
    try:
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.read()


# ----------------------------------------------------------------------
# hypothesis: ETA invariants on a synthetic clock
# ----------------------------------------------------------------------
class TestProgressEta:
    @given(
        total=st.integers(min_value=1, max_value=200),
        per_step=st.floats(
            min_value=1e-6, max_value=1e3,
            allow_nan=False, allow_infinity=False,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_eta_never_negative_and_decreases_under_constant_cost(
        self, total, per_step
    ):
        p = ProgressState()
        p.begin("t", total_steps=total, now=0.0)
        previous = None
        for k in range(1, total + 1):
            now = k * per_step
            p.update("stage", lnl=-1.0, now=now)
            eta = p.eta_seconds(now=now)
            assert eta is not None
            assert eta >= 0.0
            # constant per-step cost => eta == per_step * remaining,
            # which strictly decreases (to 0 at the last step)
            assert eta == pytest.approx(per_step * (total - k), rel=1e-9)
            if previous is not None:
                assert eta < previous or (eta == 0.0 and previous == 0.0)
            previous = eta
        p.finish(now=total * per_step)
        assert p.eta_seconds(now=total * per_step + 5.0) == 0.0

    @given(
        costs=st.lists(
            st.floats(
                min_value=1e-6, max_value=10.0,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_eta_never_negative_under_arbitrary_costs(self, costs):
        p = ProgressState()
        p.begin("t", total_steps=len(costs) + 3, now=0.0)
        now = 0.0
        for c in costs:
            now += c
            p.update("s", now=now)
            eta = p.eta_seconds(now=now)
            assert eta is not None and eta >= 0.0

    def test_eta_unknown_before_first_step_or_without_total(self):
        p = ProgressState()
        assert p.eta_seconds(now=1.0) is None  # never began
        p.begin("t", total_steps=10, now=0.0)
        assert p.eta_seconds(now=5.0) is None  # no step measured yet
        q = ProgressState()
        q.begin("t", total_steps=None, now=0.0)
        q.update("s", now=1.0)
        assert q.eta_seconds(now=2.0) is None  # no declared target

    def test_snapshot_trajectory_and_overrun_clamp(self):
        p = ProgressState()
        p.begin("t", total_steps=2, now=0.0, workers=4)
        p.update("a", lnl=-10.0, now=1.0)
        p.update("b", lnl=-9.0, now=2.0)
        p.update("c", lnl=-8.5, now=3.0)  # one step beyond the plan
        snap = p.snapshot(now=3.0)
        assert snap["steps_done"] == 3
        assert snap["eta_s"] == 0.0  # remaining clamps at zero
        assert [e["stage"] for e in snap["lnl_trajectory"]] == ["a", "b", "c"]
        assert snap["lnl"] == -8.5
        assert snap["info"] == {"workers": 4}


# ----------------------------------------------------------------------
# health state
# ----------------------------------------------------------------------
class TestHealthState:
    def test_ok_until_a_degradation_event(self):
        h = HealthState()
        assert h.snapshot(now=0.0)["status"] == "ok"
        h.event("worker_death", now=1.0, dead=[2], survivors=3)
        snap = h.snapshot(now=2.0)
        assert snap["status"] == "degraded"
        assert snap["degradation_events"][0]["kind"] == "worker_death"

    def test_checkpoint_age(self):
        h = HealthState()
        assert h.snapshot(now=0.0)["last_checkpoint"] is None
        h.checkpoint_written("/tmp/ck.json", step=7, now=10.0)
        ck = h.snapshot(now=13.5)["last_checkpoint"]
        assert ck["path"] == "/tmp/ck.json"
        assert ck["step"] == 7
        assert ck["age_s"] == pytest.approx(3.5)

    def test_dead_workers_in_open_pool_degrade(self):
        class FakePool:
            n_workers = 4
            alive = [0, 1, 3]
            dead = {2}
            adoptions = {2: 0}
            _closed = False

            class barrier_stats:
                regions = 5

        h = HealthState()
        pool = FakePool()
        h.register_pool(pool)
        snap = h.snapshot(now=0.0)
        assert snap["status"] == "degraded"
        assert snap["worker_pools"][0]["dead"] == [2]
        pool._closed = True  # a closed pool's old deaths don't degrade
        assert h.snapshot(now=1.0)["status"] == "ok"


# ----------------------------------------------------------------------
# real sockets
# ----------------------------------------------------------------------
class TestEndpoint:
    def test_all_three_endpoints_answer(self):
        obs.get_registry().counter("reqs_total", "requests").inc(2)
        srv = obs_server.serve(port=0)
        assert srv.port > 0
        status, body = _get(srv.url + "/metrics")
        assert status == 200
        families = parse_prometheus_text(body.decode())
        assert families["reqs_total"]["samples"] == [("reqs_total", {}, 2.0)]
        status, body = _get(srv.url + "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"
        obs_server.progress_begin("demo", total_steps=4)
        obs_server.progress_update("stage1", lnl=-42.0)
        status, body = _get(srv.url + "/progress")
        assert status == 200
        snap = json.loads(body)
        assert snap["task"] == "demo"
        assert snap["steps_done"] == 1
        status, _ = _get(srv.url + "/nope")
        assert status == 404

    def test_degraded_health_returns_503(self):
        srv = obs_server.serve(port=0)
        obs_server.health_event("rank_death", rank=3, adopter=0, survivors=1)
        status, body = _get(srv.url + "/healthz")
        assert status == 503
        assert json.loads(body)["status"] == "degraded"

    def test_serve_resets_state_and_stop_disables(self):
        obs_server.serve(port=0)
        obs_server.progress_begin("one")
        srv = obs_server.serve(port=0)  # re-serve: fresh state
        assert obs_server.progress().task == ""
        assert obs_server.ENABLED
        srv.stop()
        assert not obs_server.ENABLED
        assert obs_server.get_server() is None
        obs_server.progress_begin("ignored")  # gated off: no-op
        assert obs_server.progress().task == ""

    def test_search_answers_mid_run_and_finishes(self):
        sim = simulate_dataset(n_taxa=8, n_sites=120, seed=5)
        srv = obs_server.serve(port=0)
        polled: list[dict] = []
        stop = threading.Event()

        def poll():
            while not stop.is_set():
                s1, b1 = _get(srv.url + "/progress")
                s2, _ = _get(srv.url + "/healthz")
                s3, m = _get(srv.url + "/metrics")
                assert s1 == 200 and s2 == 200 and s3 == 200
                parse_prometheus_text(m.decode())
                polled.append(json.loads(b1))
                time.sleep(0.005)

        poller = threading.Thread(target=poll, daemon=True)
        poller.start()
        try:
            from repro.search import SearchConfig, ml_search

            result = ml_search(
                sim.alignment,
                config=SearchConfig(radii=(3,), seed=0, max_spr_rounds=2),
                backend="reference",
            )
        finally:
            stop.set()
            poller.join(timeout=10)
        assert result.lnl < 0
        # The poller observed the run in flight: task set, steps moving.
        mid = [p for p in polled if p["task"] == "ml_search" and not p["done"]]
        assert mid, "no mid-run /progress snapshot captured"
        assert any(p["steps_done"] > 0 for p in polled)
        final = obs_server.progress().snapshot()
        assert final["done"] and final["eta_s"] == 0.0
        assert final["lnl"] == pytest.approx(result.lnl)

    def test_place_reports_per_query_progress(self):
        from repro.phylo import Alignment, GammaRates, gtr
        from repro.search.epa import place_queries

        sim = simulate_dataset(n_taxa=7, n_sites=90, seed=9)
        aln = sim.alignment
        query = aln.taxa[2]
        ref_tree = sim.tree.copy()
        leaf = ref_tree.node_by_name(query)
        pend = ref_tree.incident_edges(leaf)[0]
        ref_tree.prune_subtree(pend, subtree_root=leaf)
        ref_tree.remove_node(leaf)
        reference = Alignment.from_sequences(
            {t: aln.sequence(t) for t in aln.taxa if t != query}
        )
        queries = {query: aln.sequence(query)}
        obs_server.serve(port=0)
        place_queries(reference, ref_tree, queries, gtr(), GammaRates(1.0, 4))
        snap = obs_server.progress().snapshot()
        assert snap["task"] == "place"
        assert snap["done"]
        assert snap["steps_done"] == len(queries)
        assert snap["total_steps"] == len(queries)


# ----------------------------------------------------------------------
# one front: the observability server and the placement server share it
# ----------------------------------------------------------------------
def _placement_server():
    from repro.serve import PlacementServer

    return PlacementServer(port=0)


class _CountingWriter:
    """``wfile`` proxy logging the size of every write to the socket."""

    def __init__(self, raw, log):
        self._raw, self._log = raw, log

    def write(self, data):
        self._log.append(len(data))
        return self._raw.write(data)

    def __getattr__(self, name):
        return getattr(self._raw, name)


@pytest.fixture
def writes(monkeypatch):
    """Sizes of every socket write the front makes while the test runs."""
    log: list[int] = []
    setup = obs_server._Handler.setup

    def counting_setup(handler):
        setup(handler)
        handler.wfile = _CountingWriter(handler.wfile, log)

    monkeypatch.setattr(obs_server._Handler, "setup", counting_setup)
    return log


def _raw_exchange(srv, request: bytes, half_close: bool = False) -> bytes:
    """Send raw bytes (then close our sending side, with ``half_close``,
    as a client leaving mid-request does); read until the server closes
    the connection."""
    with socket.create_connection((srv.host, srv.port), timeout=30) as sock:
        sock.sendall(request)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        response = b""
        while chunk := sock.recv(65536):
            response += chunk
    return response


@pytest.mark.parametrize(
    "start", [lambda: obs_server.serve(port=0), _placement_server],
    ids=["obs", "placement"],
)
class TestOneFront:
    def test_shared_documents_and_404(self, start):
        obs.get_registry().counter("reqs_total", "requests").inc(2)
        with start() as srv:
            status, body = _get(srv.url + "/")
            assert status == 200
            assert {"GET /", "GET /metrics", "GET /healthz", "GET /progress"} <= set(
                json.loads(body)["routes"]
            )
            status, body = _get(srv.url + "/metrics")
            assert status == 200
            families = parse_prometheus_text(body.decode())
            assert families["reqs_total"]["samples"] == [("reqs_total", {}, 2.0)]
            status, body = _get(srv.url + "/healthz")
            assert status == 200 and json.loads(body)["status"] == "ok"
            obs_server.health_event("rank_death", rank=3)
            status, body = _get(srv.url + "/healthz")
            assert status == 503 and json.loads(body)["status"] == "degraded"
            status, body = _get(srv.url + "/progress")
            assert status == 200 and "steps_done" in json.loads(body)
            status, body = _get(srv.url + "/nope")
            assert status == 404 and "/nope" in json.loads(body)["error"]
        assert not obs_server.ENABLED

    def test_every_response_is_one_write(self, start, writes):
        with start() as srv:
            paths = ["/", "/metrics", "/healthz", "/progress", "/nope"]
            for path in paths:
                _get(srv.url + path)
            request = urllib.request.Request(
                srv.url + "/tenants/ghost/place", data=b"not json", method="POST"
            )
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(request, timeout=5)
        assert len(writes) == len(paths) + 1
        assert all(size > 0 for size in writes)

    @pytest.mark.parametrize(
        "request_bytes, code",
        [
            (b"PUT / HTTP/1.1\r\nHost: x\r\n\r\n", 501),
            (b"HEAD / HTTP/1.1\r\nHost: x\r\n\r\n", 501),
            (b"GARBAGE\r\n\r\n", 400),
            (b"GET / HTTP/2.0\r\n\r\n", 505),
            # one byte past the stdlib's 65 536-byte request-line limit and
            # no line end, so the server has read everything when it closes
            (b"GET /" + b"a" * (65537 - 5), 414),
            (b"GET / HTTP/1.1\r\n" + b"X-h: v\r\n" * 101 + b"\r\n", 431),
        ],
        ids=["put-501", "head-501", "garbage-400", "http2-505", "414", "431"],
    )
    def test_stdlib_error_paths_answer_json(
        self, start, writes, request_bytes, code
    ):
        with start() as srv:
            response = _raw_exchange(srv, request_bytes)
            head, _, body = response.partition(b"\r\n\r\n")
            status_line, *headers = head.decode("latin-1").split("\r\n")
            assert status_line.startswith(f"HTTP/1.1 {code} ")
            assert "Content-Type: application/json" in headers
            assert "Connection: close" in headers
            if request_bytes.startswith(b"HEAD"):
                assert body == b""
            else:
                assert json.loads(body)["error"]
            assert writes == [len(response)]
            status, body = _get(srv.url + "/healthz")
            assert status == 200 and json.loads(body)["status"] == "ok"

    def test_body_shorter_than_content_length_400(self, start):
        """A client that leaves mid-body gets 400 before any route runs."""
        with start() as srv:
            response = _raw_exchange(
                srv,
                b"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 50\r\n\r\nab",
                half_close=True,
            )
            head, _, body = response.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400 ")
            assert b"Connection: close" in head
            assert json.loads(body)["error"] == "body ended after 2 of 50 bytes"
            status, body = _get(srv.url + "/healthz")
            assert status == 200 and json.loads(body)["status"] == "ok"


def test_gate_holds_while_any_front_is_up():
    placement = _placement_server()
    metrics = obs_server.serve(port=0)
    placement.stop()  # not the reverse of the start order
    assert obs_server.ENABLED
    metrics.stop()
    assert not obs_server.ENABLED


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestCli:
    def test_search_with_serve_metrics_flag(self, tmp_path, capsys):
        from repro.cli import main
        from repro.phylo import write_phylip

        sim = simulate_dataset(n_taxa=6, n_sites=80, seed=3)
        aln = tmp_path / "aln.phy"
        write_phylip(sim.alignment, aln)
        rc = main(
            [
                "search", str(aln), "--serve-metrics", "0",
                "--radius", "3", "--backend", "reference",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "serving live metrics at http://127.0.0.1:" in out
        # lifecycle: the server is torn down with the run
        assert obs_server.get_server() is None
        assert not obs_server.ENABLED

    def test_search_with_profile_flag(self, tmp_path, capsys):
        from repro.cli import main
        from repro.phylo import write_phylip

        sim = simulate_dataset(n_taxa=8, n_sites=400, seed=3)
        aln = tmp_path / "aln.phy"
        write_phylip(sim.alignment, aln)
        folded = tmp_path / "out.folded"
        rc = main(
            [
                "search", str(aln), "--profile", str(folded),
                "--profile-hz", "250", "--radius", "3",
                "--backend", "reference",
            ]
        )
        assert rc == 0
        assert "wrote profile:" in capsys.readouterr().out
        lines = folded.read_text().splitlines()
        assert lines, "profiler collected no samples"
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert stack and int(weight) >= 0


# ----------------------------------------------------------------------
# profiler
# ----------------------------------------------------------------------
class TestProfiler:
    def test_samples_attribute_to_open_span_stack(self):
        obs.enable("prof-test")
        prof = SamplingProfiler(hz=500.0)
        with prof:
            with obs.span("outer"):
                with obs.span("inner"):
                    t0 = time.perf_counter()
                    while time.perf_counter() - t0 < 0.08:
                        sum(range(500))
        assert prof.n_sweeps > 0
        assert prof.n_samples > 0
        folded = prof.folded()
        assert folded
        hit = [k for k in folded if "outer;inner" in k]
        assert hit, f"no sample attributed to the span stack: {folded}"
        # weights are count / hz in microseconds
        assert sum(folded.values()) == pytest.approx(
            prof.n_samples / prof.hz * 1e6
        )

    def test_stack_is_clean_after_spans_close(self):
        obs.enable("prof-test")
        with obs.span("a"):
            assert obs_spans.current_span_stack() == ("a",)
            with obs.span("b"):
                assert obs_spans.current_span_stack() == ("a", "b")
        assert obs_spans.current_span_stack() == ()

    def test_start_stop_cycles_accumulate_until_reset(self):
        prof = SamplingProfiler(hz=400.0)
        prof.start()
        time.sleep(0.03)
        prof.stop()
        first = prof.n_sweeps
        assert first > 0
        assert not prof.running
        prof.start()
        time.sleep(0.03)
        prof.stop()
        assert prof.n_sweeps > first
        prof.reset()
        assert prof.n_sweeps == 0 and not prof.samples

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0)
        with pytest.raises(ValueError):
            SamplingProfiler(max_py_frames=-1)
