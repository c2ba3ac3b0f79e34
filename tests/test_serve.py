"""Tests for the placement server and the EPA output-correctness fixes.

Covers the ISSUE 9 acceptance criteria: jplace output invariants
(distal length bounded by the branch, LWRs normalised over the full
candidate set and monotone with log-likelihood), bit-parity of one
multi-query :func:`place_queries` call with one call per query, warm
:class:`PlacementSession` reuse, backend-instance boundary validation,
the ``/progress`` failure marker, and the HTTP server end to end
(concurrent clients equal to the offline run, per-request errors,
multi-tenant LRU eviction, ``/healthz`` flipping to 503 on an injected
worker death), plus the request path itself: one lock per tenant
(lock-wait timeout, close under a waiter, queue depth) and hostile
input at the HTTP front.
"""

import http.client
import json
import re
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.backends import get_backend, make_engine, resolve_backend_name
from repro.obs import server as obs_server
from repro.obs.metrics import sanitize_metric_component
from repro.phylo import Alignment, GammaRates, gtr, simulate_dataset
from repro.search.epa import PlacementSession, place_queries, to_jplace
from repro.serve import PlacementServer, Tenant


@pytest.fixture(scope="module")
def epa_case():
    sim = simulate_dataset(n_taxa=8, n_sites=300, seed=77)
    aln = sim.alignment
    query = aln.taxa[3]
    ref_tree = sim.tree.copy()
    leaf = ref_tree.node_by_name(query)
    pend = ref_tree.incident_edges(leaf)[0]
    ref_tree.prune_subtree(pend, subtree_root=leaf)
    ref_tree.remove_node(leaf)
    ref_aln = Alignment.from_sequences(
        {t: aln.sequence(t) for t in aln.taxa if t != query}
    )
    return ref_aln, ref_tree, aln.sequence(query)


def _get(url, timeout=30):
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode()


def _post(url, body, timeout=120):
    req = urllib.request.Request(
        url, data=json.dumps(body).encode(), method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestJplaceInvariants:
    def test_distal_bounded_by_branch_length(self, epa_case):
        ref_aln, ref_tree, seq = epa_case
        results = place_queries(
            ref_aln, ref_tree, {"q": seq}, gtr(), GammaRates(1.0, 4),
            keep_best=1000,
        )
        from repro.search.epa import _edge_labels

        labels = _edge_labels(ref_tree)
        lengths = {labels[e.id]: e.length for e in ref_tree.edges}
        for p in results[0].placements:
            assert 0.0 <= p.distal_length <= lengths[p.edge_label]
            # midpoint attachment: distal is exactly half the branch
            assert p.distal_length == pytest.approx(
                0.5 * lengths[p.edge_label]
            )

    def test_jplace_rows_use_actual_distal(self, epa_case):
        ref_aln, ref_tree, seq = epa_case
        results = place_queries(
            ref_aln, ref_tree, {"q": seq}, gtr(), GammaRates(1.0, 4),
        )
        doc = to_jplace(results, ref_tree)
        fields = doc["fields"]
        i_distal = fields.index("distal_length")
        i_lwr = fields.index("like_weight_ratio")
        i_lnl = fields.index("likelihood")
        rows = doc["placements"][0]["p"]
        distals = {row[i_distal] for row in rows}
        assert len(distals) > 1  # not the old hardcoded 0.5 constant
        # monotone: LWR ordering matches log-likelihood ordering
        lnls = [row[i_lnl] for row in rows]
        lwrs = [row[i_lwr] for row in rows]
        assert lnls == sorted(lnls, reverse=True)
        assert lwrs == sorted(lwrs, reverse=True)

    def test_lwr_full_set_sums_to_one(self, epa_case):
        ref_aln, ref_tree, seq = epa_case
        full = place_queries(
            ref_aln, ref_tree, {"q": seq}, gtr(), GammaRates(1.0, 4),
            keep_best=1000,
        )[0].placements
        assert sum(p.weight_ratio for p in full) == pytest.approx(1.0)
        kept = place_queries(
            ref_aln, ref_tree, {"q": seq}, gtr(), GammaRates(1.0, 4),
            keep_best=4,
        )[0].placements
        assert len(kept) == 4
        assert sum(p.weight_ratio for p in kept) <= 1.0 + 1e-12
        # truncation is a pure slice of the full ranking
        for full_p, kept_p in zip(full, kept):
            assert kept_p == full_p


class TestBatchedParity:
    @pytest.mark.parametrize("backend", ["reference", "compiled"])
    def test_batched_equals_serial_bitwise(self, epa_case, backend):
        """One multi-query ``place`` == one single-query call per query.

        Queries are scored one at a time on the session's one engine, so
        the results are bitwise equal, and ``on_result`` fires once per
        query, in query order, as each completes (after its own one
        junction ``newview`` per candidate branch, before the next
        query's first).
        """
        ref_aln, ref_tree, seq = epa_case
        queries = {"q0": seq, "q1": seq[::-1], "q2": seq[150:] + seq[:150]}
        events = []
        with PlacementSession(
            ref_aln, ref_tree, gtr(), GammaRates(1.0, 4), backend=backend
        ) as session:
            counters = session.warm().counters
            before = counters.merged()["newview"]
            together = session.place(
                queries,
                keep_best=1000,
                on_result=lambda r: events.append(
                    (r.query, counters.merged()["newview"] - before)
                ),
            )
        edges = len(ref_tree.edges)
        assert events == [
            (name, edges * (i + 1)) for i, name in enumerate(queries)
        ]
        assert [r.query for r in together] == list(queries)
        for result, (name, query_seq) in zip(together, queries.items()):
            alone = place_queries(
                ref_aln, ref_tree, {name: query_seq}, gtr(),
                GammaRates(1.0, 4), keep_best=1000, backend=backend,
            )
            assert result.placements == alone[0].placements  # bitwise

    def test_session_reuse_matches_one_shot(self, epa_case):
        ref_aln, ref_tree, seq = epa_case
        one_shot = place_queries(
            ref_aln, ref_tree, {"q": seq}, gtr(), GammaRates(1.0, 4),
        )
        with PlacementSession(
            ref_aln, ref_tree, gtr(), GammaRates(1.0, 4)
        ) as session:
            first = session.place({"q": seq})
            second = session.place({"q": seq})
        assert first[0].placements == one_shot[0].placements
        assert second[0].placements == one_shot[0].placements
        assert session.queries_placed == 2


class TestBackendBoundary:
    def test_resolve_backend_name_round_trip(self):
        assert resolve_backend_name(get_backend("compiled")) == "compiled"
        assert resolve_backend_name(object()) is None

    def test_make_engine_resolves_registered_instance(self, epa_case):
        ref_aln, ref_tree, _ = epa_case
        engine = make_engine(
            ref_aln.compress(), ref_tree.copy(), gtr(), GammaRates(1.0, 4),
            backend=get_backend("reference"), workers=2,
            execution="processes",
        )
        try:
            assert engine.pool is not None
            assert engine.pool.backend_name == "reference"
        finally:
            engine.close()

    def test_unregistered_instance_clear_error(self, epa_case):
        ref_aln, ref_tree, _ = epa_case

        class NotRegistered:
            pass

        with pytest.raises(ValueError, match="backend \\*name\\*"):
            make_engine(
                ref_aln.compress(), ref_tree.copy(), gtr(), GammaRates(1.0, 4),
                backend=NotRegistered(), workers=2, execution="processes",
            )


class TestProgressFailureMarker:
    def test_failure_marks_progress_done(self, epa_case):
        ref_aln, ref_tree, seq = epa_case
        with obs_server.serve(port=0):
            with pytest.raises(ValueError):
                place_queries(
                    ref_aln, ref_tree, {"bad": "ACGT"}, gtr(),
                    GammaRates(1.0, 4),
                )
            snap = obs_server.progress().snapshot()
        assert snap["done"] is True
        assert snap["stage"] == "failed"
        assert "ValueError" in snap["info"]["error"]


class TestMetricSanitizer:
    def test_sanitize(self):
        assert sanitize_metric_component("my-tenant.1") == "my_tenant_1"
        assert sanitize_metric_component("9lives") == "_9lives"
        assert sanitize_metric_component("") == "_"


@pytest.fixture(scope="module")
def server_case(epa_case):
    ref_aln, ref_tree, seq = epa_case
    server = PlacementServer(
        port=0, max_tenants=2, allow_fault_injection=True
    )
    server.add_tenant("main", ref_aln, ref_tree)
    yield server, ref_aln, ref_tree, seq
    server.stop()


class TestPlacementServer:
    def test_concurrent_clients_match_offline(self, server_case):
        server, ref_aln, ref_tree, seq = server_case
        out = {}

        def client(i):
            out[i] = _post(
                f"{server.url}/tenants/main/place",
                {"queries": {f"c{i}": seq}, "keep_best": 5},
            )

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        offline = to_jplace(
            place_queries(
                ref_aln, ref_tree, {"c0": seq}, gtr(), GammaRates(1.0, 4),
                keep_best=5,
            ),
            ref_tree,
        )
        for i in range(4):
            code, doc = out[i]
            assert code == 200
            assert doc["tree"] == offline["tree"]
            assert doc["placements"][0]["p"] == (
                offline["placements"][0]["p"]
            )
        code, body = _get(f"{server.url}/tenants")
        info = [
            t for t in json.loads(body)["tenants"] if t["name"] == "main"
        ][0]
        assert info["queries_placed"] >= 4
        assert info["queue_depth"] == 0

    def test_malformed_request_fails_alone(self, server_case):
        """A bad request coalesced with a good one gets the only 400."""
        server, _, _, seq = server_case
        out = {}
        start = threading.Barrier(2)

        def client(name, query_seq):
            start.wait(timeout=30)
            out[name] = _post(
                f"{server.url}/tenants/main/place",
                {"queries": {name: query_seq}},
            )

        threads = [
            threading.Thread(target=client, args=("good", seq)),
            threading.Thread(target=client, args=("bad", seq[:-5])),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        code, doc = out["good"]
        assert code == 200 and doc["placements"][0]["n"] == ["good"]
        code, doc = out["bad"]
        assert code == 400 and "query 'bad' has 295 sites" in doc["error"]
        # the tenant still serves afterwards
        code, doc = _post(
            f"{server.url}/tenants/main/place", {"queries": {"again": seq}}
        )
        assert code == 200 and doc["placements"][0]["n"] == ["again"]

    def test_routes_and_documents(self, server_case):
        """What the tenant routes add to the shared documents (those are
        covered for both servers in ``test_obs_server.py::TestOneFront``)."""
        server, *_ = server_case
        code, body = _get(f"{server.url}/")
        assert code == 200
        assert "POST /tenants/<name>/place" in json.loads(body)["routes"]
        code, body = _get(f"{server.url}/metrics")
        assert code == 200
        assert "repro_serve_main_queries_total" in body
        code, body = _get(f"{server.url}/healthz")
        assert code == 200
        assert "main" in [t["name"] for t in json.loads(body)["tenants"]]

    def test_unknown_tenant_404(self, server_case):
        server, _, _, seq = server_case
        code, doc = _post(
            f"{server.url}/tenants/ghost/place", {"queries": {"q": seq}}
        )
        assert code == 404

    def test_bad_body_400(self, server_case):
        server, *_ = server_case
        code, doc = _post(f"{server.url}/tenants/main/place", {})
        assert code == 400

    def test_tenant_lru_eviction(self, server_case):
        server, ref_aln, ref_tree, _ = server_case
        newick = ref_tree.to_newick()
        aln = {t: ref_aln.sequence(t) for t in ref_aln.taxa}
        code, _ = _post(
            f"{server.url}/tenants/spare", {"tree": newick, "alignment": aln}
        )
        assert code == 201
        # cap is 2: registering a third evicts the least-recently-used
        code, _ = _post(
            f"{server.url}/tenants/third", {"tree": newick, "alignment": aln}
        )
        assert code == 201
        code, body = _get(f"{server.url}/tenants")
        names = {t["name"] for t in json.loads(body)["tenants"]}
        assert len(names) == 2 and "third" in names
        # restore "main" for the other tests (module-scoped fixture)
        code, _ = _post(
            f"{server.url}/tenants/main", {"tree": newick, "alignment": aln}
        )
        assert code == 201


class _BlockingSession:
    """A session whose ``place`` parks until released (no kernels)."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.closed = False

    def place(self, queries, keep_best):
        self.entered.set()
        assert self.release.wait(timeout=30)
        return []

    def close(self):
        self.closed = True


def _wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.002)


def _error_code(call):
    with pytest.raises(obs_server._HttpError) as caught:
        call()
    return caught.value.code


class TestTenantLock:
    """One request at a time per tenant, on the caller's thread."""

    def _holding(self, tenant, session):
        holder = threading.Thread(
            target=tenant.place, args=({"held": "A"}, 5, 30.0)
        )
        holder.start()
        assert session.entered.wait(timeout=30)
        return holder

    def test_lock_wait_timeout_is_504(self):
        session = _BlockingSession()
        tenant = Tenant("t504", session)
        holder = self._holding(tenant, session)
        try:
            assert _error_code(
                lambda: tenant.place({"late": "A"}, 5, 0.05)
            ) == 504
            assert tenant.queue_depth == 0
        finally:
            session.release.set()
            holder.join(timeout=30)
        assert not holder.is_alive()
        assert tenant.place({"next": "A"}, 5, 1.0) == []  # still serves

    def test_close_under_a_waiter_is_503(self):
        session = _BlockingSession()
        tenant = Tenant("t503", session)
        holder = self._holding(tenant, session)
        codes = []
        waiter = threading.Thread(
            target=lambda: codes.append(
                _error_code(lambda: tenant.place({"w": "A"}, 5, 30.0))
            )
        )
        waiter.start()
        _wait_until(lambda: tenant.queue_depth == 1)
        closer = threading.Thread(target=tenant.close)
        closer.start()
        _wait_until(lambda: tenant._closed)
        assert not session.closed  # close waits for the request in flight
        session.release.set()
        for thread in (holder, waiter, closer):
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert codes == [503]
        assert session.closed and tenant.queue_depth == 0
        assert _error_code(lambda: tenant.place({"x": "A"}, 5, 1.0)) == 503


    def test_concurrent_requests_never_overlap(self):
        """More threads than cores, fast switching: the session is never
        re-entered and no queue-depth update is lost."""

        class Session:
            busy = False
            overlaps = 0
            placed = 0

            def place(self, queries, keep_best):
                self.overlaps += self.busy
                self.busy = True
                time.sleep(0)  # invite a switch while "placing"
                self.placed += len(queries)
                self.busy = False
                return []

        session = Session()
        tenant = Tenant("stress", session)
        before = tenant.m_queries.value
        threads = [
            threading.Thread(
                target=lambda: [
                    tenant.place({"q": "A"}, 5, 30.0) for _ in range(50)
                ]
            )
            for _ in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert session.overlaps == 0 and session.placed == 400
        assert tenant.m_queries.value - before == 400
        assert tenant.queue_depth == 0 and tenant.m_depth.value == 0


def _raw_post(server, path, headers, body=b""):
    """POST with hand-written headers; ``(status, JSON document)``."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.putrequest("POST", path)
        for key, value in headers.items():
            conn.putheader(key, value)
        conn.endheaders(body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestHostileInput:
    """A 4xx / 503 with a JSON body naming the problem, never a dropped
    connection — and the tenant serves the next request."""

    @pytest.fixture(autouse=True)
    def _still_serves(self, server_case):
        yield
        server, _, _, seq = server_case
        code, doc = _post(
            f"{server.url}/tenants/main/place", {"queries": {"ok": seq}}
        )
        assert code == 200 and doc["placements"][0]["n"] == ["ok"]

    @pytest.mark.parametrize("length", ["twelve", "-1", "1.5"])
    def test_bad_content_length_400(self, server_case, length):
        server, *_ = server_case
        code, doc = _raw_post(
            server, "/tenants/main/place", {"Content-Length": length}
        )
        assert code == 400 and "Content-Length" in doc["error"]

    def test_oversized_body_413_before_reading(self, server_case):
        server, *_ = server_case
        # No body follows: a front that tried to read it would hang.
        code, doc = _raw_post(
            server, "/tenants/main/place",
            {"Content-Length": str(obs_server.MAX_BODY_BYTES + 1)},
        )
        assert code == 413 and "limit" in doc["error"]

    def test_deeply_nested_json_400(self, server_case):
        """``json.loads`` runs out of recursion: a 400 naming the nesting."""
        server, *_ = server_case
        body = b"[" * 200_000
        code, doc = _raw_post(
            server, "/tenants/main/place",
            {"Content-Length": str(len(body))}, body,
        )
        assert code == 400 and "nested too deep" in doc["error"]

    def test_body_shorter_than_content_length_400(self, server_case):
        """A client leaving mid-body must not delete the tenant."""
        server, *_ = server_case
        with socket.create_connection((server.host, server.port), timeout=30) as sock:
            sock.sendall(
                b"DELETE /tenants/main HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 50\r\n\r\nab"
            )
            sock.shutdown(socket.SHUT_WR)
            response = b""
            while chunk := sock.recv(65536):
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert json.loads(body)["error"] == "body ended after 2 of 50 bytes"
        code, listing = _get(f"{server.url}/tenants")
        assert "main" in [t["name"] for t in json.loads(listing)["tenants"]]

    def test_nan_branch_length_tenant_400(self, server_case):
        server, ref_aln, ref_tree, _ = server_case
        code, doc = _post(
            f"{server.url}/tenants/nan",
            {
                "tree": re.sub(r":[0-9.]+", ":nan", ref_tree.to_newick(), count=1),
                "alignment": {t: ref_aln.sequence(t) for t in ref_aln.taxa},
            },
        )
        assert code == 400 and "branch length nan" in doc["error"]
        code, listing = _get(f"{server.url}/tenants")
        assert "nan" not in [t["name"] for t in json.loads(listing)["tenants"]]

    def test_zero_site_tenant_400(self, server_case):
        server, ref_aln, ref_tree, _ = server_case
        code, doc = _post(
            f"{server.url}/tenants/e",
            {
                "tree": ref_tree.to_newick(),
                "alignment": {t: "" for t in ref_aln.taxa},
            },
        )
        assert code == 400 and "alignment has no sites" in doc["error"]
        code, listing = _get(f"{server.url}/tenants")
        assert "e" not in [t["name"] for t in json.loads(listing)["tenants"]]

    def test_deep_caterpillar_tenant_201(self, server_case):
        """A tree nested 1 200 levels deep registers with 201 (a
        recursive Newick parser answered 500), and the next request, its
        eviction, answers 200."""
        server, *_ = server_case
        n = 1200
        newick = (
            "(" + ",(".join(f"t{i}:0.1" for i in range(n - 1))
            + f",t{n - 1}:0.1" + "):0.1" * (n - 2) + ");"
        )
        code, doc = _post(
            f"{server.url}/tenants/deep",
            {"tree": newick, "alignment": {f"t{i}": "ACGTACGT" for i in range(n)}},
        )
        assert code == 201 and doc["name"] == "deep"
        evict = urllib.request.Request(
            f"{server.url}/tenants/deep", method="DELETE"
        )
        with urllib.request.urlopen(evict, timeout=60) as resp:
            assert resp.status == 200

    def test_non_integer_keep_best_400(self, server_case):
        server, _, _, seq = server_case
        code, doc = _post(
            f"{server.url}/tenants/main/place",
            {"queries": {"q": seq}, "keep_best": [1]},
        )
        assert code == 400 and "keep_best" in doc["error"]

    def test_non_integer_workers_400(self, server_case):
        server, ref_aln, ref_tree, _ = server_case
        code, doc = _post(
            f"{server.url}/tenants/other",
            {
                "tree": ref_tree.to_newick(),
                "alignment": {t: ref_aln.sequence(t) for t in ref_aln.taxa},
                "workers": "two",
            },
        )
        assert code == 400 and "workers" in doc["error"]
        code, body = _get(f"{server.url}/tenants")
        assert "other" not in [t["name"] for t in json.loads(body)["tenants"]]

    def test_request_racing_eviction_503(self, server_case, monkeypatch):
        server, ref_aln, ref_tree, seq = server_case
        tenant = server.get_tenant("main")
        entered, release = threading.Event(), threading.Event()
        place = tenant.session.place

        def parked_place(queries, keep_best):
            entered.set()
            assert release.wait(timeout=30)
            return place(queries, keep_best=keep_best)

        monkeypatch.setattr(tenant.session, "place", parked_place)
        out = {}

        def request(key, call):
            out[key] = call()

        url = f"{server.url}/tenants/main"
        threads = [threading.Thread(target=request, args=(
            "held", lambda: _post(f"{url}/place", {"queries": {"a": seq}})
        ))]
        threads[0].start()
        assert entered.wait(timeout=30)
        threads.append(threading.Thread(target=request, args=(
            "raced", lambda: _post(f"{url}/place", {"queries": {"b": seq}})
        )))
        threads[1].start()
        _wait_until(lambda: tenant.queue_depth == 1)
        evict = urllib.request.Request(url, method="DELETE")
        threads.append(threading.Thread(target=request, args=(
            "evict", lambda: urllib.request.urlopen(evict, timeout=60).status
        )))
        threads[2].start()
        _wait_until(lambda: tenant._closed)
        release.set()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert out["held"][0] == 200 and out["evict"] == 200
        code, doc = out["raced"]
        assert code == 503 and "closed" in doc["error"]
        # restore "main" for the other tests (module-scoped fixture)
        code, _ = _post(url, {
            "tree": ref_tree.to_newick(),
            "alignment": {t: ref_aln.sequence(t) for t in ref_aln.taxa},
        })
        assert code == 201


class TestWorkerDeathHealthz:
    def test_healthz_flips_503_on_injected_death(self, epa_case):
        ref_aln, ref_tree, seq = epa_case
        with PlacementServer(port=0, allow_fault_injection=True) as server:
            server.add_tenant(
                "pooled", ref_aln, ref_tree, workers=2, execution="processes"
            )
            code, _ = _get(f"{server.url}/healthz")
            assert code == 200
            code, doc = _post(
                f"{server.url}/faults/kill-worker?tenant=pooled", {}
            )
            assert code == 200 and doc["dead"]
            code, body = _get(f"{server.url}/healthz")
            assert code == 503
            snap = json.loads(body)
            assert snap["status"] == "degraded"
            labelled = [
                p for p in snap["worker_pools"] if p.get("label") == "pooled"
            ]
            assert labelled and labelled[0]["dead"]
            # a degraded tenant still serves placements
            code, doc = _post(
                f"{server.url}/tenants/pooled/place",
                {"queries": {"after": seq}},
            )
            assert code == 200

    def test_fault_injection_gated(self, epa_case):
        ref_aln, ref_tree, _ = epa_case
        with PlacementServer(port=0) as server:
            server.add_tenant("t", ref_aln, ref_tree)
            code, doc = _post(
                f"{server.url}/faults/kill-worker?tenant=t", {}
            )
            assert code == 403
