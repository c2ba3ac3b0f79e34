"""The placement server: warm sessions, coalesced admission, tenancy.

Architecture (DESIGN.md §12):

- A :class:`Tenant` owns one reference tree's warm state — a
  :class:`~repro.search.epa.PlacementSession` (compressed reference,
  decoded rows, precomputed candidate labels/distals, merged-pattern
  LRU), an optional resident reference engine (``session.warm()``
  through the memsave machinery), and, for process-parallel tenants, a
  labelled resident :class:`~repro.parallel.forkjoin.ForkJoinEngine`
  worker pool the faults layer reports on.
- Each tenant runs a single **dispatcher thread**: concurrent HTTP
  requests enqueue their queries, the dispatcher waits a short
  admission window, pops pending requests in FIFO order (combined size
  ≤ ``max_batch`` queries) and places them one request at a time with
  its own ``session.place()`` call — each request gets its own result
  or its own error as soon as it finishes, bit-identical to an offline
  :func:`~repro.search.epa.place_queries` run.
- Tenants live in a bounded LRU: registering beyond ``max_tenants``
  evicts (closes) the least-recently-used tenant, mirroring the CLA
  eviction policy of a bounded :class:`~repro.core.memsave.ClaStore`
  one level up.
- The HTTP front reuses the :mod:`repro.obs.server` patterns
  (``ThreadingHTTPServer`` on daemon threads, JSON documents, silenced
  request logging) and serves the observability documents itself:
  ``/metrics`` (including per-tenant lanes), ``/healthz`` (503 once any
  worker death or degradation event fires) and ``/progress``.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from ..obs import server as _obs_server
from ..obs.metrics import get_registry, log_buckets, sanitize_metric_component
from ..phylo.alignment import Alignment, PatternAlignment
from ..phylo.models import SubstitutionModel, gtr
from ..phylo.rates import GammaRates
from ..phylo.tree import Tree
from ..search.epa import PlacementResult, PlacementSession, to_jplace

__all__ = ["Tenant", "PlacementServer", "serve"]


@dataclass
class _Pending:
    """One enqueued placement request awaiting its turn."""

    queries: dict[str, str]
    keep_best: int
    enqueued_at: float
    done: threading.Event = field(default_factory=threading.Event)
    results: list[PlacementResult] | None = None
    error: str | None = None
    code: int = 200


class Tenant:
    """Warm per-reference-tree serving state plus its dispatcher thread."""

    def __init__(
        self,
        name: str,
        session: PlacementSession,
        *,
        max_batch: int = 16,
        batch_wait_s: float = 0.02,
        keep_best: int = 5,
        pool_engine=None,
    ) -> None:
        self.name = name
        self.session = session
        self.max_batch = max(int(max_batch), 1)
        self.batch_wait_s = float(batch_wait_s)
        self.keep_best = keep_best
        self.pool_engine = pool_engine
        self.created_at = time.monotonic()
        self.last_used_at = self.created_at
        self.last_error: str | None = None
        self.batches_run = 0
        lane = sanitize_metric_component(name)
        reg = get_registry()
        self.m_queries = reg.counter(
            f"repro_serve_{lane}_queries_total",
            f"queries placed for tenant {name}",
        )
        self.m_depth = reg.gauge(
            f"repro_serve_{lane}_queue_depth",
            f"requests waiting in tenant {name}'s queue",
        )
        self.m_latency = reg.histogram(
            f"repro_serve_{lane}_latency_seconds",
            f"request latency for tenant {name} (enqueue to response)",
            bounds=log_buckets(1e-4, 100.0, per_decade=3),
        )
        self.m_batch = reg.histogram(
            f"repro_serve_{lane}_batch_queries",
            f"queries per admitted batch for tenant {name}",
            bounds=log_buckets(1.0, 256.0, per_decade=3),
        )
        self._cond = threading.Condition()
        self._queue: deque[_Pending] = deque()
        self._closed = False
        self._thread = threading.Thread(
            target=self._dispatch_loop,
            name=f"repro-serve-dispatch:{name}",
            daemon=True,
        )
        self._thread.start()

    # -- request side ---------------------------------------------------
    def submit(self, queries: dict[str, str], keep_best: int) -> _Pending:
        """Enqueue one request; the dispatcher completes its ``done``."""
        pending = _Pending(
            queries=dict(queries),
            keep_best=keep_best,
            enqueued_at=time.monotonic(),
        )
        with self._cond:
            if self._closed:
                raise RuntimeError(f"tenant {self.name!r} is closed")
            self._queue.append(pending)
            self.m_depth.set(len(self._queue))
            self._cond.notify_all()
        return pending

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    # -- dispatcher side ------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            batch = self._collect_batch()
            if batch is None:
                return
            self._run_batch(batch)

    def _collect_batch(self) -> list[_Pending] | None:
        """Block for work, then admit a batch of pending requests.

        Waits ``batch_wait_s`` past the first arrival so concurrent
        clients can land in the same batch, then pops requests in FIFO
        order while the batch stays within ``max_batch`` queries.
        """
        with self._cond:
            while not self._queue and not self._closed:
                self._cond.wait()
            if not self._queue:  # closed and drained
                return None
            deadline = time.monotonic() + self.batch_wait_s
            while True:
                depth = sum(len(p.queries) for p in self._queue)
                remaining = deadline - time.monotonic()
                if depth >= self.max_batch or remaining <= 0:
                    break
                self._cond.wait(timeout=remaining)
            batch: list[_Pending] = []
            size = 0
            while self._queue:
                head = self._queue[0]
                if batch and size + len(head.queries) > self.max_batch:
                    break
                batch.append(self._queue.popleft())
                size += len(head.queries)
            self.m_depth.set(len(self._queue))
            return batch

    def _run_batch(self, batch: list[_Pending]) -> None:
        """Place each admitted request on its own, in FIFO order.

        A request gets its result — or its own error — and ``done`` as
        soon as it finishes; one malformed request cannot fail another.
        """
        self.batches_run += 1
        self.m_batch.observe(sum(len(p.queries) for p in batch))
        for pending in batch:
            try:
                pending.results = self.session.place(
                    pending.queries, keep_best=pending.keep_best
                )
            except Exception as exc:  # noqa: BLE001 - reported to the client
                self.last_error = f"{type(exc).__name__}: {exc}"
                pending.error = self.last_error
                pending.code = 400 if isinstance(exc, ValueError) else 500
            else:
                self.m_queries.inc(len(pending.queries))
            now = time.monotonic()
            self.last_used_at = now
            self.m_latency.observe(now - pending.enqueued_at)
            pending.done.set()
        best = max(
            (
                r.best.log_likelihood
                for p in batch
                for r in p.results or ()
                if r.placements
            ),
            default=None,
        )
        _obs_server.progress_update(f"batch:{self.name}", lnl=best)

    # -- introspection / lifecycle --------------------------------------
    def info(self) -> dict:
        pool = None
        engine = self.pool_engine
        if engine is not None and engine.pool is not None:
            pool = {
                "label": engine.pool.label,
                "workers": engine.pool.n_workers,
                "alive": len(engine.pool.alive),
                "dead": sorted(engine.pool.dead),
            }
        return {
            "name": self.name,
            "reference_taxa": self.session.reference.n_taxa,
            "reference_lnl": self.session.reference_lnl,
            "candidate_branches": len(self.session._candidates),
            "queries_placed": self.session.queries_placed,
            "batches_run": self.batches_run,
            "queue_depth": self.queue_depth,
            "keep_best": self.keep_best,
            "workers": self.session.workers,
            "execution": self.session.execution,
            "pool": pool,
            "last_error": self.last_error,
        }

    def close(self) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._thread.join(timeout=10)
        # Fail anything still queued (the dispatcher drained what it could).
        with self._cond:
            while self._queue:
                pending = self._queue.popleft()
                pending.error = f"tenant {self.name!r} closed"
                pending.code = 503
                pending.done.set()
        if self.pool_engine is not None:
            closer = getattr(self.pool_engine, "close", None)
            if callable(closer):
                closer()
            self.pool_engine = None
        self.session.close()


class _ServeHandler(BaseHTTPRequestHandler):
    """JSON routing for the placement server (obs.server idiom)."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    placement_server: "PlacementServer"  # set per-server via subclassing

    ROUTES = [
        "GET /",
        "GET /metrics",
        "GET /healthz",
        "GET /progress",
        "GET /tenants",
        "POST /tenants/<name>",
        "DELETE /tenants/<name>",
        "POST /tenants/<name>/place",
        "POST /faults/kill-worker?tenant=<name>",
    ]

    def _send(self, code: int, body: str, content_type: str) -> None:
        data = body.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _send_json(self, code: int, doc) -> None:
        self._send(code, json.dumps(doc, indent=1), "application/json")

    def _read_json(self):
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return None
        return json.loads(raw.decode("utf-8"))

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = urlsplit(self.path).path
        srv = self.placement_server
        if path == "/metrics":
            self._send(
                200,
                get_registry().to_prometheus(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        elif path == "/healthz":
            snap = srv.health_snapshot()
            code = 200 if snap["status"] == "ok" else 503
            self._send_json(code, snap)
        elif path == "/progress":
            self._send_json(200, _obs_server.progress().snapshot())
        elif path == "/tenants":
            self._send_json(200, {"tenants": srv.tenant_infos()})
        elif path == "/":
            self._send_json(200, {"routes": self.ROUTES})
        else:
            self._send_json(404, {"error": f"no route {path}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        split = urlsplit(self.path)
        parts = [p for p in split.path.split("/") if p]
        srv = self.placement_server
        try:
            if parts[:1] == ["tenants"] and len(parts) == 2:
                body = self._read_json()
                if not isinstance(body, dict):
                    raise _HttpError(400, "JSON object body required")
                self._send_json(201, srv.register_tenant(parts[1], body))
            elif (
                parts[:1] == ["tenants"]
                and len(parts) == 3
                and parts[2] == "place"
            ):
                body = self._read_json()
                if not isinstance(body, dict):
                    raise _HttpError(400, "JSON object body required")
                self._send_json(200, srv.place(parts[1], body))
            elif parts == ["faults", "kill-worker"]:
                tenant = parse_qs(split.query).get("tenant", [""])[0]
                self._send_json(200, srv.kill_worker(tenant))
            else:
                raise _HttpError(404, f"no route {split.path}")
        except _HttpError as exc:
            self._send_json(exc.code, {"error": exc.message})
        except (ValueError, KeyError) as exc:
            self._send_json(400, {"error": f"{type(exc).__name__}: {exc}"})

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        parts = [p for p in urlsplit(self.path).path.split("/") if p]
        if parts[:1] == ["tenants"] and len(parts) == 2:
            try:
                self.placement_server.evict_tenant(parts[1])
            except _HttpError as exc:
                self._send_json(exc.code, {"error": exc.message})
                return
            self._send_json(200, {"evicted": parts[1]})
        else:
            self._send_json(404, {"error": f"no route {self.path}"})

    def log_message(self, fmt: str, *args) -> None:
        """Silence per-request stderr logging (obs.server idiom)."""


class _HttpError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


class PlacementServer:
    """Multi-tenant placement service over warm sessions.

    Binding to ``port=0`` picks an ephemeral port; :attr:`port` holds
    the bound one.  Starting the server turns the :mod:`repro.obs`
    gates on (worker pools self-register, progress/health documents go
    live); :meth:`stop` closes every tenant and restores the gate.
    Usable as a context manager.
    """

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        *,
        max_batch: int = 16,
        batch_wait_s: float = 0.02,
        max_tenants: int = 4,
        keep_best: int = 5,
        newton_iterations: int = 4,
        max_resident: int | None = None,
        backend: str | None = None,
        workers: int = 1,
        execution: str = "simulated",
        allow_fault_injection: bool = False,
        request_timeout_s: float = 600.0,
    ) -> None:
        self.max_batch = max_batch
        self.batch_wait_s = batch_wait_s
        self.max_tenants = max(int(max_tenants), 1)
        self.keep_best = keep_best
        self.newton_iterations = newton_iterations
        self.max_resident = max_resident
        self.backend = backend
        self.workers = workers
        self.execution = execution
        self.allow_fault_injection = allow_fault_injection
        self.request_timeout_s = request_timeout_s
        self._tenants: "OrderedDict[str, Tenant]" = OrderedDict()
        self._lock = threading.Lock()
        self._prev_obs_enabled = _obs_server.ENABLED
        _obs_server.ENABLED = True
        # obs.serve() idiom: the served documents describe this server's
        # lifetime, so start both states fresh.
        _obs_server.health().reset()
        _obs_server.progress().begin("serve", total_steps=None)
        self.m_requests = get_registry().counter(
            "repro_serve_requests_total", "placement requests admitted"
        )

        handler = type(
            "_BoundServeHandler", (_ServeHandler,), {"placement_server": self}
        )
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self.host = host
        self.port = int(self._httpd.server_address[1])
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"repro-serve:{self.port}",
            daemon=True,
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- tenancy --------------------------------------------------------
    def add_tenant(
        self,
        name: str,
        reference_alignment: "Alignment | PatternAlignment",
        reference_tree: Tree,
        model: SubstitutionModel | None = None,
        gamma: GammaRates | None = None,
        *,
        backend: str | None = None,
        workers: int | None = None,
        execution: str | None = None,
        max_resident: int | None = None,
        keep_best: int | None = None,
    ) -> Tenant:
        """Register (and warm) one reference tree; LRU-evicts past cap."""
        model = model if model is not None else gtr()
        gamma = gamma if gamma is not None else GammaRates(1.0, 4)
        backend = backend if backend is not None else self.backend
        workers = workers if workers is not None else self.workers
        execution = execution if execution is not None else self.execution
        max_resident = (
            max_resident if max_resident is not None else self.max_resident
        )
        session = PlacementSession(
            reference_alignment,
            reference_tree,
            model,
            gamma,
            newton_iterations=self.newton_iterations,
            backend=backend,
            workers=workers,
            execution=execution,
            max_resident=max_resident,
        )
        session.warm()
        pool_engine = None
        if workers > 1 and execution == "processes":
            # A labelled resident pool carrying the reference CLAs: the
            # faults layer reports its deaths on /healthz per tenant.
            from ..parallel.forkjoin import ForkJoinEngine

            pool_engine = ForkJoinEngine(
                session.reference,
                session.tree,
                model,
                gamma,
                n_threads=workers,
                execution="processes",
                backend=backend if isinstance(backend, str) else None,
                label=name,
            )
            pool_engine.log_likelihood()  # warm the pool's CLAs too
        tenant = Tenant(
            name,
            session,
            max_batch=self.max_batch,
            batch_wait_s=self.batch_wait_s,
            keep_best=keep_best if keep_best is not None else self.keep_best,
            pool_engine=pool_engine,
        )
        evicted: Tenant | None = None
        with self._lock:
            old = self._tenants.pop(name, None)
            self._tenants[name] = tenant
            if len(self._tenants) > self.max_tenants:
                _, evicted = self._tenants.popitem(last=False)
        if old is not None:
            old.close()
        if evicted is not None:
            # Normal LRU housekeeping, not a degradation: visible via
            # /tenants and the progress stage, never via /healthz.
            evicted.close()
            _obs_server.progress_update(
                f"evict:{evicted.name}", step_done=False
            )
        return tenant

    def register_tenant(self, name: str, body: dict) -> dict:
        """HTTP tenant registration: newick tree + taxon→sequence map."""
        tree_text = body.get("tree")
        aln = body.get("alignment")
        if not isinstance(tree_text, str) or not isinstance(aln, dict):
            raise _HttpError(
                400, 'body needs "tree" (newick) and "alignment" (mapping)'
            )
        tenant = self.add_tenant(
            name,
            Alignment.from_sequences(aln),
            Tree.from_newick(tree_text),
            backend=body.get("backend"),
            workers=body.get("workers"),
            execution=body.get("execution"),
            max_resident=body.get("max_resident"),
            keep_best=body.get("keep_best"),
        )
        return tenant.info()

    def get_tenant(self, name: str) -> Tenant:
        with self._lock:
            tenant = self._tenants.get(name)
            if tenant is None:
                raise _HttpError(404, f"no tenant {name!r}")
            self._tenants.move_to_end(name)  # LRU touch
            return tenant

    def evict_tenant(self, name: str) -> None:
        with self._lock:
            tenant = self._tenants.pop(name, None)
        if tenant is None:
            raise _HttpError(404, f"no tenant {name!r}")
        tenant.close()

    def tenant_infos(self) -> list[dict]:
        with self._lock:
            tenants = list(self._tenants.values())
        return [t.info() for t in tenants]

    # -- request handling ----------------------------------------------
    def place(self, name: str, body: dict) -> dict:
        """Admit one placement request; blocks until its batch lands."""
        queries = body.get("queries")
        if not isinstance(queries, dict) or not queries:
            raise _HttpError(400, 'body needs a non-empty "queries" mapping')
        keep_best = body.get("keep_best")
        tenant = self.get_tenant(name)
        self.m_requests.inc()
        pending = tenant.submit(
            queries,
            int(keep_best) if keep_best is not None else tenant.keep_best,
        )
        if not pending.done.wait(timeout=self.request_timeout_s):
            raise _HttpError(504, "placement timed out")
        if pending.error is not None:
            raise _HttpError(pending.code, pending.error)
        return to_jplace(pending.results, tenant.session.tree)

    def kill_worker(self, name: str) -> dict:
        """Fault-injection hook: kill one pool worker, absorb, report."""
        if not self.allow_fault_injection:
            raise _HttpError(403, "fault injection disabled (--allow-fault-injection)")
        tenant = self.get_tenant(name)
        engine = tenant.pool_engine
        if engine is None or engine.pool is None:
            raise _HttpError(
                409, f"tenant {name!r} has no resident worker pool"
            )
        pool = engine.pool
        if len(pool.alive) < 2:
            raise _HttpError(409, "refusing to kill the last worker")
        victim = pool.alive[-1]
        pool.kill_worker(victim)
        # Drive one region so the death is absorbed through the faults
        # layer (adoption + health_event) rather than discovered lazily.
        engine.log_likelihood()
        return {
            "tenant": name,
            "killed": victim,
            "alive": len(pool.alive),
            "dead": sorted(pool.dead),
        }

    # -- documents ------------------------------------------------------
    def health_snapshot(self) -> dict:
        snap = _obs_server.health().snapshot()
        snap["tenants"] = self.tenant_infos()
        return snap

    # -- lifecycle ------------------------------------------------------
    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)
        with self._lock:
            tenants = list(self._tenants.values())
            self._tenants.clear()
        for tenant in tenants:
            tenant.close()
        _obs_server.progress_finish()
        # Restore the gate unless an obs server still needs it.
        _obs_server.ENABLED = (
            self._prev_obs_enabled or _obs_server.get_server() is not None
        )

    def __enter__(self) -> "PlacementServer":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve(port: int = 0, host: str = "127.0.0.1", **kwargs) -> PlacementServer:
    """Start a placement server (ephemeral port by default)."""
    return PlacementServer(port=port, host=host, **kwargs)
