"""The placement server: warm sessions, one lock per tenant, tenancy.

Architecture (DESIGN.md §12):

- A :class:`Tenant` owns one reference tree's warm state — a
  :class:`~repro.search.epa.PlacementSession` with its one resident
  reference engine (``session.warm()``), on which every query is
  scored.
- A placement request runs on the HTTP thread that received it, under
  its tenant's lock (a session is not re-entrant: one shared backend
  instance, plain counters), so a tenant places one request at a time
  and each gets its own result or its own error, bit-identical to an
  offline :func:`~repro.search.epa.place_queries` run.
- Tenants live in a bounded LRU: registering beyond ``max_tenants``
  evicts (closes) the least-recently-used tenant, mirroring the CLA
  eviction policy of a bounded :class:`~repro.core.memsave.ClaStore`
  one level up.
- The HTTP front is :class:`repro.obs.server.ObsServer`:
  :class:`PlacementServer` adds its tenant routes to that route table
  and the tenant list to ``/healthz``; ``/metrics`` (including
  per-tenant lanes) and ``/progress`` are served unchanged.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

from ..obs import server as _obs_server
from ..obs.metrics import get_registry, log_buckets, sanitize_metric_component
from ..obs.server import ObsServer, _HttpError
from ..phylo.alignment import Alignment, PatternAlignment
from ..phylo.models import SubstitutionModel, gtr
from ..phylo.rates import GammaRates
from ..phylo.tree import Tree
from ..search.epa import PlacementResult, PlacementSession

__all__ = ["Tenant", "PlacementServer", "serve"]

#: The keys a ``POST /tenants/<name>`` body may carry.
TENANT_KEYS = ("tree", "alignment", "backend", "max_resident", "keep_best")


class Tenant:
    """Warm per-reference-tree serving state behind one lock."""

    def __init__(
        self,
        name: str,
        session: PlacementSession,
        *,
        keep_best: int = 5,
    ) -> None:
        self.name = name
        self.session = session
        self.keep_best = keep_best
        self.last_error: str | None = None
        lane = sanitize_metric_component(name)
        reg = get_registry()
        self.m_queries = reg.counter(
            f"repro_serve_{lane}_queries_total",
            f"queries placed for tenant {name}",
        )
        self.m_depth = reg.gauge(
            f"repro_serve_{lane}_queue_depth",
            f"requests waiting for tenant {name}'s lock",
        )
        self.m_latency = reg.histogram(
            f"repro_serve_{lane}_latency_seconds",
            f"request latency for tenant {name} (arrival to result)",
            bounds=log_buckets(1e-4, 100.0, per_decade=3),
        )
        # One placement at a time: the session is not re-entrant.
        self._lock = threading.Lock()
        self._depth_lock = threading.Lock()
        self.queue_depth = 0  # requests waiting for the lock
        self._closed = False

    def _waiting(self, delta: int) -> None:
        with self._depth_lock:
            self.queue_depth += delta
            self.m_depth.set(self.queue_depth)

    def place(
        self, queries: dict[str, str], keep_best: int, timeout_s: float
    ) -> list[PlacementResult]:
        """Place one request on the calling thread, under the lock.

        Waits at most ``timeout_s`` for the lock (504); a tenant closed
        meanwhile answers 503; a placement error is this request's own
        (a malformed query 400, anything else 500).
        """
        arrived = time.monotonic()
        self._waiting(+1)
        try:
            acquired = self._lock.acquire(timeout=timeout_s)
        finally:
            self._waiting(-1)
        if not acquired:
            raise _HttpError(504, "placement timed out")
        try:
            if self._closed:
                raise _HttpError(503, f"tenant {self.name!r} closed")
            try:
                results = self.session.place(queries, keep_best=keep_best)
            except Exception as exc:  # noqa: BLE001 - reported to the client
                self.last_error = f"{type(exc).__name__}: {exc}"
                raise _HttpError(
                    400 if isinstance(exc, ValueError) else 500, self.last_error
                ) from exc
            finally:
                self.m_latency.observe(time.monotonic() - arrived)
            self.m_queries.inc(len(queries))
        finally:
            self._lock.release()
        _obs_server.progress_update(
            f"place:{self.name}",
            lnl=max(
                (r.best.log_likelihood for r in results if r.placements),
                default=None,
            ),
        )
        return results

    # -- introspection / lifecycle --------------------------------------
    def info(self) -> dict:
        return {
            "name": self.name,
            "reference_taxa": self.session.reference.n_taxa,
            "reference_lnl": self.session.reference_lnl,
            "candidate_branches": len(self.session._candidates),
            "queries_placed": self.session.queries_placed,
            "queue_depth": self.queue_depth,
            "keep_best": self.keep_best,
            "last_error": self.last_error,
        }

    def close(self) -> None:
        """Refuse new requests (503), then wait out the one in flight."""
        self._closed = True
        with self._lock:
            self.session.close()


class PlacementServer(ObsServer):
    """Multi-tenant placement service over warm sessions.

    The :class:`~repro.obs.server.ObsServer` front plus the tenant
    routes.  While the server runs the :mod:`repro.obs` gates are on
    (progress/health documents go live); :meth:`stop` closes every
    tenant.
    """

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        *,
        max_tenants: int = 4,
        keep_best: int = 5,
        newton_iterations: int = 4,
        max_resident: int | None = None,
        backend: str | None = None,
        request_timeout_s: float = 600.0,
    ) -> None:
        self.max_tenants = max(int(max_tenants), 1)
        self.keep_best = keep_best
        self.newton_iterations = newton_iterations
        self.max_resident = max_resident
        self.backend = backend
        self.request_timeout_s = request_timeout_s
        self._tenants: "OrderedDict[str, Tenant]" = OrderedDict()
        self._lock = threading.Lock()
        self.m_requests = get_registry().counter(
            "repro_serve_requests_total", "placement requests admitted"
        )
        # obs.serve() idiom: the served documents describe this server's
        # lifetime, so start both states fresh.
        _obs_server.health().reset()
        _obs_server.progress().begin("serve", total_steps=None)
        super().__init__(port, host)

    def routes(self) -> dict:
        return {
            **super().routes(),
            ("GET", "/tenants"): lambda req: (
                200, {"tenants": self.tenant_infos()}
            ),
            ("POST", "/tenants/<name>"): lambda req, name: (
                201, self.register_tenant(name, req.json_object())
            ),
            ("DELETE", "/tenants/<name>"): lambda req, name: (
                200, self.evict_tenant(name)
            ),
            ("POST", "/tenants/<name>/place"): lambda req, name: (
                200, self.place(name, req.json_object())
            ),
        }

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
        max_resident: int | None = None,
        keep_best: int | None = None,
    ) -> Tenant:
        """Register (and warm) one reference tree; LRU-evicts past cap."""
        model = model if model is not None else gtr()
        gamma = gamma if gamma is not None else GammaRates(1.0, 4)
        backend = backend if backend is not None else self.backend
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
            max_resident=max_resident,
        )
        session.warm()
        tenant = Tenant(
            name,
            session,
            keep_best=keep_best if keep_best is not None else self.keep_best,
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
        """HTTP tenant registration: newick tree + taxon→sequence map.

        Any key outside :data:`TENANT_KEYS` is a 400 naming it.
        """
        unknown = sorted(set(body) - set(TENANT_KEYS))
        if unknown:
            raise _HttpError(
                400,
                f"unknown registration key(s) {', '.join(map(repr, unknown))}; "
                f"expected {', '.join(TENANT_KEYS)}",
            )
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
            max_resident=_positive_int(body, "max_resident"),
            keep_best=_positive_int(body, "keep_best"),
        )
        return tenant.info()

    def get_tenant(self, name: str) -> Tenant:
        with self._lock:
            tenant = self._tenants.get(name)
            if tenant is None:
                raise _HttpError(404, f"no tenant {name!r}")
            self._tenants.move_to_end(name)  # LRU touch
            return tenant

    def evict_tenant(self, name: str) -> dict:
        with self._lock:
            tenant = self._tenants.pop(name, None)
        if tenant is None:
            raise _HttpError(404, f"no tenant {name!r}")
        tenant.close()
        return {"evicted": name}

    def tenant_infos(self) -> list[dict]:
        with self._lock:
            tenants = list(self._tenants.values())
        return [t.info() for t in tenants]

    # -- request handling ----------------------------------------------
    def place(self, name: str, body: dict) -> dict:
        """One placement request, on the calling thread: jplace back."""
        queries = body.get("queries")
        if not isinstance(queries, dict) or not queries:
            raise _HttpError(400, 'body needs a non-empty "queries" mapping')
        keep_best = _positive_int(body, "keep_best")
        tenant = self.get_tenant(name)
        self.m_requests.inc()
        results = tenant.place(
            queries,
            keep_best if keep_best is not None else tenant.keep_best,
            self.request_timeout_s,
        )
        return tenant.session.to_jplace(results)

    # -- documents ------------------------------------------------------
    def health_snapshot(self) -> dict:
        snap = super().health_snapshot()
        snap["tenants"] = self.tenant_infos()
        return snap

    # -- lifecycle ------------------------------------------------------
    def stop(self) -> None:
        super().stop()
        with self._lock:
            tenants = list(self._tenants.values())
            self._tenants.clear()
        for tenant in tenants:
            tenant.close()
        _obs_server.progress().finish()  # the gate went down with the front


def _positive_int(body: dict, key: str) -> int | None:
    """``body[key]`` when it is absent/null or a JSON integer >= 1 (else 400)."""
    value = body.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise _HttpError(400, f'"{key}" must be a positive integer, got {value!r}')
    return value


def serve(port: int = 0, host: str = "127.0.0.1", **kwargs) -> PlacementServer:
    """Start a placement server (ephemeral port by default)."""
    return PlacementServer(port=port, host=host, **kwargs)
