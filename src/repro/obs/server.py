"""Live observability plane: a scrapeable metrics/health/progress endpoint.

Everything :mod:`repro.obs` records today becomes visible only *after* a
run writes its Chrome trace.  This module makes the same signals
inspectable **while the run is alive**, the way BEAGLE keeps long-lived
instances inspectable behind a stable API: an opt-in, stdlib-only HTTP
server on a background thread answering three routes:

* ``/metrics``  — the default :class:`~repro.obs.metrics.MetricsRegistry`
  in Prometheus text exposition format (scrapeable as-is);
* ``/healthz``  — JSON liveness: worker-pool state (alive/dead/adopted
  workers of every registered pool), the shared-memory arena-leak probe,
  last-checkpoint age, and any degradation events (worker/rank deaths)
  reported by the fault-recovery paths.  HTTP 200 while healthy, 503
  once degraded — a dying rank shows up here *before* the run ends;
* ``/progress`` — JSON from the search driver's step clock: current
  stage / SPR round, the likelihood trajectory, and an ETA extrapolated
  from the measured per-step costs.

**Zero cost when disabled.**  Instrumented code (the search driver, EPA
placement, checkpoint writer, worker pool, distributed engine) funnels
through module-level gate functions (:func:`progress_begin`,
:func:`progress_update`, :func:`health_event`, …) that first read the
module-level :data:`ENABLED` flag — the same ~20 ns guard discipline as
:mod:`repro.obs.spans`, enforced by the quality gates.  The flag is on
only while a front is running: :func:`serve` (``--serve-metrics PORT`` on
the CLI, or the :data:`SERVE_ENV` environment variable) or the placement
server, which is :class:`ObsServer` — the package's one HTTP front —
with tenant routes added.

Quickstart::

    repro search big.phy --serve-metrics 8765 &
    curl localhost:8765/progress   # stage, lnL trajectory, ETA
    curl localhost:8765/healthz    # pools, arenas, checkpoint age
    curl localhost:8765/metrics    # Prometheus exposition
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
import traceback
import weakref
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from .metrics import get_registry

__all__ = [
    "SERVE_ENV",
    "ENABLED",
    "ProgressState",
    "HealthState",
    "ObsServer",
    "serve",
    "get_server",
    "env_port",
    "progress",
    "health",
    "progress_begin",
    "progress_update",
    "progress_finish",
    "progress_fail",
    "health_event",
    "checkpoint_written",
    "register_pool",
]

#: Environment variable naming the port to serve on; when set, the CLI
#: starts the observability server for any subcommand.
SERVE_ENV = "REPRO_METRICS_PORT"

#: Module-level master switch.  Gate functions check this flag before
#: doing *any* work; while it is ``False`` every hook is a single
#: attribute load and branch.
ENABLED: bool = False


class ProgressState:
    """The live view of one long-running task's step clock.

    The search driver (:func:`repro.search.ml_search`) and EPA placement
    (:func:`repro.search.epa.place_queries`) report their checkpointable
    steps here; ``/progress`` renders the state as JSON.  The ETA is
    extrapolated from the *measured* per-step costs (the same step clock
    that drives checkpointing): with ``k`` of ``n`` steps done in
    ``elapsed`` seconds, ``eta = elapsed / k * (n - k)`` — never
    negative, and strictly decreasing while per-step cost is constant.

    All mutators take an optional ``now`` (``time.monotonic`` seconds)
    so tests can drive a deterministic clock; reads and writes are
    lock-protected because the HTTP thread polls while the run mutates.
    """

    #: lnL trajectory entries kept (oldest dropped beyond this).
    MAX_TRAJECTORY = 512

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Forget everything; the next :meth:`begin` starts fresh."""
        with self._lock:
            self.task: str = ""
            self.started_at: float | None = None
            self.finished_at: float | None = None
            self.total_steps: int | None = None
            self.steps_done: int = 0
            self.last_step_at: float | None = None
            self.stage: str = ""
            self.spr_round: int = 0
            self.spr_radius_idx: int = 0
            self.lnl: float | None = None
            self.trajectory: list[tuple[str, float | None, float]] = []
            self.info: dict = {}

    def begin(
        self,
        task: str,
        total_steps: int | None = None,
        now: float | None = None,
        **info,
    ) -> None:
        """Start a new task's clock (clears any previous task)."""
        self.reset()
        with self._lock:
            self.task = task
            self.total_steps = total_steps
            self.started_at = now if now is not None else time.monotonic()
            self.last_step_at = self.started_at
            self.stage = "start"
            self.info = dict(info)

    def update(
        self,
        stage: str,
        lnl: float | None = None,
        step_done: bool = True,
        spr_round: int = 0,
        spr_radius_idx: int = 0,
        now: float | None = None,
    ) -> None:
        """Record one completed step (or a stage change without one)."""
        now = now if now is not None else time.monotonic()
        with self._lock:
            if self.started_at is None:  # update without begin: self-start
                self.started_at = now
                self.last_step_at = now
            self.stage = stage
            if lnl is not None:
                self.lnl = float(lnl)
            self.spr_round = spr_round
            self.spr_radius_idx = spr_radius_idx
            if step_done:
                self.steps_done += 1
                self.last_step_at = now
            self.trajectory.append(
                (stage, None if lnl is None else float(lnl), now)
            )
            del self.trajectory[: -self.MAX_TRAJECTORY]

    def finish(self, lnl: float | None = None, now: float | None = None) -> None:
        """Mark the task complete; ETA pins to zero."""
        now = now if now is not None else time.monotonic()
        with self._lock:
            self.finished_at = now
            if lnl is not None:
                self.lnl = float(lnl)
            self.stage = "done"

    def fail(self, error: str, now: float | None = None) -> None:
        """Mark the task failed — never leave ``/progress`` in-flight.

        The snapshot reports ``done: true`` with ``stage: "failed"`` and
        the error string under ``info["error"]``, so a poller (or the
        placement server) can distinguish a crash from a stale run.
        """
        now = now if now is not None else time.monotonic()
        with self._lock:
            self.finished_at = now
            self.stage = "failed"
            self.info = {**self.info, "error": error}

    def eta_seconds(self, now: float | None = None) -> float | None:
        """Projected remaining seconds; ``None`` while unknown.

        Unknown until at least one step has been measured (or when no
        ``total_steps`` target was declared).  Never negative: remaining
        steps clamp at zero, and per-step cost is a mean of measured
        non-negative durations.
        """
        now = now if now is not None else time.monotonic()
        with self._lock:
            return self._eta_locked(now)

    def _eta_locked(self, now: float) -> float | None:
        if self.finished_at is not None:
            return 0.0
        if (
            self.started_at is None
            or self.total_steps is None
            or self.steps_done == 0
        ):
            return None
        remaining = max(self.total_steps - self.steps_done, 0)
        measured = max((self.last_step_at or now) - self.started_at, 0.0)
        per_step = measured / self.steps_done
        return per_step * remaining

    def snapshot(self, now: float | None = None) -> dict:
        """JSON-ready dump of the live progress state."""
        now = now if now is not None else time.monotonic()
        with self._lock:
            started = self.started_at
            return {
                "task": self.task,
                "stage": self.stage,
                "spr_round": self.spr_round,
                "spr_radius_idx": self.spr_radius_idx,
                "steps_done": self.steps_done,
                "total_steps": self.total_steps,
                "lnl": self.lnl,
                "lnl_trajectory": [
                    {
                        "stage": stage,
                        "lnl": lnl,
                        "t_s": round(t - started, 6) if started else 0.0,
                    }
                    for stage, lnl, t in self.trajectory
                ],
                "elapsed_s": (now - started) if started is not None else None,
                "eta_s": self._eta_locked(now),
                "done": self.finished_at is not None,
                **({"info": self.info} if self.info else {}),
            }


class HealthState:
    """Aggregated liveness: pools, arenas, checkpoints, degradations.

    The fault-recovery paths (worker-pool adoption, distributed rank
    death) report :meth:`event`\\ s here; the checkpoint writer stamps
    every snapshot it lands; worker pools register themselves (weakly)
    so ``/healthz`` can show per-pool alive/dead counts.  The status is
    ``"degraded"`` once any degradation event has fired or any live pool
    reports dead workers — visible to a poller *before* the run ends.
    """

    #: Degradation events kept (oldest dropped beyond this).
    MAX_EVENTS = 128

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pools: "weakref.WeakSet" = weakref.WeakSet()
        self.reset()

    def reset(self) -> None:
        """Clear events and checkpoint stamps (pool registry survives)."""
        with self._lock:
            self.events: list[dict] = []
            self.last_checkpoint_at: float | None = None
            self.last_checkpoint: dict = {}

    def register_pool(self, pool) -> None:
        """Track a worker pool (weakly) for per-pool liveness reporting."""
        with self._lock:
            self._pools.add(pool)

    def event(self, kind: str, now: float | None = None, **details) -> None:
        """Record one degradation event (worker death, rank death, …)."""
        now = now if now is not None else time.monotonic()
        with self._lock:
            self.events.append({"kind": kind, "t": now, **details})
            del self.events[: -self.MAX_EVENTS]

    def checkpoint_written(
        self, path: str, step: int, now: float | None = None
    ) -> None:
        """Stamp the most recent checkpoint write (for the age probe)."""
        now = now if now is not None else time.monotonic()
        with self._lock:
            self.last_checkpoint_at = now
            self.last_checkpoint = {"path": path, "step": step}

    def _pool_report(self) -> list[dict]:
        out = []
        for pool in list(self._pools):
            try:
                out.append(
                    {
                        "workers": pool.n_workers,
                        "alive": len(pool.alive),
                        "dead": sorted(pool.dead),
                        "adoptions": {
                            str(g): a for g, a in sorted(pool.adoptions.items())
                        },
                        "closed": bool(getattr(pool, "_closed", False)),
                        "regions": pool.barrier_stats.regions,
                    }
                )
            except Exception:  # a pool torn down mid-probe is not a crash
                continue
        return out

    def snapshot(self, now: float | None = None) -> dict:
        """JSON-ready liveness report (the ``/healthz`` body)."""
        now = now if now is not None else time.monotonic()
        from ..parallel.shm import active_arena_segments

        arenas = active_arena_segments()
        with self._lock:
            pools = self._pool_report()
            events = list(self.events)
            ck_at = self.last_checkpoint_at
            ck = dict(self.last_checkpoint)
        open_pools = [p for p in pools if not p["closed"]]
        degraded = bool(events) or any(p["dead"] for p in open_pools)
        # Arena segments belonging to no open pool are a leak.
        leak = bool(arenas) and not open_pools
        return {
            "status": "degraded" if degraded else "ok",
            "degradation_events": events,
            "worker_pools": pools,
            "arena_segments": arenas,
            "arena_leak": leak,
            "last_checkpoint": (
                {**ck, "age_s": max(now - ck_at, 0.0)} if ck_at is not None else None
            ),
        }


_PROGRESS = ProgressState()
_HEALTH = HealthState()


def progress() -> ProgressState:
    """The process-wide progress state the gate functions write to."""
    return _PROGRESS


def health() -> HealthState:
    """The process-wide health state the gate functions write to."""
    return _HEALTH


def progress_begin(
    task: str, total_steps: int | None = None, **info
) -> None:
    """Gate entry point: start the progress clock; no-op while disabled."""
    if ENABLED:
        _PROGRESS.begin(task, total_steps=total_steps, **info)


def progress_update(
    stage: str,
    lnl: float | None = None,
    step_done: bool = True,
    spr_round: int = 0,
    spr_radius_idx: int = 0,
) -> None:
    """Gate entry point: record one step/stage; no-op while disabled."""
    if ENABLED:
        _PROGRESS.update(
            stage,
            lnl=lnl,
            step_done=step_done,
            spr_round=spr_round,
            spr_radius_idx=spr_radius_idx,
        )


def progress_finish(lnl: float | None = None) -> None:
    """Gate entry point: mark the task done; no-op while disabled."""
    if ENABLED:
        _PROGRESS.finish(lnl=lnl)


def progress_fail(error: str) -> None:
    """Gate entry point: mark the task failed; no-op while disabled."""
    if ENABLED:
        _PROGRESS.fail(error)


def health_event(kind: str, **details) -> None:
    """Gate entry point for degradation events; no-op while disabled."""
    if ENABLED:
        _HEALTH.event(kind, **details)


def checkpoint_written(path: str, step: int) -> None:
    """Gate entry point for checkpoint stamps; no-op while disabled."""
    if ENABLED:
        _HEALTH.checkpoint_written(path, step)


def register_pool(pool) -> None:
    """Gate entry point for worker-pool liveness; no-op while disabled."""
    if ENABLED:
        _HEALTH.register_pool(pool)


#: Largest request body the front reads; a longer one is refused (413)
#: before a byte of it is read.
MAX_BODY_BYTES = 64 * 1024 * 1024


class _HttpError(Exception):
    """A failure that knows its status; answered as ``{"error": message}``."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


class _Handler(BaseHTTPRequestHandler):
    """The one request handler: route, map errors, answer in one write.
    Routes get it as their request (:meth:`json_object`, ``path``)."""

    server_version = "repro/1.0"
    protocol_version = "HTTP/1.1"

    def _dispatch(self) -> None:
        try:
            self.body = self._read_body()
            route, captures = self.server.front.match(
                self.command, urlsplit(self.path).path
            )
            code, payload = route(self, *captures)
        except _HttpError as exc:
            code, payload = exc.code, {"error": exc.message}
        except (ValueError, KeyError, TypeError) as exc:  # request decoding
            code, payload = 400, {"error": f"{type(exc).__name__}: {exc}"}
        except Exception as exc:  # noqa: BLE001 - the client gets a 500, not a dropped connection
            traceback.print_exc()
            code, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        self._send(code, payload)

    do_GET = do_POST = do_DELETE = _dispatch  # noqa: N815 - http.server API

    def _read_body(self) -> bytes:
        raw = (self.headers.get("Content-Length") or "0").strip()
        if not raw.isdecimal():
            self.close_connection = True  # the body's extent is unknown
            raise _HttpError(400, f"bad Content-Length {raw!r}")
        length = int(raw)
        if length > MAX_BODY_BYTES:
            self.close_connection = True  # the body stays unread
            raise _HttpError(
                413, f"body of {raw} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )
        body = self.rfile.read(length)
        if len(body) < length:  # the client left mid-body
            self.close_connection = True
            raise _HttpError(
                400, f"body ended after {len(body)} of {length} bytes"
            )
        return body

    def json_object(self) -> dict:
        """The request body decoded as a JSON object (else 400)."""
        try:
            body = json.loads(self.body) if self.body else None
        except RecursionError:
            raise _HttpError(400, "JSON body nested too deep") from None
        if not isinstance(body, dict):
            raise _HttpError(400, "JSON object body required")
        return body

    def send_error(self, code: int, message=None, explain=None) -> None:
        """The stdlib's own refusals (unknown method, malformed request
        line, bad version, over-long line or headers) answer like every
        route: JSON in one write, then the connection closes."""
        self.close_connection = True
        self._send(code, {"error": message or HTTPStatus(code).phrase})

    def _send(self, code: int, payload) -> None:
        # One write: a second small segment would sit behind Nagle until
        # the client's delayed ACK.
        if isinstance(payload, str):
            data = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            data = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        head = (
            f"{self.protocol_version} {code} {HTTPStatus(code).phrase}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {self.date_time_string()}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            + ("Connection: close\r\n" if self.close_connection else "")
            + "\r\n"
        )
        if self.command == "HEAD":
            data = b""
        self.wfile.write(head.encode("latin-1") + data)

    def log_message(self, fmt: str, *args) -> None:
        """Silence per-request stderr logging (the run's stdout is sacred)."""


#: Live fronts; the hook gate is on while any is up.
_FRONTS: set["ObsServer"] = set()


class ObsServer:
    """The HTTP front: a route table served from a daemon thread.

    On its own it serves the three observability documents;
    :class:`repro.serve.PlacementServer` is the same front with tenant
    routes added.  Binding to port 0 picks an ephemeral port;
    :attr:`port` always holds the actual bound port.  A running front
    holds the module :data:`ENABLED` gate on; :meth:`stop` shuts the
    listener down and turns the gate off with the last front.  Usable
    as a context manager.
    """

    def __init__(self, port: int = 0, host: str = "127.0.0.1") -> None:
        global ENABLED
        self._routes = [
            (method, pattern, re.compile(re.sub("<[^>]+>", "([^/]+)", pattern)), route)
            for (method, pattern), route in self.routes().items()
        ]
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.front = self
        self.host = host
        self.port = int(self._httpd.server_address[1])
        _FRONTS.add(self)
        ENABLED = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"repro-http:{self.port}",
            daemon=True,
        )
        self._thread.start()

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return f"http://{self.host}:{self.port}"

    def routes(self) -> dict:
        """``(method, "/path/<capture>") -> callable(request, *captures)``
        returning ``(code, document | text)``; subclasses extend it."""
        return {
            ("GET", "/"): lambda req: (
                200,
                {"routes": [f"{m} {p}" for m, p, *_ in self._routes]},
            ),
            ("GET", "/metrics"): lambda req: (200, get_registry().to_prometheus()),
            ("GET", "/healthz"): self._healthz,
            ("GET", "/progress"): lambda req: (200, _PROGRESS.snapshot()),
        }

    def match(self, method: str, path: str):
        """The route serving ``method path`` and its captured segments."""
        for route_method, _, pattern, route in self._routes:
            found = pattern.fullmatch(path) if route_method == method else None
            if found:
                return route, found.groups()
        raise _HttpError(404, f"no route {path}")

    def health_snapshot(self) -> dict:
        """The ``/healthz`` document (503 unless its status is ``ok``)."""
        return _HEALTH.snapshot()

    def _healthz(self, req) -> tuple[int, dict]:
        snap = self.health_snapshot()
        return (200 if snap["status"] == "ok" else 503), snap

    def stop(self) -> None:
        """Shut the listener down; the last front out clears the gate."""
        global ENABLED, _SERVER
        if _SERVER is self:
            _SERVER = None
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)
        _FRONTS.discard(self)
        ENABLED = bool(_FRONTS)

    def __enter__(self) -> "ObsServer":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


_SERVER: ObsServer | None = None


def serve(port: int = 0, host: str = "127.0.0.1") -> ObsServer:
    """Start the observability server and turn the hook gate on.

    Returns the running :class:`ObsServer` (its ``port`` attribute holds
    the bound port — pass ``port=0`` for an ephemeral one).  Starting a
    new server stops any previous one.  Progress and health state are
    reset so the served documents describe this session.
    """
    global _SERVER
    if _SERVER is not None:
        _SERVER.stop()
    server = ObsServer(port=port, host=host)
    _PROGRESS.reset()
    _HEALTH.reset()
    _SERVER = server
    return server


def get_server() -> ObsServer | None:
    """The currently running server, or ``None``."""
    return _SERVER


def env_port() -> int | None:
    """The :data:`SERVE_ENV` port, or ``None`` when unset/empty/invalid."""
    raw = os.environ.get(SERVE_ENV, "").strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        return None
