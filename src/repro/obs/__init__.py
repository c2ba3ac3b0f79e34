"""repro.obs — end-to-end tracing and metrics for the reproduction.

Structured observability for every layer of the stack, built from three
pieces:

* :mod:`repro.obs.spans` — a low-overhead span tracer (context manager /
  decorator / pre-measured fast path) with nestable spans and named
  tracks for simulated threads and MPI ranks; **zero-cost when
  disabled** (a module-level flag short-circuits every entry point
  before any allocation);
* :mod:`repro.obs.metrics` — a registry of counters, gauges, and
  log-bucketed histograms with Prometheus-text and JSON export;
* :mod:`repro.obs.export` / :mod:`repro.obs.summary` — exporters
  (Chrome ``trace_event`` JSON loadable in Perfetto, plain-text
  flamegraph, folded stacks) and the saved-trace validator/summariser
  behind the ``repro trace`` CLI subcommand;
* :mod:`repro.obs.server` — the *live* plane: an opt-in background HTTP
  endpoint (``--serve-metrics PORT``) answering ``/metrics`` (Prometheus
  text), ``/healthz`` (worker liveness, arena leaks, checkpoint age),
  and ``/progress`` (search stage, lnL trajectory, ETA) while a run is
  still going;
* :mod:`repro.obs.profiler` — a sampling wall-clock profiler
  (``--profile OUT.folded``) attributing samples to the open span stack
  per thread, for hot-path visibility *between* instrumented spans.

Instrumentation is wired through kernel dispatch
(:mod:`repro.core.backends`), wave execution
(:mod:`repro.core.engine`), CLA-slot recycling
(:mod:`repro.core.memsave`), barrier/AllReduce accounting
(:mod:`repro.parallel`), and search progress (:mod:`repro.search`).

Quickstart::

    from repro import obs

    obs.enable()
    ...  # run a search, a placement, anything
    obs.write_chrome(obs.get_tracer(), "out.json")  # open in Perfetto

or from the shell::

    repro search aln.phy --trace out.json && repro trace out.json
"""

from .export import (
    flame_folded,
    flame_text,
    render_folded,
    to_chrome,
    write_chrome,
    write_folded,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    escape_help,
    exposition_name,
    get_registry,
    lint_metric_names,
    log_buckets,
    parse_prometheus_text,
)
from .profiler import (
    PROFILE_ENV,
    PROFILE_HZ_ENV,
    SamplingProfiler,
    env_profile_hz,
    env_profile_path,
)
from .server import (
    SERVE_ENV,
    HealthState,
    ObsServer,
    ProgressState,
    env_port,
    get_server,
    health,
    progress,
    serve,
)
from .spans import (
    TRACE_ENV,
    InstantRecord,
    SpanRecord,
    Tracer,
    add_complete,
    current_span_stack,
    disable,
    enable,
    env_trace_path,
    get_tracer,
    instant,
    is_enabled,
    span,
    traced,
    track_scope,
)
from .summary import (
    SpanAggregate,
    TraceSummary,
    load_chrome,
    render_hot_paths,
    render_summary,
    summarize_chrome,
    validate_chrome,
)

__all__ = [
    # spans
    "TRACE_ENV",
    "SpanRecord",
    "InstantRecord",
    "Tracer",
    "enable",
    "disable",
    "is_enabled",
    "get_tracer",
    "span",
    "instant",
    "add_complete",
    "track_scope",
    "traced",
    "env_trace_path",
    "current_span_stack",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "log_buckets",
    "escape_help",
    "exposition_name",
    "lint_metric_names",
    "parse_prometheus_text",
    # export
    "to_chrome",
    "write_chrome",
    "flame_folded",
    "flame_text",
    "render_folded",
    "write_folded",
    # summary
    "SpanAggregate",
    "TraceSummary",
    "load_chrome",
    "validate_chrome",
    "summarize_chrome",
    "render_summary",
    "render_hot_paths",
    # server (live plane)
    "SERVE_ENV",
    "ObsServer",
    "ProgressState",
    "HealthState",
    "serve",
    "get_server",
    "env_port",
    "progress",
    "health",
    # profiler
    "PROFILE_ENV",
    "PROFILE_HZ_ENV",
    "SamplingProfiler",
    "env_profile_path",
    "env_profile_hz",
]
