"""Spans recorded from the benchmark's own files.

The traced pass does not use ``repro.obs``: its spans and counters are
what later PRs will move, and a claim must not rest on a counter the
claimed change redefined.  Instead the benchmark wraps the public
functions at each layer boundary from outside:

* ``TimingBackend`` proxies the default kernel backend and is passed as
  ``backend=`` to the public call (traced pass only);
* the names the search and placement drivers call (``make_engine``,
  ``optimize_all_branches``, ...) are rebound to timing wrappers for
  the duration of one traced call, and the engine ``make_engine``
  returns gets wrappers on its public methods.

Every span carries name, start, end and parent from one span stack and
stays in memory.  A layer's self time is its spans' duration minus what
their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

NAME, START, END, PARENT, OPS = range(5)

#: Public engine methods the search and placement layers call.
ENGINE_METHODS = (
    "log_likelihood",
    "edge_sum_buffer",
    "branch_derivatives",
    "all_branch_gradients",
    "site_log_likelihoods",
    "derivative_site_terms",
    "plan_execution",
    "set_model",
    "set_alpha",
)

#: (module, dotted attribute, span name).  A name a later PR removes is
#: skipped; its lane then reads zero instead of failing the run.
PATCHES = (
    ("repro.search.raxml_light", "make_engine", "core.engine.build"),
    ("repro.search.raxml_light", "stepwise_addition_tree", "phylo.start_tree"),
    ("repro.search.raxml_light", "optimize_all_branches", "search.branch_opt"),
    ("repro.search.raxml_light", "optimize_model", "search.model_opt"),
    ("repro.search.raxml_light", "spr_search", "search.spr"),
    ("repro.search.epa", "make_engine", "core.engine.build"),
    ("repro.search.epa", "execute_lockstep", "core.engine.execute_lockstep"),
    ("repro.search.epa", "PlacementSession.__init__", "search.epa.session"),
    ("repro.search.epa", "PlacementSession.place", "search.epa.place"),
    ("repro.phylo.alignment", "Alignment.compress", "phylo.compress"),
    ("repro.phylo.alignment", "Alignment.from_sequences", "phylo.from_sequences"),
)

def kernel_family(method: str) -> str:
    """Backend method -> the paper's kernel family (Figure 3 view)."""
    if method.startswith("newview"):
        return "newview"
    if method in ("site_log_likelihoods", "evaluate_edge"):
        return "evaluate"
    if method == "derivative_sum":
        return "derivative_sum"
    if method in ("derivative_core", "derivative_site_terms"):
        return "derivative_core"
    return "gradient"  # preorder_* and edge_gradient*


class Tracer:
    """One span stack; spans are ``[name, start, end, parent, ops]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str, ops: int = 1) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, ops])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, name: str, fn, after=None):
        """Timing wrapper around ``fn``; ``after(result)`` runs inside
        the span (used to dress the engine ``make_engine`` returns)."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                self.end(index)

        return timed

    def wrap_engine(self, engine) -> None:
        for method in ENGINE_METHODS:
            bound = getattr(engine, method, None)
            if callable(bound):
                setattr(engine, method, self.wrap(f"core.engine.{method}", bound))


class TimingBackend:
    """Proxy that times every public method of a kernel backend.

    Public attributes of the inner backend are forwarded one for one,
    so optional hooks (``newview_batch``, ``edge_gradient_terms``,
    ``derivative_site_terms``) exist exactly when the inner backend has
    them and the engine takes the same dispatch path as untraced.
    """

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        for name in dir(inner):
            if name.startswith("_"):
                continue
            attr = getattr(inner, name)
            if callable(attr):
                setattr(self, name, self._timed(tracer, name, attr))

    @staticmethod
    def _timed(tracer: Tracer, name: str, fn):
        span_name = f"core.backends.{name}"
        if name != "newview_batch":
            return tracer.wrap(span_name, fn)

        @functools.wraps(fn)
        def timed_batch(calls):
            # One dispatch, len(calls) newview operations.
            index = tracer.begin(span_name, ops=len(calls))
            try:
                return fn(calls)
            finally:
                tracer.end(index)

        return timed_batch

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


def _resolve(module_name: str, dotted: str):
    """``(owner, attribute name, raw attribute)`` or ``None``."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, leaf = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(leaf)
    return None if raw is None else (owner, leaf, raw)


@contextmanager
def tracing():
    """Install the patches, yield ``(tracer, backend)``, restore."""
    from repro.core.backends import get_backend

    tracer = Tracer()
    undo = []
    for module_name, dotted, span_name in PATCHES:
        found = _resolve(module_name, dotted)
        if found is None:
            continue
        owner, leaf, raw = found
        after = tracer.wrap_engine if span_name == "core.engine.build" else None
        if isinstance(raw, classmethod):
            timed = classmethod(tracer.wrap(span_name, raw.__func__))
        else:
            timed = tracer.wrap(span_name, raw, after)
        setattr(owner, leaf, timed)
        undo.append((owner, leaf, raw))
    try:
        yield tracer, TimingBackend(get_backend(None), tracer)
    finally:
        for owner, leaf, raw in undo:
            setattr(owner, leaf, raw)


@dataclass
class Totals:
    """Per span name: how many, how long, and how long on its own."""

    count: int = 0
    ops: int = 0
    inclusive: float = 0.0
    self_time: float = 0.0


def totals_by_name(spans: list[list]) -> dict[str, Totals]:
    """Inclusive and self time per span name.

    Self time is the span's duration minus the durations of its direct
    children; a span nested in another of the same name counts in both
    inclusive totals, so read ``inclusive`` per stage, ``self_time`` per
    layer.
    """
    child_time = defaultdict(float)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    out: dict[str, Totals] = defaultdict(Totals)
    for index, span in enumerate(spans):
        duration = span[END] - span[START]
        t = out[span[NAME]]
        t.count += 1
        t.ops += span[OPS]
        t.inclusive += duration
        t.self_time += duration - child_time[index]
    return dict(out)


def layer_metrics(spans: list[list], n_patterns: int) -> dict[str, float]:
    """The span-derived lanes of one traced call whose root span (the
    first one, named ``op``) covers the whole public call."""
    totals = totals_by_name(spans)
    wall = spans[0][END] - spans[0][START]
    none = Totals()
    family: dict[str, Totals] = defaultdict(Totals)
    for name, t in totals.items():
        if name.startswith("core.backends."):
            f = family[kernel_family(name.rsplit(".", 1)[1])]
            f.ops += t.ops
            f.inclusive += t.inclusive
    kernel_s = sum(f.inclusive for f in family.values())
    engine = [
        t for name, t in totals.items()
        if name.startswith("core.engine.") and name != "core.engine.build"
    ]
    build = totals.get("core.engine.build", none)

    def layer_self(prefix: str) -> float:
        return sum(t.self_time for n, t in totals.items() if n.startswith(prefix))

    def share(name: str) -> float:
        return totals.get(name, none).inclusive / wall

    core, dsum, newview = (
        family["derivative_core"], family["derivative_sum"], family["newview"]
    )
    out = {
        "core.backends.kernel_s": kernel_s,
        "core.backends.kernel_share": kernel_s / wall,
        "core.backends.calls": sum(f.ops for f in family.values()),
        "core.backends.gradient_calls": family["gradient"].ops,
        "core.backends.derivative_core_us_per_call":
            1e6 * core.inclusive / max(core.ops, 1),
        "core.backends.newview_ns_per_pattern":
            1e9 * newview.inclusive / max(newview.ops * n_patterns, 1),
        "core.engine.self_s": sum(t.self_time for t in engine),
        "core.engine.calls": sum(t.count for t in engine),
        "core.engine.build_s": build.inclusive,
        "core.engine.builds": build.count,
        "search.self_s": layer_self("search."),
        "search.branch_opt_share": share("search.branch_opt"),
        "search.model_opt_share": share("search.model_opt"),
        "search.spr_share": share("search.spr"),
        "search.newton_iters_per_edge": core.ops / max(dsum.ops, 1),
        "phylo.self_s": layer_self("phylo."),
        "phylo.start_tree_share": share("phylo.start_tree"),
        "unattributed_s": totals["op"].self_time,
        "unattributed_frac": totals["op"].self_time / wall,
    }
    for key in ("newview", "evaluate", "derivative_sum", "derivative_core"):
        out[f"core.backends.{key}_s"] = family[key].inclusive
        out[f"core.backends.{key}_calls"] = family[key].ops
    return out
