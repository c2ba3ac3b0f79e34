"""Command-line interface: ``repro <subcommand>``.

Wraps the library's main workflows the way RAxML-Light/ExaML are driven
in practice — files in, files out:

* ``repro simulate``  — generate a GTR+Gamma alignment (INDELible stand-in)
* ``repro search``    — full ML tree search on an alignment file
* ``repro place``     — EPA: place query sequences on a reference tree
* ``repro serve``     — long-running placement server (HTTP, tenants)
* ``repro stats``     — alignment summary statistics
* ``repro backends``  — list the registered PLF kernel backends
* ``repro plan``      — print the levelized execution plan (dependency
                        waves) for an alignment, optionally after a
                        random SPR/NNI move (the incremental replan)
* ``repro kernels``   — per-kernel VM measurements (Figure 3 raw data)
* ``repro predict``   — trace-driven runtime/energy prediction for one
                        platform and alignment size (Table III cells)
* ``repro faults``    — run a search under a named fault-injection plan
                        (mid-search crashes, a kill mid-checkpoint-write),
                        auto-resume from checkpoints, and report survival
* ``repro trace``     — validate + summarise a saved Chrome trace (top
                        spans by self time, per-kernel histograms, wave
                        timeline, hottest folded-stack paths)

``repro search`` and ``repro place`` accept ``--backend`` to pick the
kernel implementation (reference / compiled / shadow); the
``REPRO_BACKEND`` environment variable sets the process-wide default
(``compiled`` when unset; ``REPRO_BACKEND=reference`` forces the oracle).

Checkpoints: ``repro search`` checkpoints crash-safely with ``--checkpoint ck.json``
(rotated atomic snapshots) and restarts with ``--resume ck.json``; an
injected or real mid-run death costs only the steps since the last
snapshot.

Tracing: ``repro search``/``repro place`` accept ``--trace out.json``
to record a Chrome trace of the run (open it in Perfetto, or feed it to
``repro trace``).  Setting ``REPRO_TRACE=/path.json`` enables the same
for *any* subcommand.  While tracing is on, ``repro backends`` and
``repro plan`` also print the metrics-registry snapshot.

Live observability: ``--serve-metrics PORT`` (search/place/faults, or
``REPRO_METRICS_PORT`` for any subcommand) starts a background HTTP
endpoint answering ``/metrics`` (Prometheus text), ``/healthz`` (worker
liveness, arena leaks, checkpoint age; 503 when degraded), and
``/progress`` (stage, lnL trajectory, ETA) while the run is going.
``--profile OUT.folded`` (or ``REPRO_PROFILE``) samples the wall clock
with a background profiler and writes folded stacks on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

__all__ = ["main", "build_parser"]


def _add_backend_flag(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--backend`` option to a subcommand parser."""
    from .core.backends import DEFAULT_BACKEND_ENV, available_backends

    parser.add_argument(
        "--backend",
        choices=[info.name for info in available_backends()],
        default=None,
        help=(
            "PLF kernel backend (default: $"
            + DEFAULT_BACKEND_ENV
            + " or 'compiled'; see 'repro backends')"
        ),
    )


def _add_parallel_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--workers`` / ``--exec`` options."""
    from .parallel.forkjoin import (
        EXEC_ENV,
        EXECUTION_MODES,
        WORKERS_ENV,
        default_execution,
        default_workers,
    )

    parser.add_argument(
        "--workers",
        type=int,
        default=default_workers(),
        metavar="N",
        help=(
            "parallel site-slice workers; N>1 runs every likelihood "
            "evaluation on a fork-join engine with bit-identical results "
            "(default: $" + WORKERS_ENV + " or 1)"
        ),
    )
    parser.add_argument(
        "--exec",
        dest="execution",
        choices=list(EXECUTION_MODES),
        default=default_execution(),
        help=(
            "parallel execution substrate: 'simulated' (modelled barriers), "
            "'threads' (in-process pool), 'processes' (spawn-once worker "
            "pool over a shared-memory arena) "
            "(default: $" + EXEC_ENV + " or 'simulated')"
        ),
    )


def _add_trace_flag(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--trace`` option to a subcommand parser."""
    from .obs.spans import TRACE_ENV

    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="OUT.json",
        help=(
            "record a Chrome trace of this run to OUT.json "
            "(also enabled CLI-wide by $" + TRACE_ENV + ")"
        ),
    )


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the live-observability options (endpoint + profiler)."""
    from .obs.profiler import PROFILE_ENV
    from .obs.server import SERVE_ENV

    parser.add_argument(
        "--serve-metrics",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "serve /metrics, /healthz, and /progress on 127.0.0.1:PORT "
            "while this run executes (0 picks an ephemeral port; also "
            "enabled CLI-wide by $" + SERVE_ENV + ")"
        ),
    )
    parser.add_argument(
        "--profile",
        type=Path,
        default=None,
        metavar="OUT.folded",
        help=(
            "sample the wall clock with a background profiler and write "
            "folded stacks to OUT.folded on exit "
            "(also enabled CLI-wide by $" + PROFILE_ENV + ")"
        ),
    )
    parser.add_argument(
        "--profile-hz",
        type=float,
        default=None,
        metavar="HZ",
        help="profiler sampling rate (default 97 Hz, or $REPRO_PROFILE_HZ)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PLF-on-MIC reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a GTR+Gamma alignment")
    p_sim.add_argument("--taxa", type=int, default=15)
    p_sim.add_argument("--sites", type=int, default=1000)
    p_sim.add_argument("--seed", type=int, default=2014)
    p_sim.add_argument("--alpha", type=float, default=1.0)
    p_sim.add_argument("--out", type=Path, required=True, help="PHYLIP output")
    p_sim.add_argument("--tree-out", type=Path, help="write the true tree")

    p_search = sub.add_parser("search", help="maximum-likelihood tree search")
    p_search.add_argument("alignment", type=Path, help="FASTA or PHYLIP file")
    p_search.add_argument("--out", type=Path, help="Newick output")
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--radius", type=int, nargs="+", default=[5, 10])
    p_search.add_argument("--no-rates", action="store_true",
                          help="skip GTR exchangeability optimisation")
    p_search.add_argument("--draw", action="store_true",
                          help="print the tree as ASCII art")
    p_search.add_argument("--start", choices=["parsimony", "nj"],
                          default="parsimony",
                          help="starting-tree method")
    p_search.add_argument(
        "--branch-opt", choices=["newton", "gradient", "prox"],
        default="newton", metavar="METHOD",
        help="branch-length smoothing method: per-branch Newton sweeps "
             "(default), one-traversal gradient smoothing, or L1 "
             "proximal-gradient (newton|gradient|prox); a resumed run "
             "keeps the method recorded in its checkpoint",
    )
    p_search.add_argument(
        "--checkpoint", type=Path, metavar="CK.json",
        help="write crash-safe rotated snapshots to CK.json during the "
             "search (atomic write, last --checkpoint-keep kept)",
    )
    p_search.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="snapshot period in driver steps (default 1; 0 disables "
             "snapshots)",
    )
    p_search.add_argument(
        "--checkpoint-keep", type=int, default=3, metavar="K",
        help="rotation depth: keep the last K snapshots (default 3)",
    )
    p_search.add_argument(
        "--resume", type=Path, metavar="CK.json",
        help="resume from the newest loadable snapshot in this "
             "checkpoint rotation instead of starting fresh",
    )
    p_search.add_argument(
        "--fault-plan", metavar="NAME",
        help="run under a named fault-injection plan "
             "(see 'repro faults --list')",
    )
    p_search.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for the fault plan's RNG (default 0)",
    )
    _add_backend_flag(p_search)
    _add_parallel_flags(p_search)
    _add_trace_flag(p_search)
    _add_obs_flags(p_search)

    p_stats = sub.add_parser("stats", help="alignment summary statistics")
    p_stats.add_argument("alignment", type=Path, help="FASTA or PHYLIP file")

    p_place = sub.add_parser(
        "place", help="EPA placement, every query on one reference engine"
    )
    p_place.add_argument("--reference", type=Path, required=True,
                         help="reference alignment (FASTA/PHYLIP)")
    p_place.add_argument("--tree", type=Path, required=True,
                         help="reference tree (Newick)")
    p_place.add_argument("--queries", type=Path, required=True,
                         help="aligned query sequences (FASTA)")
    p_place.add_argument("--out", type=Path, help="jplace output")
    p_place.add_argument("--best", type=int, default=5)
    _add_backend_flag(p_place)
    _add_trace_flag(p_place)
    _add_obs_flags(p_place)

    p_serve = sub.add_parser(
        "serve", help="run the long-running placement server"
    )
    p_serve.add_argument("port", type=int, nargs="?", default=8752,
                         help="listen port (0 picks an ephemeral one)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--ref", type=Path,
                         help="reference tree (Newick) for the initial tenant")
    p_serve.add_argument("--aln", type=Path,
                         help="reference alignment (FASTA/PHYLIP) for the "
                              "initial tenant")
    p_serve.add_argument("--name", default="default",
                         help="initial tenant name (default: 'default')")
    p_serve.add_argument("--max-tenants", type=int, default=4,
                         help="resident reference trees (LRU beyond this)")
    p_serve.add_argument("--max-resident", type=int, default=None,
                         help="memsave cap for the warm reference engine")
    p_serve.add_argument("--keep-best", type=int, default=5)
    _add_backend_flag(p_serve)

    sub.add_parser("backends", help="list registered PLF kernel backends")

    p_plan = sub.add_parser(
        "plan", help="print the levelized execution plan (dependency waves)"
    )
    p_plan.add_argument("alignment", type=Path, help="FASTA or PHYLIP file")
    p_plan.add_argument("--tree", type=Path,
                        help="Newick tree (default: NJ on JC distances)")
    p_plan.add_argument(
        "--move", choices=["none", "spr", "nni"], default="none",
        help="apply a random topology move to a validated engine and "
             "show the incremental replan",
    )
    p_plan.add_argument("--seed", type=int, default=0)
    p_plan.add_argument(
        "--derivatives", action="store_true",
        help="also print the waves the all-branch gradient adds to the "
             "full traversal",
    )
    _add_backend_flag(p_plan)

    sub.add_parser("kernels", help="VM kernel measurements (Figure 3)")

    p_pred = sub.add_parser("predict", help="runtime/energy prediction")
    p_pred.add_argument("--sites", type=int, required=True)
    p_pred.add_argument(
        "--system",
        choices=["cpu2630", "cpu2680", "mic1", "mic2"],
        default="mic1",
    )

    p_faults = sub.add_parser(
        "faults",
        help="run a search under a fault-injection plan and report survival",
    )
    p_faults.add_argument(
        "alignment", type=Path, nargs="?", help="FASTA or PHYLIP file"
    )
    p_faults.add_argument(
        "--plan", default="crash-midsearch", metavar="NAME",
        help="named fault plan (default crash-midsearch; see --list)",
    )
    p_faults.add_argument(
        "--list", action="store_true", help="list the named fault plans"
    )
    p_faults.add_argument("--seed", type=int, default=0,
                          help="search + fault-plan seed")
    p_faults.add_argument("--radius", type=int, nargs="+", default=[5, 10])
    p_faults.add_argument(
        "--max-restarts", type=int, default=5,
        help="restart budget after crashes (default 5)",
    )
    p_faults.add_argument(
        "--checkpoint", type=Path, metavar="CK.json",
        help="checkpoint rotation path (default: a temporary directory)",
    )
    p_faults.add_argument(
        "--verify", action="store_true",
        help="also run the search fault-free and check the survivor "
             "reached the same topology and likelihood (1e-8)",
    )
    _add_backend_flag(p_faults)
    _add_trace_flag(p_faults)
    _add_obs_flags(p_faults)

    p_trace = sub.add_parser(
        "trace", help="validate + summarise a saved Chrome trace"
    )
    p_trace.add_argument(
        "trace_file", type=Path, help="Chrome trace JSON (from --trace)"
    )
    p_trace.add_argument(
        "--top", type=int, default=15,
        help="rows in the self-time table, wave timeline, and hottest "
             "folded-stack paths (default 15)",
    )
    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .phylo import simulate_dataset, write_phylip

    sim = simulate_dataset(
        n_taxa=args.taxa, n_sites=args.sites, seed=args.seed,
        alpha=args.alpha if args.alpha > 0 else None,
    )
    write_phylip(sim.alignment, args.out)
    print(f"wrote {args.out} ({args.taxa} taxa x {args.sites} sites)")
    if args.tree_out:
        from .util import atomic_write_text

        atomic_write_text(args.tree_out, sim.tree.to_newick() + "\n")
        print(f"wrote {args.tree_out}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from .faults.plan import InjectedCrash
    from .phylo import read_alignment
    from .search import SearchConfig, load_latest_checkpoint, ml_search

    alignment = read_alignment(args.alignment)
    print(
        f"read {alignment.n_taxa} taxa x {alignment.n_sites} sites "
        f"from {args.alignment}"
    )
    starting_tree = None
    if args.start == "nj":
        from .phylo.distance import jc_distance, neighbor_joining

        d, taxa = jc_distance(alignment)
        starting_tree = neighbor_joining(d, taxa)
        print("starting tree: neighbor joining on JC distances")

    checkpoint_path = args.checkpoint
    resume_from = None
    if args.resume is not None:
        resume_from, slot = load_latest_checkpoint(
            args.resume, keep=args.checkpoint_keep
        )
        print(
            f"resuming from {slot} "
            f"(stage {resume_from.stage!r}, step {resume_from.step}"
            + (
                f", lnL {resume_from.lnl:.4f})"
                if resume_from.lnl is not None
                else ")"
            )
        )
        if checkpoint_path is None:
            checkpoint_path = args.resume  # keep snapshotting the same rotation

    fault_plan = None
    if args.fault_plan:
        from .faults.plans import make_plan

        fault_plan = make_plan(args.fault_plan, seed=args.fault_seed)
        print(f"fault plan: {fault_plan!r}")

    if args.workers > 1:
        print(f"parallel: {args.workers} workers, execution={args.execution}")

    try:
        result = ml_search(
            alignment,
            starting_tree=starting_tree,
            config=SearchConfig(
                radii=tuple(args.radius),
                seed=args.seed,
                optimize_exchangeabilities=not args.no_rates,
                branch_opt_method=args.branch_opt,
                checkpoint_path=checkpoint_path,
                checkpoint_every=args.checkpoint_every,
                checkpoint_keep=args.checkpoint_keep,
            ),
            backend=args.backend,
            resume_from=resume_from,
            fault_plan=fault_plan,
            workers=args.workers,
            execution=args.execution,
        )
    except InjectedCrash as crash:
        print(f"search died: {crash}")
        if checkpoint_path is not None:
            print(f"resume with: repro search {args.alignment} "
                  f"--resume {checkpoint_path}")
        return 3
    for stats in result.spr_history:
        print(
            f"SPR round: radius {stats.radius}, {stats.moves_tried} moves "
            f"tried, {stats.moves_accepted} accepted"
        )
    print(f"final lnL: {result.lnl:.4f}")
    print(f"alpha:     {result.alpha:.4f}")
    print(
        "rates:     "
        + " ".join(f"{x:.4f}" for x in result.model.exchangeabilities)
    )
    if args.out:
        from .util import atomic_write_text

        atomic_write_text(args.out, result.newick + "\n")
        print(f"wrote {args.out}")
    else:
        print(result.newick)
    if args.draw:
        from .phylo.draw import ascii_tree

        print(ascii_tree(result.tree))
    if args.workers > 1:
        stats = getattr(result.engine, "barrier_stats", None)
        if stats is not None and stats.regions:
            print(
                f"parallel regions: {stats.regions} "
                f"(mean overhead {stats.mean_region_overhead_s * 1e6:.1f} us)"
            )
        result.engine.close()
    return 0


def _cmd_place(args: argparse.Namespace) -> int:
    from .phylo import GammaRates, Tree, gtr, read_alignment, read_fasta
    from .search.epa import place_queries, to_jplace

    reference = read_alignment(args.reference)
    tree = Tree.from_newick(args.tree.read_text())
    query_aln = read_fasta(args.queries)
    queries = {t: query_aln.sequence(t) for t in query_aln.taxa}
    results = place_queries(
        reference, tree, queries, gtr(), GammaRates(1.0, 4),
        keep_best=args.best, backend=args.backend,
    )
    for result in results:
        best = result.best
        print(
            f"{result.query}: branch toward [{','.join(best.edge_label)}] "
            f"lnL {best.log_likelihood:.2f} LWR {best.weight_ratio:.3f}"
        )
    if args.out:
        from .util import atomic_write_text

        atomic_write_text(
            args.out, json.dumps(to_jplace(results, tree), indent=2)
        )
        print(f"wrote {args.out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .phylo import Tree, read_alignment
    from .serve import PlacementServer

    if bool(args.ref) != bool(args.aln):
        print("--ref and --aln must be given together", file=sys.stderr)
        return 2
    server = PlacementServer(
        port=args.port,
        host=args.host,
        max_tenants=args.max_tenants,
        keep_best=args.keep_best,
        max_resident=args.max_resident,
        backend=args.backend,
    )
    try:
        if args.ref:
            tenant = server.add_tenant(
                args.name,
                read_alignment(args.aln),
                Tree.from_newick(args.ref.read_text()),
            )
            print(
                f"tenant {args.name!r}: {tenant.session.reference.n_taxa} "
                f"reference taxa, lnL {tenant.session.reference_lnl:.2f}"
            )
        print(f"placement server listening on {server.url}")
        # SIGTERM must tear down like Ctrl-C: server.stop() waits out
        # each tenant's request in flight and closes its session.
        import signal

        def _terminate(signum, frame):  # pragma: no cover - signal path
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGTERM, _terminate)
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            print("shutting down")
        finally:
            signal.signal(signal.SIGTERM, previous)
    finally:
        server.stop()
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .phylo import read_alignment
    from .phylo.stats import alignment_stats

    print(alignment_stats(read_alignment(args.alignment)).summary())
    return 0


def _print_metrics_snapshot() -> None:
    """Print the metrics-registry snapshot when tracing is enabled."""
    from . import obs

    if not obs.is_enabled():
        return
    snap = obs.get_registry().snapshot()
    print(f"\nmetrics registry ({len(snap)} series):")
    if not snap:
        print("  (empty — nothing instrumented has run yet)")
        return
    width = max(len(name) for name in snap)
    for name, entry in sorted(snap.items()):
        if entry["type"] == "histogram":
            print(
                f"  {name:<{width}}  histogram  count={entry['count']} "
                f"sum={entry['sum']:.6g}"
            )
        else:
            print(f"  {name:<{width}}  {entry['type']:<9}  {entry['value']:g}")


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import (
        load_chrome,
        render_summary,
        summarize_chrome,
        validate_chrome,
    )

    payload = load_chrome(args.trace_file)
    problems = validate_chrome(payload)
    if problems:
        print(f"{args.trace_file}: INVALID trace ({len(problems)} problems)")
        for p in problems[:20]:
            print(f"  {p}")
        if len(problems) > 20:
            print(f"  ... and {len(problems) - 20} more")
        return 1
    print(f"{args.trace_file}: valid Chrome trace")
    print()
    summary = summarize_chrome(payload)
    print(render_summary(summary, top=args.top), end="")
    if summary.folded:
        from .obs import render_hot_paths

        print()
        print(render_hot_paths(summary, n=args.top), end="")
    return 0


def _cmd_backends(_args: argparse.Namespace) -> int:
    import inspect

    from .core.backends import DEFAULT_BACKEND_ENV, available_backends

    infos = available_backends()
    names = [info.name for info in infos]
    env = os.environ.get(DEFAULT_BACKEND_ENV)
    default = env if env is not None else "compiled"
    source = f"${DEFAULT_BACKEND_ENV}" if env is not None else "built-in default"
    print(f"process default: {default}  (from {source})")
    print()
    width = max(len(n) for n in names)
    for info in infos:
        marker = "*" if info.name == default else " "
        print(f"{marker} {info.name:<{width}}  {info.description}")
        doc = inspect.getdoc(info.factory)
        first = doc.splitlines()[0].strip() if doc else ""
        if first and first != info.description:
            print(f"  {'':<{width}}  {first}")
    print(f"\n(* = process default; override with ${DEFAULT_BACKEND_ENV} "
          "or --backend)")

    from .parallel.forkjoin import (
        EXEC_ENV,
        EXECUTION_MODES,
        WORKERS_ENV,
        default_execution,
        default_workers,
    )

    w_env = os.environ.get(WORKERS_ENV)
    x_env = os.environ.get(EXEC_ENV)
    w_src = f"${WORKERS_ENV}" if w_env is not None else "built-in default"
    x_src = f"${EXEC_ENV}" if x_env is not None else "built-in default"
    print("\nparallel execution:")
    print(f"  workers: {default_workers()}  (from {w_src})")
    print(f"  exec:    {default_execution()}  (from {x_src})")
    print(f"  modes:   {', '.join(EXECUTION_MODES)}")
    print(f"  (override with ${WORKERS_ENV}/${EXEC_ENV} or --workers/--exec "
          "on 'repro search' and 'repro serve')")

    from .core.ckernels import probe_status

    status = probe_status()
    print("\ncompiled backend:")
    if status.available:
        print(f"  compiler: {status.compiler}")
        print(f"  flags:    {' '.join(status.flags)}")
    else:
        print("  unavailable — engines fall back to 'reference'")
        print(f"  reason:   {status.reason}")
    print(f"  cache:    {status.cache_dir}")
    if status.cached_objects:
        print(f"  objects:  {len(status.cached_objects)} cached "
              f"({', '.join(status.cached_objects[:4])}"
              f"{', ...' if len(status.cached_objects) > 4 else ''})")
    else:
        print("  objects:  none cached yet (compiled at first use)")

    _print_metrics_snapshot()
    return 0


def _show_plan(plan, title: str) -> None:
    """Print one levelized plan as a per-wave table plus a summary."""
    print(title)
    if not plan.waves:
        print("  (empty plan: every required CLA is already valid)")
        return
    print(f"  {'wave':>4}  {'width':>5}  kernel mix")
    for wave in plan.waves:
        mix = ", ".join(
            f"{kind.value} x{n}"
            for kind, n in sorted(
                wave.kernel_mix().items(), key=lambda kv: kv[0].value
            )
        )
        print(f"  {wave.index:>4}  {wave.width:>5}  {mix}")
    print(
        f"  {plan.n_ops} ops in {plan.depth} waves "
        f"(max width {plan.max_width}, mean width {plan.mean_width:.2f})"
    )


def _cmd_plan(args: argparse.Namespace) -> int:
    import numpy as np

    from .core.engine import LikelihoodEngine
    from .phylo import GammaRates, Tree, gtr, read_alignment

    alignment = read_alignment(args.alignment)
    patterns = alignment.compress()
    print(
        f"read {alignment.n_taxa} taxa x {alignment.n_sites} sites "
        f"({patterns.n_patterns} patterns) from {args.alignment}"
    )
    if args.tree:
        tree = Tree.from_newick(args.tree.read_text())
    else:
        from .phylo.distance import jc_distance, neighbor_joining

        d, taxa = jc_distance(alignment)
        tree = neighbor_joining(d, taxa)
        print("tree: neighbor joining on JC distances")
    engine = LikelihoodEngine(
        patterns, tree, gtr(), GammaRates(1.0, 4), backend=args.backend
    )
    print(f"backend: {type(engine.backend).__name__}\n")
    root = engine.default_edge()
    _show_plan(engine.plan_execution(root), f"full traversal (root edge {root}):")
    if args.derivatives:
        print()
        engine.ensure_valid(root)
        _show_plan(
            engine.plan_gradient(root),
            f"gradient up-sweep (root edge {root}): the other CLA "
            "directions + edge gradients:",
        )
    if args.move != "none":
        rng = np.random.default_rng(args.seed)
        engine.log_likelihood(root)  # validate every CLA first
        if args.move == "nni":
            internal = [
                eid for eid in tree.edge_ids
                if not tree.is_leaf(tree.edge(eid).u)
                and not tree.is_leaf(tree.edge(eid).v)
            ]
            eid = internal[int(rng.integers(len(internal)))]
            tree.nni_swap(eid, int(rng.integers(2)))
            desc = f"NNI across edge {eid}"
        else:
            targets: list[int] = []
            pend = -1
            for _ in range(200):
                edge_ids = tree.edge_ids
                pend = edge_ids[int(rng.integers(len(edge_ids)))]
                targets = tree.spr_candidates(pend, radius=5)
                if targets:
                    break
            if not targets:
                print("no valid SPR move found")
                return 1
            target = targets[int(rng.integers(len(targets)))]
            tree.spr(pend, target)
            desc = f"SPR pruning edge {pend}, regrafting onto edge {target}"
        print()
        _show_plan(
            engine.plan_execution(engine.default_edge()),
            f"incremental replan after {desc}:",
        )
    _print_metrics_snapshot()
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from .faults.plans import available_plans, make_plan

    if args.list:
        plans = available_plans()
        width = max(len(info.name) for info in plans)
        for info in plans:
            print(f"  {info.name:<{width}}  {info.description}")
        return 0
    if args.alignment is None:
        print("error: an alignment file is required (or use --list)")
        return 2

    from .faults.runner import run_search_with_faults
    from .phylo import read_alignment
    from .search import SearchConfig

    alignment = read_alignment(args.alignment)
    print(
        f"read {alignment.n_taxa} taxa x {alignment.n_sites} sites "
        f"from {args.alignment}"
    )
    plan = make_plan(args.plan, seed=args.seed)
    print(f"fault plan: {plan!r}")
    report = run_search_with_faults(
        alignment,
        plan,
        SearchConfig(
            radii=tuple(args.radius),
            seed=args.seed,
            checkpoint_path=args.checkpoint,
        ),
        backend=args.backend,
        max_restarts=args.max_restarts,
        verify=args.verify,
    )
    fired = ", ".join(
        f"{k} x{v}" for k, v in sorted(report.fault_summary.items())
    ) or "none"
    print(f"faults fired:  {fired}")
    print(f"crashes:       {report.crashes}")
    print(f"restarts:      {report.restarts} (budget {args.max_restarts})")
    print(f"checkpoints:   {report.checkpoint_path}")
    if report.survived:
        print(f"survived:      yes  (final lnL {report.lnl:.4f})")
    else:
        print("survived:      NO — restart budget exhausted")
        return 1
    if args.verify:
        print(
            f"verify:        baseline lnL {report.baseline_lnl:.4f}, "
            f"|delta| {report.lnl_delta:.3e}, "
            f"topology {'match' if report.topology_match else 'MISMATCH'}"
        )
        if not report.verified:
            print("verify:        FAILED — survivor diverged from baseline")
            return 1
        print("verify:        OK (same topology, lnL to 1e-8)")
    _print_metrics_snapshot()
    return 0


def _cmd_kernels(_args: argparse.Namespace) -> int:
    from .harness.figure3 import render_figure3

    print(render_figure3())
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from .parallel import ExaMLModel, examl_cpu, examl_mic_hybrid
    from .perf import (
        DEFAULT_TRACE,
        XEON_E5_2630_2S,
        XEON_E5_2680_2S,
        XEON_PHI_5110P_1S,
        XEON_PHI_5110P_2S,
        energy_wh,
    )

    systems = {
        "cpu2630": (XEON_E5_2630_2S, examl_cpu(XEON_E5_2630_2S)),
        "cpu2680": (XEON_E5_2680_2S, examl_cpu(XEON_E5_2680_2S)),
        "mic1": (XEON_PHI_5110P_1S, examl_mic_hybrid(n_cards=1)),
        "mic2": (XEON_PHI_5110P_2S, examl_mic_hybrid(n_cards=2)),
    }
    spec, config = systems[args.system]
    model = ExaMLModel(spec, config)
    pred = model.predict(DEFAULT_TRACE, args.sites)
    base = ExaMLModel(XEON_E5_2680_2S, examl_cpu(XEON_E5_2680_2S)).predict(
        DEFAULT_TRACE, args.sites
    )
    print(f"system:   {spec.name}  ({config.name})")
    print(f"sites:    {args.sites}")
    print(f"time:     {pred.total_s:.2f} s   "
          f"(compute {pred.compute_s:.2f}, sync {pred.sync_s:.2f}, "
          f"serial {pred.serial_s:.2f}, ramp {pred.ramp_s:.2f}, "
          f"comm {pred.comm_s:.2f})")
    print(f"speedup vs 2S E5-2680: {base.total_s / pred.total_s:.2f}x")
    print(f"energy:   {energy_wh(spec, pred.total_s):.3f} Wh")
    fits = model.fits_in_memory(args.sites, DEFAULT_TRACE.n_taxa)
    print(f"fits in {spec.memory_gb:.0f} GB memory: {fits}")
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "search": _cmd_search,
    "place": _cmd_place,
    "serve": _cmd_serve,
    "stats": _cmd_stats,
    "backends": _cmd_backends,
    "plan": _cmd_plan,
    "kernels": _cmd_kernels,
    "predict": _cmd_predict,
    "faults": _cmd_faults,
    "trace": _cmd_trace,
}


#: Subcommands the environment-driven observability hooks skip: trace
#: analyses an artifact rather than running a workload, and serve
#: manages the obs gate over its own lifetime.
_PASSIVE_COMMANDS = ("trace", "serve")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    When ``--trace OUT.json`` is given (search/place/faults) or the
    ``REPRO_TRACE`` environment variable names a path (any subcommand
    except the passive ones), the whole run executes with tracing
    enabled and the Chrome trace is written on the way out — even when
    the handler raises, so a crashed search still leaves its timeline
    behind.  ``--serve-metrics PORT`` / ``REPRO_METRICS_PORT`` likewise
    wraps the run in a live HTTP endpoint, and ``--profile OUT.folded``
    / ``REPRO_PROFILE`` in a sampling profiler; all three tear down in
    the same ``finally``.
    """
    args = build_parser().parse_args(argv)
    from .core.backends import DEFAULT_BACKEND_ENV, available_backends

    env_backend = os.environ.get(DEFAULT_BACKEND_ENV)
    registered = [info.name for info in available_backends()]
    if env_backend is not None and env_backend not in registered:
        # a stale environment (e.g. a backend removed since it was set)
        print(
            f"repro: ${DEFAULT_BACKEND_ENV} names unknown backend "
            f"{env_backend!r} (registered: {', '.join(registered)})",
            file=sys.stderr,
        )
        return 2
    trace_path = getattr(args, "trace", None)
    serve_port = getattr(args, "serve_metrics", None)
    profile_path = getattr(args, "profile", None)
    if args.command not in _PASSIVE_COMMANDS:
        if trace_path is None:
            from .obs.spans import env_trace_path

            trace_path = env_trace_path()
        if serve_port is None:
            from .obs.server import env_port

            serve_port = env_port()
        if profile_path is None:
            from .obs.profiler import env_profile_path

            profile_path = env_profile_path()

    if trace_path is None and serve_port is None and profile_path is None:
        return _HANDLERS[args.command](args)

    from . import obs

    server = None
    profiler = None
    if trace_path is not None:
        obs.enable(description=f"repro {args.command}")
    if serve_port is not None:
        server = obs.serve(port=serve_port)
        print(
            f"serving live metrics at {server.url} "
            "(/metrics /healthz /progress)"
        )
    if profile_path is not None:
        from .obs.profiler import env_profile_hz

        hz = getattr(args, "profile_hz", None) or env_profile_hz()
        profiler = obs.SamplingProfiler(hz=hz).start()
    try:
        return _HANDLERS[args.command](args)
    finally:
        if profiler is not None:
            profiler.stop()
            out = profiler.write(profile_path)
            print(
                f"wrote profile: {out} ({profiler.n_samples} samples at "
                f"{profiler.hz:g} Hz; flamegraph.pl/speedscope-ready)"
            )
        if server is not None:
            server.stop()
        if trace_path is not None:
            tracer = obs.get_tracer()
            out = obs.write_chrome(tracer, trace_path)
            print(
                f"wrote trace: {out} ({tracer.n_events} events; "
                f"inspect with 'repro trace {out}' or ui.perfetto.dev)"
            )
            obs.disable()


if __name__ == "__main__":
    sys.exit(main())
