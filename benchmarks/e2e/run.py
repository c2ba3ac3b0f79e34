"""End-to-end + per-layer benchmark: whole searches, whole placements,
whole HTTP requests.

    python3 benchmarks/e2e/run.py                      # all four workloads
    python3 benchmarks/e2e/run.py --workload search_deep --trace 1
    python3 benchmarks/e2e/run.py --smoke              # tiny sizes, about 20 s

With ``--workload`` one workload runs in this process and the last line
of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  Without it, every workload runs in a fresh
child process, first untraced for the end-to-end metrics and then
traced for the per-layer metrics, every metric is printed by name with
its unit, and the exit code is non-zero when a correctness check failed.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = HERE / ".cache"  # private kernel/tuning caches and server inputs

N_CLIENTS = 2  # = nproc of the reference box; never more load threads
SERVE_WARM_UP_S = 3.0
SERVE_SLICE_S = 2.0  # the serve window is judged slice by slice
SERVE_QUIET_RESPONSES = 120  # what is kept of it: enough for a p90, 12 beyond
SETUP_SAMPLES = 3  # this process plus set-up-only children
CHILD_TIMEOUT_S = 170


def hygiene() -> None:
    """Same environment for every run, set before NumPy is imported."""
    for name in ("REPRO_BACKEND", "REPRO_WORKERS", "REPRO_EXEC", "REPRO_TRACE",
                 "REPRO_PROFILE", "REPRO_METRICS_PORT"):
        os.environ.pop(name, None)
    os.environ["REPRO_CKERNEL_CACHE"] = str(WORK / "ckernels")
    os.environ["REPRO_TUNE_CACHE"] = str(WORK / "tuning.json")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no program to measure: {SRC / 'repro'} is missing")
    sys.path[:0] = [str(SRC), str(HERE)]


@functools.cache
def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank percentile; the median proper for ``p == 50``."""
    if p == 50:
        return statistics.median(values)
    ordered = sorted(values)
    return ordered[max(-(-p * len(ordered) // 100), 1) - 1]


def tail_percentile(n: int) -> int:
    """The highest of p95, p90, p75 that leaves at least ten samples
    beyond it; the median when none does."""
    for p in (95, 90, 75):
        if n * (100 - p) >= 1000:
            return p
    return 50


def shm_segments() -> set[str]:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def describe_environment() -> None:
    import numpy
    from repro.core.backends import get_backend
    from repro.core.ckernels.build import CompilerUnavailable, find_compiler

    try:
        compiler = find_compiler()
    except CompilerUnavailable as exc:
        compiler = f"unavailable ({exc})"
    print(f"# nproc {os.cpu_count()}  python {platform.python_version()}  "
          f"numpy {numpy.__version__}  compiler {compiler}  "
          f"default backend {get_backend(None).name}")


# ----------------------------------------------------------------------
# one workload in this process
# ----------------------------------------------------------------------
def set_up(args):
    """Everything before the first timed call: imports, first inputs
    (generate, parse, compress), for the server workload the child
    process up to ``listening``, and one tiny throw-away search.
    Returns ``(spec, inputs, server, seconds since process start)``."""
    import serving
    import workloads

    spec = (workloads.SMOKE_SPECS if args.smoke else workloads.SPECS)[args.workload]
    inputs = workloads.load(spec, workloads.rep_seed(args.seed, 0))
    server = None
    if spec.kind == "serve":
        server = serving.Server(SRC, WORK, inputs.dataset.fasta, inputs.dataset.newick)
    try:
        if server is not None:
            server.wait_listening()
        workloads.warm_up()
    except BaseException:
        if server is not None:
            server.close()
        raise
    return spec, inputs, server, time.perf_counter() - PROCESS_START


def child_setups(args) -> list[float]:
    """Set-up seconds of fresh ``--setup-only`` child processes."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload",
           args.workload, "--seed", str(args.seed)] + ["--smoke"] * args.smoke
    out = []
    for _ in range(0 if args.smoke else SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        out.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return out


class Tally:
    """What the timed calls of one run add up to."""

    def __init__(self) -> None:
        self.walls: list[float] = []  # untraced calls only
        self.layers: list[dict] = []  # one per traced call
        self.overheads: list[float] = []
        self.attempted = 0
        self.problems: list[str] = []
        self.server_lanes: dict | None = None

    def call(self, spec, inputs, traced: bool):
        """One untraced timed call, paired on traced runs with a traced
        call on the same inputs: the pair gives the tracing overhead and
        must return the same result.  Which of the two goes first
        alternates, because the first call on new inputs runs colder."""
        import spans
        import workloads

        def plain():
            t0 = time.perf_counter()
            result = workloads.run_op(spec, inputs)
            self.walls.append(time.perf_counter() - t0)
            return result

        if not traced:
            return plain()
        result = plain() if len(self.walls) % 2 else None
        with spans.tracing() as (tracer, backend):
            t0 = time.perf_counter()
            with tracer.span("op"):
                traced_result = workloads.run_op(spec, inputs, backend)
            traced_wall = time.perf_counter() - t0
        if result is None:
            result = plain()
        lanes = spans.layer_metrics(tracer.spans, spec.n_patterns)
        lanes.update(workloads.result_lanes(spec, traced_result))
        lanes["phylo.load_s"] = inputs.load_s
        self.layers.append(lanes)
        self.overheads.append(traced_wall / self.walls[-1] - 1.0)
        if workloads.fingerprint(spec, traced_result) != workloads.fingerprint(spec, result):
            self.problems.append("traced and untraced results differ")
        return result

    def per_layer(self) -> dict:
        """Counts from the first dataset, so that they repeat exactly
        for one commit and seed; times and ratios as medians."""
        first = self.layers[0]
        out = {
            name: first[name] if isinstance(first[name], int)
            else statistics.median(lanes[name] for lanes in self.layers)
            for name in first
        }
        out["trace.overhead_frac"] = statistics.median(self.overheads)
        return out


def quiet_slices(samples, t0: float, window: float) -> tuple[list, float]:
    """``(samples of the quiet part of the window, its seconds)``.

    The window is cut into slices of about ``SERVE_SLICE_S`` by the
    time each response was read; the slices with the lowest median
    latency are kept, as many as it takes to hold
    ``SERVE_QUIET_RESPONSES`` responses.  Neighbours on the shared host
    slow this machine down for tens of seconds at a time and never
    speed it up, so the slower slices say more about them than about
    the program."""
    n_slices = max(int(window / SERVE_SLICE_S), 1)
    width = window / n_slices
    slices: list[list] = [[] for _ in range(n_slices)]
    for s in samples:
        slices[min(int((s.done - t0) / width), n_slices - 1)].append(s)
    kept: list = []
    n_kept = 0
    for sl in sorted((sl for sl in slices if sl),
                     key=lambda sl: statistics.median(s.latency for s in sl)):
        if len(kept) >= SERVE_QUIET_RESPONSES:
            break
        kept += sl
        n_kept += 1
    return kept, n_kept * width


def run_offline(args, spec, first_inputs, tally: Tally) -> dict:
    """The timed public call on a fresh dataset each time, until
    ``--seconds`` have passed; the fastest call is reported.

    Neighbours on the shared host slow this machine down by 1.4x and
    more for tens of seconds at a time and never speed it up, so the
    fastest of the run's calls is the one that says most about the
    program; the median of six to nine calls moves with the host."""
    import workloads

    started = time.perf_counter()
    rep = 0
    while rep == 0 or time.perf_counter() - started < args.seconds:
        inputs = first_inputs if rep == 0 else workloads.load(
            spec, workloads.rep_seed(args.seed, rep)
        )
        result = tally.call(spec, inputs, args.trace)
        if rep == 0:
            # Later calls add what the garbage collector has not yet
            # freed, which differs from run to run.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, problems = workloads.check_op(spec, inputs, result)
        tally.attempted += attempted
        tally.problems += problems
        rep += 1
    per_call = tally.attempted // rep
    wall = min(tally.walls)
    print(f"# {rep} timed calls of {per_call} operation(s) each, (s): "
          + ", ".join(f"{w:.3f}" for w in tally.walls))
    print(f"# wall_s is the fastest of them; qps, latency_p50_ms and "
          f"latency_p95_ms restate it (median call {statistics.median(tally.walls):.3f} s)")
    return {
        "wall_s": wall,
        "qps": per_call / wall,
        "latency_p50_ms": 1e3 * wall,
        "latency_p95_ms": 1e3 * wall,
        "peak_rss_mb": peak_rss_mb,
    }


def run_serve(args, spec, inputs, server, tally: Tally) -> dict:
    """Warm up, then one closed-loop window of ``--seconds``, of which
    the quiet part is reported; afterwards the first requests are
    placed offline and compared."""
    import serving
    import workloads

    sources = [workloads.serve_query_source(inputs, args.seed, client)
               for client in range(N_CLIENTS)]
    serving.run_clients(server.port, sources, min(SERVE_WARM_UP_S, args.seconds), 0)
    before = serving.Scrape.take(server)
    t0 = time.perf_counter()
    per_client = serving.run_clients(
        server.port, sources, args.seconds, workloads.RECOMPUTED_PER_CALL
    )
    window = time.perf_counter() - t0
    after = serving.Scrape.take(server)
    peak_rss_mb = server.peak_rss_mb()

    samples = [s for client in per_client for s in client]
    tally.attempted = len(samples)
    for s in samples:
        if s.status != 200:
            tally.problems.append(f"{s.name}: HTTP {s.status} {s.body[:200]!r}")
        elif s.body and (why := serving.malformed(s.body, s.name)):
            tally.problems.append(why)
    good = [s for s in samples if s.status == 200]
    quiet, quiet_s = quiet_slices(good, t0, window)
    latencies = [s.latency for s in quiet]
    tail = tail_percentile(len(latencies))
    print(f"# closed loop, {N_CLIENTS} clients, {len(good)} responses in {window:.2f} s "
          f"(whole window: {len(good) / window:.2f} 1/s, "
          f"p50 {1e3 * statistics.median(s.latency for s in good):.1f} ms)")
    print(f"# reported: the {len(latencies)} responses of the quiet {quiet_s:.1f} s; "
          f"latency_p95_ms is p{tail} of them")
    e2e = {
        "wall_s": statistics.median(latencies),
        "qps": len(latencies) / quiet_s,
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_p95_ms": 1e3 * percentile(latencies, tail),
        "peak_rss_mb": peak_rss_mb,
    }

    # The first responses against offline placement of the same query;
    # on traced runs these calls also give the span-derived lanes.
    place = replace(spec, kind="place")
    for s in per_client[0][: workloads.RECOMPUTED_PER_CALL]:
        if s.status != 200:
            continue
        one = replace(inputs, dataset=replace(inputs.dataset, queries={s.name: s.sequence}))
        result = tally.call(place, one, args.trace)
        tally.problems += workloads.check_placement(one, s.name, result[0], True)
        tally.problems += serving.differs_from_offline(
            s, result, one.dataset.newick, workloads.RELATIVE_LNL
        )
    tally.server_lanes = serving.server_lanes(before, after, window, good)
    return e2e


def run_workload(args) -> int:
    import serving

    shm_before = shm_segments()
    spec, inputs, server, setup_main = set_up(args)
    tally = Tally()
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_main}))
            return 0
        describe_environment()
        if server is None:
            e2e = run_offline(args, spec, inputs, tally)
        else:
            e2e = run_serve(args, spec, inputs, server, tally)
    finally:
        if server is not None:
            server.close()
    setups = [setup_main] + child_setups(args)
    print(f"# set-up samples (s): {', '.join(f'{s:.3f}' for s in setups)}")
    e2e["setup_s"] = statistics.median(setups)
    per_layer = {}
    if args.trace:
        per_layer = tally.per_layer()
        per_layer.update(tally.server_lanes or serving.NO_SERVER)
    leaked = sorted(shm_segments() - shm_before)
    if leaked:
        tally.problems.append(f"leaked /dev/shm segments: {leaked}")

    doc = declared()
    section = doc["per_layer"] if args.trace else doc["end_to_end"]
    values = {**e2e, **per_layer}
    units = {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}
    for name, value in values.items():
        print(f"{args.workload:14s} {name:44s} {value:>14.6g} {units[name]}")
    failed = min(len(tally.problems), tally.attempted)
    print(f"{args.workload:14s} {'failed_frac':44s} "
          f"{failed / tally.attempted:>14.6g} ratio ({failed} of {tally.attempted})")
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in section},
    }))
    return 0


# ----------------------------------------------------------------------
# all workloads, each in a fresh child process, one after another
# ----------------------------------------------------------------------
def run_all(args) -> int:
    status = 0
    for workload in (w["name"] for w in declared()["workloads"]):
        for traced in ([0] if args.no_trace else [0, 1]):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(traced)] + ["--smoke"] * args.smoke
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            lines = done.stdout.splitlines()
            print(f"== {workload} ({'traced' if traced else 'untraced'})")
            print("\n".join(lines[:-1]))
            if done.returncode != 0 or not json.loads(lines[-1])["correct"]:
                print(f"FAILED {workload}")
                status = 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default: run_seconds "
                             "of BENCHMARK.json; 0.5 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes")
    parser.add_argument("--no-trace", action="store_true",
                        help="all workloads: skip the traced pass")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds, exit")
    args = parser.parse_args()
    hygiene()
    if args.seconds is None:
        args.seconds = 0.5 if args.smoke else declared()["run_seconds"]
    if args.workload is None:
        return run_all(args)
    if args.workload not in {w["name"] for w in declared()["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
