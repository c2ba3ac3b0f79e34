"""``serve_closed``: the placement server as a child process.

The server is started through the public CLI with default flags and is
driven in a closed loop: each client holds one connection and sends its
next request only after the previous reply is read, as placement
pipelines do.  The server is another process, so its layer numbers come
from client-side stage timers, ``/metrics`` and ``/tenants`` scraped
before and after the window, and ``/proc/<pid>/stat``.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

TENANT = "bench"
KEEP_BEST = 5
START_TIMEOUT_S = 120.0
JPLACE_FIELDS = 5  # edge_num, likelihood, like_weight_ratio, distal, pendant


class Server:
    """The ``repro.cli serve`` child; ``close()`` terminates and reaps it."""

    def __init__(self, src_dir: Path, work_dir: Path, fasta: str, newick: str):
        work_dir.mkdir(parents=True, exist_ok=True)
        self._aln = work_dir / f"ref-{os.getpid()}.fasta"
        self._ref = work_dir / f"ref-{os.getpid()}.nwk"
        self._aln.write_text(fasta)
        self._ref.write_text(newick)
        env = dict(os.environ, PYTHONPATH=str(src_dir), PYTHONUNBUFFERED="1")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "0",
             "--ref", str(self._ref), "--aln", str(self._aln), "--name", TENANT],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        self.port = 0
        self.log: list[str] = []

    def wait_listening(self) -> None:
        """Block until the CLI prints its ``listening on`` line."""
        deadline = time.monotonic() + START_TIMEOUT_S
        # The reader thread lets the wait time out on a silent child.
        found = threading.Event()

        def read() -> None:
            for line in self.process.stdout:
                self.log.append(line.rstrip())
                match = re.search(r"listening on http://[^:]+:(\d+)", line)
                if match:
                    self.port = int(match.group(1))
                    found.set()
            found.set()  # EOF: the child died

        threading.Thread(target=read, daemon=True).start()
        found.wait(max(deadline - time.monotonic(), 0.0))
        if not self.port:
            raise RuntimeError("server did not start:\n" + "\n".join(self.log))

    def cpu_seconds(self) -> float:
        fields = Path(f"/proc/{self.process.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def get(self, path: str) -> str:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            return conn.getresponse().read().decode()
        finally:
            conn.close()

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._aln.unlink(missing_ok=True)
        self._ref.unlink(missing_ok=True)


@dataclass
class Sample:
    """One request as the client saw it (seconds)."""

    send: float
    wait: float
    read: float
    status: int
    n_bytes: int
    name: str
    sequence: str
    done: float  # perf_counter when the body had been read
    body: bytes = field(repr=False, default=b"")

    @property
    def latency(self) -> float:
        return self.send + self.wait + self.read


def client_loop(port: int, queries, stop_at: float, keep_bodies: int) -> list[Sample]:
    """Closed loop on one connection until ``stop_at`` (monotonic)."""
    samples: list[Sample] = []
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        while time.perf_counter() < stop_at:
            name, sequence = next(queries)
            payload = json.dumps(
                {"queries": {name: sequence}, "keep_best": KEEP_BEST}
            )
            t0 = time.perf_counter()
            conn.request(
                "POST", f"/tenants/{TENANT}/place", body=payload,
                headers={"Content-Type": "application/json"},
            )
            t1 = time.perf_counter()
            response = conn.getresponse()
            t2 = time.perf_counter()
            body = response.read()
            t3 = time.perf_counter()
            samples.append(
                Sample(
                    t1 - t0, t2 - t1, t3 - t2, response.status, len(body),
                    name, sequence, t3,
                    body if len(samples) < keep_bodies or response.status != 200 else b"",
                )
            )
    finally:
        conn.close()
    return samples


def run_clients(port: int, sources, seconds: float, keep_bodies: int) -> list[list[Sample]]:
    """``len(sources)`` closed-loop clients for ``seconds``."""
    stop_at = time.perf_counter() + seconds
    results: list[list[Sample]] = [[] for _ in sources]
    errors: list[BaseException] = []

    def work(i: int) -> None:
        try:
            results[i] = client_loop(port, sources[i], stop_at, keep_bodies)
        except BaseException as exc:  # re-raised in the caller's thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(sources))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


def malformed(body: bytes, name: str) -> str | None:
    """Why a 200 body is not one jplace placement of ``name``."""
    try:
        doc = json.loads(body)
    except ValueError as exc:
        return f"{name}: body is not JSON ({exc})"
    placements = doc.get("placements")
    if not isinstance(placements, list) or len(placements) != 1:
        return f"{name}: expected one placement entry"
    if placements[0].get("n") != [name]:
        return f"{name}: placement names {placements[0].get('n')}"
    rows = placements[0].get("p")
    if not rows or len(rows) > KEEP_BEST:
        return f"{name}: {0 if not rows else len(rows)} placement rows"
    for row in rows:
        if len(row) != JPLACE_FIELDS or not all(
            isinstance(v, (int, float)) for v in row
        ):
            return f"{name}: malformed row {row}"
    return None


@dataclass
class Scrape:
    """Server-side counters at one instant."""

    latency_sum: float | None
    latency_count: float | None
    batch_sum: float | None
    batch_count: float | None
    batches_run: float | None
    cpu_seconds: float

    @classmethod
    def take(cls, server: Server) -> "Scrape":
        metrics = server.get("/metrics")

        def lane(name: str) -> float | None:
            match = re.search(
                rf"^repro_serve_{TENANT}_{name} (\S+)$", metrics, re.MULTILINE
            )
            return float(match.group(1)) if match else None

        tenants = json.loads(server.get("/tenants")).get("tenants", [])
        info = next((t for t in tenants if t.get("name") == TENANT), {})
        return cls(
            lane("latency_seconds_sum"), lane("latency_seconds_count"),
            lane("batch_queries_sum"), lane("batch_queries_count"),
            info.get("batches_run"), server.cpu_seconds(),
        )


def differs_from_offline(sample: Sample, offline, newick: str, tolerance: float) -> list[str]:
    """The server's rows for one query against the ``place_queries``
    results ``offline`` of the same query."""
    from repro.phylo import Tree
    from repro.search import to_jplace

    want = to_jplace(offline, Tree.from_newick(newick))["placements"][0]["p"]
    got = json.loads(sample.body)["placements"][0]["p"]
    same = len(got) == len(want) and all(
        g[0] == w[0]
        and all(abs(a - b) <= tolerance * max(abs(a), abs(b))
                for a, b in zip(g[1:], w[1:]))
        for g, w in zip(got, want)
    )
    return [] if same else [f"{sample.name}: server rows {got} != offline {want}"]


#: The server lanes on the workloads that start no server.
NO_SERVER = {
    "serve.server_latency_frac": 0.0,
    "serve.batch_mean": 0.0,
    "serve.batches": 0,
    "serve.client_send_frac": 0.0,
    "serve.client_wait_frac": 0.0,
    "serve.client_read_frac": 0.0,
    "serve.response_bytes_mean": 0.0,
    "serve.server_cpu_util": 0.0,
}


def server_lanes(before: Scrape, after: Scrape, window_s: float, good: list[Sample]) -> dict:
    """The ``serve.*`` lanes over the window.  A ``/metrics`` lane the
    server no longer exposes reads zero instead of failing the run."""

    def rate(total: str, count: str) -> float:
        a_sum, b_sum = getattr(after, total), getattr(before, total)
        a_n, b_n = getattr(after, count), getattr(before, count)
        if None in (a_sum, b_sum, a_n, b_n) or a_n == b_n:
            return 0.0
        return (a_sum - b_sum) / (a_n - b_n)

    p50 = statistics.median(s.latency for s in good)

    def stage(attr: str) -> float:
        return statistics.median(getattr(s, attr) for s in good) / p50

    batches = (
        0 if None in (after.batches_run, before.batches_run)
        else int(after.batches_run - before.batches_run)
    )
    return {
        "serve.server_latency_frac":
            rate("latency_sum", "latency_count") / statistics.fmean(s.latency for s in good),
        "serve.batch_mean": rate("batch_sum", "batch_count"),
        "serve.batches": batches,
        "serve.client_send_frac": stage("send"),
        "serve.client_wait_frac": stage("wait"),
        "serve.client_read_frac": stage("read"),
        "serve.response_bytes_mean": statistics.fmean(s.n_bytes for s in good),
        "serve.server_cpu_util": (after.cpu_seconds - before.cpu_seconds) / window_s,
    }
