"""Subprocess, HTTP and load-generation helpers for untraced measurement.

Everything here drives the real command line (``python -m repro ...``) in
child processes and times it from outside, so tracing never touches the
end-to-end figures.
"""

from __future__ import annotations

import http.client
import os
import re
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from perfbench.inputs import Query

#: Seconds between polls of a running sweep's metrics log.
POLL_S = 0.005

#: Upper bound on any single child process; a hang fails the run.
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The program under test failed in a way that invalidates the run."""


class Harness:
    """Paths and environment shared by every child process of one run.

    Everything the run writes stays under ``.bench_build`` in the checkout:
    ``tmp`` persists across runs (it caches the compiled flip-loop kernel
    and the RNG tables, which the library keys by source hash) and the
    per-run work directory is removed when the run ends.
    """

    def __init__(self, root: Path, run_id: str) -> None:
        self.root = root
        self.tmp = root / ".bench_build" / "tmp"
        self.work = root / ".bench_build" / "perfbench" / run_id
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(self.tmp))
        self.env.pop("REPRO_BACKEND", None)

    def repro(self, *args: str) -> list[str]:
        """Command line of ``python -m repro ARGS``."""
        return [sys.executable, "-m", "repro", *args]

    def spawn_to_exit(self, argv: Sequence[str]) -> float:
        """Wall seconds from spawning ``argv`` to its exit; non-zero exit raises."""
        start = time.perf_counter()
        proc = subprocess.run(
            list(argv), env=self.env, cwd=self.root, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
        )
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"{argv[2:4]} exited {proc.returncode}: {proc.stderr.decode()[-800:]}")
        return elapsed


def stop_resource_tracker() -> None:
    """Stop and reap the shared-memory resource tracker, if this process started one.

    In-process pool runs and shared-memory transfers start it implicitly;
    stopping it here means the run leaves no process behind.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def peak_child_rss_mb() -> float:
    """Largest resident set of any waited-for descendant so far, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def tree_peak_rss_mb(pid: int) -> float:
    """Largest peak resident set (``VmHWM``) of ``pid`` and its descendants, in MB."""
    peak_kb = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            with open(f"/proc/{current}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children") as children:
                    pending.extend(int(child) for child in children.read().split())
        except (OSError, ValueError):
            continue
    return peak_kb / 1024.0


@dataclass
class SweepRound:
    """One ``repro sweep`` invocation timed from spawn to exit."""

    wall_s: float
    #: Seconds from spawn until each newly recorded cell's line landed.
    completions: list[float]
    #: Largest resident set any process of the sweep reached, in MB.
    peak_rss_mb: float


def run_sweep_round(
    harness: Harness, argv: Sequence[str], metrics_path: Path, log: Path
) -> SweepRound:
    """Run one sweep, noting when each new ``metrics.jsonl`` line appears.

    Every tenth poll also samples the peak resident set of the sweep's
    process tree (CLI parent and pool workers).
    """
    offset = metrics_path.stat().st_size if metrics_path.exists() else 0
    completions: list[float] = []
    peak_rss = 0.0
    polls = 0
    with open(log, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(
            list(argv), env=harness.env, cwd=harness.root,
            stdout=subprocess.DEVNULL, stderr=stderr,
        )
        try:
            while True:
                now = time.perf_counter()
                exited = proc.poll() is not None
                try:
                    size = metrics_path.stat().st_size
                except FileNotFoundError:
                    size = offset
                if size > offset:
                    with open(metrics_path, "rb") as handle:
                        handle.seek(offset)
                        chunk = handle.read(size - offset)
                    whole = chunk.rfind(b"\n") + 1
                    completions.extend([now - start] * chunk[:whole].count(b"\n"))
                    offset += whole
                if exited:
                    break
                if now - start > CHILD_TIMEOUT_S:
                    raise BenchError(f"sweep still running after {CHILD_TIMEOUT_S}s")
                if polls % 10 == 0:
                    peak_rss = max(peak_rss, tree_peak_rss_mb(proc.pid))
                polls += 1
                time.sleep(POLL_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"repro sweep exited {proc.returncode}: {log.read_text()[-800:]}")
    return SweepRound(now - start, completions, peak_rss)


def http_get(port: int, path: str, timeout: float = 60.0) -> tuple[int, bytes]:
    """One GET against the local service; returns status and body."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Server:
    """A ``repro serve`` child process on an ephemeral port."""

    def __init__(self, harness: Harness, args: Sequence[str], log: Path) -> None:
        self.harness = harness
        self.args = list(args)
        self.log = log
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        """Spawn the server; return seconds from spawn to the first ``/readyz`` 200."""
        with open(self.log, "ab") as stderr:
            start = time.perf_counter()
            self.proc = subprocess.Popen(
                self.harness.repro("serve", "--port", "0", *self.args),
                env=self.harness.env, cwd=self.harness.root,
                stdout=subprocess.PIPE, stderr=stderr,
            )
        banner = self.proc.stdout.readline().decode()
        match = re.search(r"http://[^:\s]+:(\d+)", banner)
        if match is None:
            self.stop()
            raise BenchError(f"repro serve did not start: {self.log.read_text()[-800:]}")
        self.port = int(match.group(1))
        while True:
            try:
                status, _ = http_get(self.port, "/readyz", timeout=5.0)
            except OSError:
                status = 0
            if status == 200:
                return time.perf_counter() - start
            if self.proc.poll() is not None or time.perf_counter() - start > 60.0:
                self.stop()
                raise BenchError("repro serve never became ready")
            time.sleep(0.002)

    def stop(self) -> None:
        """Drain the server with SIGTERM and wait for it to exit."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


@dataclass
class Sample:
    """One request of a load phase."""

    query: Query
    status: int
    latency_s: float
    #: How late the request was sent relative to its due time (open loop).
    late_s: float
    body: bytes


def _send(port: int, query: Query) -> tuple[int, bytes]:
    """Send one query; a transport error becomes status 0."""
    try:
        return http_get(port, query.path())
    except (OSError, http.client.HTTPException) as exc:
        return 0, repr(exc).encode()


def closed_loop(
    port: int, streams: Sequence[Sequence[Query]], seconds: float
) -> tuple[list[Sample], float]:
    """One client thread per stream, each sending as soon as its last reply lands.

    Returns the samples and the phase's wall seconds.
    """
    samples: list[list[Sample]] = [[] for _ in streams]
    start = time.perf_counter()
    deadline = start + seconds

    def client(stream: Sequence[Query], out: list[Sample]) -> None:
        for query in stream:
            sent = time.perf_counter()
            if sent >= deadline:
                return
            status, body = _send(port, query)
            out.append(Sample(query, status, time.perf_counter() - sent, 0.0, body))

    threads = [threading.Thread(target=client, args=(s, o)) for s, o in zip(streams, samples)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    return [sample for out in samples for sample in out], elapsed


def open_loop(port: int, stream: Sequence[Query], rate: float, threads: int = 2) -> list[Sample]:
    """Send ``stream`` on a fixed schedule of ``rate`` requests per second.

    Request ``i`` is due at ``start + i / rate``; its latency runs from that
    due time, so a stall also charges the requests queued behind it.
    """
    samples: list[Optional[Sample]] = [None] * len(stream)
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.05

    def sender() -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(stream):
                return
            due = start + index / rate
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            sent = time.perf_counter()
            status, body = _send(port, stream[index])
            latency = time.perf_counter() - due
            samples[index] = Sample(stream[index], status, latency, sent - due, body)

    workers = [threading.Thread(target=sender) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return [sample for sample in samples if sample is not None]
