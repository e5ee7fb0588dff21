"""Hot vs cold request throughput of the HTTP query service.

Spins up a real ``repro serve`` endpoint (ephemeral port, threaded stdlib
server) over a synthetic summary store and measures requests/second in two
regimes:

- **hot** — every client hammers the same parameter point, so after the
  first miss the single-flight LRU answers from memory.  This is the
  production steady state and gets an asserted throughput floor.
- **cold** — every request names a distinct point, so each one pays the
  full resolve-and-nearest-lookup path plus cache-insert/evict churn.

Every cell carries one real metrics block (32 metrics x 7 statistics, from
the committed fixture store), so each answer is as large as a real sweep's
and the hot phase times the response encoding that serving actually pays.

The hot/cold ratio is the cache's measured leverage; the exact-accounting
invariant (every request is one hit, miss or coalesce) is asserted over the
live ``/stats`` counters.  ``REPRO_BENCH_QUICK=1`` shrinks the request
counts; the emitted ``BENCH_serve_load.json`` states the regime, counts,
both rates and the hot answer's body size.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.experiments.checkpoint import (
    SUMMARY_FORMAT,
    SUMMARY_NAME,
    load_summary,
)
from repro.experiments.results import ResultTable
from repro.experiments.workloads import bench_quick_mode as quick_mode
from repro.serving import LRUCache, make_server

#: Minimum hot (cache-hit) requests/second.  Deliberately conservative —
#: the stdlib threaded server on a loaded CI runner still clears this by an
#: order of magnitude; the floor exists to catch a pathological regression
#: (e.g. a lock held across the answer path), not to race the hardware.
HOT_RPS_FLOOR = 25.0

#: Concurrent client threads (the server is threaded; exercise that).
CLIENTS = 4

#: The committed sweep store whose first cell lends every synthetic cell
#: its metrics block.
FIXTURE_STORE = (
    Path(__file__).resolve().parents[1] / "tests" / "data"
    / "sweep_fixture_store"
)


def _grid_store(directory, taus, rhos):
    """Fabricate a summary-only store with a ``len(taus) x len(rhos)`` grid."""
    metrics = load_summary(FIXTURE_STORE)["cells"][0]["metrics"]
    cells = []
    for i, tau in enumerate(taus):
        for j, rho in enumerate(rhos):
            index = i * len(rhos) + j
            cells.append(
                {
                    "index": index,
                    "name": f"cell{index}",
                    "spec_hash": f"hash{index:06d}",
                    "params": {"tau": tau, "w": 2, "rho": rho},
                    "n_replicates": 2,
                    "metrics": metrics,
                    "failure": None,
                }
            )
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "format": SUMMARY_FORMAT,
        "version": 1,
        "n_cells": len(cells),
        "n_summarized": len(cells),
        "n_failed": 0,
        "n_missing": 0,
        "complete": True,
        "cells": cells,
    }
    (directory / SUMMARY_NAME).write_text(json.dumps(payload))
    return directory


def _measure(base: str, paths: list[str]) -> tuple[float, int]:
    """Issue every path from :data:`CLIENTS` threads.

    Returns requests/sec and the largest body received.
    """
    def fetch(path: str) -> int:
        with urllib.request.urlopen(f"{base}{path}", timeout=30) as response:
            assert response.status == 200
            return len(response.read())

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
        sizes = list(pool.map(fetch, paths))
    return len(paths) / (time.perf_counter() - start), max(sizes)


def bench_serve_load(benchmark, emit, tmp_path):
    """Hot vs cold req/sec over a live server, hot floor asserted."""
    hot_n = 200 if quick_mode() else 2000
    cold_n = 100 if quick_mode() else 500
    taus = [round(0.2 + 0.03 * i, 4) for i in range(10)]
    rhos = [round(0.3 + 0.03 * j, 4) for j in range(10)]
    store = _grid_store(tmp_path / "store", taus, rhos)

    server = make_server(store, port=0, cache=LRUCache(256))
    accept = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.05), daemon=True
    )
    accept.start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"

    def run() -> ResultTable:
        hot_paths = ["/query?tau=0.29&rho=0.39&w=2"] * hot_n
        cold_paths = [
            f"/query?tau={0.2 + 0.6 * k / cold_n:.6f}"
            f"&rho={0.3 + 0.4 * k / cold_n:.6f}&w=2"
            for k in range(cold_n)
        ]
        hot_rps, body_bytes = _measure(base, hot_paths)
        cold_rps, _ = _measure(base, cold_paths)

        with urllib.request.urlopen(f"{base}/stats", timeout=30) as response:
            stats = json.loads(response.read())
        cache = stats["cache"]
        # exact accounting: every /query classified exactly once
        assert (
            cache["hits"] + cache["misses"] + cache["coalesced"]
            == hot_n + cold_n
        )
        assert cache["hits"] + cache["coalesced"] >= hot_n - 1
        assert cache["misses"] >= cold_n  # every cold point is distinct

        table = ResultTable()
        table.add_row(phase="hot", requests=hot_n, rps=hot_rps)
        table.add_row(phase="cold", requests=cold_n, rps=cold_rps)
        benchmark.extra_info["body_bytes"] = body_bytes
        return table

    try:
        table = benchmark.pedantic(run, rounds=1, iterations=1)
    finally:
        server.shutdown()
        server.server_close()
        accept.join(timeout=5)

    by_phase = {row["phase"]: row for row in table.rows}
    hot_rps = float(by_phase["hot"]["rps"])
    cold_rps = float(by_phase["cold"]["rps"])
    benchmark.extra_info["hot_rps"] = hot_rps
    benchmark.extra_info["cold_rps"] = cold_rps
    benchmark.extra_info["hot_over_cold"] = hot_rps / cold_rps
    benchmark.extra_info["clients"] = CLIENTS
    benchmark.extra_info["quick_mode"] = quick_mode()
    emit("serve_load", table, benchmark)
    assert hot_rps >= HOT_RPS_FLOOR, (
        f"hot-path throughput {hot_rps:.1f} req/s fell below the "
        f"{HOT_RPS_FLOOR} req/s floor"
    )
