"""Machine-readable benchmark records.

Every bench's quick mode (and full mode alike) emits one
``benchmarks/results/BENCH_<name>.json`` alongside its CSV: a timestamped
record of the run's configuration and headline metrics (speedups,
throughputs) plus the host name, the interpreter/numpy versions and the
host's default flip-loop backend.  CI uploads these files as artifacts, so
the perf trajectory of the hot paths is tracked PR over PR without scraping
pytest output.

:func:`record_benchmark` is called automatically by the ``emit`` fixture in
``benchmarks/conftest.py`` — benchmarks only need to put their headline
numbers into ``benchmark.extra_info`` *before* calling ``emit`` — and can
also be called directly for records with richer config payloads.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

RESULTS_DIR = Path(__file__).parent / "results"


def _json_safe(value):
    """Best-effort coercion of numpy scalars/paths to JSON-native values."""
    if isinstance(value, dict):
        return {str(key): _json_safe(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(entry) for entry in value]
    if isinstance(value, Path):
        return str(value)
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def record_benchmark(
    name: str,
    metrics: Optional[dict] = None,
    config: Optional[dict] = None,
    quick_mode: Optional[bool] = None,
) -> Path:
    """Write ``benchmarks/results/BENCH_<name>.json`` and return its path.

    ``metrics`` carries the headline numbers (speedups, rates), ``config``
    the benchmark parameters that produced them.  ``quick_mode`` defaults to
    the ``REPRO_BENCH_QUICK`` environment switch the benchmarks honour, so a
    record always states which regime produced it.  The write is atomic
    (temp file + rename) so a crashed bench never leaves a torn record.
    """
    if quick_mode is None:
        from repro.experiments.workloads import bench_quick_mode

        quick_mode = bench_quick_mode()
    import numpy

    from repro.core.backends.registry import default_backend_name

    payload = {
        "name": name,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "quick_mode": bool(quick_mode),
        "config": _json_safe(config or {}),
        "metrics": _json_safe(metrics or {}),
        "hostname": platform.node(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        # The flip-loop backend ``auto`` resolves to on this host — the one
        # a default run would measure.  Benches that pin a backend also put
        # it in ``config``; this field records the host's capability.
        "backend": default_backend_name(),
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    descriptor, tmp = tempfile.mkstemp(dir=RESULTS_DIR, suffix=".json")
    try:
        with os.fdopen(descriptor, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        # A failed dump (unserialisable metric, full disk) must not leave
        # the mkstemp file behind in benchmarks/results/.
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
