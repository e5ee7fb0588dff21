"""Regenerate the committed sweep fixture store under ``tests/data/``.

The fixture (``tests/data/sweep_fixture_store/``) is a tiny but complete
artifact store — ``manifest.json``, ``metrics.jsonl``, ``summary.json`` —
committed to the repository so CI can run ``repro reproduce`` against a
store it did not itself create: the self-check asserts that today's engine
still regenerates, bit for bit, rows recorded by an earlier build.  A diff
in this directory is therefore a *signal*, never noise: it means the
simulation's row-determining behaviour changed and the store format's
reproducibility contract needs a deliberate decision.

Usage::

    PYTHONPATH=src python tools/make_fixture_store.py [--check]

``--check`` re-executes the committed store's cells from its manifest
(``reproduce_store``: bitwise comparison, wall-clock columns aside) and
re-derives ``summary.json`` from the committed rows, exiting 1 on any drift
without touching the committed files.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.config import ModelConfig  # noqa: E402
from repro.experiments.parallel import run_sweep_parallel  # noqa: E402
from repro.experiments.spec import SweepSpec  # noqa: E402

FIXTURE_DIR = REPO_ROOT / "tests" / "data" / "sweep_fixture_store"


def fixture_sweep() -> SweepSpec:
    """The frozen sweep the fixture records — change it only deliberately."""
    return SweepSpec(
        name="fixture",
        base_config=ModelConfig.square(side=12, horizon=1, tau=0.3),
        taus=(0.3, 0.45),
        densities=(0.4, 0.6),
        n_replicates=2,
        seed=20260808,
    )


def build_store(directory: Path) -> None:
    """Run the fixture sweep with checkpointing into ``directory``.

    The rows come from the scalar engine (``ensemble_size=1``), the oracle
    the ensemble is tested against, on every host; the manifest records
    ``"scalar"`` as their backend.
    """
    run_sweep_parallel(
        fixture_sweep(), workers=1, ensemble_size=1, checkpoint_dir=directory
    )


def check() -> int:
    """Re-execute the committed fixture and assert nothing drifted.

    Two independent probes: ``reproduce_store`` reruns every cell from the
    committed manifest and compares rows bitwise (wall-clock columns
    excluded — they are the one honest source of run-to-run variation), and
    ``write_summary`` on a copy of the committed rows must reproduce the
    committed ``summary.json`` byte for byte.
    """
    import json

    from repro.experiments.checkpoint import write_summary
    from repro.serving import reproduce_store

    if not FIXTURE_DIR.exists():
        print(f"committed fixture missing: {FIXTURE_DIR}", file=sys.stderr)
        return 1
    problems = []
    report = reproduce_store(FIXTURE_DIR)
    if not report.ok or report.counts() != {"match": 4}:
        problems.append(
            "reproduce_store did not match every cell: "
            + json.dumps(report.as_dict()["counts"])
        )
        for result in report.results:
            if result.status != "match":
                problems.append(f"  {result.name}: {result.status} {result.diffs}")
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "store"
        shutil.copytree(FIXTURE_DIR, copy)
        (copy / "summary.json").unlink()
        regenerated = write_summary(copy).read_bytes()
        if regenerated != (FIXTURE_DIR / "summary.json").read_bytes():
            problems.append("summary.json is not byte-reproducible from the rows")
    for problem in problems:
        print(f"FIXTURE DRIFT: {problem}", file=sys.stderr)
    if problems:
        print(
            "the engine no longer regenerates the committed store; if this "
            "change is intentional, rerun tools/make_fixture_store.py and "
            "commit the refreshed fixture",
            file=sys.stderr,
        )
        return 1
    print("fixture store reproduces bitwise: OK")
    return 0


def main(argv=None) -> int:
    """Entry point: regenerate the fixture in place, or ``--check`` it."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="re-execute the committed fixture and exit 1 on any drift "
        "instead of overwriting it",
    )
    args = parser.parse_args(argv)
    if args.check:
        return check()
    if FIXTURE_DIR.exists():
        shutil.rmtree(FIXTURE_DIR)
    build_store(FIXTURE_DIR)
    names = sorted(p.name for p in FIXTURE_DIR.iterdir())
    print(f"wrote {FIXTURE_DIR} ({', '.join(names)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
