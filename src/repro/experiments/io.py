"""Persistence of experiment results.

The benchmark harness writes CSV for quick inspection; this module adds a
JSON round-trip that preserves types (ints stay ints, booleans stay booleans)
and a small manifest format bundling a result table with the configuration
and seed information needed to regenerate it.
"""

from __future__ import annotations

import enum
import json
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Union

from repro._version import __version__
from repro.core.config import ModelConfig
from repro.errors import ExperimentError
from repro.experiments.results import ResultTable
from repro.types import FlipRule, SchedulerKind

PathLike = Union[str, Path]


def json_default(value: object) -> object:
    """JSON encoder fallback for numpy scalars and library enums.

    Shared by the table/manifest writers here and the sweep checkpoint
    stream (:mod:`repro.experiments.checkpoint`), so every artifact the
    experiment harness persists coerces exotic values the same way.
    """
    if hasattr(value, "item"):
        return value.item()
    if isinstance(value, enum.Enum):
        return value.value
    raise TypeError(f"cannot serialise {type(value).__name__} to JSON")


#: Backwards-compatible alias (the helper predates its public use).
_json_default = json_default


def save_table(table: ResultTable, path: PathLike) -> Path:
    """Write a result table to ``path`` as a JSON list of row objects."""
    if len(table) == 0:
        raise ExperimentError("cannot save an empty result table")
    path = Path(path)
    with open(path, "w") as handle:
        json.dump(table.rows, handle, indent=2, default=_json_default)
    return path


def load_table(path: PathLike) -> ResultTable:
    """Read a result table previously written by :func:`save_table`."""
    path = Path(path)
    with open(path) as handle:
        rows = json.load(handle)
    if not isinstance(rows, list):
        raise ExperimentError(f"{path} does not contain a JSON list of rows")
    return ResultTable(rows)


def config_to_dict(config: ModelConfig) -> dict[str, object]:
    """Serialise a :class:`ModelConfig` to a plain JSON-friendly dict."""
    data = asdict(config)
    data["scheduler"] = config.scheduler.value
    data["flip_rule"] = config.flip_rule.value
    # Derived fields are recomputed on load.
    data.pop("neighborhood_agents", None)
    data.pop("happiness_threshold", None)
    return data


def config_from_dict(data: dict[str, object]) -> ModelConfig:
    """Inverse of :func:`config_to_dict`."""
    payload = dict(data)
    payload["scheduler"] = SchedulerKind(payload.get("scheduler", "continuous"))
    payload["flip_rule"] = FlipRule(payload.get("flip_rule", "only_if_happy"))
    return ModelConfig(**payload)


def save_manifest(
    path: PathLike,
    table: ResultTable,
    config: Optional[ModelConfig] = None,
    name: str = "experiment",
    seed: Optional[int] = None,
    notes: str = "",
) -> Path:
    """Bundle a result table with its provenance into one JSON file.

    The manifest records the library version, the experiment name, the model
    configuration (if one applies globally), the master seed and free-form
    notes, so a results file found later can be traced back to the code and
    parameters that produced it.
    """
    if len(table) == 0:
        raise ExperimentError("cannot save an empty result table")
    manifest = {
        "format": "repro-experiment-manifest",
        "version": 1,
        "library_version": __version__,
        "name": name,
        "seed": seed,
        "notes": notes,
        "config": config_to_dict(config) if config is not None else None,
        "rows": table.rows,
    }
    path = Path(path)
    with open(path, "w") as handle:
        json.dump(manifest, handle, indent=2, default=_json_default)
    return path


def load_manifest(path: PathLike) -> dict[str, object]:
    """Load a manifest written by :func:`save_manifest`.

    Returns a dict with the original metadata, the ``config`` rebuilt as a
    :class:`ModelConfig` (or ``None``) and the rows as a :class:`ResultTable`.
    """
    path = Path(path)
    with open(path) as handle:
        manifest = json.load(handle)
    if (
        not isinstance(manifest, dict)
        or manifest.get("format") != "repro-experiment-manifest"
    ):
        raise ExperimentError(f"{path} is not a repro experiment manifest")
    result = dict(manifest)
    result["table"] = ResultTable(manifest.get("rows", []))
    config_data = manifest.get("config")
    result["config"] = config_from_dict(config_data) if config_data else None
    return result
