"""Tests for experiment result persistence (JSON tables and manifests)."""

import json

import pytest

from repro.core.config import ModelConfig
from repro.errors import ExperimentError
from repro.experiments.io import (
    config_from_dict,
    config_to_dict,
    load_manifest,
    load_table,
    save_manifest,
    save_table,
)
from repro.experiments.results import ResultTable
from repro.types import FlipRule, SchedulerKind


@pytest.fixture
def table() -> ResultTable:
    table = ResultTable()
    table.add_row(tau=0.45, replicate=0, size=12.5, terminated=True)
    table.add_row(tau=0.45, replicate=1, size=14.0, terminated=False)
    return table


class TestTableRoundtrip:
    def test_save_and_load(self, table, tmp_path):
        path = save_table(table, tmp_path / "rows.json")
        loaded = load_table(path)
        assert len(loaded) == 2
        assert loaded[0]["size"] == 12.5
        assert loaded[1]["terminated"] is False

    def test_types_preserved(self, table, tmp_path):
        loaded = load_table(save_table(table, tmp_path / "rows.json"))
        assert isinstance(loaded[0]["replicate"], int)
        assert isinstance(loaded[0]["size"], float)
        assert isinstance(loaded[0]["terminated"], bool)

    def test_numpy_scalars_serialised(self, tmp_path):
        import numpy as np

        table = ResultTable()
        table.add_row(value=np.float64(1.5), count=np.int64(3))
        loaded = load_table(save_table(table, tmp_path / "np.json"))
        assert loaded[0]["value"] == 1.5
        assert loaded[0]["count"] == 3

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(ExperimentError):
            save_table(ResultTable(), tmp_path / "empty.json")

    def test_load_rejects_non_list(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"not": "a list"}))
        with pytest.raises(ExperimentError):
            load_table(path)


class TestConfigRoundtrip:
    def test_roundtrip_preserves_parameters(self):
        config = ModelConfig.square(
            side=30,
            horizon=2,
            tau=0.45,
            density=0.6,
            scheduler=SchedulerKind.DISCRETE,
            flip_rule=FlipRule.ALWAYS,
        )
        rebuilt = config_from_dict(config_to_dict(config))
        assert rebuilt == config

    def test_dict_is_json_serialisable(self):
        config = ModelConfig.square(side=30, horizon=2, tau=0.45)
        json.dumps(config_to_dict(config))


class TestManifest:
    def test_manifest_roundtrip(self, table, tmp_path):
        config = ModelConfig.square(side=30, horizon=2, tau=0.45)
        path = save_manifest(
            tmp_path / "manifest.json",
            table,
            config=config,
            name="unit-test",
            seed=7,
            notes="round trip",
        )
        manifest = load_manifest(path)
        assert manifest["name"] == "unit-test"
        assert manifest["seed"] == 7
        assert manifest["config"] == config
        assert len(manifest["table"]) == 2
        assert manifest["library_version"]

    def test_manifest_without_config(self, table, tmp_path):
        path = save_manifest(tmp_path / "noconfig.json", table)
        manifest = load_manifest(path)
        assert manifest["config"] is None

    def test_manifest_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "foreign.json"
        path.write_text(json.dumps({"rows": []}))
        with pytest.raises(ExperimentError):
            load_manifest(path)

    @pytest.mark.parametrize("document", ["[]", "7", '"x"', "null"])
    def test_manifest_rejects_non_object_json(self, tmp_path, document):
        path = tmp_path / "scalar.json"
        path.write_text(document)
        with pytest.raises(ExperimentError, match="not a repro experiment manifest"):
            load_manifest(path)

    def test_manifest_rejects_empty_table(self, tmp_path):
        with pytest.raises(ExperimentError):
            save_manifest(tmp_path / "empty.json", ResultTable())
