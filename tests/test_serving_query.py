"""Differential tests for the query layer: parsing, distance, interpolation.

The hypothesis properties pin the lookup semantics the docs promise:

- an exact-match query returns the stored aggregates *bit-for-bit*;
- every bilinearly interpolated metric is bounded by the extremes of the
  corner cells it blends (convex combination);
- answers are deterministic under any shuffling of the store's cell order
  (lookup depends on the cell *set*, never on storage order).

Synthetic stores are fabricated by writing a ``summary.json`` directly —
the query layer reads only the summary, so no simulation is needed.
"""

import json
import math
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ModelConfig
from repro.errors import QueryMiss, ServingDegradationWarning, ServingError
from repro.experiments.checkpoint import SUMMARY_FORMAT, SUMMARY_NAME
from repro.experiments.io import json_default
from repro.experiments.parallel import run_sweep_parallel
from repro.experiments.spec import SweepSpec
from repro.serving import (
    ArtifactStore,
    ComputeGate,
    LRUCache,
    QueryEngine,
    parse_query,
)
from repro.serving import query as query_module
from repro.serving.query import axis_scales, normalized_distance


def make_cell(index, tau, w, rho, **metrics):
    """One synthetic summary cell with a ``score`` metric per kwargs."""
    return {
        "index": index,
        "name": f"cell{index}",
        "spec_hash": f"hash{index:04d}",
        "params": {"tau": tau, "w": w, "rho": rho},
        "n_replicates": 2,
        "metrics": {
            name: {
                "count": 2.0,
                "mean": value,
                "std": 0.0,
                "min": value,
                "max": value,
                "ci_low": value,
                "ci_high": value,
            }
            for name, value in metrics.items()
        },
        "failure": None,
    }


def write_store(directory, cells):
    """Fabricate a store directory holding only a ``summary.json``."""
    directory.mkdir(exist_ok=True)
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


def grid_cells(taus=(0.3, 0.5), rhos=(0.4, 0.6), w=2, values=None):
    """A full (tau, rho) grid at one horizon, with given ``score`` values."""
    cells = []
    for i, tau in enumerate(taus):
        for j, rho in enumerate(rhos):
            index = i * len(rhos) + j
            value = values[index] if values is not None else float(index)
            cells.append(make_cell(index, tau, w, rho, score=value))
    return cells


class TestParseQuery:
    def test_parses_canonical_string(self):
        assert parse_query("rho=0.4,tau=0.55,w=2") == {
            "rho": 0.4,
            "tau": 0.55,
            "w": 2.0,
        }

    def test_aliases_and_whitespace(self):
        assert parse_query(" density=0.4 , HORIZON=2 ") == {"rho": 0.4, "w": 2.0}
        assert parse_query("p=0.5") == {"rho": 0.5}

    def test_rejects_unknown_axis(self):
        with pytest.raises(ServingError, match="unknown query axis"):
            parse_query("sigma=1")

    def test_rejects_duplicate_axis_even_via_alias(self):
        with pytest.raises(ServingError, match="more than once"):
            parse_query("rho=0.4,density=0.5")

    def test_rejects_non_numeric_and_malformed(self):
        with pytest.raises(ServingError, match="not a number"):
            parse_query("tau=abc")
        with pytest.raises(ServingError, match="axis=value"):
            parse_query("tau")
        with pytest.raises(ServingError, match="empty query"):
            parse_query("  ,  ")


class TestResolvePoint:
    def test_fills_axis_pinned_by_store(self, tmp_path):
        store = write_store(tmp_path / "s", grid_cells())  # single w=2
        engine = QueryEngine(store)
        assert engine.resolve_point("rho=0.4,tau=0.3") == {
            "rho": 0.4,
            "tau": 0.3,
            "w": 2.0,
        }

    def test_ambiguous_axis_is_an_error(self, tmp_path):
        cells = grid_cells(w=1) + [
            make_cell(10, 0.3, 2, 0.4, score=1.0)
        ]  # two horizons
        engine = QueryEngine(write_store(tmp_path / "s", cells))
        with pytest.raises(ServingError, match="omits axis 'w'"):
            engine.resolve_point("rho=0.4,tau=0.3")

    def test_dict_queries_accept_aliases(self, tmp_path):
        engine = QueryEngine(write_store(tmp_path / "s", grid_cells()))
        point = engine.resolve_point({"density": 0.4, "tau": 0.3, "horizon": 2})
        assert point == {"rho": 0.4, "tau": 0.3, "w": 2.0}

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("axis", ["rho", "tau", "w"])
    def test_non_finite_values_are_rejected(self, tmp_path, axis, value):
        """Both query forms refuse ``nan``/``inf`` on every axis.

        A ``nan`` distance never exceeds ``max_distance`` and an infinite
        horizon cannot become an int, so neither may reach the lookup.
        """
        engine = QueryEngine(
            write_store(tmp_path / "s", grid_cells()), max_distance=0.5
        )
        point = {"rho": 0.4, "tau": 0.3, "w": 2.0}
        text = ",".join(
            f"{name}={value if name == axis else number}"
            for name, number in point.items()
        )
        for query in (text, dict(point, **{axis: float(value)})):
            with pytest.raises(ServingError, match="not finite"):
                engine.resolve_point(query)
            with pytest.raises(ServingError, match="not finite"):
                engine.answer(query)


class TestDistanceMetric:
    def test_scales_are_per_axis_ranges(self):
        cells = grid_cells(taus=(0.2, 0.6), rhos=(0.4, 0.9), w=2)
        assert axis_scales(cells) == {
            "tau": pytest.approx(0.4),
            "rho": pytest.approx(0.5),
            "w": 1.0,  # degenerate axis falls back to 1
        }

    def test_distance_is_normalized_euclidean(self):
        cells = grid_cells(taus=(0.2, 0.6), rhos=(0.4, 0.9), w=2)
        scales = axis_scales(cells)
        point = {"tau": 0.4, "rho": 0.4, "w": 2.0}
        d = normalized_distance(point, cells[0]["params"], scales)
        assert d == pytest.approx(math.sqrt((0.2 / 0.4) ** 2))

    def test_nearest_respects_normalization(self, tmp_path):
        # On raw Euclidean distance the w-neighbor (|dw|=1) would lose to
        # the tau-neighbor (|dtau|=0.19); normalized by axis ranges the
        # tau-neighbor is nearer (0.19/0.2 < 1/1... actually equal scale
        # check): tau range 0.2 -> 0.95 units; w range 1 -> 1 unit.
        cells = [
            make_cell(0, 0.30, 2, 0.5, score=1.0),
            make_cell(1, 0.50, 2, 0.5, score=2.0),
            make_cell(2, 0.30, 3, 0.5, score=3.0),
        ]
        engine = QueryEngine(write_store(tmp_path / "s", cells))
        answer = engine.answer("tau=0.49,rho=0.5,w=2")
        assert answer["source"] == "nearest"
        assert answer["cells"][0]["index"] == 1

    def test_max_distance_bounds_the_answer(self, tmp_path):
        engine = QueryEngine(
            write_store(tmp_path / "s", grid_cells()), max_distance=0.05
        )
        with pytest.raises(QueryMiss, match="beyond the allowed"):
            engine.answer("tau=0.9,rho=0.9,w=2")

    def test_empty_store_misses(self, tmp_path):
        engine = QueryEngine(write_store(tmp_path / "s", []))
        with pytest.raises(QueryMiss, match="no answerable cells"):
            engine.answer("tau=0.4,rho=0.5,w=2")


class TestAnswerShape:
    def test_exact_answer_carries_provenance(self, tmp_path):
        engine = QueryEngine(write_store(tmp_path / "s", grid_cells()))
        answer = engine.answer("tau=0.3,rho=0.4,w=2")
        assert answer["source"] == "exact"
        assert answer["distance"] == 0.0
        assert answer["cached"] is False
        [cell] = answer["cells"]
        assert cell["spec_hash"] == "hash0000"
        assert cell["weight"] == 1.0

    def test_second_identical_query_is_cached(self, tmp_path):
        engine = QueryEngine(write_store(tmp_path / "s", grid_cells()))
        engine.answer("tau=0.3,rho=0.4,w=2")
        answer = engine.answer("rho=0.4,tau=0.3,w=2")  # reordered spelling
        assert answer["cached"] is True
        stats = engine.stats()["cache"]
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_interpolation_flag_is_part_of_the_key(self, tmp_path):
        engine = QueryEngine(write_store(tmp_path / "s", grid_cells()))
        engine.answer("tau=0.4,rho=0.5,w=2", interpolate=False)
        answer = engine.answer("tau=0.4,rho=0.5,w=2", interpolate=True)
        assert answer["cached"] is False
        assert answer["source"] == "interpolated"


def encoded(answer):
    """``answer`` encoded whole, as ``json.dumps`` encodes it."""
    return json.dumps(answer, default=json_default).encode("utf-8")


@pytest.fixture
def encodes(monkeypatch):
    """Count the engine's answer encodes (calls of ``query._open_json``)."""
    calls = []
    original = query_module._open_json

    def counting(payload):
        calls.append(payload["source"])
        return original(payload)

    monkeypatch.setattr(query_module, "_open_json", counting)
    return calls


class TestAnswerJson:
    """``answer_json`` is ``answer`` encoded, from one encode per entry."""

    @pytest.mark.parametrize(
        "query, interpolate, source",
        [
            ("tau=0.3,rho=0.4,w=2", None, "exact"),
            ("tau=0.4,rho=0.5,w=2", True, "interpolated"),
            ("tau=0.4,rho=0.5,w=2", False, "nearest"),
        ],
    )
    def test_bytes_equal_the_encoded_answer(
        self, tmp_path, query, interpolate, source
    ):
        cells = grid_cells(values=[0.1, 1 / 3, 2.5e-17, 7.0])
        store = write_store(tmp_path / "s", cells)
        served, reference = QueryEngine(store), QueryEngine(store)
        for cached in (False, True):
            body = served.answer_json(query, interpolate=interpolate)
            answer = reference.answer(query, interpolate=interpolate)
            assert (answer["source"], answer["cached"]) == (source, cached)
            assert body == encoded(answer)
        assert served.stats()["cache"] == reference.stats()["cache"]

    def test_a_hot_point_is_encoded_once(self, tmp_path, encodes):
        engine = QueryEngine(write_store(tmp_path / "s", grid_cells()))
        bodies = {engine.answer_json("tau=0.3,rho=0.4,w=2") for _ in range(10)}
        assert encodes == ["exact"]
        assert len(bodies) == 2  # one miss, nine hits: only the flag differs

    def test_answer_encodes_nothing(self, tmp_path, encodes):
        engine = QueryEngine(write_store(tmp_path / "s", grid_cells()))
        engine.answer("tau=0.3,rho=0.4,w=2")
        engine.answer("tau=0.3,rho=0.4,w=2")
        assert encodes == []
        engine.answer_json("tau=0.3,rho=0.4,w=2")
        assert encodes == ["exact"]

    def test_an_evicted_entry_takes_its_encoding_with_it(
        self, tmp_path, encodes
    ):
        engine = QueryEngine(
            write_store(tmp_path / "s", grid_cells()), cache=LRUCache(1)
        )
        engine.answer_json("tau=0.3,rho=0.4,w=2")
        engine.answer_json("tau=0.5,rho=0.6,w=2")  # evicts the first
        body = engine.answer_json("tau=0.3,rho=0.4,w=2")
        assert encodes == ["exact"] * 3
        assert engine.stats()["cache"]["evictions"] == 2
        assert json.loads(body)["cached"] is False

    def test_degraded_answers_are_encoded_on_every_call(
        self, tmp_path, encodes
    ):
        store = write_store(tmp_path / "s", grid_cells())
        options = dict(on_miss="compute", max_distance=0.01)
        served = QueryEngine(store, gate=ComputeGate(limit=1), **options)
        reference = QueryEngine(store, gate=ComputeGate(limit=1), **options)
        served.gate.admit()  # saturated: a miss degrades
        reference.gate.admit()
        for _ in range(2):
            with pytest.warns(ServingDegradationWarning):
                body = served.answer_json("tau=0.9,rho=0.9,w=2")
            with pytest.warns(ServingDegradationWarning):
                answer = reference.answer("tau=0.9,rho=0.9,w=2")
            assert answer["degraded"] is True and answer["cached"] is False
            assert body == encoded(answer)
        assert encodes == ["nearest", "nearest"]
        assert served.gate.stats()["degraded"] == 2
        assert len(served.cache) == 0

    def test_concurrent_first_uses_send_one_body(self, tmp_path):
        """Threads racing on a fresh entry's encode all send its bytes."""
        engine = QueryEngine(write_store(tmp_path / "s", grid_cells()))
        engine.answer("tau=0.3,rho=0.4,w=2")  # cached, not yet encoded
        expected = encoded(engine.answer("tau=0.3,rho=0.4,w=2"))
        start = threading.Barrier(16)
        bodies = []

        def worker():
            start.wait(timeout=10)
            bodies.append(engine.answer_json("tau=0.3,rho=0.4,w=2"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert bodies == [expected] * 16
        assert engine.stats()["cache"]["hits"] == 17


class TestInterpolation:
    def test_midpoint_is_mean_of_corners(self, tmp_path):
        cells = grid_cells(values=[1.0, 2.0, 3.0, 4.0])
        engine = QueryEngine(write_store(tmp_path / "s", cells), interpolate=True)
        answer = engine.answer("tau=0.4,rho=0.5,w=2")
        assert answer["source"] == "interpolated"
        assert answer["metrics"]["score"]["mean"] == pytest.approx(2.5)
        assert sum(c["weight"] for c in answer["cells"]) == pytest.approx(1.0)

    def test_on_grid_line_degenerates_to_linear(self, tmp_path):
        cells = grid_cells(values=[1.0, 2.0, 3.0, 4.0])
        engine = QueryEngine(write_store(tmp_path / "s", cells), interpolate=True)
        answer = engine.answer("tau=0.3,rho=0.5,w=2")  # on the tau=0.3 line
        assert answer["source"] == "interpolated"
        assert answer["metrics"]["score"]["mean"] == pytest.approx(1.5)
        assert len(answer["cells"]) == 2  # zero-weight corners dropped

    def test_outside_hull_falls_back_to_nearest(self, tmp_path):
        engine = QueryEngine(
            write_store(tmp_path / "s", grid_cells()), interpolate=True
        )
        answer = engine.answer("tau=0.9,rho=0.9,w=2")
        assert answer["source"] == "nearest"

    def test_wrong_horizon_falls_back_to_nearest(self, tmp_path):
        engine = QueryEngine(
            write_store(tmp_path / "s", grid_cells(w=2)), interpolate=True
        )
        answer = engine.answer("tau=0.4,rho=0.5,w=3")
        assert answer["source"] == "nearest"

    def test_ragged_grid_missing_corner_falls_back(self, tmp_path):
        cells = grid_cells()[:3]  # drop the (0.5, 0.6) corner
        engine = QueryEngine(write_store(tmp_path / "s", cells), interpolate=True)
        answer = engine.answer("tau=0.4,rho=0.5,w=2")
        assert answer["source"] == "nearest"


finite_metric = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestProperties:
    @given(
        values=st.lists(finite_metric, min_size=4, max_size=4),
        tau_frac=st.floats(min_value=0.0, max_value=1.0),
        rho_frac=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_interpolated_metric_bounded_by_corner_extremes(
        self, tmp_path_factory, values, tau_frac, rho_frac
    ):
        """A bilinear answer never leaves the hull of its corner values."""
        directory = tmp_path_factory.mktemp("prop")
        store = write_store(directory, grid_cells(values=values))
        engine = QueryEngine(store, interpolate=True)
        # clamped lerp: plain a + frac*(b-a) can land one ulp outside the
        # hull, where a nearest-cell fallback is the *correct* answer
        tau = min(0.5, max(0.3, (1 - tau_frac) * 0.3 + tau_frac * 0.5))
        rho = min(0.6, max(0.4, (1 - rho_frac) * 0.4 + rho_frac * 0.6))
        answer = engine.answer({"tau": tau, "rho": rho, "w": 2})
        assert answer["source"] in ("exact", "interpolated")
        mean = answer["metrics"]["score"]["mean"]
        tolerance = 1e-9 * max(1.0, max(abs(v) for v in values))
        assert min(values) - tolerance <= mean <= max(values) + tolerance

    @given(
        values=st.lists(finite_metric, min_size=4, max_size=4),
        order=st.permutations(range(4)),
        interpolate=st.booleans(),
        tau=st.floats(min_value=0.25, max_value=0.55),
        rho=st.floats(min_value=0.35, max_value=0.65),
    )
    @settings(max_examples=60, deadline=None)
    def test_answers_deterministic_under_store_row_shuffling(
        self, tmp_path_factory, values, order, interpolate, tau, rho
    ):
        """Reordering the summary's cell list never changes any answer."""
        cells = grid_cells(values=values)
        shuffled = [cells[i] for i in order]
        base = tmp_path_factory.mktemp("shuffle")
        engine_a = QueryEngine(
            write_store(base / "a", cells), interpolate=interpolate
        )
        engine_b = QueryEngine(
            write_store(base / "b", shuffled), interpolate=interpolate
        )
        query = {"tau": tau, "rho": rho, "w": 2}
        answer_a = engine_a.answer(query)
        answer_b = engine_b.answer(query)
        assert json.dumps(answer_a, sort_keys=True) == json.dumps(
            answer_b, sort_keys=True
        )

    @given(
        values=st.lists(finite_metric, min_size=4, max_size=4),
        cell_index=st.integers(min_value=0, max_value=3),
        interpolate=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_exact_match_returns_stored_aggregates_bit_for_bit(
        self, tmp_path_factory, values, cell_index, interpolate
    ):
        """Querying a grid point returns that cell's metrics unchanged."""
        cells = grid_cells(values=values)
        directory = tmp_path_factory.mktemp("exact")
        engine = QueryEngine(
            write_store(directory, cells), interpolate=interpolate
        )
        params = cells[cell_index]["params"]
        answer = engine.answer(dict(params))
        assert answer["source"] == "exact"
        assert answer["metrics"] == cells[cell_index]["metrics"]


class TestOnMissCompute:
    @pytest.fixture(scope="class")
    def real_store(self, tmp_path_factory):
        """One real single-cell sweep store (compute needs the manifest)."""
        directory = tmp_path_factory.mktemp("real") / "store"
        sweep = SweepSpec(
            name="compute-unit",
            base_config=ModelConfig.square(side=10, horizon=1, tau=0.3),
            taus=(0.3,),
            n_replicates=1,
            seed=5,
        )
        run_sweep_parallel(sweep, workers=1, checkpoint_dir=directory)
        return directory

    def test_error_policy_raises_and_compute_policy_simulates(self, real_store):
        strict = QueryEngine(real_store, max_distance=0.01)
        with pytest.raises(QueryMiss):
            strict.answer("tau=0.42,rho=0.5,w=1")
        computing = QueryEngine(
            real_store, max_distance=0.01, on_miss="compute"
        )
        answer = computing.answer("tau=0.42,rho=0.5,w=1")
        assert answer["source"] == "computed"
        assert answer["metrics"]["final_unhappy_fraction"]["count"] == 1.0

    def test_computed_answers_are_deterministic_and_cached(self, real_store):
        first = QueryEngine(real_store, max_distance=0.01, on_miss="compute")
        second = QueryEngine(real_store, max_distance=0.01, on_miss="compute")
        answer_a = first.answer("tau=0.42,rho=0.5,w=1")
        answer_b = second.answer("tau=0.42,rho=0.5,w=1")
        assert answer_a["metrics"] == answer_b["metrics"]
        again = first.answer("tau=0.42,rho=0.5,w=1")
        assert again["cached"] is True

    def test_computed_answer_json_is_the_encoded_answer(self, real_store):
        served = QueryEngine(real_store, max_distance=0.01, on_miss="compute")
        reference = QueryEngine(
            real_store, max_distance=0.01, on_miss="compute"
        )
        for cached in (False, True):
            body = served.answer_json("tau=0.42,rho=0.5,w=1")
            answer = reference.answer("tau=0.42,rho=0.5,w=1")
            assert (answer["source"], answer["cached"]) == ("computed", cached)
            assert len(answer["metrics"]) > 20
            assert body == encoded(answer)

    def test_computed_answer_is_the_scalar_oracles(self, tmp_path, monkeypatch):
        """A compute runs the default ensemble, one native call per batch,
        and answers exactly what the scalar engine's rows summarise to."""
        from repro.core.backends.cffi_backend import CffiBackend
        from repro.core.backends.registry import (
            resolve_backend_name,
            select_backend_name,
        )
        from repro.experiments.checkpoint import VOLATILE_ROW_COLUMNS
        from repro.experiments.results import ResultTable
        from repro.experiments.runner import run_experiment
        from repro.serving.store import query_spec_for_point

        sweep = SweepSpec(
            name="compute-batches",
            base_config=ModelConfig.square(side=10, horizon=1, tau=0.3),
            taus=(0.3,),
            n_replicates=9,
            seed=8,
        )
        run_sweep_parallel(sweep, workers=1, checkpoint_dir=tmp_path)
        spec = query_spec_for_point(sweep, tau=0.42, rho=0.5, w=1)
        oracle = ResultTable(
            [
                {k: v for k, v in row.items() if k not in VOLATILE_ROW_COLUMNS}
                for row in run_experiment(spec, ensemble_size=1).rows
            ]
        )

        native_calls = []
        capture = CffiBackend._capture

        def counted_capture(backend):
            capture(backend)
            native = backend._run_fn

            def counted(*args):
                native_calls.append(backend.engine.n_replicas)
                return native(*args)

            backend._run_fn = counted

        monkeypatch.setattr(CffiBackend, "_capture", counted_capture)
        engine = QueryEngine(tmp_path, max_distance=0.01, on_miss="compute")
        answer = engine.answer("tau=0.42,rho=0.5,w=1")
        assert answer["source"] == "computed"
        assert answer["metrics"] == oracle.numeric_summary()
        if resolve_backend_name(select_backend_name()) == "cffi":
            assert native_calls == [8, 1]

    def test_loaded_snapshot_computes_without_the_manifest(
        self, real_store, tmp_path
    ):
        import shutil

        directory = tmp_path / "store"
        shutil.copytree(real_store, directory)
        engine = QueryEngine(
            directory, max_distance=0.01, on_miss="compute"
        ).load()
        (directory / "manifest.json").unlink()
        answer = engine.answer("tau=0.42,rho=0.5,w=1")
        assert answer["source"] == "computed"
        # a summary-only store has no manifest to read, and still loads
        summary_only = QueryEngine(write_store(tmp_path / "s", grid_cells()))
        assert summary_only.load().stores[0].manifest is None

    def test_non_integer_horizon_cannot_be_computed(self, real_store):
        engine = QueryEngine(real_store, max_distance=0.01, on_miss="compute")
        with pytest.raises(ServingError, match="non-integer horizon"):
            engine.answer("tau=0.42,rho=0.5,w=1.5")

    def test_store_without_manifest_cannot_compute(self, tmp_path):
        engine = QueryEngine(
            write_store(tmp_path / "s", grid_cells()),
            max_distance=0.01,
            on_miss="compute",
        )
        with pytest.raises(ServingError, match="manifest"):
            engine.answer("tau=0.9,rho=0.9,w=2")

    def test_invalid_on_miss_rejected(self, tmp_path):
        with pytest.raises(ServingError, match="on_miss"):
            QueryEngine(write_store(tmp_path / "s", []), on_miss="explode")

    @pytest.mark.parametrize("bound", [math.nan, -1.0], ids=["nan", "negative"])
    def test_nan_or_negative_max_distance_rejected(self, tmp_path, bound):
        # NaN would silently bound nothing (every comparison is false) and
        # a negative bound would turn every non-exact answer into a miss.
        with pytest.raises(ServingError, match="max_distance"):
            QueryEngine(write_store(tmp_path / "s", grid_cells()), max_distance=bound)

    def test_infinite_max_distance_is_unbounded(self, tmp_path):
        engine = QueryEngine(
            write_store(tmp_path / "s", grid_cells()), max_distance=math.inf
        )
        assert engine.answer("tau=0.9,rho=0.9,w=2")["source"] == "nearest"
        assert engine.stats()["policy"]["max_distance"] is None
        json.dumps(engine.stats(), allow_nan=False)
