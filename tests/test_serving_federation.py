"""Federation tests: routing by parameter coverage across many stores.

Synthetic summary-only stores fabricate coverage shapes (disjoint regions,
overlapping points, ragged grids); the compute-routing seam is exercised by
stubbing member sweeps, plus one end-to-end computed answer over real
checkpointed stores.
"""

import json
import warnings

import pytest

from repro.errors import ServingDegradationWarning, ServingError
from repro.experiments.io import json_default
from repro.serving import ComputeGate, LRUCache, QueryEngine

from test_serving_query import grid_cells, make_cell, write_store


@pytest.fixture
def two_regions(tmp_path):
    """Two stores covering disjoint (tau, rho) regions at w=2."""
    low = write_store(
        tmp_path / "low",
        grid_cells(taus=(0.2, 0.3), rhos=(0.4, 0.5), values=[1.0, 2.0, 3.0, 4.0]),
    )
    high = write_store(
        tmp_path / "high",
        grid_cells(taus=(0.7, 0.8), rhos=(0.4, 0.5), values=[5.0, 6.0, 7.0, 8.0]),
    )
    return low, high


class TestConstruction:
    def test_no_stores_is_an_error(self):
        with pytest.raises(ServingError, match="no store"):
            QueryEngine([])

    def test_duplicate_directories_are_rejected(self, two_regions):
        low, _ = two_regions
        with pytest.raises(ServingError, match="duplicate"):
            QueryEngine([low, low])

    def test_two_spellings_of_one_directory_are_rejected(
        self, two_regions, monkeypatch
    ):
        low, _ = two_regions
        monkeypatch.chdir(low.parent)
        with pytest.raises(ServingError, match="duplicate"):
            QueryEngine([low, low.name])

    def test_missing_member_directory_fails_fast(self, two_regions, tmp_path):
        low, _ = two_regions
        with pytest.raises(ServingError, match="not a directory"):
            QueryEngine([low, tmp_path / "nope"])


class TestRouting:
    def test_exact_match_anywhere_wins(self, two_regions):
        engine = QueryEngine(two_regions)
        low_answer = engine.answer("tau=0.2,rho=0.4,w=2")
        assert low_answer["source"] == "exact"
        assert low_answer["metrics"]["score"]["mean"] == 1.0
        high_answer = engine.answer("tau=0.8,rho=0.5,w=2")
        assert high_answer["source"] == "exact"
        assert high_answer["metrics"]["score"]["mean"] == 8.0

    def test_answers_are_tagged_with_the_owning_store(self, two_regions):
        low, high = two_regions
        engine = QueryEngine([low, high])
        answer = engine.answer("tau=0.8,rho=0.5,w=2")
        assert answer["cells"][0]["store"] == str(high)
        # single-store engines carry no tag (nothing to disambiguate)
        solo = QueryEngine(high).answer("tau=0.8,rho=0.5,w=2")
        assert "store" not in solo["cells"][0]

    def test_nearest_uses_union_wide_scales(self, two_regions):
        """The nearest cell is found over the union of all members' cells.

        The query sits between the regions, slightly nearer the high store's
        corner under the union-normalized metric — a per-store metric (range
        0.1 per axis within each store) would rank cells differently.
        """
        engine = QueryEngine(two_regions)
        answer = engine.answer("tau=0.56,rho=0.45,w=2")
        assert answer["source"] == "nearest"
        assert answer["cells"][0]["store"].endswith("high")
        mirrored = engine.answer("tau=0.44,rho=0.45,w=2")
        assert mirrored["cells"][0]["store"].endswith("low")

    def test_identical_cells_tie_break_deterministically(self, tmp_path):
        """Two stores holding the same point: the rank picks one, stably."""
        cell = make_cell(0, 0.3, 2, 0.4, score=1.0)
        a = write_store(tmp_path / "a", [cell])
        b = write_store(tmp_path / "b", [json.loads(json.dumps(cell))])
        answer = QueryEngine([b, a]).answer("tau=0.3,rho=0.4,w=2")
        reversed_answer = QueryEngine([a, b]).answer(
            "tau=0.3,rho=0.4,w=2"
        )
        # registration order must not matter; the store tag breaks the tie
        assert answer["cells"][0]["store"] == str(a)
        assert reversed_answer["cells"][0]["store"] == str(a)

    def test_interpolation_blends_corners_across_stores(self, tmp_path):
        """A bracket whose corners live in different stores still blends."""
        left = write_store(
            tmp_path / "left",
            [make_cell(0, 0.3, 2, 0.4, score=1.0), make_cell(1, 0.5, 2, 0.4, score=1.0)],
        )
        right = write_store(
            tmp_path / "right",
            [make_cell(0, 0.3, 2, 0.6, score=3.0), make_cell(1, 0.5, 2, 0.6, score=3.0)],
        )
        engine = QueryEngine([left, right], interpolate=True)
        answer = engine.answer("tau=0.4,rho=0.5,w=2")
        assert answer["source"] == "interpolated"
        assert answer["metrics"]["score"]["mean"] == pytest.approx(2.0)
        stores = {entry["store"] for entry in answer["cells"]}
        assert stores == {str(left), str(right)}

    def test_axis_pinning_requires_union_wide_agreement(self, tmp_path):
        """An omitted axis resolves only when every member pins it alike."""
        a = write_store(tmp_path / "a", grid_cells(w=2))
        b = write_store(tmp_path / "b", grid_cells(w=3))
        engine = QueryEngine([a, b])
        with pytest.raises(ServingError, match="does not pin"):
            engine.answer("tau=0.3,rho=0.4")
        assert engine.answer("tau=0.3,rho=0.4,w=3")["source"] == "exact"


class TestComputeRouting:
    def test_compute_routes_to_the_member_owning_the_nearest_cell(
        self, two_regions
    ):
        low, high = two_regions
        engine = QueryEngine([low, high], on_miss="compute")
        low_sentinel, high_sentinel = object(), object()
        engine.stores[0].sweep = lambda: low_sentinel
        engine.stores[1].sweep = lambda: high_sentinel
        assert (
            engine._sweep_for_compute({"tau": 0.75, "rho": 0.45, "w": 2.0})
            is high_sentinel
        )
        assert (
            engine._sweep_for_compute({"tau": 0.25, "rho": 0.45, "w": 2.0})
            is low_sentinel
        )

    def test_unrebuildable_owner_falls_through_to_the_next_member(
        self, two_regions
    ):
        low, high = two_regions
        engine = QueryEngine([low, high], on_miss="compute")

        def broken():
            raise ServingError("no manifest")

        fallback = object()
        engine.stores[1].sweep = broken
        engine.stores[0].sweep = lambda: fallback
        point = {"tau": 0.75, "rho": 0.45, "w": 2.0}  # owned by high
        assert engine._sweep_for_compute(point) is fallback

    def test_no_rebuildable_member_names_every_failure(self, two_regions):
        engine = QueryEngine(two_regions, on_miss="compute")
        for member in engine.stores:
            member.sweep = lambda member=member: (_ for _ in ()).throw(
                ServingError(f"broken {member.directory.name}")
            )
        with pytest.raises(ServingError) as exc_info:
            engine._sweep_for_compute({"tau": 0.5, "rho": 0.45, "w": 2.0})
        assert "broken low" in str(exc_info.value)
        assert "broken high" in str(exc_info.value)

    def test_end_to_end_computed_answer_over_real_stores(self, tmp_path):
        from repro.core.config import ModelConfig
        from repro.experiments.parallel import run_sweep_parallel
        from repro.experiments.spec import SweepSpec

        directories = []
        for name, tau in (("a", 0.3), ("b", 0.45)):
            directory = tmp_path / name
            sweep = SweepSpec(
                name=f"fed-{name}",
                base_config=ModelConfig.square(side=10, horizon=1, tau=tau),
                taus=(tau,),
                n_replicates=1,
                seed=5,
            )
            run_sweep_parallel(sweep, workers=1, checkpoint_dir=directory)
            directories.append(directory)

        engine = QueryEngine(
            directories, on_miss="compute", max_distance=1e-9
        )
        answer = engine.answer("tau=0.4,rho=0.5,w=1")
        assert answer["source"] == "computed"
        assert answer["cached"] is False
        # the same query answers bitwise-identically from the cache
        again = engine.answer("tau=0.4,rho=0.5,w=1")
        assert again["cached"] is True
        again.pop("cached")
        answer.pop("cached")
        assert json.dumps(again, sort_keys=True) == json.dumps(
            answer, sort_keys=True
        )


class TestFederatedStats:
    def test_store_section_reports_members_and_totals(self, two_regions):
        low, high = two_regions
        engine = QueryEngine(
            [low, high], cache=LRUCache(4), generation=3
        )
        stats = engine.stats()
        store = stats["store"]
        assert store["federated"] is True
        assert store["n_stores"] == 2
        assert store["n_cells"] == 8
        assert store["n_answerable"] == 8
        assert store["generation"] == 3
        assert [entry["directory"] for entry in store["stores"]] == [
            str(low),
            str(high),
        ]

    def test_cells_surface_covers_the_union(self, two_regions):
        engine = QueryEngine(two_regions)
        cells = engine.answer_cells()
        assert len(cells) == 8
        assert {cell["store"] for cell in cells} == {
            str(directory) for directory in two_regions
        }
        # tagging copies: the member stores' cached cells stay untouched
        for member in engine.stores:
            assert all(
                "store" not in cell for cell in member.answerable_cells()
            )


@pytest.fixture(scope="module")
def grid_store(tmp_path_factory):
    """One real checkpointed 2x2 (rho, tau) sweep store at w=1."""
    from repro.core.config import ModelConfig
    from repro.experiments.parallel import run_sweep_parallel
    from repro.experiments.spec import SweepSpec

    directory = tmp_path_factory.mktemp("one-or-many") / "store"
    sweep = SweepSpec(
        name="one-or-many",
        base_config=ModelConfig.square(side=10, horizon=1, tau=0.3),
        taus=(0.3, 0.45),
        densities=(0.4, 0.6),
        n_replicates=1,
        seed=3,
    )
    run_sweep_parallel(sweep, workers=1, checkpoint_dir=directory)
    return directory


#: Each document kind: the engine options and the query producing it.
DOCUMENTS = {
    "exact": ({}, "tau=0.3,rho=0.4,w=1"),
    "interpolated": ({"interpolate": True}, "tau=0.35,rho=0.5,w=1"),
    "nearest": ({}, "tau=0.35,rho=0.5,w=1"),
    "computed": (
        {"on_miss": "compute", "max_distance": 0.01},
        "tau=0.42,rho=0.5,w=1",
    ),
    "degraded": (
        {"on_miss": "compute", "max_distance": 0.01},
        "tau=0.42,rho=0.5,w=1",
    ),
    "cells": ({}, None),
    "stats": ({"interpolate": True}, "tau=0.35,rho=0.5,w=1"),
}


class TestOneStoreOrMany:
    """``QueryEngine(store)`` and ``QueryEngine([store])`` are one engine."""

    @staticmethod
    def document(stores, kind):
        """The JSON text an engine over ``stores`` gives for ``kind``."""
        options, query = DOCUMENTS[kind]
        gate = ComputeGate(limit=1)
        engine = QueryEngine(stores, gate=gate, **options)
        if kind == "cells":
            return json.dumps({"cells": engine.answer_cells()})
        if kind == "degraded":
            assert gate.admit()  # saturate the gate: the compute degrades
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ServingDegradationWarning)
                answer = engine.answer(query)
            assert answer["degraded"] is True
        else:
            answer = engine.answer(query)
        if kind == "stats":
            return json.dumps(engine.stats(), default=json_default)
        if kind != "degraded":
            assert answer["source"] == kind
        return json.dumps(answer, default=json_default)

    @pytest.mark.parametrize("kind", sorted(DOCUMENTS))
    def test_a_store_and_a_list_of_it_give_identical_json(
        self, grid_store, kind
    ):
        alone = self.document(grid_store, kind)
        assert alone == self.document([grid_store], kind)
        assert '"store"' not in alone or kind == "stats"
