"""Tests for the whole-configuration segregation metrics."""

import contextlib
import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import segregation_metrics_oracle
from repro.analysis import segregation
from repro.analysis.regions import _qualification_cutoffs, paper_ratio_threshold
from repro.analysis.segregation import (
    default_region_radius,
    interface_density,
    local_homogeneity,
    segregation_gain,
    segregation_metrics,
    segregation_metrics_batch,
    unhappy_fraction,
)
from repro.errors import AnalysisError, ConfigurationError
from repro.core.backends.cffi_backend import cffi_available, cffi_unavailable_reason
from repro.core.config import ModelConfig
from repro.core.ensemble import EnsembleDynamics
from repro.core.initializer import (
    checkerboard_configuration,
    random_configuration,
    uniform_configuration,
)
from repro.core.simulation import simulate
from repro.core.state import ModelState
from repro.types import AgentType


@pytest.fixture
def config() -> ModelConfig:
    return ModelConfig.square(side=24, horizon=2, tau=0.45)


class TestScalarMetrics:
    def test_unhappy_fraction_matches_state(self, config):
        grid = random_configuration(config, seed=0)
        state = ModelState(config, grid)
        expected = state.n_unhappy / config.n_sites
        assert unhappy_fraction(grid.spins, config) == pytest.approx(expected)

    def test_unhappy_fraction_zero_on_uniform(self, config):
        spins = uniform_configuration(config, AgentType.PLUS).spins
        assert unhappy_fraction(spins, config) == 0.0

    def test_local_homogeneity_extremes(self, config):
        uniform = uniform_configuration(config, AgentType.PLUS).spins
        assert local_homogeneity(uniform, config.horizon) == 1.0
        checker = checkerboard_configuration(config).spins
        assert local_homogeneity(checker, config.horizon) == pytest.approx(13 / 25)

    def test_local_homogeneity_random_near_half(self, config):
        spins = random_configuration(config, seed=1).spins
        assert 0.45 < local_homogeneity(spins, config.horizon) < 0.60

    def test_interface_density_extremes(self, config):
        uniform = uniform_configuration(config, AgentType.MINUS).spins
        assert interface_density(uniform) == 0.0
        checker = checkerboard_configuration(config).spins
        assert interface_density(checker) == 1.0

    def test_interface_density_random_near_half(self, config):
        spins = random_configuration(config, seed=2).spins
        assert 0.4 < interface_density(spins) < 0.6


class TestMetricsBundle:
    def test_bundle_keys(self, config):
        spins = random_configuration(config, seed=3).spins
        metrics = segregation_metrics(spins, config, max_region_radius=6)
        d = metrics.as_dict()
        assert "mean_monochromatic_size" in d
        assert "energy" in d
        assert "largest_cluster_fraction" in d

    def test_uniform_grid_bundle(self, config):
        spins = uniform_configuration(config, AgentType.PLUS).spins
        metrics = segregation_metrics(spins, config, max_region_radius=6)
        assert metrics.unhappy_fraction == 0.0
        assert metrics.dominant_type_fraction == 1.0
        assert metrics.largest_cluster_fraction == 1.0
        assert metrics.mean_monochromatic_size == pytest.approx(13.0**2)

    def test_custom_ratio_threshold_used(self, config):
        spins = random_configuration(config, seed=4).spins
        loose = segregation_metrics(spins, config, max_region_radius=4, ratio_threshold=0.9)
        strict = segregation_metrics(spins, config, max_region_radius=4, ratio_threshold=0.05)
        assert loose.mean_almost_monochromatic_size >= strict.mean_almost_monochromatic_size

    def test_metrics_improve_after_dynamics(self, config):
        result = simulate(config, seed=5)
        gain = segregation_gain(result.initial_spins, result.final_spins, config)
        assert gain["delta_local_homogeneity"] > 0
        assert gain["delta_interface_density"] < 0
        assert gain["delta_mean_monochromatic_size"] > 0

    def test_gain_keys(self, config):
        result = simulate(config, seed=6)
        gain = segregation_gain(result.initial_spins, result.final_spins, config)
        for name in ("local_homogeneity", "interface_density", "mean_monochromatic_size"):
            assert f"initial_{name}" in gain
            assert f"final_{name}" in gain
            assert f"delta_{name}" in gain


class TestDefaultRegionRadius:
    def test_small_torus_caps_at_fitting_radius(self):
        config = ModelConfig.square(side=9, horizon=3, tau=0.45)
        assert default_region_radius(config) == 4  # (9 - 1) // 2

    def test_large_torus_caps_at_four_horizons(self):
        config = ModelConfig.square(side=64, horizon=3, tau=0.45)
        assert default_region_radius(config) == 12

    def test_gain_uses_shared_cap(self, config):
        # segregation_gain saturates exactly like the runner and the CLI:
        # its mean monochromatic size must equal a metrics call capped at
        # default_region_radius.
        result = simulate(config, seed=7)
        gain = segregation_gain(result.initial_spins, result.final_spins, config)
        capped = segregation_metrics(
            result.final_spins, config, max_region_radius=default_region_radius(config)
        )
        assert gain["final_mean_monochromatic_size"] == capped.mean_monochromatic_size


class TestMetricsBatch:
    def test_rows_identical_to_serial_metrics(self, config):
        rng = np.random.default_rng(8)
        stack = np.where(rng.random((3, config.n_rows, config.n_cols)) < 0.5, 1, -1)
        stack = stack.astype(np.int8)
        batch = segregation_metrics_batch(stack, config, max_region_radius=6)
        for replica, metrics in zip(stack, batch):
            assert metrics == segregation_metrics(replica, config, max_region_radius=6)

    def test_custom_threshold_forwarded(self, config):
        rng = np.random.default_rng(9)
        stack = np.where(rng.random((2, config.n_rows, config.n_cols)) < 0.5, 1, -1)
        stack = stack.astype(np.int8)
        batch = segregation_metrics_batch(
            stack, config, max_region_radius=4, ratio_threshold=0.9
        )
        for replica, metrics in zip(stack, batch):
            assert metrics == segregation_metrics(
                replica, config, max_region_radius=4, ratio_threshold=0.9
            )

    def test_non_stack_rejected(self, config):
        spins = np.ones((config.n_rows, config.n_cols), dtype=np.int8)
        with pytest.raises(AnalysisError):
            segregation_metrics_batch(spins, config)

    def test_empty_stack_allowed(self, config):
        stack = np.ones((0, config.n_rows, config.n_cols), dtype=np.int8)
        assert segregation_metrics_batch(stack, config) == []


def _float_bytes(metrics) -> dict[str, bytes]:
    """Every ``as_dict`` value as its IEEE-754 bytes."""
    return {key: struct.pack("<d", value) for key, value in metrics.as_dict().items()}


def _assert_matches_oracle(batch, expected) -> None:
    """Same float bytes replica by replica, and plain Python field values."""
    assert [_float_bytes(metrics) for metrics in batch] == [
        _float_bytes(metrics) for metrics in expected
    ]
    for metrics in batch:
        for field in dataclasses.fields(metrics):
            assert type(getattr(metrics, field.name)).__name__ == field.type


DENSITY = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))

#: The two measurement kernels: the compiled library's ``repro_measure`` and
#: the numpy ``_measure`` that hosts without a C toolchain run.
KERNELS = ["compiled", "numpy"]


@contextlib.contextmanager
def measurement_kernel(kernel):
    """Measure through one kernel; yields the stack shapes the C kernel got.

    The numpy path is forced by making ``cffi_available`` report False, as
    on a host without a toolchain; the compiled path is watched, so a
    silent fallback to numpy fails the caller's assertion on the calls.
    """
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        if kernel == "numpy":
            patch.setattr(segregation, "cffi_available", lambda: False)
        else:
            if not cffi_available():
                pytest.skip(f"no compiled kernel: {cffi_unavailable_reason()}")
            compiled = segregation.measure_counts

            def watched(stack, *args):
                calls.append(stack.shape)
                return compiled(stack, *args)

            patch.setattr(segregation, "measure_counts", watched)
        yield calls


@pytest.mark.parametrize("kernel", KERNELS)
class TestOracleBundle:
    """Both measurement kernels against the oracle bundle in ``tests/oracles.py``.

    The oracle builds every field from the linear reference scans, the
    scalar labeller on each type's mask and the per-field formulas, so the
    comparison does not run a kernel against itself.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        n_replicas=st.sampled_from([0, 1, 3]),
        n_rows=st.integers(min_value=1, max_value=14),
        n_cols=st.integers(min_value=1, max_value=14),
        horizon=st.integers(min_value=1, max_value=3),
        tau=st.floats(min_value=0.0, max_value=1.0),
        densities=st.lists(DENSITY, min_size=3, max_size=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        cap=st.sampled_from([None, 0, 1, "default"]),
        ratio_threshold=st.sampled_from([0.0, None, 1.0]),
    )
    def test_batch_matches_oracle(
        self, kernel, n_replicas, n_rows, n_cols, horizon, tau, densities, seed, cap,
        ratio_threshold,
    ):
        rng = np.random.default_rng(seed)
        stack = np.array(
            [
                np.where(rng.random((n_rows, n_cols)) < density, 1, -1)
                for density in densities[:n_replicas]
            ],
            dtype=np.int8,
        ).reshape(n_replicas, n_rows, n_cols)
        fits = 2 * horizon + 1 <= min(n_rows, n_cols)
        # A grid too small for the horizon is measured against a config that
        # fits the window elsewhere; both sides must then refuse it alike.
        config = (
            ModelConfig(n_rows=n_rows, n_cols=n_cols, horizon=horizon, tau=tau)
            if fits
            else ModelConfig.square(side=2 * horizon + 1, horizon=horizon, tau=tau)
        )
        if cap == "default":
            cap = default_region_radius(config)
        if n_replicas and not fits:
            with measurement_kernel(kernel), pytest.raises(ConfigurationError) as kernel_error:
                segregation_metrics_batch(stack, config, cap, ratio_threshold)
            with pytest.raises(ConfigurationError) as oracle_error:
                segregation_metrics_oracle(stack[0], config, cap, ratio_threshold)
            assert str(kernel_error.value) == str(oracle_error.value)
            return
        with measurement_kernel(kernel) as calls:
            batch = segregation_metrics_batch(stack, config, cap, ratio_threshold)
        assert calls == ([stack.shape] if kernel == "compiled" and n_replicas else [])
        expected = [
            segregation_metrics_oracle(replica, config, cap, ratio_threshold)
            for replica in stack
        ]
        _assert_matches_oracle(batch, expected)

    @pytest.mark.parametrize("which", ["initial", "terminated"])
    def test_64x64_stack_where_the_cap_binds(self, kernel, which):
        config = ModelConfig.square(side=64, horizon=3, tau=0.45)
        engine = EnsembleDynamics(config, n_replicas=4, seed=2)
        stack = engine.initial_spins() if which == "initial" else engine.run().final_spins
        cap = default_region_radius(config)
        with measurement_kernel(kernel) as calls:
            batch = segregation_metrics_batch(stack, config, max_region_radius=cap)
        assert len(calls) == (kernel == "compiled")
        if which == "terminated":
            assert all(metrics.max_monochromatic_radius == cap for metrics in batch)
        expected = [
            segregation_metrics_oracle(replica, config, max_region_radius=cap)
            for replica in stack
        ]
        _assert_matches_oracle(batch, expected)


@pytest.mark.parametrize("kernel", KERNELS)
class TestKernelInputs:
    """What either kernel is handed, beyond the oracle's small int8 stacks."""

    def test_radius_wider_than_a_byte(self, kernel):
        # limit (513 - 1) // 2 = 256: a radius that uint8 storage would wrap.
        config = ModelConfig.square(side=513, horizon=1, tau=0.45)
        stack = np.ones((1, 513, 513), dtype=np.int8)
        with measurement_kernel(kernel) as calls:
            (metrics,) = segregation_metrics_batch(stack, config, max_region_radius=None)
        assert len(calls) == (kernel == "compiled")
        assert metrics.max_monochromatic_radius == 256
        assert metrics.mean_monochromatic_size == 513.0**2
        assert metrics.mean_almost_monochromatic_size == 513.0**2
        assert metrics.largest_cluster_fraction == 1.0

    def test_int64_and_strided_stacks_measure_as_their_int8_copy(self, kernel, config):
        rng = np.random.default_rng(12)
        wide = np.where(rng.random((6, 2 * config.n_rows, 2 * config.n_cols + 1)) < 0.5, 1, -1)
        strided = wide[::2, ::2, 1::2]
        assert wide.dtype == np.int64 and not strided.flags.c_contiguous
        copy = np.ascontiguousarray(strided, dtype=np.int8)
        with measurement_kernel(kernel) as calls:
            expected = segregation_metrics_batch(copy, config, max_region_radius=6)
            assert segregation_metrics_batch(strided, config, max_region_radius=6) == expected
            assert segregation_metrics_batch(
                strided.astype(np.int64), config, max_region_radius=6
            ) == expected
            assert segregation_metrics(strided[1], config, max_region_radius=6) == expected[1]
            transposed = np.ascontiguousarray(copy[0].T)
            assert segregation_metrics(copy[0].T, config, max_region_radius=6) == (
                segregation_metrics(transposed, config, max_region_radius=6)
            )
        assert len(calls) == (6 if kernel == "compiled" else 0)


#: Thresholds equal to one level's minority ratio, and one ulp below it:
#: 5 / 20 of a radius-2 window and 7 / 42 of a radius-3 window are exact
#: float quotients, so the count qualifies at the ratio and not below it.
LEVEL_RATIOS = [0.25, math.nextafter(0.25, 0.0), 7.0 / 42.0, math.nextafter(7.0 / 42.0, 0.0)]

#: The paper's default thresholds for horizons 1 to 3.
PAPER_THRESHOLDS = [paper_ratio_threshold((2 * w + 1) ** 2) for w in (1, 2, 3)]


@pytest.mark.parametrize("kernel", KERNELS)
class TestThresholdOnALevelRatio:
    """Both kernels decide a count whose ratio equals the threshold as the oracle does.

    The cutoff of a level moves by one count between the ratio and one ulp
    below it; a kernel comparing a count with its cutoff off by one, or
    with the mirrored end off by one, moves an almost-monochromatic radius.
    """

    @pytest.mark.parametrize(
        "threshold",
        LEVEL_RATIOS,
        ids=["r2_ratio", "r2_ratio_ulp_below", "r3_ratio", "r3_ratio_ulp_below"],
    )
    def test_batch_matches_oracle(self, kernel, threshold):
        config = ModelConfig.square(side=16, horizon=1, tau=0.45)
        rng = np.random.default_rng(3)
        # Minority densities around the level ratios, on either type.
        stack = np.array(
            [np.where(rng.random((16, 16)) < density, 1, -1) for density in (0.15, 0.2, 0.8)],
            dtype=np.int8,
        )
        other = LEVEL_RATIOS[LEVEL_RATIOS.index(threshold) ^ 1]
        expected = [segregation_metrics_oracle(grid, config, 4, threshold) for grid in stack]
        # The stack has windows on the boundary: the other side of it differs.
        assert expected != [segregation_metrics_oracle(grid, config, 4, other) for grid in stack]
        with measurement_kernel(kernel) as calls:
            batch = segregation_metrics_batch(stack, config, 4, threshold)
        _assert_matches_oracle(batch, expected)
        assert len(calls) == (kernel == "compiled")


class TestCompiledDispatch:
    """When the compiled kernel runs, and what it refuses."""

    def test_oversized_table_goes_to_numpy(self, config, monkeypatch):
        # The C kernel counts in int32: a padded table of MEASURE_CELL_LIMIT
        # cells or more is measured by numpy instead.
        stack = np.where(np.random.default_rng(13).random((2, 24, 24)) < 0.5, 1, -1)
        with measurement_kernel("numpy"):
            expected = segregation_metrics_batch(stack, config, max_region_radius=6)
        if not cffi_available():
            pytest.skip(f"no compiled kernel: {cffi_unavailable_reason()}")
        cells = (24 + 2 * 6 + 1) ** 2
        monkeypatch.setattr(segregation, "MEASURE_CELL_LIMIT", cells)
        with measurement_kernel("compiled") as calls:
            assert segregation_metrics_batch(stack, config, max_region_radius=6) == expected
        assert calls == []
        monkeypatch.setattr(segregation, "MEASURE_CELL_LIMIT", cells + 1)
        with measurement_kernel("compiled") as calls:
            assert segregation_metrics_batch(stack, config, max_region_radius=6) == expected
        assert calls == [(2, 24, 24)]

    @pytest.mark.parametrize(
        "threshold",
        [0.0, 0.1, 0.5, 1.0, *LEVEL_RATIOS, *PAPER_THRESHOLDS],
        ids=[
            "0.0", "0.1", "0.5", "1.0",
            "r2_ratio", "r2_ratio_ulp_below", "r3_ratio", "r3_ratio_ulp_below",
            "paper_w1", "paper_w2", "paper_w3",
        ],
    )
    def test_cutoffs_reproduce_the_qualification_tables(self, threshold):
        # Each count's decision is minority_ratio_map's float expression.
        cutoffs = _qualification_cutoffs(threshold, 9)
        for radius in range(1, 10):
            area = (2 * radius + 1) ** 2
            for count in range(area + 1):
                minority, majority = sorted((count, area - count))
                expected = float(minority) / float(majority) <= threshold
                cut = cutoffs[radius]
                assert ((count <= cut) or (count >= area - cut)) == expected
