"""Tests for experiment and sweep specifications."""

import pytest

from repro.core.config import ModelConfig
from repro.core.variants import VariantSpec
from repro.errors import ExperimentError
from repro.experiments.spec import ExperimentSpec, SweepSpec


@pytest.fixture
def base_config() -> ModelConfig:
    return ModelConfig.square(side=30, horizon=2, tau=0.45)


class TestExperimentSpec:
    def test_valid_spec(self, base_config):
        spec = ExperimentSpec(name="demo", config=base_config, n_replicates=2, seed=1)
        assert spec.name == "demo"
        assert spec.n_replicates == 2

    def test_empty_name_rejected(self, base_config):
        with pytest.raises(ExperimentError):
            ExperimentSpec(name="", config=base_config)

    def test_zero_replicates_rejected(self, base_config):
        with pytest.raises(ExperimentError):
            ExperimentSpec(name="demo", config=base_config, n_replicates=0)

    def test_negative_seed_rejected(self, base_config):
        with pytest.raises(ExperimentError, match="seed must be non-negative, got -1"):
            ExperimentSpec(name="demo", config=base_config, seed=-1)


class TestSweepSpec:
    def test_cells_cover_cartesian_product(self, base_config):
        sweep = SweepSpec(
            name="grid",
            base_config=base_config,
            taus=[0.40, 0.45],
            horizons=[1, 2],
            n_replicates=1,
        )
        cells = list(sweep.cells())
        assert len(cells) == 4
        assert sweep.n_cells() == 4
        taus = {cell.config.tau for cell in cells}
        horizons = {cell.config.horizon for cell in cells}
        assert taus == {0.40, 0.45}
        assert horizons == {1, 2}

    def test_empty_axes_keep_base_values(self, base_config):
        sweep = SweepSpec(name="taus", base_config=base_config, taus=[0.4])
        cell = next(iter(sweep.cells()))
        assert cell.config.horizon == base_config.horizon
        assert cell.config.density == base_config.density

    def test_cell_seeds_distinct(self, base_config):
        sweep = SweepSpec(
            name="grid", base_config=base_config, taus=[0.40, 0.45, 0.48]
        )
        seeds = [cell.seed for cell in sweep.cells()]
        assert len(set(seeds)) == len(seeds)

    def test_cell_names_mention_parameters(self, base_config):
        sweep = SweepSpec(name="grid", base_config=base_config, taus=[0.42])
        cell = next(iter(sweep.cells()))
        assert "tau=0.4200" in cell.name
        assert cell.name.startswith("grid[")

    def test_no_axes_rejected(self, base_config):
        with pytest.raises(ExperimentError):
            SweepSpec(name="empty", base_config=base_config)

    def test_empty_name_rejected(self, base_config):
        with pytest.raises(ExperimentError):
            SweepSpec(name="", base_config=base_config, taus=[0.4])

    def test_negative_seed_rejected_before_any_cell_runs(self, base_config):
        # Cell 1's derived seed (-1 + 7919) is valid, so a sweep that got
        # this far would run it and quarantine cell 0 as a flaky cell.
        with pytest.raises(ExperimentError, match="seed must be non-negative, got -1"):
            SweepSpec(name="grid", base_config=base_config, taus=[0.4, 0.45], seed=-1)

    def test_max_flips_propagated(self, base_config):
        sweep = SweepSpec(
            name="budget", base_config=base_config, taus=[0.4], max_flips=17
        )
        assert next(iter(sweep.cells())).max_flips == 17


class TestVariantSurface:
    """Variant and budget fields ride through spec expansion unchanged."""

    def test_variant_and_max_steps_propagate_to_cells(self, base_config):
        variant = VariantSpec.asymmetric(0.3)
        sweep = SweepSpec(
            name="variant",
            base_config=base_config,
            taus=[0.4, 0.45],
            max_steps=1000,
            variant=variant,
        )
        for cell in sweep.cells():
            assert cell.variant == variant
            assert cell.max_steps == 1000

    def test_default_variant_is_base(self, base_config):
        spec = ExperimentSpec(name="unit", config=base_config)
        assert spec.variant.is_base
        assert spec.max_steps is None

    @pytest.mark.parametrize(
        "variant",
        [VariantSpec.two_sided(0.8), VariantSpec.asymmetric(0.3)],
        ids=["two_sided", "asymmetric"],
    )
    def test_variant_without_budget_rejected(self, base_config, variant):
        # No non-base rule carries the Lyapunov termination guarantee, so
        # budget-less variant specs are construction errors.
        with pytest.raises(ExperimentError):
            ExperimentSpec(name="unit", config=base_config, variant=variant)
        with pytest.raises(ExperimentError):
            SweepSpec(
                name="sweep", base_config=base_config, taus=[0.4], variant=variant
            )

    def test_two_sided_with_budget_accepted(self, base_config):
        spec = ExperimentSpec(
            name="unit",
            config=base_config,
            max_steps=500,
            variant=VariantSpec.two_sided(0.8),
        )
        assert spec.variant.tau_high == 0.8
        sweep = SweepSpec(
            name="sweep",
            base_config=base_config,
            taus=[0.4],
            max_flips=100,
            variant=VariantSpec.two_sided(0.8),
        )
        assert next(iter(sweep.cells())).max_flips == 100

    def test_non_variant_spec_rejected(self, base_config):
        with pytest.raises(ExperimentError):
            ExperimentSpec(name="unit", config=base_config, variant="two_sided")
