"""Model configuration.

:class:`ModelConfig` bundles the four parameters of the paper's model — grid
side ``n``, horizon ``w``, intolerance ``tau`` and initial Bernoulli density
``p`` — together with the derived quantities used throughout the proofs:
the neighbourhood size ``N = (2w+1)^2``, the integer happiness threshold
``ceil(tau * N)`` and the effective intolerance ``tau_count / N``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.neighborhood import neighborhood_size
from repro.errors import ConfigurationError
from repro.types import FlipRule, SchedulerKind
from repro.utils.validation import (
    require_in_range,
    require_positive_int,
    require_probability,
)


@dataclass(frozen=True)
class ModelConfig:
    """Parameters of the Schelling / Glauber segregation model.

    Parameters
    ----------
    n_rows, n_cols:
        Grid dimensions.  The paper uses a square ``n x n`` torus; rectangular
        tori are supported because they are occasionally convenient in tests.
    horizon:
        Neighbourhood radius ``w``; the neighbourhood of an agent is the
        ``(2w+1) x (2w+1)`` window centred at it (the agent included).
    tau:
        Intolerance ``tau ∈ [0, 1]``.  An agent is happy when the fraction of
        same-type agents in its neighbourhood is at least
        ``ceil(tau * N) / N`` — the paper rounds ``tau`` up to a multiple of
        ``1/N`` and this class performs the same rounding.
    density:
        Bernoulli parameter ``p`` of the initial distribution of ``+1`` agents
        (the paper studies ``p = 1/2``).
    scheduler / flip_rule:
        Defaults matching the paper: continuous-time Poisson clocks and
        flip-only-if-it-makes-the-agent-happy.
    """

    n_rows: int
    n_cols: int
    horizon: int
    tau: float
    density: float = 0.5
    scheduler: SchedulerKind = SchedulerKind.CONTINUOUS
    flip_rule: FlipRule = FlipRule.ONLY_IF_HAPPY
    # Derived, filled in __post_init__ (kept as fields so repr shows them).
    neighborhood_agents: int = field(init=False, default=0)
    happiness_threshold: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        n_rows = require_positive_int(self.n_rows, "n_rows")
        n_cols = require_positive_int(self.n_cols, "n_cols")
        horizon = require_positive_int(self.horizon, "horizon")
        tau = require_in_range(self.tau, "tau", 0.0, 1.0)
        density = require_probability(self.density, "density")
        if not isinstance(self.scheduler, SchedulerKind):
            raise ConfigurationError(
                f"scheduler must be a SchedulerKind, got {self.scheduler!r}"
            )
        if not isinstance(self.flip_rule, FlipRule):
            raise ConfigurationError(
                f"flip_rule must be a FlipRule, got {self.flip_rule!r}"
            )
        window_side = 2 * horizon + 1
        if window_side > min(n_rows, n_cols):
            raise ConfigurationError(
                f"neighbourhood side {window_side} (horizon {horizon}) does "
                f"not fit on a {n_rows}x{n_cols} torus"
            )
        n_agents = neighborhood_size(horizon)
        threshold = int(math.ceil(tau * n_agents))
        object.__setattr__(self, "n_rows", n_rows)
        object.__setattr__(self, "n_cols", n_cols)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "density", density)
        object.__setattr__(self, "neighborhood_agents", n_agents)
        object.__setattr__(self, "happiness_threshold", threshold)

    # ------------------------------------------------------------------ API

    @classmethod
    def square(
        cls,
        side: int,
        horizon: int,
        tau: float,
        density: float = 0.5,
        scheduler: SchedulerKind = SchedulerKind.CONTINUOUS,
        flip_rule: FlipRule = FlipRule.ONLY_IF_HAPPY,
    ) -> "ModelConfig":
        """Create a configuration on a square ``side x side`` torus."""
        side = require_positive_int(side, "side")
        return cls(
            n_rows=side,
            n_cols=side,
            horizon=horizon,
            tau=tau,
            density=density,
            scheduler=scheduler,
            flip_rule=flip_rule,
        )

    @property
    def shape(self) -> tuple[int, int]:
        """Grid shape ``(n_rows, n_cols)``."""
        return (self.n_rows, self.n_cols)

    @property
    def n_sites(self) -> int:
        """Total number of agents on the grid."""
        return self.n_rows * self.n_cols

    @property
    def effective_tau(self) -> float:
        """The rounded intolerance ``ceil(tau * N) / N`` actually applied."""
        return self.happiness_threshold / self.neighborhood_agents

    @property
    def tau_prime(self) -> float:
        """The paper's ``tau' = (tau N - 2) / (N - 1)`` (Lemma 19)."""
        n = self.neighborhood_agents
        return (self.tau * n - 2.0) / (n - 1.0)

    def with_tau(self, tau: float) -> "ModelConfig":
        """Return a copy of this configuration with a different intolerance."""
        return replace(self, tau=tau)

    def with_horizon(self, horizon: int) -> "ModelConfig":
        """Return a copy of this configuration with a different horizon."""
        return replace(self, horizon=horizon)

    def with_density(self, density: float) -> "ModelConfig":
        """Return a copy of this configuration with a different density."""
        return replace(self, density=density)

    def describe(self) -> str:
        """One-line human-readable description (used by examples and benches)."""
        return (
            f"{self.n_rows}x{self.n_cols} torus, horizon w={self.horizon} "
            f"(N={self.neighborhood_agents}), tau={self.tau:.4f} "
            f"(threshold {self.happiness_threshold}/{self.neighborhood_agents}), "
            f"p={self.density:.2f}"
        )


def default_figure1_config(scale: Optional[float] = None) -> ModelConfig:
    """Configuration of the paper's Figure 1 (optionally scaled down).

    The paper simulates a 1000x1000 grid with neighbourhood size 441
    (``w = 10``) at ``tau = 0.42``.  ``scale`` shrinks the grid side by that
    factor for affordable test runs while keeping ``w`` and ``tau`` intact.
    """
    side = 1000
    if scale is not None:
        if scale <= 0 or scale > 1:
            raise ConfigurationError(f"scale must lie in (0, 1], got {scale}")
        side = max(int(side * scale), 21)
    return ModelConfig.square(side=side, horizon=10, tau=0.42)
