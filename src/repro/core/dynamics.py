"""Glauber dynamics engine.

The paper's process attaches an independent rate-1 Poisson clock to every
agent; when an unhappy agent's clock rings it flips its type iff the flip
makes it happy.  Two schedulers are provided:

* :data:`~repro.types.SchedulerKind.CONTINUOUS` — exact simulation of the
  continuous-time process restricted to *effective* events.  Clock rings of
  happy or non-flippable agents never change the state, so the embedded jump
  chain picks a uniformly random flippable agent and the waiting time to the
  next effective ring is exponential with rate equal to the number of
  flippable agents (each clock has rate 1).
* :data:`~repro.types.SchedulerKind.DISCRETE` — the equivalent discrete-time
  chain described in Section II.A: at every step one unhappy agent is chosen
  uniformly at random and flipped iff the flip makes it happy.

Both schedulers terminate exactly when no agent can flip, matching the
paper's termination condition, and both strictly increase the Lyapunov energy
on every flip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.core.state import ModelState
from repro.errors import StateError
from repro.rng import SeedLike, make_rng
from repro.types import AgentType, FlipEvent, FlipRule, SchedulerKind, Site


@dataclass
class Trajectory:
    """Time series recorded during a run (one sample every ``record_every`` flips)."""

    times: list[float] = field(default_factory=list)
    n_flips: list[int] = field(default_factory=list)
    n_unhappy: list[int] = field(default_factory=list)
    n_flippable: list[int] = field(default_factory=list)
    energy: list[int] = field(default_factory=list)
    magnetization: list[float] = field(default_factory=list)

    def record(self, time: float, flips: int, state: ModelState) -> None:
        """Append one sample taken from ``state`` at simulation ``time``.

        Every recorded quantity is an incrementally maintained counter of the
        state, so one sample costs O(1) — dense recording (``record_every=1``)
        no longer triggers per-sample full-grid recomputes.
        """
        self.times.append(time)
        self.n_flips.append(flips)
        self.n_unhappy.append(state.n_unhappy)
        self.n_flippable.append(state.n_flippable)
        self.energy.append(state.energy())
        self.magnetization.append(state.magnetization())

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class RunResult:
    """Outcome of :meth:`GlauberDynamics.run`."""

    #: True iff the process reached the paper's termination condition
    #: (no flippable agent) rather than hitting a step/time budget.
    terminated: bool
    #: Number of actual type flips performed.
    n_flips: int
    #: Number of scheduler steps (equals ``n_flips`` for the continuous
    #: scheduler; can be larger for the discrete one when ``tau > 1/2``).
    n_steps: int
    #: Final simulation time (continuous time, or step count for discrete).
    final_time: float
    #: Trajectory samples, when recording was requested.
    trajectory: Optional[Trajectory] = None
    #: Individual flip events, when recording was requested.
    events: Optional[list[FlipEvent]] = None


class GlauberDynamics:
    """Asynchronous single-flip dynamics over a :class:`ModelState`."""

    def __init__(
        self,
        state: ModelState,
        seed: SeedLike = None,
        scheduler: Optional[SchedulerKind] = None,
        flip_rule: Optional[FlipRule] = None,
    ) -> None:
        self.state = state
        self.rng = make_rng(seed)
        self.scheduler = scheduler if scheduler is not None else state.config.scheduler
        self.flip_rule = flip_rule if flip_rule is not None else state.config.flip_rule
        self.time = 0.0
        self.n_flips = 0
        self.n_steps = 0

    # ------------------------------------------------------------- inspection

    @property
    def is_terminated(self) -> bool:
        """True when no further state change is possible under the flip rule."""
        if self.flip_rule is FlipRule.ONLY_IF_HAPPY:
            return self.state.is_terminated()
        return self.state.n_unhappy == 0

    def _candidate_sampler(self):
        """The index sampler the scheduler draws targets from."""
        if self.flip_rule is FlipRule.ONLY_IF_HAPPY:
            if self.scheduler is SchedulerKind.CONTINUOUS:
                return self.state.flippable_sampler
            return self.state.unhappy_sampler
        return self.state.unhappy_sampler

    # ------------------------------------------------------------------ steps

    def step(self) -> Optional[FlipEvent]:
        """Advance the process by one scheduler step.

        Returns the flip event performed, or ``None`` when either the process
        has terminated or the selected agent did not flip (a no-op step of the
        discrete scheduler).  Raises nothing on termination so callers can use
        ``while not dynamics.is_terminated: dynamics.step()`` loops safely.
        """
        if self.is_terminated:
            return None
        sampler = self._candidate_sampler()
        if len(sampler) == 0:
            return None
        if self.scheduler is SchedulerKind.CONTINUOUS:
            # Effective events arrive at the minimum of len(sampler)
            # independent rate-1 exponential clocks.
            self.time += float(self.rng.exponential(1.0 / len(sampler)))
        else:
            self.time += 1.0
        self.n_steps += 1
        flat_index = sampler.sample(self.rng)
        row, col = self.state.site_of(flat_index)
        if self.flip_rule is FlipRule.ONLY_IF_HAPPY:
            if not self.state.is_flippable(row, col):
                return None
        new_value = self.state.apply_flip(row, col)
        self.n_flips += 1
        return FlipEvent(time=self.time, site=Site(row, col), new_type=AgentType(new_value))

    def run(
        self,
        max_flips: Optional[int] = None,
        max_steps: Optional[int] = None,
        max_time: Optional[float] = None,
        record_trajectory: bool = False,
        record_events: bool = False,
        record_every: int = 1,
        callback: Optional[Callable[["GlauberDynamics", Optional[FlipEvent]], None]] = None,
    ) -> RunResult:
        """Run until termination or until one of the budgets is exhausted.

        Parameters
        ----------
        max_flips, max_steps, max_time:
            Optional budgets.  ``None`` means unbounded; the paper's process
            always terminates, so running unbounded is safe for the default
            flip rule.
        record_trajectory:
            Record a :class:`Trajectory` sample every ``record_every`` flips.
        record_events:
            Keep the list of individual :class:`~repro.types.FlipEvent`.
        callback:
            Invoked after every scheduler step with ``(dynamics, event)``.
        """
        _check_run_budgets(max_flips, max_steps, max_time)
        if record_every <= 0:
            raise StateError("record_every must be positive")
        trajectory = Trajectory() if record_trajectory else None
        events: Optional[list[FlipEvent]] = [] if record_events else None
        if trajectory is not None:
            trajectory.record(self.time, self.n_flips, self.state)

        start_flips = self.n_flips
        start_steps = self.n_steps
        while not self.is_terminated:
            if max_flips is not None and self.n_flips - start_flips >= max_flips:
                break
            if max_steps is not None and self.n_steps - start_steps >= max_steps:
                break
            if max_time is not None and self.time >= max_time:
                break
            event = self.step()
            if callback is not None:
                callback(self, event)
            if event is None:
                continue
            if events is not None:
                events.append(event)
            if trajectory is not None and self.n_flips % record_every == 0:
                trajectory.record(self.time, self.n_flips, self.state)

        if trajectory is not None and (
            not trajectory.n_flips
            or trajectory.n_flips[-1] != self.n_flips
            or trajectory.times[-1] != self.time
        ):
            trajectory.record(self.time, self.n_flips, self.state)
        return RunResult(
            terminated=self.is_terminated,
            n_flips=self.n_flips - start_flips,
            n_steps=self.n_steps - start_steps,
            final_time=self.time,
            trajectory=trajectory,
            events=events,
        )


def _check_run_budgets(
    max_flips: Optional[int], max_steps: Optional[int], max_time: Optional[float]
) -> None:
    """Refuse a run budget no counter can be held to, naming it.

    A NaN compares false with every count, so engines would disagree on
    whether it stops a run at once or never; a negative ``max_flips`` has no
    meaning.  :meth:`GlauberDynamics.run` and
    :meth:`~repro.core.ensemble.EnsembleDynamics.run` both call this, so
    every engine refuses the same budgets with the same ``StateError``.
    """
    budgets = {"max_flips": max_flips, "max_steps": max_steps, "max_time": max_time}
    for name, value in budgets.items():
        # NaN is the one value that differs from itself.
        if value is not None and value != value:
            raise StateError(f"{name} is NaN; a run budget is a number or None")
    if max_flips is not None and max_flips < 0:
        raise StateError(f"max_flips must be non-negative, got {max_flips}")


def run_to_completion(
    state: ModelState,
    seed: SeedLike = None,
    scheduler: Optional[SchedulerKind] = None,
    flip_rule: Optional[FlipRule] = None,
    max_flips: Optional[int] = None,
    record_trajectory: bool = False,
    record_every: int = 1,
) -> RunResult:
    """Convenience wrapper: build a :class:`GlauberDynamics` and run it."""
    dynamics = GlauberDynamics(state, seed=seed, scheduler=scheduler, flip_rule=flip_rule)
    return dynamics.run(
        max_flips=max_flips,
        record_trajectory=record_trajectory,
        record_every=record_every,
    )
