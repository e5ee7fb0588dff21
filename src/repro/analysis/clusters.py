"""Same-type connected clusters of a configuration.

Besides the window-based regions of :mod:`repro.analysis.regions`, the
simulation figures of Schelling-model papers (including Figure 1 here) are
usually read through connected monochromatic clusters: maximal 4-connected
sets of agents sharing one type.  These complement the region statistics and
drive the density-sweep (E13) and Kawasaki-baseline (E14) benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.percolation.cluster import _union_runs, cluster_sizes, label_clusters
from repro.types import AgentType
from repro.utils.validation import require_spin_array


@dataclass(frozen=True)
class ClusterStatistics:
    """Cluster structure of one agent type within a configuration."""

    agent_type: AgentType
    n_clusters: int
    n_agents: int
    largest_cluster: int
    mean_cluster_size: float

    @property
    def largest_cluster_fraction(self) -> float:
        """Largest cluster size divided by the number of agents of this type."""
        if self.n_agents == 0:
            return 0.0
        return self.largest_cluster / self.n_agents

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view for result tables."""
        return {
            "agent_type": float(int(self.agent_type)),
            "n_clusters": float(self.n_clusters),
            "n_agents": float(self.n_agents),
            "largest_cluster": float(self.largest_cluster),
            "mean_cluster_size": self.mean_cluster_size,
            "largest_cluster_fraction": self.largest_cluster_fraction,
        }


def type_cluster_statistics(
    spins: np.ndarray, agent_type: AgentType, periodic: bool = True
) -> ClusterStatistics:
    """Cluster statistics of the agents of one type."""
    spins = require_spin_array(spins)
    mask = spins == int(agent_type)
    labels = label_clusters(mask, periodic=periodic)
    sizes = cluster_sizes(labels)
    n_agents = int(mask.sum())
    if sizes.size == 0:
        return ClusterStatistics(agent_type, 0, n_agents, 0, 0.0)
    return ClusterStatistics(
        agent_type=agent_type,
        n_clusters=int(sizes.size),
        n_agents=n_agents,
        largest_cluster=int(sizes.max()),
        mean_cluster_size=float(sizes.mean()),
    )


def both_type_statistics(
    spins: np.ndarray, periodic: bool = True
) -> dict[AgentType, ClusterStatistics]:
    """Cluster statistics for both agent types."""
    return {
        agent_type: type_cluster_statistics(spins, agent_type, periodic=periodic)
        for agent_type in (AgentType.PLUS, AgentType.MINUS)
    }


def cluster_size_distribution(
    spins: np.ndarray, agent_type: AgentType, periodic: bool = True
) -> np.ndarray:
    """Sorted (descending) cluster sizes of one agent type."""
    spins = require_spin_array(spins)
    labels = label_clusters(spins == int(agent_type), periodic=periodic)
    sizes = cluster_sizes(labels)
    return np.sort(sizes)[::-1]


def dominant_type_fraction(spins: np.ndarray) -> float:
    """Fraction of the grid occupied by the more numerous type.

    Equals 1.0 exactly when the grid is completely segregated into a single
    type — the "complete segregation" the paper rules out w.h.p. at
    ``p = 1/2`` and Fontes et al. establish for ``p`` close to 1.
    """
    spins = require_spin_array(spins)
    plus = np.count_nonzero(spins == 1)
    minus = spins.size - plus
    return max(plus, minus) / spins.size


def is_completely_segregated(spins: np.ndarray) -> bool:
    """Whether a single agent type covers the whole grid."""
    spins = require_spin_array(spins)
    return bool(np.all(spins == spins.flat[0]))


def _same_type_joins(spins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The same-type relation on the torus's edges: ``(right, down)``.

    ``right[i, j]`` says whether site ``(i, j)`` has the type of its right
    neighbour (wrapping around), ``down[i, j]`` whether it has the type of
    the neighbour below.
    """
    return spins == np.roll(spins, -1, axis=1), spins == np.roll(spins, -1, axis=0)


def _largest_same_type_cluster(right: np.ndarray, down: np.ndarray) -> int:
    """Size of the largest same-type 4-connected cluster on the torus.

    One labelling of the same-type relation (:func:`_same_type_joins`) covers
    both types at once, since a join never crosses types.  Every site is in
    some run, so a cluster's size is the sum of its runs' lengths.
    """
    _, starts, roots = _union_runs(right, down)
    return int(np.bincount(roots, weights=np.diff(starts, append=right.size)).max())


def largest_monochromatic_cluster_fraction(spins: np.ndarray) -> float:
    """Largest same-type cluster size divided by the grid size."""
    spins = require_spin_array(spins)
    return _largest_same_type_cluster(*_same_type_joins(spins)) / spins.size
