"""Seeded inputs for the benchmark workloads.

Everything a workload feeds the program is drawn from ``--seed`` here: the
intolerance lists, the resume prefix and the query streams.  The program
under test only ever receives these generated values.

Intolerances are stratified: each of the two segregating intervals is cut
into equal strata and every stratum gets one uniform draw, kept inside one
threshold bucket.  Every seed thus covers both intervals evenly with the
same thresholds, so the work in a run, which depends strongly on tau,
hardly changes from seed to seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import asdict, dataclass
from typing import Sequence

#: Inside the paper's segregating intervals 0.344 < tau < 1/2 and its mirror.
SEGREGATING_INTERVALS = ((0.35, 0.49), (0.51, 0.65))

#: Request mix of a query stream: hot repeats, distinct in-grid points and
#: out-of-range points that are simulated on the miss.
QUERY_MIX = (("hot", 0.70), ("distinct", 0.28), ("compute", 0.02))

#: Streams are dealt in shuffled decks of this many requests holding the
#: exact mix, so every stretch of a stream carries the same share of
#: computes (a computed answer costs ~50x a cached one).
DECK = 50

#: Distinct in-grid points to draw from: well above the default 256-entry
#: answer cache, so this class misses, interpolates, inserts and evicts.
DISTINCT_POOL = 2048

#: Normalized distance beyond which a stored cell may not answer.
MAX_DISTANCE = 0.1

#: Tau band of computed points: below every grid, beyond ``MAX_DISTANCE``,
#: and narrow enough that ``ceil(tau * N)`` is one value for N = 9, 25 and
#: 49, so every computed point costs about the same whatever the seed.
COMPUTE_TAUS = (0.290, 0.300)

#: Density band of computed points, narrow for the same reason.
COMPUTE_RHOS = (0.49, 0.51)


def stratified_taus(rng: random.Random, per_interval: int, agents: int = 9) -> list[float]:
    """``2 * per_interval`` intolerances, alternating low and high interval.

    The model sees tau only through the integer threshold
    ``ceil(tau * agents)`` (``agents`` is the neighbourhood size N), so each
    draw stays inside the threshold bucket of its stratum's midpoint: every
    seed simulates the same thresholds, and the work in a run changes with
    the seed only through the random dynamics.  Alternating keeps
    neighbouring cells (which share a pool chunk) mixed, so two workers get
    similar work.
    """
    draws = []
    for lo, hi in SEGREGATING_INTERVALS:
        width = (hi - lo) / per_interval
        taus = []
        for i in range(per_interval):
            bucket = math.ceil((lo + (i + 0.5) * width) * agents)
            low = max(lo + i * width, (bucket - 1) / agents)
            high = min(lo + (i + 1) * width, bucket / agents)
            taus.append(round(low + (0.05 + 0.9 * rng.random()) * (high - low), 6))
        draws.append(taus)
    return [tau for pair in zip(*draws) for tau in pair]


@dataclass(frozen=True)
class Query:
    """One request of a query stream."""

    kind: str
    rho: float
    tau: float
    w: int
    #: The point is a stored grid point (its answer must equal the summary).
    exact: bool = False

    def point(self) -> dict[str, float]:
        """The query as the engine's ``{rho, tau, w}`` dict."""
        return {"rho": self.rho, "tau": self.tau, "w": self.w}

    def path(self) -> str:
        """The HTTP request path asking for this point."""
        return f"/query?rho={self.rho!r}&tau={self.tau!r}&w={self.w}"


class QueryPlan:
    """Seeded query generator over one store's ``(rho, tau)`` grid.

    Hot points are a fixed set of stored and off-grid points; distinct
    points come from a pool of in-grid off-grid points; compute points lie
    in :data:`COMPUTE_TAUS` and are never repeated, so each one is simulated.
    """

    def __init__(self, rhos: Sequence[float], taus: Sequence[float], w: int, seed: int) -> None:
        self.rng = random.Random(seed)
        self.w = w
        self.rhos = sorted(rhos)
        self.taus = sorted(taus)
        grid = [(rho, tau) for rho in self.rhos for tau in self.taus]
        exact = self.rng.sample(grid, min(12, len(grid)))
        self.hot = [Query("hot", rho, tau, w, exact=True) for rho, tau in exact]
        self.hot += [self._inside("hot") for _ in range(12)]
        self.pool = [self._inside("distinct") for _ in range(DISTINCT_POOL)]
        self._computed: set[tuple[float, float]] = set()

    def _inside(self, kind: str) -> Query:
        """An off-grid point inside the grid's convex hull.

        Rounding can carry a draw just past an edge of the hull (the grid's
        taus have six decimals), where the engine answers from the nearest
        cell instead of interpolating; such draws are redrawn.
        """
        while True:
            rho = round(self.rng.uniform(self.rhos[0], self.rhos[-1]), 5)
            tau = round(self.rng.uniform(self.taus[0], self.taus[-1]), 5)
            if self.rhos[0] <= rho <= self.rhos[-1] and self.taus[0] <= tau <= self.taus[-1]:
                return Query(kind, rho, tau, self.w)

    def compute_point(self) -> Query:
        """A fresh point below the tau range, simulated when asked."""
        while True:
            rho = round(self.rng.uniform(*COMPUTE_RHOS), 5)
            tau = round(self.rng.uniform(*COMPUTE_TAUS), 5)
            if (rho, tau) not in self._computed:
                self._computed.add((rho, tau))
                return Query("compute", rho, tau, self.w)

    def stream(self, n: int) -> list[Query]:
        """``n`` requests dealt from shuffled decks of :data:`QUERY_MIX`."""
        queries: list[Query] = []
        while len(queries) < n:
            deck = [kind for kind, share in QUERY_MIX for _ in range(round(share * DECK))]
            self.rng.shuffle(deck)
            for kind in deck:
                if kind == "hot":
                    queries.append(self.rng.choice(self.hot))
                elif kind == "distinct":
                    queries.append(self.rng.choice(self.pool))
                else:
                    queries.append(self.compute_point())
        return queries[:n]


def digest(payload: object) -> str:
    """Short content digest of a JSON-serializable input description."""
    def default(value: object) -> object:
        return asdict(value) if isinstance(value, Query) else str(value)

    text = json.dumps(payload, sort_keys=True, default=default)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
