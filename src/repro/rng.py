"""Random number generator plumbing.

Every stochastic component of the library accepts either an integer seed, a
:class:`numpy.random.Generator`, or ``None`` (fresh entropy).  The helpers
here normalise those inputs and derive independent child generators for
replicate experiments so that replicates never share streams.

The second half of the module is the *blocked* RNG substrate used by the
vectorized ensemble engine: :class:`BlockedReplicaStreams` pre-draws each
replica's PCG64 raw-word stream in blocks and re-derives numpy's scalar
``Generator.exponential`` / ``Generator.integers`` draws from those words in
vectorized batches, consuming the underlying bit stream *exactly* as the
per-call scalar path would.  That exactness is what lets the ensemble engine
amortise per-flip ``Generator`` call overhead across replicas while staying
bitwise identical to scalar runs.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

#: Anything accepted as a source of randomness by the public API.
SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``Generator`` instances are passed through unchanged so that callers can
    share a stream deliberately; integers and ``SeedSequence`` objects create
    a fresh PCG64 generator; ``None`` draws fresh OS entropy.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, count: int) -> list[np.random.Generator]:
    """Derive ``count`` statistically independent generators from ``seed``.

    The derivation uses :meth:`numpy.random.SeedSequence.spawn`, which
    guarantees non-overlapping streams.  When ``seed`` is already a
    ``Generator`` the child sequences are drawn from it instead, which keeps
    the call reproducible for a fixed parent state.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        child_seeds = seed.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(s)) for s in child_seeds]
    if isinstance(seed, np.random.SeedSequence):
        sequence = seed
    else:
        sequence = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in sequence.spawn(count)]


def replicate_seeds(seed: SeedLike, count: int) -> list[int]:
    """Return ``count`` reproducible integer seeds derived from ``seed``.

    Useful when replicate descriptions need to be serialisable (e.g. stored in
    a result table) rather than carrying generator objects around.
    """
    rngs = spawn_rngs(seed, count)
    return [int(rng.integers(0, 2**31 - 1)) for rng in rngs]


def ensure_distinct(seeds: Sequence[int]) -> None:
    """Raise ``ValueError`` if ``seeds`` contains duplicates.

    Experiment specs call this to guard against accidentally launching
    replicates that would produce identical trajectories.
    """
    if len(set(seeds)) != len(seeds):
        raise ValueError("replicate seeds must be distinct")


def choice_without_replacement(
    rng: np.random.Generator, population: Iterable[int], size: int
) -> np.ndarray:
    """Sample ``size`` distinct elements from ``population``.

    Thin wrapper that materialises the population once and validates the
    request, used by the Kawasaki swapper and the planted-configuration
    generators.
    """
    items = np.asarray(list(population))
    if size > items.size:
        raise ValueError(
            f"cannot sample {size} distinct items from a population of {items.size}"
        )
    return rng.choice(items, size=size, replace=False)


# --------------------------------------------------------------------------
# Blocked replica streams
#
# numpy's scalar draws are thin wrappers over a PCG64 64-bit word stream:
#
# * ``Generator.exponential(scale)`` is ``scale * standard_exponential()``,
#   and the standard exponential is Marsaglia-Tsang ziggurat sampling — the
#   fast path consumes exactly one word ``u`` and returns
#   ``(u >> 11) * WE[(u >> 3) & 0xFF]`` whenever ``u >> 11 < KE[(u >> 3) &
#   0xFF]`` (about 97.8% of draws); the slow path consumes more words.
# * ``Generator.integers(0, n)`` for ``n <= 2**32`` is Lemire's bounded
#   sampler over a *32-bit* sub-stream: PCG64 serves ``next_uint32`` by
#   splitting each 64-bit word into a low half (served first) and a buffered
#   high half, and the buffer survives interleaved 64-bit draws.
#
# Both reductions are exact, so a block of raw words pre-drawn from a
# replica's generator can be turned into the same value sequence the scalar
# calls would produce — across many replicas at once, with numpy array ops.
# The ziggurat tables are numpy internals; they are recovered *exactly* at
# first use by steering a probe PCG64 through chosen output words (see
# ``_calibrate_ziggurat_tables``), then cached on disk per numpy version.
# --------------------------------------------------------------------------

#: The 128-bit LCG multiplier of numpy's PCG64 bit generator.
PCG64_MULTIPLIER = 47026247687942121848144207491837523525
_PCG64_MASK = (1 << 128) - 1
_PCG64_MULT_INV = pow(PCG64_MULTIPLIER, -1, 1 << 128)
_U32_MASK = 0xFFFFFFFF
_ZIG_RI_BITS = 53  #: ziggurat significand width: word >> 11


def pcg64_state_after(state: int, inc: int, delta: int) -> int:
    """The 128-bit PCG64 LCG state ``delta`` 64-bit draws after ``state``.

    Mirrors ``PCG64.advance``: one LCG step per output word.  Used to position
    scratch generators at arbitrary offsets inside a pre-drawn word block and
    to count the words a replayed scalar draw consumed.
    """
    mult, plus = 1, 0
    cur_mult, cur_plus = PCG64_MULTIPLIER, inc
    while delta:
        if delta & 1:
            mult = (mult * cur_mult) & _PCG64_MASK
            plus = (plus * cur_mult + cur_plus) & _PCG64_MASK
        cur_plus = ((cur_mult + 1) * cur_plus) & _PCG64_MASK
        cur_mult = (cur_mult * cur_mult) & _PCG64_MASK
        delta >>= 1
    return (state * mult + plus) & _PCG64_MASK


def _probe_generator_for_word(probe: np.random.Generator, word: int) -> None:
    """Position ``probe`` so that its next 64-bit output is exactly ``word``.

    PCG64's output is the XSL-RR mix of the *post-step* LCG state; a state
    whose high 64 bits are zero mixes to its own low word (rotation 0), so
    stepping the LCG map backwards from that state yields the generator state
    that will emit ``word`` next.
    """
    state = probe.bit_generator.state
    inc = state["state"]["inc"]
    state["state"]["state"] = ((word - inc) * _PCG64_MULT_INV) & _PCG64_MASK
    state["has_uint32"] = 0
    state["uinteger"] = 0
    probe.bit_generator.state = state


def _probe_draw(probe: np.random.Generator, word: int) -> tuple[float, int]:
    """Feed ``word`` to ``standard_exponential``; return (value, words used)."""
    _probe_generator_for_word(probe, word)
    state = probe.bit_generator.state["state"]
    before, inc = state["state"], state["inc"]
    value = probe.standard_exponential()
    after = probe.bit_generator.state["state"]["state"]
    consumed, rolling = 0, before
    while rolling != after:
        rolling = (rolling * PCG64_MULTIPLIER + inc) & _PCG64_MASK
        consumed += 1
        if consumed > 4096:  # pragma: no cover - defensive
            raise RuntimeError("probe draw did not converge")
    return value, consumed


def _calibrate_ziggurat_tables() -> tuple[np.ndarray, np.ndarray]:
    """Recover numpy's exponential-ziggurat tables exactly, by probing.

    For each of the 256 layers the fast-path value table ``WE`` is read off a
    single controlled draw with significand 1 (``1 * WE[idx]`` is ``WE[idx]``
    bitwise), and the acceptance threshold ``KE`` is pinned by binary search
    on the fast/slow classification, observable as exactly-one-word
    consumption.  Layers that never take the fast path get ``KE = 0`` (their
    ``WE`` is never read).  The recovery is exact rather than statistical:
    every probe feeds the ziggurat a chosen word.
    """
    probe = np.random.Generator(np.random.PCG64(0))
    we = np.zeros(256, dtype=np.float64)
    ke = np.zeros(256, dtype=np.uint64)
    top = (1 << _ZIG_RI_BITS) - 1

    def accepted(idx: int, significand: int) -> bool:
        return _probe_draw(probe, (significand << 11) | (idx << 3))[1] == 1

    for idx in range(256):
        if accepted(idx, top):
            ke[idx] = 1 << _ZIG_RI_BITS
        elif not accepted(idx, 0):
            ke[idx] = 0
        else:
            low, high = 0, top  # accepted(low), not accepted(high)
            while high - low > 1:
                mid = (low + high) // 2
                if accepted(idx, mid):
                    low = mid
                else:
                    high = mid
            ke[idx] = high
        if ke[idx] > 1:
            value, consumed = _probe_draw(probe, (1 << 11) | (idx << 3))
            assert consumed == 1
            we[idx] = value
    return we, ke


def _ziggurat_cache_path() -> Path:
    """Per-numpy-version disk cache for the recovered ziggurat tables.

    Scoped to the calling user (uid suffix where the platform has one) so a
    world-writable tempdir never lets another account plant a cache file the
    current user would load; loads are additionally re-verified against live
    draws at freshly randomised probe words (:func:`_verify_ziggurat_tables`).
    """
    uid = getattr(os, "getuid", lambda: "any")()
    return (
        Path(tempfile.gettempdir())
        / f"repro-zigexp-{np.__version__}-u{uid}.npz"
    )


_ZIGGURAT_TABLES: Optional[tuple[np.ndarray, np.ndarray]] = None


def ziggurat_exponential_tables() -> tuple[np.ndarray, np.ndarray]:
    """The ``(WE, KE)`` fast-path tables of numpy's standard exponential.

    Calibrated exactly on first use (a few thousand controlled probe draws,
    well under a second), verified against live draws, and cached both in
    process and on disk keyed by the numpy version.  ``WE`` maps a layer index
    to the fast-path multiplier, ``KE`` to the acceptance bound on the 53-bit
    significand.
    """
    global _ZIGGURAT_TABLES
    if _ZIGGURAT_TABLES is not None:
        return _ZIGGURAT_TABLES
    path = _ziggurat_cache_path()
    tables: Optional[tuple[np.ndarray, np.ndarray]] = None
    try:
        with np.load(path) as data:
            loaded = (data["we"].copy(), data["ke"].copy())
        if _verify_ziggurat_tables(loaded):
            tables = loaded
    except (OSError, KeyError, ValueError):
        tables = None
    if tables is None:
        tables = _calibrate_ziggurat_tables()
        try:  # best-effort cache: never let a read-only tempdir break runs
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".npz")
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, we=tables[0], ke=tables[1])
            os.replace(tmp, path)
        except OSError:
            pass
    _ZIGGURAT_TABLES = tables
    return tables


def _verify_ziggurat_tables(tables: tuple[np.ndarray, np.ndarray]) -> bool:
    """Spot-check cached tables against live ``standard_exponential`` draws.

    Probe words are drawn from fresh OS entropy and cover every layer index,
    so a stale or tampered cache file cannot be crafted to pass by matching a
    predictable probe set: each load faces a different check, and each of the
    256 ``WE``/``KE`` entries is exercised at least once.
    """
    we, ke = tables
    if we.shape != (256,) or ke.shape != (256,):
        return False
    probe = np.random.Generator(np.random.PCG64(0))
    rng = np.random.default_rng()  # fresh entropy: unpredictable probes
    significands = rng.integers(0, 1 << _ZIG_RI_BITS, size=256, dtype=np.uint64)

    def check(idx: int, significand: int) -> bool:
        value, consumed = _probe_draw(probe, (significand << 11) | (idx << 3))
        if significand < int(ke[idx]):
            return consumed == 1 and value == float(significand) * we[idx]
        return consumed != 1

    for idx, significand in enumerate(significands.tolist()):
        # One random probe per layer plus both sides of the layer's claimed
        # acceptance boundary, so every WE/KE entry is pinned per load.
        if not check(idx, int(significand)):
            return False
        boundary = int(ke[idx])
        if boundary > 0 and not check(idx, boundary - 1):
            return False
        if boundary < (1 << _ZIG_RI_BITS) and not check(idx, boundary):
            return False
    return True


class BlockedReplicaStreams:
    """Blocked, bitwise-exact consumption of per-replica PCG64 streams.

    Wraps one :class:`numpy.random.Generator` per replica and serves the two
    scalar draw kinds the dynamics engines perform — ``standard_exponential``
    and ``integers(0, high)`` — from pre-drawn raw-word blocks, vectorized
    across replicas.  Each replica's bit stream is consumed in exactly the
    order and quantity the scalar calls would consume it (ziggurat fast path
    re-derived from the block; rare slow paths replayed through a scratch
    generator positioned at the exact stream offset; Lemire-32 bounded
    integers including the half-word buffer), so every value returned is
    bitwise identical to the corresponding scalar ``Generator`` call.

    ``block_words`` tunes the refill granularity; correctness does not depend
    on it (the boundary property tests run it down to one word per block).

    Two execution regimes serve the same draws from the same buffers:
    :meth:`draw_step` runs a tight scalar loop over memoryviews when few
    replicas are active (array-op dispatch overhead would dominate) and the
    vectorized :meth:`standard_exponential` / :meth:`bounded_integers` pair
    otherwise.  Both consume the buffers identically, so the choice is purely
    a per-round cost decision.
    """

    #: Active-replica count below which the scalar draw loop beats the
    #: vectorized path (array-op dispatch costs ~1us per op; the scalar loop
    #: costs ~1us per replica total).
    SCALAR_PATH_MAX = 32

    def __init__(
        self, rngs: Sequence[np.random.Generator], block_words: int = 4096
    ) -> None:
        if block_words <= 0:
            raise ValueError(f"block_words must be positive, got {block_words}")
        self._rngs = list(rngs)
        n_streams = len(self._rngs)
        if n_streams == 0:
            raise ValueError("BlockedReplicaStreams needs at least one generator")
        self._block_words = int(block_words)
        self._words = np.zeros((n_streams, self._block_words), dtype=np.uint64)
        #: Next unconsumed word per replica; == block_words means exhausted.
        self._pos = np.full(n_streams, self._block_words, dtype=np.int64)
        self._base: list[Optional[int]] = [None] * n_streams
        self._inc: list[int] = []
        self._has32 = np.zeros(n_streams, dtype=bool)
        self._buf32 = np.zeros(n_streams, dtype=np.uint64)
        for index, rng in enumerate(self._rngs):
            state = rng.bit_generator.state
            if state.get("bit_generator") != "PCG64":
                raise ValueError(
                    "BlockedReplicaStreams requires PCG64 generators, got "
                    f"{state.get('bit_generator')!r}"
                )
            self._inc.append(state["state"]["inc"])
            self._has32[index] = bool(state["has_uint32"])
            self._buf32[index] = state["uinteger"]
        self._scratch = np.random.Generator(np.random.PCG64(0))
        self._we, self._ke = ziggurat_exponential_tables()
        # Scalar-path mirrors: memoryviews over the same buffers (list-speed
        # element access) plus the tables as plain Python lists.
        self._words_mv = memoryview(self._words.reshape(-1))
        self._pos_mv = memoryview(self._pos)
        self._has32_mv = memoryview(self._has32)
        self._buf32_mv = memoryview(self._buf32)
        self._we_list = self._we.tolist()
        self._ke_list = self._ke.tolist()

    @property
    def n_streams(self) -> int:
        """Number of wrapped per-replica streams."""
        return len(self._rngs)

    @property
    def block_words(self) -> int:
        """Words pre-drawn per refill."""
        return self._block_words

    # ---------------------------------------------------------------- refills

    def _refill(self, replica: int) -> None:
        """Draw the next word block for ``replica`` from its generator.

        ``pos`` beyond the block end (a slow-path replay that ran past the
        buffer) carries over: those words were already consumed logically, so
        the new block starts with them skipped.
        """
        overrun = int(self._pos[replica]) - self._block_words
        rng = self._rngs[replica]
        self._base[replica] = rng.bit_generator.state["state"]["state"]
        self._words[replica] = rng.integers(
            0, 2**64, size=self._block_words, dtype=np.uint64
        )
        self._pos[replica] = overrun

    def _ensure(self, replicas: np.ndarray) -> None:
        """Refill every listed replica whose block is exhausted.

        A slow-path replay can overrun the block by more than one whole block
        length when ``block_words`` is tiny, hence the loop per replica.
        """
        exhausted = self._pos[replicas] >= self._block_words
        if exhausted.any():
            for replica in replicas[exhausted]:
                while self._pos[replica] >= self._block_words:
                    self._refill(int(replica))

    # ----------------------------------------------------------- exponentials

    def standard_exponential(self, replicas: np.ndarray) -> np.ndarray:
        """One ``Generator.standard_exponential()`` draw per listed replica.

        ``replicas`` must not contain duplicates (one draw each).  The
        ziggurat fast path is computed vectorized from each replica's next
        block word; slow-path draws (~2%) are replayed bitwise through a
        scratch generator positioned at the exact stream offset.
        """
        replicas = np.asarray(replicas, dtype=np.int64)
        if replicas.size == 0:
            return np.empty(0, dtype=np.float64)
        self._ensure(replicas)
        words = self._words[replicas, self._pos[replicas]]
        layer = ((words >> np.uint64(3)) & np.uint64(0xFF)).astype(np.int64)
        significand = words >> np.uint64(11)
        values = significand.astype(np.float64) * self._we[layer]
        self._pos[replicas] += 1
        fast = significand < self._ke[layer]
        if not fast.all():
            for slot in np.flatnonzero(~fast):
                values[slot] = self._replay_exponential(int(replicas[slot]))
        return values

    def _replay_exponential(self, replica: int) -> float:
        """Replay one slow-path exponential draw bitwise via numpy itself.

        The scratch generator is positioned at the replica's exact logical
        stream offset (block base advanced by the consumed word count), the
        scalar call runs, and the words it consumed are counted off the LCG
        state so the block position stays exact — even when the draw runs
        past the end of the pre-drawn block.
        """
        start = int(self._pos[replica]) - 1
        inc = self._inc[replica]
        base = self._base[replica]
        assert base is not None
        before = pcg64_state_after(base, inc, start)
        self._scratch.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": before, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        value = float(self._scratch.standard_exponential())
        after = self._scratch.bit_generator.state["state"]["state"]
        consumed, rolling = 0, before
        while rolling != after:
            rolling = (rolling * PCG64_MULTIPLIER + inc) & _PCG64_MASK
            consumed += 1
        self._pos[replica] = start + consumed
        return value

    # --------------------------------------------------------------- integers

    def bounded_integers(self, replicas: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """One ``Generator.integers(0, high)`` draw per listed replica.

        ``replicas`` must not contain duplicates and every ``high`` must be a
        positive bound below ``2**32`` (grids index their sites well inside
        that).  Implements numpy's exact path for that range: Lemire bounded
        sampling over the buffered 32-bit sub-stream, rejection loop included.
        """
        replicas = np.asarray(replicas, dtype=np.int64)
        highs = np.asarray(highs, dtype=np.int64)
        results = np.zeros(replicas.shape, dtype=np.int64)
        need = highs > 1  # high == 1 returns 0 without consuming anything
        if not need.any():
            return results
        rows = replicas[need]
        bounds = highs[need].astype(np.uint64)
        candidates = np.empty(rows.shape, dtype=np.uint64)
        from_buffer = self._has32[rows]
        if from_buffer.any():
            buffered = rows[from_buffer]
            candidates[from_buffer] = self._buf32[buffered]
            self._has32[buffered] = False
        fresh = ~from_buffer
        if fresh.any():
            fresh_rows = rows[fresh]
            self._ensure(fresh_rows)
            words = self._words[fresh_rows, self._pos[fresh_rows]]
            self._pos[fresh_rows] += 1
            candidates[fresh] = words & np.uint64(_U32_MASK)
            self._buf32[fresh_rows] = words >> np.uint64(32)
            self._has32[fresh_rows] = True
        # Lemire: scaled = candidate * bound fits u64 exactly (both < 2**32).
        scaled = candidates * bounds
        leftover = scaled & np.uint64(_U32_MASK)
        maybe = leftover < bounds
        if maybe.any():
            thresholds = (np.uint64(1 << 32) - bounds[maybe]) % bounds[maybe]
            rejected = leftover[maybe] < thresholds
            if rejected.any():
                slots = np.flatnonzero(maybe)[rejected]
                for slot in slots:
                    scaled[slot] = self._lemire32_rejection_loop(
                        int(rows[slot]), int(bounds[slot])
                    )
        results[need] = (scaled >> np.uint64(32)).astype(np.int64)
        return results

    def draw_step(
        self,
        replicas: np.ndarray,
        highs: np.ndarray,
        exponentials: bool,
    ) -> tuple[Optional[np.ndarray], np.ndarray]:
        """One dynamics step's draws per replica, picking the cheaper regime.

        For each listed replica (no duplicates): one standard-exponential
        draw (when ``exponentials`` — the continuous scheduler's waiting
        time) followed by one ``integers(0, high)`` candidate draw, exactly
        the scalar engine's per-step order.  Returns ``(exponentials,
        candidates)`` with the first entry ``None`` when not requested.
        Small batches run a scalar loop over the block buffers; large ones
        take the vectorized path.  Both are bitwise identical.

        NOTE: the word-consumption protocol is implemented at five sites:

        * here, scalar (the loop below);
        * here, vectorized (:meth:`standard_exponential` /
          :meth:`bounded_integers`);
        * ``NumpyBackend.step_round``, which inlines the scalar loop with
          the round's filtering and clock work;
        * ``kernels.step_round_kernel``, run interpreted or by numba;
        * ``repro_step_round``, its C mirror in ``cffi_backend.py``, which
          the C round loop ``repro_run_rounds`` drives between slow-path
          events.

        Any change to the protocol must touch all five.  The boundary tests
        in ``test_rng.py`` / ``test_core_ensemble.py`` pin the scalar and
        vectorized paths to live ``Generator`` draws, and the cross-backend
        suite in ``test_backends.py`` pins the rest to the numpy backend,
        so a missed site fails fast.
        """
        if replicas.size > self.SCALAR_PATH_MAX:
            values = (
                self.standard_exponential(replicas) if exponentials else None
            )
            return values, self.bounded_integers(replicas, highs)
        words_mv = self._words_mv
        pos_mv = self._pos_mv
        has32_mv = self._has32_mv
        buf32_mv = self._buf32_mv
        ke_list = self._ke_list
        we_list = self._we_list
        block = self._block_words
        exp_values: Optional[list[float]] = [] if exponentials else None
        candidates: list[int] = []
        for replica, high in zip(replicas.tolist(), highs.tolist()):
            word_base = replica * block
            if exp_values is not None:
                position = pos_mv[replica]
                if position >= block:
                    self._refill_until_ready(replica)
                    position = pos_mv[replica]
                word = words_mv[word_base + position]
                pos_mv[replica] = position + 1
                significand = word >> 11
                layer = (word >> 3) & 0xFF
                if significand < ke_list[layer]:
                    # Python's int->float conversion is exact below 2**53 and
                    # the multiply is the same IEEE op as numpy's.
                    exp_values.append(significand * we_list[layer])
                else:
                    exp_values.append(self._replay_exponential(replica))
            if high <= 1:
                candidates.append(0)
                continue
            if has32_mv[replica]:
                candidate = buf32_mv[replica]
                has32_mv[replica] = False
            else:
                position = pos_mv[replica]
                if position >= block:
                    self._refill_until_ready(replica)
                    position = pos_mv[replica]
                word = words_mv[word_base + position]
                pos_mv[replica] = position + 1
                candidate = word & _U32_MASK
                buf32_mv[replica] = word >> 32
                has32_mv[replica] = True
            scaled = candidate * high
            leftover = scaled & _U32_MASK
            if leftover < high:
                threshold = ((1 << 32) - high) % high
                while leftover < threshold:
                    scaled = self._next32_scalar(replica) * high
                    leftover = scaled & _U32_MASK
            candidates.append(scaled >> 32)
        return (
            None if exp_values is None else np.asarray(exp_values, dtype=np.float64),
            np.asarray(candidates, dtype=np.int64),
        )

    def _refill_until_ready(self, replica: int) -> None:
        """Refill ``replica`` until its block position is inside the block."""
        while self._pos[replica] >= self._block_words:
            self._refill(replica)

    def scalar_views(self) -> tuple[memoryview, memoryview, memoryview, memoryview]:
        """The ``(words, pos, has32, buf32)`` memoryviews of the buffers.

        The fused engine's scalar round loop inlines the fast paths of
        :meth:`draw_step` against these live views (the same buffers the
        vectorized methods use, so the regimes stay interchangeable).  On a
        block miss or a ziggurat slow path the caller hands control back via
        :meth:`_refill_until_ready` / :meth:`_replay_exponential` /
        :meth:`_next32_scalar`.
        """
        return self._words_mv, self._pos_mv, self._has32_mv, self._buf32_mv

    def ziggurat_lists(self) -> tuple[list, list]:
        """The ``(KE, WE)`` ziggurat tables as plain lists (scalar contract)."""
        return self._ke_list, self._we_list

    def _next32_scalar(self, replica: int) -> int:
        """The replica's next 32-bit sub-stream value (scalar fallback path)."""
        if self._has32[replica]:
            self._has32[replica] = False
            return int(self._buf32[replica])
        while self._pos[replica] >= self._block_words:
            self._refill(replica)
        word = int(self._words[replica, self._pos[replica]])
        self._pos[replica] += 1
        self._buf32[replica] = word >> 32
        self._has32[replica] = True
        return word & _U32_MASK

    def _lemire32_rejection_loop(self, replica: int, bound: int) -> int:
        """Continue a rejected Lemire draw until acceptance (rare path)."""
        threshold = ((1 << 32) - bound) % bound
        while True:
            scaled = self._next32_scalar(replica) * bound
            if (scaled & _U32_MASK) >= threshold:
                return scaled
