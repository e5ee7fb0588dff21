"""The compiled flip-loop backend (``cffi`` ABI mode + the system cc).

A small C translation unit carries the engine's whole round loop
(``repro_run_rounds``): each round's scalar control plane, the fused window
update and the coded-op sampler maintenance (``repro_coded_ops``, also
exported on its own for the edge-case suite).  It follows the scalar engine
draw for draw, with the same IEEE-754 double expressions and no
``-ffast-math``.  At first use the source is compiled with the system C
compiler into a shared object cached under a per-user temp directory, keyed
by the source, numpy's version and the bytes of the numpy archive it links,
so the compile cost is paid once per machine, not per process.  It is
loaded through ``cffi``'s ABI-mode ``dlopen``.  A cache directory that is
not private to the current user is refused, since ``dlopen`` runs the
library's load-time code.

The hot-call overhead problem (a round at R=8 lasts microseconds; marshaling
~30 array arguments through cffi per call would swamp the C code) is solved
with a pointer-capture struct: :class:`CffiBackend` fills a ``repro_state``
struct with raw pointers into the engine's arrays once per runtime
generation, and each call passes that single struct pointer.  The struct is
rebuilt whenever the engine bumps ``_runtime_generation``, which is what
makes holding raw pointers safe.  A run is one native call (one per
trajectory segment, and ``step_all`` is one call of one round), and cffi
releases the GIL for its whole length.

Every RNG word the kernel reads comes through one C reader, ``next_word``,
over the replica's pre-drawn block in
:class:`~repro.rng.BlockedReplicaStreams`.  At the block end the reader
refills the block in place by stepping the replica's PCG64 state itself
(128-bit LCG, XSL-RR output of the post-step state) and records the new
state and block base in the stream arrays; C is the only code that reads
or refills them.  Exponential waiting times are numpy's own
``random_standard_exponential``, linked from the ``libnpyrandom.a`` archive
numpy ships, run on a ``bitgen_t`` whose words come from that reader: the
ziggurat's fast and slow paths are numpy's code, not a port of it.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import stat
import subprocess
import tempfile
from typing import Optional, Sequence

import numpy as np

from repro.core.backends.base import FlipLoopBackend, RunBudget
from repro.errors import StateError
from repro.rng import PCG64_MULTIPLIER
from repro.types import FlipRule, SchedulerKind
from repro.utils.indexset import BatchedIndexSet

_INT64_MAX = (1 << 63) - 1

#: numpy's prebuilt sampler library (``numpy/random/lib``), linked into the
#: kernel for ``random_standard_exponential``.
_NPYRANDOM_ARCHIVE = os.path.join(
    os.path.dirname(np.random.__file__), "lib", "libnpyrandom.a"
)

_CDEF = """
typedef struct {
    int64_t *counts;
    int32_t *members;
    int32_t *positions;
    double *times;
    int64_t *steps;
    int8_t *code;
    uint64_t *words;
    int64_t *pos;
    uint8_t *has32;
    uint64_t *buf32;
    uint64_t *pcg_state;
    uint64_t *pcg_inc;
    uint64_t *pcg_base;
    int64_t block;
    int64_t n_sites;
    int64_t n_replicas;
    int64_t term_offset;
    int64_t sampler_offset;
    int64_t continuous;
    int64_t discrete_gate;
    int64_t *out_reps;
    int64_t *out_flats;
    int8_t *spins;
    int16_t *same;
    int64_t *row_lut;
    int64_t *col_lut;
    int64_t n_cols;
    int64_t window_side;
    int64_t window_area;
    int64_t center_col;
    int64_t total;
    int8_t *code_lut;
    int64_t lut_stride;
    int64_t *energies;
    int64_t *n_plus;
    int64_t *win_buf;
    int8_t *spin_buf;
    int64_t *same_buf;
    int8_t *old_code_buf;
    int8_t *new_code_buf;
    int64_t *op_rows;
    int64_t *op_indices;
    int64_t *op_toggled;
    int64_t *op_members;
    int64_t *candidates;
    int64_t *flips;
    int64_t *start_flips;
    int64_t *start_steps;
    int64_t max_flips;
    int64_t max_steps;
    double max_time;
    int64_t track;
} repro_state;

int64_t repro_run_rounds(repro_state *st, int64_t max_rounds);
void repro_coded_ops(const int64_t *rows, const int64_t *indices,
                     const int64_t *toggled, const int64_t *member_codes,
                     int64_t n_ops, int32_t *members, int32_t *positions,
                     int64_t *counts, int64_t capacity, int64_t row_offset);
double repro_standard_exponential(repro_state *st, int64_t replica);
int64_t repro_selfcheck(void);
"""

# The compiled flip loop.  It must advance the engine bit for bit like the
# scalar engine and the numpy backend; the scalar-equivalence and
# cross-backend bitwise suites are the enforcement.
_SOURCE = (
    "#include <stdint.h>\n"
    '#include "numpy/random/bitgen.h"\n'
    + _CDEF
    + f"""
#define PCG64_MULT_HI 0x{PCG64_MULTIPLIER >> 64:016x}ULL
#define PCG64_MULT_LO 0x{PCG64_MULTIPLIER & ((1 << 64) - 1):016x}ULL
"""
    + r"""
/* numpy's ziggurat exponential, linked from libnpyrandom.a (declared in
   numpy/random/distributions.h, which needs Python.h to include). */
extern double random_standard_exponential(bitgen_t *bitgen_state);

static void refill_block(repro_state *st, int64_t replica)
{
    /* The replica's next block, as numpy's PCG64 emits it: step the 128-bit
       LCG, output the XSL-RR mix of the post-step state.  Reading restarts
       at the block's first word. */
    uint64_t *state = st->pcg_state + 2 * replica;
    const uint64_t *inc = st->pcg_inc + 2 * replica;
    uint64_t *base = st->pcg_base + 2 * replica;
    uint64_t *words = st->words + replica * st->block;
    __uint128_t s = ((__uint128_t)state[1] << 64) | state[0];
    __uint128_t plus = ((__uint128_t)inc[1] << 64) | inc[0];
    __uint128_t mult = ((__uint128_t)PCG64_MULT_HI << 64) | PCG64_MULT_LO;
    base[0] = state[0];
    base[1] = state[1];
    for (int64_t k = 0; k < st->block; k++) {
        s = s * mult + plus;
        uint64_t hi = (uint64_t)(s >> 64);
        uint64_t x = hi ^ (uint64_t)s;
        unsigned rot = (unsigned)(hi >> 58);
        words[k] = (x >> rot) | (x << ((64u - rot) & 63u));
    }
    state[0] = (uint64_t)s;
    state[1] = (uint64_t)(s >> 64);
    st->pos[replica] = 0;
}

static inline uint64_t next_word(repro_state *st, int64_t replica)
{
    /* The one word reader: waiting times, candidates and the sampler's
       slow path all consume the replica's stream through it. */
    if (st->pos[replica] >= st->block)
        refill_block(st, replica);
    int64_t position = st->pos[replica];
    st->pos[replica] = position + 1;
    return st->words[replica * st->block + position];
}

static inline uint64_t next_half_word(repro_state *st, int64_t replica)
{
    /* PCG64's next_uint32: the low half of a fresh word, its high half
       buffered for the next call. */
    if (st->has32[replica]) {
        st->has32[replica] = 0;
        return st->buf32[replica];
    }
    uint64_t word = next_word(st, replica);
    st->buf32[replica] = word >> 32;
    st->has32[replica] = 1;
    return word & 0xFFFFFFFFULL;
}

typedef struct {
    repro_state *st;
    int64_t replica;
} word_source;

static uint64_t source_next_uint64(void *source)
{
    word_source *src = (word_source *)source;
    return next_word(src->st, src->replica);
}

static uint32_t source_next_uint32(void *source)
{
    word_source *src = (word_source *)source;
    return (uint32_t)next_half_word(src->st, src->replica);
}

static double source_next_double(void *source)
{
    /* PCG64's next_double, bit for bit. */
    return (double)(source_next_uint64(source) >> 11)
           * (1.0 / 9007199254740992.0);
}

double repro_standard_exponential(repro_state *st, int64_t replica)
{
    word_source source = {st, replica};
    bitgen_t bitgen = {&source, source_next_uint64, source_next_uint32,
                       source_next_double, source_next_uint64};
    return random_standard_exponential(&bitgen);
}

static int64_t repro_step_round(repro_state *st, int64_t n_candidates)
{
    /* One step per replica in st->candidates; returns the number of flips
       collected in out_reps/out_flats. */
    int64_t n_out = 0;
    for (int64_t i = 0; i < n_candidates; i++) {
        int64_t replica = st->candidates[i];
        if (st->counts[replica + st->term_offset] == 0)
            continue;
        int64_t sampler_row = replica + st->sampler_offset;
        int64_t size = st->counts[sampler_row];
        if (size == 0)
            continue;
        /* Waiting time first (continuous scheduler), then candidate. */
        if (st->continuous != 0) {
            double wait = repro_standard_exponential(st, replica);
            st->times[replica] += (1.0 / (double)size) * wait;
        } else {
            st->times[replica] += 1.0;
        }
        st->steps[replica] += 1;
        int64_t draw = 0;
        if (size > 1) {
            /* numpy's integers(0, size): Lemire over the 32-bit stream. */
            uint64_t usize = (uint64_t)size;
            uint64_t scaled = next_half_word(st, replica) * usize;
            uint64_t leftover = scaled & 0xFFFFFFFFULL;
            if (leftover < usize) {
                uint64_t threshold = (0x100000000ULL - usize) % usize;
                while (leftover < threshold) {
                    scaled = next_half_word(st, replica) * usize;
                    leftover = scaled & 0xFFFFFFFFULL;
                }
            }
            draw = (int64_t)(scaled >> 32);
        }
        int64_t flat = st->members[sampler_row * st->n_sites + draw];
        if (st->discrete_gate != 0
            && (st->code[replica * st->n_sites + flat] & 2) == 0) {
            /* Discrete scheduler samples unhappy agents; may refuse. */
            continue;
        }
        st->out_reps[n_out] = replica;
        st->out_flats[n_out] = flat;
        n_out += 1;
    }
    return n_out;
}

static int64_t repro_apply_flips(repro_state *st, int64_t n_flips)
{
    /* The window update of the round's flips in out_reps/out_flats;
       returns the number of coded ops written to the op buffers. */
    int64_t n_ops = 0;
    for (int64_t k = 0; k < n_flips; k++) {
        int64_t rep = st->out_reps[k];
        int64_t flat = st->out_flats[k];
        int64_t base = rep * st->n_sites;
        int64_t center = base + flat;
        int8_t new_value = (int8_t)(-st->spins[center]);
        st->spins[center] = new_value;
        int64_t row = flat / st->n_cols;
        int64_t col = flat - row * st->n_cols;
        const int64_t *row_offsets = st->row_lut + row * st->window_side;
        const int64_t *col_offsets = st->col_lut + col * st->window_side;
        for (int64_t a = 0; a < st->window_side; a++) {
            int64_t abase = a * st->window_side;
            for (int64_t b = 0; b < st->window_side; b++)
                st->win_buf[abase + b] = row_offsets[a] + col_offsets[b];
        }
        int64_t dv = (int64_t)new_value;
        int64_t spin_sum = 0;
        for (int64_t j = 0; j < st->window_area; j++) {
            int64_t g = base + st->win_buf[j];
            int8_t s = st->spins[g];
            st->spin_buf[j] = s;
            st->same_buf[j] = st->same[g];
            spin_sum += s;
        }
        int64_t old_center = st->same_buf[st->center_col];
        /* Incremental counters from the pre-update centre count. */
        if (st->track != 0) {
            st->energies[rep] += dv * spin_sum + st->total - 2 * old_center;
            st->n_plus[rep] += dv;
        }
        for (int64_t j = 0; j < st->window_area; j++)
            st->same_buf[j] = st->same_buf[j] + dv * st->spin_buf[j];
        st->same_buf[st->center_col] = st->total + 1 - old_center;
        for (int64_t j = 0; j < st->window_area; j++) {
            int64_t g = base + st->win_buf[j];
            st->same[g] = (int16_t)st->same_buf[j];
            int64_t spin_row = st->spin_buf[j] > 0 ? 1 : 0;
            int8_t new_code =
                st->code_lut[spin_row * st->lut_stride + st->same_buf[j]];
            st->new_code_buf[j] = new_code;
            st->old_code_buf[j] = st->code[g];
            st->code[g] = new_code;
        }
        for (int64_t j = 0; j < st->window_area; j++) {
            int8_t old_code = st->old_code_buf[j];
            int8_t new_code = st->new_code_buf[j];
            if (old_code == new_code)
                continue;
            st->op_rows[n_ops] = rep;
            st->op_indices[n_ops] = st->win_buf[j];
            st->op_toggled[n_ops] = old_code ^ new_code;
            st->op_members[n_ops] = new_code ^ 1;
            n_ops += 1;
        }
    }
    return n_ops;
}

void repro_coded_ops(const int64_t *rows, const int64_t *indices,
                     const int64_t *toggled, const int64_t *member_codes,
                     int64_t n_ops, int32_t *members, int32_t *positions,
                     int64_t *counts, int64_t capacity, int64_t row_offset)
{
    int64_t offset_base = row_offset * capacity;
    for (int64_t k = 0; k < n_ops; k++) {
        int64_t row = rows[k];
        int64_t index = indices[k];
        int64_t toggle = toggled[k];
        int64_t member = member_codes[k];
        int64_t base = row * capacity;
        if (toggle & 1) {
            int64_t target = base + index;
            int64_t position = positions[target];
            if (member & 1) {
                if (position < 0) {
                    int64_t count = counts[row];
                    members[base + count] = (int32_t)index;
                    positions[target] = (int32_t)count;
                    counts[row] = count + 1;
                }
            } else if (position >= 0) {
                int64_t count = counts[row] - 1;
                counts[row] = count;
                int64_t last = members[base + count];
                members[base + position] = (int32_t)last;
                positions[base + last] = (int32_t)position;
                positions[target] = -1;
            }
        }
        if (toggle & 2) {
            int64_t pair_row = row + row_offset;
            int64_t pair_base = base + offset_base;
            int64_t target = pair_base + index;
            int64_t position = positions[target];
            if (member & 2) {
                if (position < 0) {
                    int64_t count = counts[pair_row];
                    members[pair_base + count] = (int32_t)index;
                    positions[target] = (int32_t)count;
                    counts[pair_row] = count + 1;
                }
            } else if (position >= 0) {
                int64_t count = counts[pair_row] - 1;
                counts[pair_row] = count;
                int64_t last = members[pair_base + count];
                members[pair_base + position] = (int32_t)last;
                positions[pair_base + last] = (int32_t)position;
                positions[target] = -1;
            }
        }
    }
}

int64_t repro_run_rounds(repro_state *st, int64_t max_rounds)
{
    /* The engine's round loop (FlipLoopBackend.run_rounds) in one call:
       build the active set, step it, apply the round's flips.  Returns the
       number of rounds run, at termination, at the budget or after
       max_rounds (a trajectory-sample boundary or step_all's one round). */
    int64_t rounds = 0;
    while (rounds < max_rounds) {
        int64_t n_active = 0;
        for (int64_t r = 0; r < st->n_replicas; r++) {
            if (st->counts[r + st->term_offset] == 0
                || st->flips[r] - st->start_flips[r] >= st->max_flips
                || st->steps[r] - st->start_steps[r] >= st->max_steps
                || !(st->times[r] < st->max_time))
                continue;
            st->candidates[n_active] = r;
            n_active += 1;
        }
        if (n_active == 0)
            break;
        int64_t n_out = repro_step_round(st, n_active);
        if (n_out > 0) {
            int64_t n_ops = repro_apply_flips(st, n_out);
            repro_coded_ops(st->op_rows, st->op_indices, st->op_toggled,
                            st->op_members, n_ops, st->members,
                            st->positions, st->counts, st->n_sites,
                            st->n_replicas);
            for (int64_t k = 0; k < n_out; k++)
                st->flips[st->out_reps[k]] += 1;
        }
        rounds += 1;
    }
    return rounds;
}

int64_t repro_selfcheck(void)
{
    /* Probe the double semantics the bitwise contract needs: exact
       uint64 -> double conversion below 2^53 (the ziggurat significand is
       53 bits) and a round-to-nearest reciprocal-scale product matching
       the IEEE value numpy computes for the same expression. */
    uint64_t big = ((uint64_t)1 << 53) - 1;
    if ((uint64_t)(double)big != big)
        return 1;
    double scale = 1.0 / (double)86;
    if (scale * 9007199254740991.0 != 0x1.7d05f417d05f3p+46)
        return 2;
    return 0;
}
"""
)

_CACHE: dict[str, object] = {}
_UNAVAILABLE_REASON: Optional[str] = None


def _find_compiler() -> Optional[str]:
    """Locate a C compiler, honouring ``CC`` then common names."""
    env_cc = os.environ.get("CC")
    if env_cc:
        found = shutil.which(env_cc)
        if found:
            return found
    for name in ("cc", "gcc", "clang"):
        found = shutil.which(name)
        if found:
            return found
    return None


def _library_path() -> str:
    """Per-user cache path for the compiled shared object, hash-keyed.

    The key covers everything the object is built from: the C source,
    numpy's version and the bytes of the numpy archive it links.
    """
    try:
        with open(_NPYRANDOM_ARCHIVE, "rb") as handle:
            archive_digest = hashlib.sha256(handle.read()).digest()
    except OSError as exc:
        raise RuntimeError(
            f"numpy's sampler archive {_NPYRANDOM_ARCHIVE} is not readable "
            f"({exc.strerror or exc}); the C kernel links it"
        ) from exc
    key = hashlib.sha256(_SOURCE.encode())
    key.update(np.__version__.encode())
    key.update(archive_digest)
    digest = key.hexdigest()[:16]
    try:
        uid = os.getuid()
    except AttributeError:  # pragma: no cover - non-posix
        uid = 0
    cache_dir = os.path.join(
        tempfile.gettempdir(), f"repro-cffi-{uid}"
    )
    os.makedirs(cache_dir, mode=0o700, exist_ok=True)
    # The library's load-time code runs on dlopen, and its name follows from
    # public source: only a private directory of our own may supply it.
    info = os.lstat(cache_dir)
    if (
        not stat.S_ISDIR(info.st_mode)
        or info.st_uid != uid
        or info.st_mode & 0o022
    ):
        raise RuntimeError(
            f"refusing compiled-kernel cache {cache_dir}: not a directory "
            f"owned by uid {uid} without group/other write access"
        )
    return os.path.join(cache_dir, f"libreproflip-{digest}.so")


def _int64_budget(value: Optional[float]) -> int:
    """An int64 ``b`` with ``count < b`` iff ``count < value`` for int counts."""
    if value is None or value >= _INT64_MAX:
        return _INT64_MAX
    if value <= -_INT64_MAX:
        return -_INT64_MAX
    # Ceiling by floor division: exact for Python and numpy ints and floats
    # alike (math.ceil rounds numpy ints through float64).
    return -int(-value // 1)


def _load_library():
    """Compile (if needed) and dlopen the kernel library; memoized.

    Raises ``RuntimeError`` with the underlying reason on any failure; the
    availability probe converts that into a clean "not available".
    """
    if "lib" in _CACHE:
        return _CACHE["ffi"], _CACHE["lib"]
    try:
        import cffi
    except ImportError as exc:  # pragma: no cover - cffi ships with image
        raise RuntimeError(f"cffi not importable: {exc}") from exc
    ffi = cffi.FFI()
    ffi.cdef(_CDEF)
    so_path = _library_path()
    if not os.path.exists(so_path):
        compiler = _find_compiler()
        if compiler is None:
            raise RuntimeError("no C compiler found (tried $CC, cc, gcc, clang)")
        with tempfile.TemporaryDirectory(
            dir=os.path.dirname(so_path)
        ) as build_dir:
            c_path = os.path.join(build_dir, "reproflip.c")
            with open(c_path, "w", encoding="utf-8") as handle:
                handle.write(_SOURCE)
            tmp_so = os.path.join(build_dir, "libreproflip.so")
            proc = subprocess.run(
                [
                    compiler, "-O2", "-fPIC", "-shared",
                    "-I", np.get_include(),
                    "-o", tmp_so, c_path, _NPYRANDOM_ARCHIVE, "-lm",
                ],
                capture_output=True,
                text=True,
                timeout=120,
            )
            if proc.returncode != 0:
                raise RuntimeError(
                    f"C compile failed ({compiler}, linking "
                    f"{_NPYRANDOM_ARCHIVE}): {proc.stderr.strip()[:500]}"
                )
            # Atomic publish so concurrent sweep workers race benignly.
            os.replace(tmp_so, so_path)
    lib = ffi.dlopen(so_path)
    check = lib.repro_selfcheck()
    if check != 0:
        raise RuntimeError(f"compiled kernel failed self-check ({check})")
    _CACHE["ffi"] = ffi
    _CACHE["lib"] = lib
    return ffi, lib


def cffi_available() -> bool:
    """True when the C backend can compile and load on this host (memoized)."""
    global _UNAVAILABLE_REASON
    if "lib" in _CACHE:
        return True
    if _UNAVAILABLE_REASON is not None:
        return False
    try:
        _load_library()
        return True
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        _UNAVAILABLE_REASON = str(exc)
        return False


def cffi_unavailable_reason() -> Optional[str]:
    """Why the C backend is unavailable, or ``None`` when it is usable."""
    cffi_available()
    return _UNAVAILABLE_REASON


class CffiBackend(FlipLoopBackend):
    """The flip loop as compiled C behind a pointer-capture struct."""

    name = "cffi"

    def attach(self, engine) -> None:
        super().attach(engine)
        r = engine.n_replicas
        area = engine._window_area
        self._candidates = np.empty(r, dtype=np.int64)
        self._out_reps = np.empty(r, dtype=np.int64)
        self._out_flats = np.empty(r, dtype=np.int64)
        self._win_buf = np.empty(area, dtype=np.int64)
        self._spin_buf = np.empty(area, dtype=np.int8)
        self._same_buf = np.empty(area, dtype=np.int64)
        self._old_code_buf = np.empty(area, dtype=np.int8)
        self._new_code_buf = np.empty(area, dtype=np.int8)
        self._op_rows = np.empty(r * area, dtype=np.int64)
        self._op_indices = np.empty(r * area, dtype=np.int64)
        self._op_toggled = np.empty(r * area, dtype=np.int64)
        self._op_members = np.empty(r * area, dtype=np.int64)
        # The run's start counters, filled by each run_rounds call.
        self._start_flips = np.zeros(r, dtype=np.int64)
        self._start_steps = np.zeros(r, dtype=np.int64)
        only_if_happy = engine.flip_rule is FlipRule.ONLY_IF_HAPPY
        self._continuous = engine.scheduler is SchedulerKind.CONTINUOUS
        self._discrete_gate = only_if_happy and not self._continuous
        self._term_offset = r if only_if_happy else 0
        self._sampler_offset = r if (only_if_happy and self._continuous) else 0
        self._capture()

    def _capture(self) -> None:
        """(Re)bind the ``repro_state`` struct to the engine's arrays.

        Most of the engine's buffers are allocated once and mutated in
        place, but ``recompute_all`` rebuilds the classification LUT, so the
        capture re-runs whenever the engine bumps its runtime generation.
        Every array the struct points into stays referenced by ``self`` or
        by the engine, and every entry point reads ``self.engine`` (which
        raises once the weakly held engine is gone) before calling into C,
        so no pointer outlives its buffer.
        """
        engine = self.engine
        streams = engine._streams
        self._members_flat, self._positions_flat, self._counts = (
            engine._sets.storage()
        )
        self._words_flat = streams._words.reshape(-1)
        # Contiguous copy: recompute_all rebinds the LUT, and the C code
        # wants one stable 2-row table either way.
        self._code_lut2 = np.ascontiguousarray(engine._code_lut, dtype=np.int8)
        ffi, lib = _load_library()
        self._ffi = ffi
        self._lib = lib
        st = ffi.new("repro_state *")
        ptr = self._ptr
        st.counts = ptr("int64_t *", self._counts)
        st.members = ptr("int32_t *", self._members_flat)
        st.positions = ptr("int32_t *", self._positions_flat)
        st.times = ptr("double *", engine._times)
        st.steps = ptr("int64_t *", engine._n_steps)
        st.code = ptr("int8_t *", engine._code_flat)
        st.words = ptr("uint64_t *", self._words_flat)
        st.pos = ptr("int64_t *", streams._pos)
        st.has32 = ptr("uint8_t *", streams._has32)
        st.buf32 = ptr("uint64_t *", streams._buf32)
        st.pcg_state = ptr("uint64_t *", streams._state)
        st.pcg_inc = ptr("uint64_t *", streams._inc)
        st.pcg_base = ptr("uint64_t *", streams._base)
        st.block = streams.block_words
        st.n_sites = engine._n_sites
        st.n_replicas = engine.n_replicas
        st.term_offset = self._term_offset
        st.sampler_offset = self._sampler_offset
        st.continuous = 1 if self._continuous else 0
        st.discrete_gate = 1 if self._discrete_gate else 0
        st.out_reps = ptr("int64_t *", self._out_reps)
        st.out_flats = ptr("int64_t *", self._out_flats)
        st.spins = ptr("int8_t *", engine._spins_flat)
        st.same = ptr("int16_t *", engine._same_flat)
        st.row_lut = ptr("int64_t *", engine._row_lut)
        st.col_lut = ptr("int64_t *", engine._col_lut)
        st.n_cols = engine.config.n_cols
        st.window_side = 2 * engine.config.horizon + 1
        st.window_area = engine._window_area
        st.center_col = engine._center_col
        st.total = engine.config.neighborhood_agents
        st.code_lut = ptr("int8_t *", self._code_lut2)
        st.lut_stride = self._code_lut2.shape[1]
        st.energies = ptr("int64_t *", engine._energies)
        st.n_plus = ptr("int64_t *", engine._n_plus)
        st.win_buf = ptr("int64_t *", self._win_buf)
        st.spin_buf = ptr("int8_t *", self._spin_buf)
        st.same_buf = ptr("int64_t *", self._same_buf)
        st.old_code_buf = ptr("int8_t *", self._old_code_buf)
        st.new_code_buf = ptr("int8_t *", self._new_code_buf)
        st.op_rows = ptr("int64_t *", self._op_rows)
        st.op_indices = ptr("int64_t *", self._op_indices)
        st.op_toggled = ptr("int64_t *", self._op_toggled)
        st.op_members = ptr("int64_t *", self._op_members)
        st.candidates = ptr("int64_t *", self._candidates)
        st.flips = ptr("int64_t *", engine._n_flips)
        st.start_flips = ptr("int64_t *", self._start_flips)
        st.start_steps = ptr("int64_t *", self._start_steps)
        self._state = st
        self._run_fn = lib.repro_run_rounds
        self._captured_generation = engine._runtime_generation

    def _ptr(self, ctype: str, array: np.ndarray):
        """Raw pointer into ``array``'s buffer (writable, zero-copy).

        The element width must match the C type: an array narrowed or
        widened on the Python side fails here instead of being misread.
        """
        element = ctype[: -len(" *")]
        if array.itemsize != self._ffi.sizeof(element) or not array.flags.c_contiguous:
            raise StateError(
                f"the C kernel reads {element} here, got a "
                f"{'' if array.flags.c_contiguous else 'non-contiguous '}"
                f"{array.dtype} array"
            )
        return self._ffi.cast(ctype, self._ffi.from_buffer(array))

    def run_rounds(self, budget: RunBudget, max_rounds: Optional[int] = None) -> int:
        """The whole round loop as one native call.

        ``repro_run_rounds`` builds each round's active set from the budget,
        steps it and applies its flips, and returns only at termination, at
        the budget or after ``max_rounds`` rounds.  RNG block refills and
        the sampler's slow paths run inside it.
        """
        engine = self.engine
        if self._captured_generation != engine._runtime_generation:
            self._capture()
        st = self._state
        self._start_flips[:] = budget.start_flips
        self._start_steps[:] = budget.start_steps
        st.max_flips = _int64_budget(budget.max_flips)
        st.max_steps = _int64_budget(budget.max_steps)
        st.max_time = math.inf if budget.max_time is None else budget.max_time
        st.track = 1 if engine._track_counters else 0
        limit = _INT64_MAX if max_rounds is None else max_rounds
        rounds = self._run_fn(st, limit)
        if rounds and not engine._track_counters:
            engine._counters_stale = True
        return rounds

    def apply_coded_ops(
        self,
        sets: BatchedIndexSet,
        rows: Sequence[int],
        indices: Sequence[int],
        toggled: Sequence[int],
        members: Sequence[int],
        row_offset: int,
    ) -> None:
        ffi, lib = _load_library()
        members_flat, positions_flat, counts = sets.storage()
        row_arr = np.ascontiguousarray(rows, dtype=np.int64)
        idx_arr = np.ascontiguousarray(indices, dtype=np.int64)
        tog_arr = np.ascontiguousarray(toggled, dtype=np.int64)
        mem_arr = np.ascontiguousarray(members, dtype=np.int64)
        lib.repro_coded_ops(
            ffi.cast("const int64_t *", ffi.from_buffer(row_arr)),
            ffi.cast("const int64_t *", ffi.from_buffer(idx_arr)),
            ffi.cast("const int64_t *", ffi.from_buffer(tog_arr)),
            ffi.cast("const int64_t *", ffi.from_buffer(mem_arr)),
            len(row_arr),
            ffi.cast("int32_t *", ffi.from_buffer(members_flat)),
            ffi.cast("int32_t *", ffi.from_buffer(positions_flat)),
            ffi.cast("int64_t *", ffi.from_buffer(counts)),
            sets.capacity,
            row_offset,
        )
