"""The compiled flip-loop backend (``cffi`` ABI mode + the system cc).

A small C translation unit carries the flip loop: the round's scalar
control plane (``repro_step_round``), the fused window update
(``repro_apply_flips``), the coded-op sampler maintenance
(``repro_coded_ops``) and the engine's whole round loop
(``repro_run_rounds``).  It follows the numpy reference draw for draw, with
the same IEEE-754 double expressions and no ``-ffast-math``.  At first use
the source is compiled with the system C compiler into a shared object
cached under a per-user temp directory keyed by the source hash, so the
compile cost is paid once per machine, not per process.  It is loaded
through ``cffi``'s ABI-mode ``dlopen``.  A cache directory that is not
private to the current user is refused, since ``dlopen`` runs the library's
load-time code.

The hot-call overhead problem (a round at R=8 lasts microseconds; marshaling
~30 array arguments through cffi per call would swamp the C code) is solved
with a pointer-capture struct: :class:`CffiBackend` fills a ``repro_state``
struct with raw pointers into the engine's arrays once per runtime
generation, and each call passes that single struct pointer.  The struct is
rebuilt whenever the engine bumps ``_runtime_generation``, which is what
makes holding raw pointers safe.  A run costs one native call per RNG
slow-path event rather than three per round.

The rare slow paths (block refill, ziggurat slow path) are *not*
reimplemented in C: the step function returns a status code and the host
services the event through the stream's own methods, then resumes the C
call at the exact phase it left.  Fast paths therefore never diverge from
numpy's own bit streams.
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
from repro.types import FlipRule, SchedulerKind
from repro.utils.indexset import BatchedIndexSet

# Step-function status codes (the C ``STATUS_*`` defines): why it returned.
STATUS_DONE = 0
#: Block exhausted before the waiting-time word; nothing consumed yet.
STATUS_REFILL_START = 1
#: Ziggurat fast test failed; the word is consumed, the host replays the
#: draw through the scratch generator and applies the clock update itself.
STATUS_ZIGGURAT_SLOW = 2
#: Block exhausted inside the candidate draw; clock already updated.
STATUS_REFILL_CANDIDATE = 3

# Resume phases: where to re-enter the interrupted replica.
PHASE_START = 0
PHASE_CANDIDATE = 1

_INT64_MAX = (1 << 63) - 1

_CDEF = """
typedef struct {
    int64_t *counts;
    int64_t *members;
    int64_t *positions;
    double *times;
    int64_t *steps;
    int8_t *code;
    uint64_t *words;
    int64_t *pos;
    uint8_t *has32;
    uint64_t *buf32;
    uint64_t *ke;
    double *we;
    int64_t block;
    int64_t n_sites;
    int64_t n_replicas;
    int64_t term_offset;
    int64_t sampler_offset;
    int64_t continuous;
    int64_t discrete_gate;
    int64_t *out_reps;
    int64_t *out_flats;
    int64_t *event;
    int8_t *spins;
    int64_t *same;
    int64_t full_lut;
    int32_t *window_lut;
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
    int64_t n_active;
    int64_t rounds;
} repro_state;

int64_t repro_step_round(repro_state *st, const int64_t *candidates,
                         int64_t n_candidates, int64_t start, int64_t phase,
                         int64_t n_out);
int64_t repro_run_rounds(repro_state *st, int64_t max_rounds, int64_t phase);
int64_t repro_apply_flips(repro_state *st, const int64_t *reps,
                          const int64_t *flats, int64_t n_flips,
                          int64_t track);
void repro_coded_ops(const int64_t *rows, const int64_t *indices,
                     const int64_t *toggled, const int64_t *member_codes,
                     int64_t n_ops, int64_t *members, int64_t *positions,
                     int64_t *counts, int64_t capacity, int64_t row_offset);
int64_t repro_selfcheck(void);
"""

# The compiled flip loop.  It must advance the engine bit for bit like the
# numpy backend; the cross-backend bitwise suite is the enforcement.
_SOURCE = (
    "#include <stdint.h>\n"
    + _CDEF
    + r"""
#define STATUS_DONE 0
#define STATUS_REFILL_START 1
#define STATUS_ZIGGURAT_SLOW 2
#define STATUS_REFILL_CANDIDATE 3
#define PHASE_START 0

int64_t repro_step_round(repro_state *st, const int64_t *candidates,
                         int64_t n_candidates, int64_t start, int64_t phase,
                         int64_t n_out)
{
    int64_t i = start;
    while (i < n_candidates) {
        int64_t replica = candidates[i];
        if (st->counts[replica + st->term_offset] == 0) {
            i += 1;
            phase = PHASE_START;
            continue;
        }
        int64_t sampler_row = replica + st->sampler_offset;
        int64_t size = st->counts[sampler_row];
        if (size == 0) {
            i += 1;
            phase = PHASE_START;
            continue;
        }
        int64_t word_base = replica * st->block;
        if (phase == PHASE_START) {
            /* Waiting time first (continuous scheduler), then candidate. */
            if (st->continuous != 0) {
                int64_t position = st->pos[replica];
                if (position >= st->block) {
                    st->event[0] = replica;
                    st->event[1] = i;
                    st->event[2] = n_out;
                    return STATUS_REFILL_START;
                }
                uint64_t word = st->words[word_base + position];
                st->pos[replica] = position + 1;
                uint64_t significand = word >> 11;
                uint64_t layer = (word >> 3) & 0xFFu;
                double wait;
                if (significand < st->ke[layer]) {
                    wait = (double)significand * st->we[layer];
                } else {
                    st->event[0] = replica;
                    st->event[1] = i;
                    st->event[2] = n_out;
                    return STATUS_ZIGGURAT_SLOW;
                }
                st->times[replica] += (1.0 / (double)size) * wait;
            } else {
                st->times[replica] += 1.0;
            }
            st->steps[replica] += 1;
        }
        phase = PHASE_START;
        int64_t draw;
        if (size > 1) {
            uint64_t usize = (uint64_t)size;
            uint64_t scaled = 0;
            uint64_t threshold = 0;
            int threshold_ready = 0;
            for (;;) {
                uint64_t cand32;
                if (st->has32[replica]) {
                    cand32 = st->buf32[replica];
                    st->has32[replica] = 0;
                } else {
                    int64_t position = st->pos[replica];
                    if (position >= st->block) {
                        st->event[0] = replica;
                        st->event[1] = i;
                        st->event[2] = n_out;
                        return STATUS_REFILL_CANDIDATE;
                    }
                    uint64_t word = st->words[word_base + position];
                    st->pos[replica] = position + 1;
                    cand32 = word & 0xFFFFFFFFULL;
                    st->buf32[replica] = word >> 32;
                    st->has32[replica] = 1;
                }
                scaled = cand32 * usize;
                uint64_t leftover = scaled & 0xFFFFFFFFULL;
                if (!threshold_ready) {
                    if (leftover >= usize)
                        break;
                    threshold = (0x100000000ULL - usize) % usize;
                    threshold_ready = 1;
                }
                if (leftover >= threshold)
                    break;
            }
            draw = (int64_t)(scaled >> 32);
        } else {
            draw = 0;
        }
        int64_t flat = st->members[sampler_row * st->n_sites + draw];
        if (st->discrete_gate != 0
            && (st->code[replica * st->n_sites + flat] & 2) == 0) {
            /* Discrete scheduler samples unhappy agents; may refuse. */
            i += 1;
            continue;
        }
        st->out_reps[n_out] = replica;
        st->out_flats[n_out] = flat;
        n_out += 1;
        i += 1;
    }
    st->event[0] = -1;
    st->event[1] = n_candidates;
    st->event[2] = n_out;
    return STATUS_DONE;
}

int64_t repro_apply_flips(repro_state *st, const int64_t *reps,
                          const int64_t *flats, int64_t n_flips,
                          int64_t track)
{
    int64_t n_ops = 0;
    for (int64_t k = 0; k < n_flips; k++) {
        int64_t rep = reps[k];
        int64_t flat = flats[k];
        int64_t base = rep * st->n_sites;
        int64_t center = base + flat;
        int8_t new_value = (int8_t)(-st->spins[center]);
        st->spins[center] = new_value;
        if (st->full_lut != 0) {
            int64_t wbase = flat * st->window_area;
            for (int64_t j = 0; j < st->window_area; j++)
                st->win_buf[j] = st->window_lut[wbase + j];
        } else {
            int64_t row = flat / st->n_cols;
            int64_t col = flat - row * st->n_cols;
            int64_t rbase = row * st->window_side;
            int64_t cbase = col * st->window_side;
            for (int64_t a = 0; a < st->window_side; a++) {
                int64_t roff = st->row_lut[rbase + a];
                int64_t abase = a * st->window_side;
                for (int64_t b = 0; b < st->window_side; b++)
                    st->win_buf[abase + b] = roff + st->col_lut[cbase + b];
            }
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
        if (track != 0) {
            st->energies[rep] += dv * spin_sum + st->total - 2 * old_center;
            st->n_plus[rep] += dv;
        }
        for (int64_t j = 0; j < st->window_area; j++)
            st->same_buf[j] = st->same_buf[j] + dv * st->spin_buf[j];
        st->same_buf[st->center_col] = st->total + 1 - old_center;
        for (int64_t j = 0; j < st->window_area; j++) {
            int64_t g = base + st->win_buf[j];
            st->same[g] = st->same_buf[j];
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
                     int64_t n_ops, int64_t *members, int64_t *positions,
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
                    members[base + count] = index;
                    positions[target] = count;
                    counts[row] = count + 1;
                }
            } else if (position >= 0) {
                int64_t count = counts[row] - 1;
                counts[row] = count;
                int64_t last = members[base + count];
                members[base + position] = last;
                positions[base + last] = position;
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
                    members[pair_base + count] = index;
                    positions[target] = count;
                    counts[pair_row] = count + 1;
                }
            } else if (position >= 0) {
                int64_t count = counts[pair_row] - 1;
                counts[pair_row] = count;
                int64_t last = members[pair_base + count];
                members[pair_base + position] = last;
                positions[pair_base + last] = position;
                positions[target] = -1;
            }
        }
    }
}

int64_t repro_run_rounds(repro_state *st, int64_t max_rounds, int64_t phase)
{
    /* The engine's round loop (FlipLoopBackend.run_rounds) in one call:
       build the active set, step it, apply the round's flips.  A slow-path
       event returns its status with n_active still set; the next call
       resumes that round at the event's candidate index and flip count,
       entering the interrupted replica at `phase`. */
    for (;;) {
        int64_t start = 0;
        int64_t n_out = 0;
        if (st->n_active > 0) {
            start = st->event[1];
            n_out = st->event[2];
        } else {
            if (st->rounds >= max_rounds)
                return STATUS_DONE;
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
                return STATUS_DONE;
            st->n_active = n_active;
            phase = PHASE_START;
        }
        int64_t status = repro_step_round(st, st->candidates, st->n_active,
                                          start, phase, n_out);
        if (status != STATUS_DONE)
            return status;
        n_out = st->event[2];
        if (n_out > 0) {
            int64_t n_ops = repro_apply_flips(st, st->out_reps, st->out_flats,
                                              n_out, st->track);
            repro_coded_ops(st->op_rows, st->op_indices, st->op_toggled,
                            st->op_members, n_ops, st->members,
                            st->positions, st->counts, st->n_sites,
                            st->n_replicas);
            for (int64_t k = 0; k < n_out; k++)
                st->flips[st->out_reps[k]] += 1;
        }
        st->n_active = 0;
        st->rounds += 1;
    }
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
    """Per-user cache path for the compiled shared object, hash-keyed."""
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
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
                [compiler, "-O2", "-fPIC", "-shared", "-o", tmp_so, c_path],
                capture_output=True,
                text=True,
                timeout=120,
            )
            if proc.returncode != 0:
                raise RuntimeError(
                    f"C compile failed ({compiler}): {proc.stderr.strip()[:500]}"
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
    """The flip loop as compiled C behind a pointer-capture struct.

    The slow-path event servicing (the part that must stay bit-for-bit
    shared with the reference) lives in :meth:`_service_event`, which both
    :meth:`step_round` and the native round loop of :meth:`run_rounds`
    call.
    """

    name = "cffi"

    def attach(self, engine) -> None:
        super().attach(engine)
        r = engine.n_replicas
        area = engine._window_area
        self._candidates = np.empty(r, dtype=np.int64)
        self._out_reps = np.empty(r, dtype=np.int64)
        self._out_flats = np.empty(r, dtype=np.int64)
        self._event = np.empty(3, dtype=np.int64)
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
        if engine._code_lut is None:  # pragma: no cover - no shipped rule
            raise StateError(
                "the compiled flip-loop backend requires an elementwise "
                "classification rule (code LUT); this variant must use the "
                "numpy backend"
            )
        # Contiguous copy: recompute_all rebinds the LUT, and the C code
        # wants one stable 2-row table either way.
        self._code_lut2 = np.ascontiguousarray(engine._code_lut, dtype=np.int8)
        if engine._window_lut is not None:
            full_lut = 1
            self._window_lut_flat = engine._window_lut.reshape(-1)
            self._row_lut_flat = np.zeros(1, dtype=np.int64)
            self._col_lut_flat = np.zeros(1, dtype=np.int64)
        else:
            full_lut = 0
            self._window_lut_flat = np.zeros(1, dtype=np.int32)
            self._row_lut_flat = engine._row_lut.reshape(-1)
            self._col_lut_flat = engine._col_lut.reshape(-1)
        ffi, lib = _load_library()
        self._ffi = ffi
        self._lib = lib
        st = ffi.new("repro_state *")
        ptr = self._ptr
        st.counts = ptr("int64_t *", self._counts)
        st.members = ptr("int64_t *", self._members_flat)
        st.positions = ptr("int64_t *", self._positions_flat)
        st.times = ptr("double *", engine._times)
        st.steps = ptr("int64_t *", engine._n_steps)
        st.code = ptr("int8_t *", engine._code_flat)
        st.words = ptr("uint64_t *", self._words_flat)
        st.pos = ptr("int64_t *", streams._pos)
        st.has32 = ptr("uint8_t *", streams._has32)
        st.buf32 = ptr("uint64_t *", streams._buf32)
        st.ke = ptr("uint64_t *", streams._ke)
        st.we = ptr("double *", streams._we)
        st.block = streams.block_words
        st.n_sites = engine._n_sites
        st.n_replicas = engine.n_replicas
        st.term_offset = self._term_offset
        st.sampler_offset = self._sampler_offset
        st.continuous = 1 if self._continuous else 0
        st.discrete_gate = 1 if self._discrete_gate else 0
        st.out_reps = ptr("int64_t *", self._out_reps)
        st.out_flats = ptr("int64_t *", self._out_flats)
        st.event = ptr("int64_t *", self._event)
        st.spins = ptr("int8_t *", engine._spins_flat)
        st.same = ptr("int64_t *", engine._same_flat)
        st.full_lut = full_lut
        st.window_lut = ptr("int32_t *", self._window_lut_flat)
        st.row_lut = ptr("int64_t *", self._row_lut_flat)
        st.col_lut = ptr("int64_t *", self._col_lut_flat)
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
        self._step_fn = lib.repro_step_round
        self._flips_fn = lib.repro_apply_flips
        self._run_fn = lib.repro_run_rounds
        self._captured_generation = engine._runtime_generation

    def _ptr(self, ctype: str, array: np.ndarray):
        """Raw pointer into ``array``'s buffer (writable, zero-copy)."""
        return self._ffi.cast(ctype, self._ffi.from_buffer(array))

    def _refresh(self) -> None:
        if self._captured_generation != self.engine._runtime_generation:
            self._capture()

    def _service_event(self, status: int) -> int:
        """Service one slow-path event the step function returned.

        ``self._event`` names the interrupted replica.  Returns the phase to
        resume that replica at; the caller resumes at the event's candidate
        index and collected-flip count.
        """
        engine = self.engine
        streams = engine._streams
        replica = int(self._event[0])
        if status == STATUS_ZIGGURAT_SLOW:
            # The C code consumed the word and bailed before the clock
            # update; replay the draw bitwise and apply the update the way
            # the reference loop does, then resume at the candidate draw.
            # The sampler size is unchanged — flips land only after the
            # whole round's draws.
            wait = streams._replay_exponential(replica)
            size = int(self._counts[replica + self._sampler_offset])
            engine._times[replica] += (1.0 / size) * wait
            engine._n_steps[replica] += 1
            return PHASE_CANDIDATE
        streams._refill_until_ready(replica)
        if status == STATUS_REFILL_START:
            return PHASE_START
        return PHASE_CANDIDATE

    def step_round(self, candidates: np.ndarray) -> np.ndarray:
        self._refresh()
        engine = self.engine
        st = self._state
        n_candidates = candidates.size
        self._candidates[:n_candidates] = candidates
        index = 0
        phase = PHASE_START
        collected = 0
        while True:
            status = self._step_fn(
                st, st.candidates, n_candidates, index, phase, collected
            )
            index = int(self._event[1])
            collected = int(self._event[2])
            if status == STATUS_DONE:
                break
            phase = self._service_event(status)
        if collected == 0:
            return np.empty(0, dtype=np.int64)
        reps = self._out_reps[:collected].copy()
        flats = self._out_flats[:collected]
        self._apply_flips_captured(reps, flats)
        engine._n_flips[reps] += 1
        return reps

    def run_rounds(self, budget: RunBudget, max_rounds: Optional[int] = None) -> int:
        """The whole round loop in one native call per slow-path event.

        ``repro_run_rounds`` builds each round's active set from the budget,
        steps it and applies its flips without returning; RNG block refills
        and ziggurat slow paths come back as step-function events, serviced
        by the shared :meth:`_service_event` before the call resumes mid-round.
        """
        self._refresh()
        engine = self.engine
        st = self._state
        self._start_flips[:] = budget.start_flips
        self._start_steps[:] = budget.start_steps
        st.max_flips = _int64_budget(budget.max_flips)
        st.max_steps = _int64_budget(budget.max_steps)
        st.max_time = math.inf if budget.max_time is None else budget.max_time
        st.track = 1 if engine._track_counters else 0
        st.n_active = 0
        st.rounds = 0
        limit = _INT64_MAX if max_rounds is None else max_rounds
        phase = PHASE_START
        while True:
            status = self._run_fn(st, limit, phase)
            if status == STATUS_DONE:
                break
            phase = self._service_event(status)
        if st.rounds and not engine._track_counters:
            engine._counters_stale = True
        return st.rounds

    def apply_flips(
        self,
        reps: np.ndarray,
        flats: np.ndarray,
        bases: Optional[np.ndarray] = None,
    ) -> None:
        self._refresh()
        self._apply_flips_captured(
            np.ascontiguousarray(reps, dtype=np.int64),
            np.ascontiguousarray(flats, dtype=np.int64),
        )

    def _apply_flips_captured(self, reps: np.ndarray, flats: np.ndarray) -> None:
        """The window update, then its streamed coded ops on the samplers."""
        engine = self.engine
        ffi = self._ffi
        st = self._state
        n_ops = self._flips_fn(
            st,
            ffi.cast("const int64_t *", ffi.from_buffer(reps)),
            ffi.cast("const int64_t *", ffi.from_buffer(flats)),
            reps.size,
            1 if engine._track_counters else 0,
        )
        if not engine._track_counters:
            engine._counters_stale = True
        if n_ops:
            self._lib.repro_coded_ops(
                st.op_rows,
                st.op_indices,
                st.op_toggled,
                st.op_members,
                n_ops,
                st.members,
                st.positions,
                st.counts,
                engine._n_sites,
                engine.n_replicas,
            )

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
            ffi.cast("int64_t *", ffi.from_buffer(members_flat)),
            ffi.cast("int64_t *", ffi.from_buffer(positions_flat)),
            ffi.cast("int64_t *", ffi.from_buffer(counts)),
            sets.capacity,
            row_offset,
        )
