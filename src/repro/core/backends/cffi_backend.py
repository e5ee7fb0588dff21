"""The compiled flip-loop backend (stdlib ``ctypes`` + the system cc).

A small C translation unit carries the engine's whole round loop
(``repro_run_rounds``): each round's scalar control plane, the fused window
update and the coded-op sampler maintenance (``repro_coded_ops``, also
exported on its own for the edge-case suite).  It follows the scalar engine
draw for draw, with the same IEEE-754 double expressions and no
``-ffast-math``.  At first use the source is compiled with the system C
compiler into a shared object cached under a per-user temp directory, keyed
by the source, numpy's version and the bytes of the numpy archive it links,
so the compile cost is paid once per machine, not per process.  It is
loaded with :class:`ctypes.CDLL`, which releases the GIL for each call, so
the backend needs no package beyond numpy (its registry name ``cffi``
predates that binding).  A cache directory that is not private to the
current user is refused, since ``dlopen`` runs the library's load-time code.

The hot-call overhead problem (a round at R=8 lasts microseconds; marshaling
~30 array arguments per call would swamp the C code) is solved with a
pointer-capture struct, ``repro_state``, declared once in
:data:`_STATE_FIELDS` for both C and ``ctypes``; the load's self-check
compares the two sizes.  :class:`CffiBackend` fills it with raw pointers
into the engine's arrays once per runtime generation, and each call passes
that single struct pointer.  The struct is rebuilt whenever the engine
bumps ``_runtime_generation``, which is what makes holding raw pointers
safe.  It carries engine state and the run budget only: the loop's scratch
is C's own, allocated once per call.  A run is one native call (one per
trajectory segment, and ``step_all`` is one call of one round).

Every RNG word the kernel reads comes through one C reader, ``next_word``,
over the replica's pre-drawn block in the
:class:`~repro.rng.BlockedReplicaStreams` that :meth:`CffiBackend.attach`
builds.  At the block end the reader refills the block in place by
stepping the replica's PCG64 state itself (128-bit LCG, XSL-RR output of
the post-step state) and records the new state and block base in the
stream arrays; C is the only code that reads or refills them.  Exponential
waiting times are numpy's own ``random_standard_exponential``, linked from
the ``libnpyrandom.a`` archive numpy ships, run on a ``bitgen_t`` whose
words come from that reader: the ziggurat's fast and slow paths are
numpy's code, not a port of it.
"""

from __future__ import annotations

import ctypes
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
from repro.rng import PCG64_MULTIPLIER, BlockedReplicaStreams
from repro.types import FlipRule, SchedulerKind
from repro.utils.indexset import BatchedIndexSet

_INT64_MAX = (1 << 63) - 1

#: numpy's prebuilt sampler library (``numpy/random/lib``), linked into the
#: kernel for ``random_standard_exponential``.
_NPYRANDOM_ARCHIVE = os.path.join(
    os.path.dirname(np.random.__file__), "lib", "libnpyrandom.a"
)

#: ``repro_state``, declared once: the C ``typedef`` in :data:`_SOURCE` and
#: :class:`_ReproState` are both generated from these (C type, field names)
#: rows.  The pointers go to engine arrays, the backend's word buffer and
#: the run's start counters; the scalars are geometry, rule switches and
#: the run budget.
_STATE_FIELDS = tuple(
    (name, ctype)
    for ctype, names in (
        ("int64_t *", "counts steps flips energies n_plus row_lut col_lut pos"),
        ("int64_t *", "start_flips start_steps"),
        ("int32_t *", "members positions"),
        ("int16_t *", "same"),
        ("int8_t *", "code spins code_lut"),
        ("uint8_t *", "has32"),
        ("uint64_t *", "words buf32 pcg_state pcg_inc pcg_base"),
        ("double *", "times"),
        ("int64_t", "block n_sites n_replicas n_cols window_side window_area"),
        ("int64_t", "center_col total lut_stride term_offset sampler_offset"),
        ("int64_t", "continuous discrete_gate max_flips max_steps track"),
        ("double", "max_time"),
    )
    for name in names.split()
)


def _c_type(name: str) -> type:
    """The ``ctypes`` type of a C element type (``int64_t``, ``double``)."""
    return getattr(ctypes, "c_" + name.removesuffix("_t"))


class _ReproState(ctypes.Structure):
    """The ``repro_state`` struct on the Python side (pointers as addresses)."""

    _fields_ = [
        (name, ctypes.c_void_p if ctype.endswith(" *") else _c_type(ctype))
        for name, ctype in _STATE_FIELDS
    ]


# The compiled flip loop.  It must advance the engine bit for bit like the
# scalar engine and the numpy backend; the scalar-equivalence and
# cross-backend bitwise suites are the enforcement.
_SOURCE = (
    "#include <stdint.h>\n"
    "#include <stdlib.h>\n"
    '#include "numpy/random/bitgen.h"\n'
    "\ntypedef struct {\n"
    + "".join(
        f"    {ctype} {name};\n".replace("* ", "*") for name, ctype in _STATE_FIELDS
    )
    + "} repro_state;\n"
    + f"""
#define PCG64_MULT_HI 0x{PCG64_MULTIPLIER >> 64:016x}ULL
#define PCG64_MULT_LO 0x{PCG64_MULTIPLIER & ((1 << 64) - 1):016x}ULL
"""
    + r"""
/* numpy's ziggurat exponential, linked from libnpyrandom.a (declared in
   numpy/random/distributions.h, which needs Python.h to include). */
extern double random_standard_exponential(bitgen_t *bitgen_state);

typedef struct {
    /* One repro_run_rounds call's scratch, private to C: the round's active
       replicas and flips, one flip's window, the round's coded ops. */
    int64_t *candidates;
    int64_t *out_reps;
    int64_t *out_flats;
    int64_t *win_buf;
    int64_t *same_buf;
    int64_t *op_rows;
    int64_t *op_indices;
    int64_t *op_toggled;
    int64_t *op_members;
    int8_t *spin_buf;
    int8_t *old_code_buf;
    int8_t *new_code_buf;
} round_scratch;

static void *alloc_scratch(const repro_state *st, round_scratch *sc)
{
    /* One block for the whole call, int64 buffers first; NULL when the
       allocation fails. */
    size_t r = (size_t)st->n_replicas;
    size_t area = (size_t)st->window_area;
    size_t ops = r * area;
    size_t n64 = 3 * r + 2 * area + 4 * ops;
    char *block = malloc(n64 * sizeof(int64_t) + 3 * area);
    if (block == NULL)
        return NULL;
    int64_t *p = (int64_t *)block;
    sc->candidates = p;
    sc->out_reps = p + r;
    sc->out_flats = p + 2 * r;
    sc->win_buf = p + 3 * r;
    sc->same_buf = sc->win_buf + area;
    sc->op_rows = sc->same_buf + area;
    sc->op_indices = sc->op_rows + ops;
    sc->op_toggled = sc->op_indices + ops;
    sc->op_members = sc->op_toggled + ops;
    sc->spin_buf = (int8_t *)(p + n64);
    sc->old_code_buf = sc->spin_buf + area;
    sc->new_code_buf = sc->old_code_buf + area;
    return block;
}

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

static int64_t repro_step_round(repro_state *st, round_scratch *sc,
                                int64_t n_candidates)
{
    /* One step per replica in sc->candidates; returns the number of flips
       collected in out_reps/out_flats. */
    int64_t n_out = 0;
    for (int64_t i = 0; i < n_candidates; i++) {
        int64_t replica = sc->candidates[i];
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
        sc->out_reps[n_out] = replica;
        sc->out_flats[n_out] = flat;
        n_out += 1;
    }
    return n_out;
}

static int64_t repro_apply_flips(repro_state *st, round_scratch *sc,
                                 int64_t n_flips)
{
    /* The window update of the round's flips in out_reps/out_flats;
       returns the number of coded ops written to the op buffers. */
    int64_t n_ops = 0;
    for (int64_t k = 0; k < n_flips; k++) {
        int64_t rep = sc->out_reps[k];
        int64_t flat = sc->out_flats[k];
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
                sc->win_buf[abase + b] = row_offsets[a] + col_offsets[b];
        }
        int64_t dv = (int64_t)new_value;
        int64_t spin_sum = 0;
        for (int64_t j = 0; j < st->window_area; j++) {
            int64_t g = base + sc->win_buf[j];
            int8_t s = st->spins[g];
            sc->spin_buf[j] = s;
            sc->same_buf[j] = st->same[g];
            spin_sum += s;
        }
        int64_t old_center = sc->same_buf[st->center_col];
        /* Incremental counters from the pre-update centre count. */
        if (st->track != 0) {
            st->energies[rep] += dv * spin_sum + st->total - 2 * old_center;
            st->n_plus[rep] += dv;
        }
        for (int64_t j = 0; j < st->window_area; j++)
            sc->same_buf[j] = sc->same_buf[j] + dv * sc->spin_buf[j];
        sc->same_buf[st->center_col] = st->total + 1 - old_center;
        for (int64_t j = 0; j < st->window_area; j++) {
            int64_t g = base + sc->win_buf[j];
            st->same[g] = (int16_t)sc->same_buf[j];
            int64_t spin_row = sc->spin_buf[j] > 0 ? 1 : 0;
            int8_t new_code =
                st->code_lut[spin_row * st->lut_stride + sc->same_buf[j]];
            sc->new_code_buf[j] = new_code;
            sc->old_code_buf[j] = st->code[g];
            st->code[g] = new_code;
        }
        for (int64_t j = 0; j < st->window_area; j++) {
            int8_t old_code = sc->old_code_buf[j];
            int8_t new_code = sc->new_code_buf[j];
            if (old_code == new_code)
                continue;
            sc->op_rows[n_ops] = rep;
            sc->op_indices[n_ops] = sc->win_buf[j];
            sc->op_toggled[n_ops] = old_code ^ new_code;
            sc->op_members[n_ops] = new_code ^ 1;
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
       max_rounds (a trajectory-sample boundary or step_all's one round),
       or -1 when the call's scratch cannot be allocated. */
    round_scratch sc;
    void *scratch = alloc_scratch(st, &sc);
    if (scratch == NULL)
        return -1;
    int64_t rounds = 0;
    while (rounds < max_rounds) {
        int64_t n_active = 0;
        for (int64_t r = 0; r < st->n_replicas; r++) {
            if (st->counts[r + st->term_offset] == 0
                || st->flips[r] - st->start_flips[r] >= st->max_flips
                || st->steps[r] - st->start_steps[r] >= st->max_steps
                || !(st->times[r] < st->max_time))
                continue;
            sc.candidates[n_active] = r;
            n_active += 1;
        }
        if (n_active == 0)
            break;
        int64_t n_out = repro_step_round(st, &sc, n_active);
        if (n_out > 0) {
            int64_t n_ops = repro_apply_flips(st, &sc, n_out);
            repro_coded_ops(sc.op_rows, sc.op_indices, sc.op_toggled,
                            sc.op_members, n_ops, st->members,
                            st->positions, st->counts, st->n_sites,
                            st->n_replicas);
            for (int64_t k = 0; k < n_out; k++)
                st->flips[sc.out_reps[k]] += 1;
        }
        rounds += 1;
    }
    free(scratch);
    return rounds;
}

int64_t repro_selfcheck(int64_t state_size)
{
    /* Refuse a caller whose repro_state is not this one, then probe the
       double semantics the bitwise contract needs: exact uint64 -> double
       conversion below 2^53 (the ziggurat significand is 53 bits) and a
       round-to-nearest reciprocal-scale product matching the IEEE value
       numpy computes for the same expression. */
    if (state_size != (int64_t)sizeof(repro_state))
        return 3;
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

#: What each non-zero ``repro_selfcheck`` code means.
_SELFCHECK_FAILURES = {
    1: "uint64 to double conversion is inexact below 2**53",
    2: "double arithmetic is not IEEE round-to-nearest",
    3: "its repro_state size differs from the Python mirror's",
}

_CACHE: dict[str, ctypes.CDLL] = {}
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


def _load_library() -> ctypes.CDLL:
    """Compile (if needed), load and bind the kernel library; memoized.

    Raises ``RuntimeError`` (``OSError`` from the loader) with the
    underlying reason on any failure; the availability probe converts that
    into a clean "not available".
    """
    if "lib" in _CACHE:
        return _CACHE["lib"]
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
    # CDLL, not PyDLL: every call releases the GIL.
    lib = ctypes.CDLL(so_path)
    state = ctypes.POINTER(_ReproState)
    i64, address = ctypes.c_int64, ctypes.c_void_p
    coded_ops = (address,) * 4 + (i64,) + (address,) * 3 + (i64, i64)
    for name, restype, argtypes in (
        ("repro_run_rounds", i64, (state, i64)),
        ("repro_standard_exponential", ctypes.c_double, (state, i64)),
        ("repro_coded_ops", None, coded_ops),
        ("repro_selfcheck", i64, (i64,)),
    ):
        function = getattr(lib, name)
        function.restype = restype
        function.argtypes = argtypes
    check = lib.repro_selfcheck(ctypes.sizeof(_ReproState))
    if check != 0:
        raise RuntimeError(
            f"compiled kernel {so_path} failed self-check {check}: "
            f"{_SELFCHECK_FAILURES.get(check, 'unknown failure')}"
        )
    _CACHE["lib"] = lib
    return lib


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
        """Bind to ``engine``: build its word buffer, capture the struct."""
        super().attach(engine)
        r = engine.n_replicas
        # Each replica's stream from its dynamics Generator's state, read
        # once here; from now on only C reads and refills the words.
        self._streams = BlockedReplicaStreams(
            engine._rngs, block_words=engine._rng_block_words
        )
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
        streams = self._streams
        members, positions, counts = engine._sets.storage()
        # Contiguous copy: recompute_all rebinds the LUT, and the C code
        # wants one stable 2-row table either way.
        self._code_lut2 = np.ascontiguousarray(engine._code_lut, dtype=np.int8)
        arrays = {
            "counts": counts,
            "members": members,
            "positions": positions,
            "times": engine._times,
            "steps": engine._n_steps,
            "code": engine._code_flat,
            "words": streams._words,
            "pos": streams._pos,
            "has32": streams._has32,
            "buf32": streams._buf32,
            "pcg_state": streams._state,
            "pcg_inc": streams._inc,
            "pcg_base": streams._base,
            "spins": engine._spins_flat,
            "same": engine._same_flat,
            "row_lut": engine._row_lut,
            "col_lut": engine._col_lut,
            "code_lut": self._code_lut2,
            "energies": engine._energies,
            "n_plus": engine._n_plus,
            "flips": engine._n_flips,
            "start_flips": self._start_flips,
            "start_steps": self._start_steps,
        }
        self._lib = _load_library()
        st = _ReproState(
            block=streams.block_words,
            n_sites=engine._n_sites,
            n_replicas=engine.n_replicas,
            term_offset=self._term_offset,
            sampler_offset=self._sampler_offset,
            continuous=int(self._continuous),
            discrete_gate=int(self._discrete_gate),
            n_cols=engine.config.n_cols,
            window_side=2 * engine.config.horizon + 1,
            window_area=engine._window_area,
            center_col=engine._center_col,
            total=engine.config.neighborhood_agents,
            lut_stride=self._code_lut2.shape[1],
        )
        for name, ctype in _STATE_FIELDS:
            if ctype.endswith(" *"):
                setattr(st, name, self._ptr(ctype, arrays[name]))
        self._state = st
        self._run_fn = self._lib.repro_run_rounds
        self._captured_generation = engine._runtime_generation

    @staticmethod
    def _ptr(ctype: str, array: np.ndarray) -> int:
        """Address of ``array``'s buffer for a C ``ctype`` (zero-copy).

        The element width must match the C type: an array narrowed or
        widened on the Python side fails here instead of being misread.
        """
        element = ctype[: -len(" *")]
        if (
            array.itemsize != ctypes.sizeof(_c_type(element))
            or not array.flags.c_contiguous
        ):
            raise StateError(
                f"the C kernel reads {element} here, got a "
                f"{'' if array.flags.c_contiguous else 'non-contiguous '}"
                f"{array.dtype} array"
            )
        return array.ctypes.data

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
        limit = _INT64_MAX if max_rounds is None else min(max_rounds, _INT64_MAX)
        rounds = self._run_fn(st, limit)
        if rounds < 0:
            raise MemoryError("the C kernel could not allocate its round scratch")
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
        """Apply the op stream with ``repro_coded_ops``, the kernel's own loop."""
        lib = _load_library()
        members_flat, positions_flat, counts = sets.storage()
        ops = [
            np.ascontiguousarray(values, dtype=np.int64)
            for values in (rows, indices, toggled, members)
        ]
        ptr = self._ptr
        lib.repro_coded_ops(
            *(ptr("int64_t *", values) for values in ops),
            len(ops[0]),
            ptr("int32_t *", members_flat),
            ptr("int32_t *", positions_flat),
            ptr("int64_t *", counts),
            sets.capacity,
            row_offset,
        )
