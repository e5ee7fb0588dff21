"""The compiled flip loop, engine build and measurement (stdlib ``ctypes`` + cc).

A small C translation unit carries the engine's whole round loop
(``repro_run_rounds``), one replica at a time: replica 0 steps until its
budget, its termination or ``max_rounds`` of its own steps, then replica 1,
and so on.  Replicas share no sampler row, stream or window, so each ends
bit for bit where lockstep rounds leave it, while only its own arrays pass
through the cache.  A flip walks its window once, updating each site's
same-type count and code and applying its sampler ops (``apply_op``, which
the exported ``repro_coded_ops`` also uses) in window order.  It follows
the scalar engine draw for draw, with the same IEEE-754 double expressions
and no ``-ffast-math``.  The same library builds the engine and measures,
each for a whole replica stack in one call, one replica at a time in
scratch sized to one grid: ``repro_rebuild`` (:meth:`CffiBackend.rebuild`)
writes every replica's same-type counts, codes from the engine's code
table, energy and plus counters and both sampler rows, and
``repro_measure`` (:func:`measure_counts`) returns the integer counts
behind every :class:`~repro.analysis.segregation.SegregationMetrics`
field.  Both count windows with one kernel, ``build_table``'s int32
summed-area table.  At first use the source is compiled with the system C
compiler (:data:`_COMPILE_FLAGS`) into a shared object cached under a
per-user temp directory, keyed by the source, the flags, numpy's version
and the bytes of the numpy archive it links, so the compile cost is paid
once per machine, not per process.  It is
loaded with :class:`ctypes.CDLL`, which releases the GIL for each call, so
the backend needs no package beyond numpy (its registry name ``cffi``
predates that binding).  A cache directory that is not private to the
current user is refused, since ``dlopen`` runs the library's load-time code.

The hot-call overhead problem (a ``step_all`` round lasts microseconds;
marshaling ~30 array arguments per call would swamp the C code) is solved
with a pointer-capture struct, ``repro_state``, declared once in
:data:`_STATE_FIELDS` for both C and ``ctypes``; the load's self-check
compares the two sizes.  :class:`CffiBackend` fills it with raw pointers
into the engine's arrays once, at :meth:`~CffiBackend.attach`, checking
every pointer's element width there, and every ``repro_run_rounds`` and
``repro_rebuild`` call passes that single struct pointer.  The engine
allocates its arrays before it attaches its backend and never reallocates
them, which is what makes holding raw pointers safe.  The struct carries
engine state and the run budget only: each call's scratch (a window of
offsets for the loop, one grid's summed-area table for the build) is C's
own, allocated once per call.  A run is one native call (one per
trajectory segment, and ``step_all`` is one call of one round), and so is
a build.

Every draw the kernel makes goes through the replica's own numpy
``bitgen_t``, the C interface of its dynamics ``Generator``'s bit generator
(``engine._rngs[r].bit_generator.ctypes.bit_generator``), whose address the
struct's ``bitgens`` field holds.  A step makes the draws
``Generator.exponential(1 / size)`` and ``Generator.integers(0, size)``
make: numpy's own ``random_standard_exponential``, linked from the
``libnpyrandom.a`` archive numpy ships (the ziggurat's fast and slow paths
are numpy's code, not a port of it), then Lemire's bounded loop over the
bit generator's ``next_uint32``.  A replica's stream position is therefore
its ``Generator``'s state under this backend as under the numpy one.  The
engine owns its Generators and nothing else draws from them during a call,
so the kernel takes no lock.
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
from repro.utils.indexset import BatchedIndexSet

_INT64_MAX = (1 << 63) - 1

#: The compile command's flags (between the compiler and ``-I``); the
#: cached library's key hashes them with the source.
_COMPILE_FLAGS = ("-O3", "-fPIC", "-shared")

#: ``repro_measure`` keeps its summed-area table and run ids in int32, so
#: it measures grids whose padded table has fewer cells than this.
MEASURE_CELL_LIMIT = 1 << 31

#: numpy's prebuilt sampler library (``numpy/random/lib``), linked into the
#: kernel for ``random_standard_exponential``.
_NPYRANDOM_ARCHIVE = os.path.join(
    os.path.dirname(np.random.__file__), "lib", "libnpyrandom.a"
)

#: ``repro_state``, declared once: the C ``typedef`` in :data:`_SOURCE` and
#: :class:`_ReproState` are both generated from these (C type, field names)
#: rows.  The pointers go to engine arrays, the replicas' bit generator
#: addresses and the run's start counters; the scalars are geometry, rule
#: switches and the run budget.
_STATE_FIELDS = tuple(
    (name, ctype)
    for ctype, names in (
        ("int64_t *", "counts steps flips energies n_plus row_lut col_lut"),
        ("int64_t *", "start_flips start_steps"),
        ("int32_t *", "members positions"),
        ("int16_t *", "same"),
        ("int8_t *", "code spins code_lut"),
        ("uint64_t *", "bitgens"),
        ("double *", "times"),
        ("int64_t", "n_sites n_replicas n_cols window_side window_area"),
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


# The compiled flip loop, engine build and measurement kernel.  The loop
# and the build must leave the engine bit for bit where the scalar engine
# and the numpy backend do (the scalar-equivalence and cross-backend bitwise
# suites are the enforcement); the measurement must count what the numpy
# ``_measure`` counts (the oracle bundle tests run both kernels).
_SOURCE = (
    "#include <stdint.h>\n"
    "#include <stdlib.h>\n"
    '#include "numpy/random/bitgen.h"\n'
    "\ntypedef struct {\n"
    + "".join(
        f"    {ctype} {name};\n".replace("* ", "*") for name, ctype in _STATE_FIELDS
    )
    + "} repro_state;\n"
    + r"""
/* numpy's ziggurat exponential, linked from libnpyrandom.a (declared in
   numpy/random/distributions.h, which needs Python.h to include). */
extern double random_standard_exponential(bitgen_t *bitgen_state);

static inline bitgen_t *replica_bitgen(const repro_state *st, int64_t replica)
{
    /* The replica's numpy bit generator: every draw of the loop goes
       through it, so its state is the replica's one stream position. */
    return (bitgen_t *)(uintptr_t)st->bitgens[replica];
}

double repro_standard_exponential(repro_state *st, int64_t replica)
{
    return random_standard_exponential(replica_bitgen(st, replica));
}

static inline void apply_op(int32_t *members, int32_t *positions,
                            int64_t *counts, int64_t row, int64_t capacity,
                            int64_t index, int64_t member)
{
    /* One membership bit of a coded op on one sampler row: append index
       when it joins, swap-remove it when it leaves (the scalar
       IndexSampler's layout).  A no-op when membership does not change. */
    int64_t base = row * capacity;
    int64_t target = base + index;
    int64_t position = positions[target];
    if (member) {
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

void repro_coded_ops(const int64_t *rows, const int64_t *indices,
                     const int64_t *toggled, const int64_t *member_codes,
                     int64_t n_ops, int32_t *members, int32_t *positions,
                     int64_t *counts, int64_t capacity, int64_t row_offset)
{
    for (int64_t k = 0; k < n_ops; k++) {
        if (toggled[k] & 1)
            apply_op(members, positions, counts, rows[k], capacity,
                     indices[k], member_codes[k] & 1);
        if (toggled[k] & 2)
            apply_op(members, positions, counts, rows[k] + row_offset,
                     capacity, indices[k], member_codes[k] & 2);
    }
}

static void flip_site(repro_state *st, int64_t *window, int64_t replica,
                      int64_t flat)
{
    /* Flip one site and refresh its window in window order: each site's
       same-type count, code and sampler ops (unhappy row, then flippable
       row) are final before the next site's, the update order of the
       scalar ModelState._refresh_window.  The window's sites are distinct,
       since it fits on the torus. */
    int64_t base = replica * st->n_sites;
    int8_t new_value = (int8_t)(-st->spins[base + flat]);
    st->spins[base + flat] = new_value;
    int64_t row = flat / st->n_cols;
    int64_t col = flat - row * st->n_cols;
    const int64_t *row_offsets = st->row_lut + row * st->window_side;
    const int64_t *col_offsets = st->col_lut + col * st->window_side;
    for (int64_t a = 0; a < st->window_side; a++)
        for (int64_t b = 0; b < st->window_side; b++)
            window[a * st->window_side + b] = row_offsets[a] + col_offsets[b];
    int64_t dv = (int64_t)new_value;
    int64_t spin_sum = 0, old_center = 0;
    for (int64_t j = 0; j < st->window_area; j++) {
        int64_t g = base + window[j];
        int8_t spin = st->spins[g];
        int64_t same = st->same[g];
        spin_sum += spin;
        if (j == st->center_col) {
            /* The flipped agent is re-scored under its new type. */
            old_center = same;
            same = st->total + 1 - same;
        } else {
            same += dv * spin;
        }
        st->same[g] = (int16_t)same;
        int8_t code = st->code_lut[(spin > 0) * st->lut_stride + same];
        int64_t toggled = st->code[g] ^ code;
        st->code[g] = code;
        /* code ^ 1 turns the happy bit into unhappy membership. */
        if (toggled & 1)
            apply_op(st->members, st->positions, st->counts, replica,
                     st->n_sites, window[j], (code ^ 1) & 1);
        if (toggled & 2)
            apply_op(st->members, st->positions, st->counts,
                     replica + st->n_replicas, st->n_sites, window[j],
                     code & 2);
    }
    /* Incremental counters from the pre-update centre count. */
    if (st->track != 0) {
        st->energies[replica] += dv * spin_sum + st->total - 2 * old_center;
        st->n_plus[replica] += dv;
    }
}

static int64_t run_replica(repro_state *st, int64_t *window, int64_t replica,
                           int64_t max_rounds)
{
    /* One replica's share of the round loop: a step per round while it is
       active (not terminated, within its budget), up to max_rounds.
       Returns the rounds it was active, as the lockstep loop counts them. */
    int64_t sampler_row = replica + st->sampler_offset;
    bitgen_t *bitgen = replica_bitgen(st, replica);
    int64_t rounds = 0;
    while (rounds < max_rounds
           && st->counts[replica + st->term_offset] != 0
           && st->flips[replica] - st->start_flips[replica] < st->max_flips
           && st->steps[replica] - st->start_steps[replica] < st->max_steps
           && st->times[replica] < st->max_time) {
        int64_t size = st->counts[sampler_row];
        if (size == 0)
            /* Nothing changes while the sampler is empty: an active
               replica spends its remaining rounds idle. */
            return max_rounds;
        rounds += 1;
        /* Waiting time first (continuous scheduler), then candidate: the
           draws of exponential(1 / size) and integers(0, size). */
        if (st->continuous != 0) {
            double wait = random_standard_exponential(bitgen);
            st->times[replica] += (1.0 / (double)size) * wait;
        } else {
            st->times[replica] += 1.0;
        }
        st->steps[replica] += 1;
        int64_t draw = 0;
        if (size > 1) {
            /* numpy's integers(0, size): Lemire over the 32-bit stream. */
            uint64_t usize = (uint64_t)size;
            uint64_t scaled = bitgen->next_uint32(bitgen->state) * usize;
            uint64_t leftover = scaled & 0xFFFFFFFFULL;
            if (leftover < usize) {
                uint64_t threshold = (0x100000000ULL - usize) % usize;
                while (leftover < threshold) {
                    scaled = bitgen->next_uint32(bitgen->state) * usize;
                    leftover = scaled & 0xFFFFFFFFULL;
                }
            }
            draw = (int64_t)(scaled >> 32);
        }
        int64_t flat = st->members[sampler_row * st->n_sites + draw];
        if (st->discrete_gate != 0
            && (st->code[replica * st->n_sites + flat] & 2) == 0)
            /* Discrete scheduler samples unhappy agents; may refuse. */
            continue;
        flip_site(st, window, replica, flat);
        st->flips[replica] += 1;
    }
    return rounds;
}

int64_t repro_run_rounds(repro_state *st, int64_t max_rounds)
{
    /* The engine's round loop (FlipLoopBackend.run_rounds) in one call,
       one replica at a time: replicas share no sampler row, stream or
       window, so each ends bit for bit where lockstep rounds leave it,
       with only its own arrays in cache.  Returns the most rounds any
       replica was active (the lockstep round count, at most max_rounds: a
       trajectory-sample boundary or step_all's one round), or -1 when the
       call's scratch, one window of offsets, cannot be allocated. */
    int64_t *window = malloc((size_t)st->window_area * sizeof(int64_t));
    if (window == NULL)
        return -1;
    int64_t most = 0;
    for (int64_t r = 0; r < st->n_replicas; r++) {
        int64_t rounds = run_replica(st, window, r, max_rounds);
        most = rounds > most ? rounds : most;
    }
    free(window);
    return most;
}

typedef struct {
    /* One repro_measure call's scratch, sized to one grid: the torus-padded
       summed-area table, one grid row of each radius scan, every site's
       run, and every run's parent and last site. */
    int32_t *table;
    int32_t *mono;
    int32_t *almost;
    int32_t *run_of;
    int32_t *parent;
    int32_t *run_end;
} measure_scratch;

static void build_table(const int8_t *spins, int64_t n_rows, int64_t n_cols,
                        int64_t pad, int32_t *table)
{
    /* The plus indicator's summed-area table, torus-padded by pad with a
       leading zero row and column: the layout of numpy's
       wrapped_summed_area_table.  Padded row (column) a starts at grid row
       (column) a - pad, modulo the grid. */
    int64_t width = n_cols + 2 * pad + 1;
    int64_t height = n_rows + 2 * pad + 1;
    int64_t first_col = (n_cols - pad % n_cols) % n_cols;
    int64_t row = (n_rows - pad % n_rows) % n_rows;
    for (int64_t b = 0; b < width; b++)
        table[b] = 0;
    for (int64_t a = 1; a < height; a++) {
        const int8_t *src = spins + row * n_cols;
        const int32_t *above = table + (a - 1) * width;
        int32_t *cur = table + a * width;
        int32_t acc = 0;
        int64_t col = first_col;
        cur[0] = 0;
        for (int64_t b = 1; b < width; b++) {
            acc += src[col] > 0;
            cur[b] = above[b] + acc;
            col = col + 1 == n_cols ? 0 : col + 1;
        }
        row = row + 1 == n_rows ? 0 : row + 1;
    }
}

/* The row passes below take restrict pointers as parameters, which is what
   lets the compiler vectorize them.  up and down are the table rows above
   and below one grid row's windows of side `side`, offset to the first
   window, so site j's window count is four reads. */

static void horizon_row(const int8_t *restrict row, const int32_t *restrict up,
                        const int32_t *restrict down, int64_t n_cols,
                        int64_t side, int32_t threshold, int64_t *totals)
{
    /* Every site's same-type count in its horizon window: the energy sums
       them and the unhappy count takes those below threshold. */
    int32_t area = (int32_t)(side * side);
    int64_t unhappy = 0, energy = 0;
    for (int64_t j = 0; j < n_cols; j++) {
        int32_t count = down[j + side] - up[j + side] - down[j] + up[j];
        int32_t same = row[j] > 0 ? count : area - count;
        unhappy += same < threshold;
        energy += same;
    }
    totals[0] += unhappy;
    totals[1] += energy;
}

static int32_t scan_level(const int32_t *restrict up,
                          const int32_t *restrict down, int64_t n_cols,
                          int64_t radius, int32_t cut, int32_t live,
                          int32_t *restrict mono, int32_t *restrict almost)
{
    /* One radius level of both region scans over one grid row.  A site is
       still monochromatic when its radius so far is radius - 1 and its
       window holds one type; the almost radius takes the level when the
       plus count is within cut of either end.  Returns whether any site of
       the row stayed monochromatic; live == 0 scans the almost half only. */
    int64_t side = 2 * radius + 1;
    int32_t area = (int32_t)(side * side);
    int32_t high = area - cut;
    int32_t level = (int32_t)radius;
    int32_t any = 0;
    if (live) {
        for (int64_t j = 0; j < n_cols; j++) {
            int32_t count = down[j + side] - up[j + side] - down[j] + up[j];
            int32_t kept = (mono[j] == level - 1)
                           & ((count == 0) | (count == area));
            mono[j] += kept;
            any |= kept;
            almost[j] = (count <= cut) | (count >= high) ? level : almost[j];
        }
    } else {
        for (int64_t j = 0; j < n_cols; j++) {
            int32_t count = down[j + side] - up[j + side] - down[j] + up[j];
            almost[j] = (count <= cut) | (count >= high) ? level : almost[j];
        }
    }
    return any;
}

static void row_sizes(const int32_t *restrict mono,
                      const int32_t *restrict almost, int64_t n_cols,
                      int64_t *totals)
{
    /* A grid row's region sizes (2 rho + 1)^2 and its largest radius.  The
       padded table holds under 2^31 cells, so a window's area fits int32. */
    int64_t mono_sizes = 0, almost_sizes = 0;
    int32_t max_radius = 0;
    for (int64_t j = 0; j < n_cols; j++) {
        int32_t m = 2 * mono[j] + 1;
        int32_t a = 2 * almost[j] + 1;
        mono_sizes += m * m;
        almost_sizes += a * a;
        max_radius = mono[j] > max_radius ? mono[j] : max_radius;
    }
    totals[0] += mono_sizes;
    totals[1] += almost_sizes;
    if (max_radius > totals[2])
        totals[2] = max_radius;
}

static inline void join_runs(int32_t *parent, int32_t a, int32_t b)
{
    /* Rem's union with splicing: climb from whichever side has the larger
       parent and link the larger root under the smaller, so a run's parent
       never exceeds the run. */
    while (parent[a] != parent[b]) {
        if (parent[a] < parent[b]) {
            int32_t t = a;
            a = b;
            b = t;
        }
        int32_t up = parent[a];
        parent[a] = parent[b];
        if (up == a)
            return;
        a = up;
    }
}

static void measure_clusters(const int8_t *spins, int64_t n_rows,
                             int64_t n_cols, measure_scratch *sc,
                             int64_t *joins_out, int64_t *largest)
{
    /* The same-type joins to the right and below on the torus and the
       largest same-type 4-connected cluster: one union-find over the
       horizontal runs, joined across the column seam and vertically.  Runs
       are numbered in flat order, so run k spans run_end[k - 1] + 1 ..
       run_end[k]. */
    int64_t right = 0, down = 0;
    int32_t n_runs = 0;
    for (int64_t i = 0; i < n_rows; i++) {
        const int8_t *restrict row = spins + i * n_cols;
        const int8_t *restrict below = spins + ((i + 1) % n_rows) * n_cols;
        int32_t *restrict runs = sc->run_of + i * n_cols;
        int32_t row_right = row[n_cols - 1] == row[0];
        int32_t row_down = 0;
        runs[0] = n_runs;
        sc->run_end[n_runs] = (int32_t)(i * n_cols);
        for (int64_t j = 1; j < n_cols; j++) {
            int32_t same = row[j] == row[j - 1];
            row_right += same;
            n_runs += !same;
            runs[j] = n_runs;
            sc->run_end[n_runs] = (int32_t)(i * n_cols + j);
        }
        n_runs += 1;
        for (int64_t j = 0; j < n_cols; j++)
            row_down += row[j] == below[j];
        right += row_right;
        down += row_down;
    }
    int32_t *parent = sc->parent;
    for (int32_t k = 0; k < n_runs; k++)
        parent[k] = k;
    int32_t *joins = sc->mono; /* free once the scans are summed */
    for (int64_t i = 0; i < n_rows; i++) {
        const int8_t *row = spins + i * n_cols;
        int64_t next = (i + 1) % n_rows;
        const int8_t *below = spins + next * n_cols;
        const int32_t *runs = sc->run_of + i * n_cols;
        const int32_t *runs_below = sc->run_of + next * n_cols;
        if (row[n_cols - 1] == row[0])
            join_runs(parent, runs[n_cols - 1], runs[0]);
        /* The columns whose vertical join is not the same pair of runs as
           its left neighbour's, gathered without branching: when both
           columns join, the pair changes exactly where the type does. */
        int64_t n_joins = 0;
        int32_t joined_left = 0;
        int8_t left = row[0];
        for (int64_t j = 0; j < n_cols; j++) {
            int32_t joined = row[j] == below[j];
            joins[n_joins] = (int32_t)j;
            n_joins += joined & (!joined_left | (row[j] != left));
            joined_left = joined;
            left = row[j];
        }
        for (int64_t k = 0; k < n_joins; k++)
            join_runs(parent, runs[joins[k]], runs_below[joins[k]]);
    }
    /* A parent never exceeds its run, so one pass in run order resolves
       every root and sums every run's length into it; run_of is free
       again and holds the sizes. */
    int32_t *size = sc->run_of;
    int32_t start = 0;
    int64_t best = 0;
    for (int32_t k = 0; k < n_runs; k++)
        size[k] = 0;
    for (int32_t k = 0; k < n_runs; k++) {
        int32_t root = parent[parent[k]];
        parent[k] = root;
        size[root] += sc->run_end[k] + 1 - start;
        start = sc->run_end[k] + 1;
    }
    for (int32_t k = 0; k < n_runs; k++)
        best = size[k] > best ? size[k] : best;
    joins_out[0] = right;
    joins_out[1] = down;
    *largest = best;
}

static void measure_grid(const int8_t *spins, int64_t n_rows, int64_t n_cols,
                         int64_t horizon, int64_t threshold, int64_t limit,
                         int64_t pad, const int64_t *cutoffs,
                         measure_scratch *sc, int64_t *out)
{
    /* One replica's nine counts (see repro_measure).  Grid row i reads the
       table rows i + pad - r and i + pad + r + 1 at radius r, so the scans
       run row by row, every level's pass over the row in turn. */
    int64_t width = n_cols + 2 * pad + 1;
    const int32_t *table = sc->table;
    int64_t horizon_totals[2] = {0, 0};
    int64_t size_totals[3] = {0, 0, 0};
    build_table(spins, n_rows, n_cols, pad, sc->table);
    for (int64_t i = 0; i < n_rows; i++) {
        const int32_t *up = table + (i + pad - horizon) * width + pad - horizon;
        horizon_row(spins + i * n_cols, up, up + (2 * horizon + 1) * width,
                    n_cols, 2 * horizon + 1, (int32_t)threshold,
                    horizon_totals);
        for (int64_t j = 0; j < n_cols; j++) {
            sc->mono[j] = 0;
            sc->almost[j] = 0;
        }
        int32_t live = 1;
        for (int64_t r = 1; r <= limit; r++) {
            up = table + (i + pad - r) * width + pad - r;
            live = scan_level(up, up + (2 * r + 1) * width, n_cols, r,
                              (int32_t)cutoffs[r], live, sc->mono, sc->almost);
        }
        row_sizes(sc->mono, sc->almost, n_cols, size_totals);
    }
    /* The plus sites: the whole grid's window of the table. */
    const int32_t *top = table + pad * width + pad;
    const int32_t *bottom = top + n_rows * width;
    out[0] = horizon_totals[0];
    out[1] = horizon_totals[1];
    out[2] = bottom[n_cols] - top[n_cols] - bottom[0] + top[0];
    measure_clusters(spins, n_rows, n_cols, sc, out + 3, out + 8);
    out[5] = size_totals[0];
    out[6] = size_totals[1];
    out[7] = size_totals[2];
}

int64_t repro_measure(const int8_t *spins, int64_t n_replicas, int64_t n_rows,
                      int64_t n_cols, int64_t horizon, int64_t threshold,
                      int64_t limit, int64_t pad, const int64_t *cutoffs,
                      int64_t *out)
{
    /* The integer counts behind the metrics bundle of every replica of an
       (R, n, m) int8 stack, nine per replica: unhappy sites, energy, plus
       sites, right and down same-type joins, the sums of (2 rho + 1)^2 over
       the monochromatic and the almost-monochromatic radii, the largest
       monochromatic radius and the largest same-type cluster.  A window of
       radius r in 1..limit is almost monochromatic when its plus count is
       at most cutoffs[r] or at least (2r + 1)^2 - cutoffs[r].  The caller
       keeps the padded table under 2^31 cells.  Replicas are measured one
       at a time in scratch sized to one grid; returns 0, or -1 when that
       scratch cannot be allocated. */
    size_t sites = (size_t)n_rows * (size_t)n_cols;
    size_t cells = (size_t)(n_rows + 2 * pad + 1)
                   * (size_t)(n_cols + 2 * pad + 1);
    size_t row = (size_t)n_cols;
    int32_t *block = malloc((cells + 2 * row + 3 * sites) * sizeof(int32_t));
    if (block == NULL)
        return -1;
    measure_scratch sc;
    sc.table = block;
    sc.mono = sc.table + cells;
    sc.almost = sc.mono + row;
    sc.run_of = sc.almost + row;
    sc.parent = sc.run_of + sites;
    sc.run_end = sc.parent + sites;
    for (int64_t r = 0; r < n_replicas; r++)
        measure_grid(spins + r * (int64_t)sites, n_rows, n_cols, horizon,
                     threshold, limit, pad, cutoffs, &sc, out + 9 * r);
    free(block);
    return 0;
}

static void rebuild_row(const int8_t *restrict row, const int32_t *restrict up,
                        const int32_t *restrict down, int64_t n_cols,
                        int64_t side, const int8_t *restrict code_lut,
                        int64_t lut_stride, int16_t *restrict same,
                        int8_t *restrict code, int64_t *totals)
{
    /* One grid row of the engine build: every site's same-type count in
       its horizon window and its code from the engine's code LUT; the
       energy sums the counts, and the plus sites are counted. */
    int32_t area = (int32_t)(side * side);
    int64_t energy = 0, plus = 0;
    for (int64_t j = 0; j < n_cols; j++) {
        int32_t count = down[j + side] - up[j + side] - down[j] + up[j];
        int32_t is_plus = row[j] > 0;
        int32_t count_same = is_plus ? count : area - count;
        same[j] = (int16_t)count_same;
        code[j] = code_lut[is_plus * lut_stride + count_same];
        energy += count_same;
        plus += is_plus;
    }
    totals[0] += energy;
    totals[1] += plus;
}

static void fill_samplers(const int8_t *restrict code, int64_t n_sites,
                          int32_t *restrict unhappy_members,
                          int32_t *restrict unhappy_positions,
                          int32_t *restrict flippable_members,
                          int32_t *restrict flippable_positions,
                          int64_t *unhappy_count, int64_t *flippable_count)
{
    /* Both sampler rows of one replica, members in increasing index order
       (the scalar IndexSampler's layout after recompute_all), non-members
       at position -1.  Branch-free: each site's index goes into the slot
       after each row's members, and the row's count moves past it only if
       the site belongs; count | (bit - 1) is the count for a member and -1
       otherwise.  The engine keeps n_sites below 2^31, so int32 counts
       hold it. */
    int32_t n_unhappy = 0, n_flippable = 0;
    for (int64_t k = 0; k < n_sites; k++) {
        int32_t unhappy = ~code[k] & 1;
        int32_t flippable = (code[k] >> 1) & 1;
        unhappy_members[n_unhappy] = (int32_t)k;
        unhappy_positions[k] = n_unhappy | (unhappy - 1);
        flippable_members[n_flippable] = (int32_t)k;
        flippable_positions[k] = n_flippable | (flippable - 1);
        n_unhappy += unhappy;
        n_flippable += flippable;
    }
    *unhappy_count = n_unhappy;
    *flippable_count = n_flippable;
}

int64_t repro_rebuild(repro_state *st)
{
    /* The engine build (EnsembleDynamics.recompute_all) of every replica:
       same-type counts, codes from the code LUT (two rows of lut_stride
       entries, minus then plus), energies, plus counts and both sampler
       rows (rows [0, R) unhappy, [R, 2R) flippable).  Replicas are built
       one at a time in scratch sized to one grid, the plus indicator's
       int32 summed-area table padded by the horizon; the engine keeps that
       table under 2^31 cells.  Returns 0, or -1 when the scratch cannot be
       allocated. */
    int64_t sites = st->n_sites, n_cols = st->n_cols;
    int64_t n_rows = sites / n_cols;
    int64_t side = st->window_side;
    int64_t width = n_cols + side;
    int32_t *table = malloc((size_t)(n_rows + side) * (size_t)width
                            * sizeof(int32_t));
    if (table == NULL)
        return -1;
    for (int64_t r = 0; r < st->n_replicas; r++) {
        const int8_t *grid = st->spins + r * sites;
        int16_t *same = st->same + r * sites;
        int8_t *code = st->code + r * sites;
        int64_t totals[2] = {0, 0};
        build_table(grid, n_rows, n_cols, side / 2, table);
        /* Grid row i's windows span table rows i to i + side. */
        for (int64_t i = 0; i < n_rows; i++) {
            const int32_t *up = table + i * width;
            rebuild_row(grid + i * n_cols, up, up + side * width, n_cols, side,
                        st->code_lut, st->lut_stride, same + i * n_cols,
                        code + i * n_cols, totals);
        }
        st->energies[r] = totals[0];
        st->n_plus[r] = totals[1];
        int64_t flippable_row = st->n_replicas + r;
        fill_samplers(code, sites, st->members + r * sites,
                      st->positions + r * sites,
                      st->members + flippable_row * sites,
                      st->positions + flippable_row * sites, st->counts + r,
                      st->counts + flippable_row);
    }
    free(table);
    return 0;
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

    The key covers everything the object is built from: the C source, the
    compile flags, numpy's version and the bytes of the numpy archive it
    links.
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
    key.update(" ".join(_COMPILE_FLAGS).encode())
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
                    compiler, *_COMPILE_FLAGS,
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
    measure = (address,) + (i64,) * 7 + (address, address)
    for name, restype, argtypes in (
        ("repro_run_rounds", i64, (state, i64)),
        ("repro_rebuild", i64, (state,)),
        ("repro_standard_exponential", ctypes.c_double, (state, i64)),
        ("repro_coded_ops", None, coded_ops),
        ("repro_measure", i64, measure),
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
        """Bind to ``engine``: point at its bit generators, capture the struct."""
        super().attach(engine)
        r = engine.n_replicas
        # C draws through each replica's own numpy bitgen_t; holding the bit
        # generators keeps the addresses valid for as long as the struct.
        self._bit_generators = [rng.bit_generator for rng in engine._rngs]
        self._bitgens = np.array(
            [bits.ctypes.bit_generator.value for bits in self._bit_generators],
            dtype=np.uint64,
        )
        # The run's start counters, filled by each run_rounds call.
        self._start_flips = np.zeros(r, dtype=np.int64)
        self._start_steps = np.zeros(r, dtype=np.int64)
        self._capture()

    def _capture(self) -> None:
        """Bind the ``repro_state`` struct to the engine's arrays, once.

        Runs at :meth:`attach`, before the engine's first build: the engine
        allocates every array the struct points into before it attaches its
        backend and mutates them only in place, so one capture, with one
        check of every pointer, serves every later build and run.  Every
        array and bit generator the struct points into stays referenced by
        ``self`` or by the engine, and every entry point reads
        ``self.engine`` (which raises once the weakly held engine is gone)
        before calling into C, so no pointer outlives its buffer.
        """
        engine = self.engine
        members, positions, counts = engine._sets.storage()
        arrays = {
            "counts": counts,
            "members": members,
            "positions": positions,
            "times": engine._times,
            "steps": engine._n_steps,
            "code": engine._code_flat,
            "bitgens": self._bitgens,
            "spins": engine._spins_flat,
            "same": engine._same_flat,
            "row_lut": engine._row_lut,
            "col_lut": engine._col_lut,
            "code_lut": engine._code_lut,
            "energies": engine._energies,
            "n_plus": engine._n_plus,
            "flips": engine._n_flips,
            "start_flips": self._start_flips,
            "start_steps": self._start_steps,
        }
        self._lib = _load_library()
        st = _ReproState(
            n_sites=engine._n_sites,
            n_replicas=engine.n_replicas,
            term_offset=engine._term_offset,
            sampler_offset=engine._sampler_offset,
            continuous=int(engine._continuous),
            discrete_gate=int(engine._discrete_gate),
            n_cols=engine.config.n_cols,
            window_side=2 * engine.config.horizon + 1,
            window_area=engine._window_area,
            center_col=engine._center_col,
            total=engine.config.neighborhood_agents,
            lut_stride=engine._code_lut.shape[1],
        )
        for name, ctype in _STATE_FIELDS:
            if ctype.endswith(" *"):
                setattr(st, name, self._ptr(ctype, arrays[name]))
        self._state = st
        self._run_fn = self._lib.repro_run_rounds

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

    def rebuild(self) -> None:
        """The engine build as one ``repro_rebuild`` call over the whole stack.

        The call reads the struct captured at :meth:`attach`, as
        :meth:`run_rounds` does.
        """
        self.engine  # noqa: B018 - raises once the struct's arrays are gone
        if self._lib.repro_rebuild(self._state) < 0:
            raise MemoryError("the C kernel could not allocate its rebuild scratch")

    def run_rounds(self, budget: RunBudget, max_rounds: Optional[int] = None) -> int:
        """The whole round loop as one native call.

        ``repro_run_rounds`` runs each replica in turn until its
        termination, its budget or ``max_rounds`` of its rounds, and returns
        the most rounds any replica ran.  Every draw, the sampler's slow
        paths included, runs inside it on the replicas' own bit generators.
        """
        engine = self.engine
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


def measure_counts(
    stack: np.ndarray,
    horizon: int,
    threshold: int,
    limit: int,
    pad: int,
    cutoffs: np.ndarray,
) -> list[list[int]]:
    """``repro_measure`` over a C-contiguous int8 ``(R, n, m)`` stack.

    Returns nine integers per replica in the kernel's order (unhappy sites,
    energy, plus sites, right and down same-type joins, the two region-size
    sums, the largest monochromatic radius, the largest cluster).
    ``cutoffs[r]`` is level ``r``'s almost-monochromatic plus-count cutoff
    (int64, ``limit + 1`` entries).  The caller keeps the padded table under
    :data:`MEASURE_CELL_LIMIT` cells.
    """
    if stack.ndim != 3 or not horizon <= pad or not limit <= pad:
        raise StateError(
            f"repro_measure reads windows up to radius max(limit={limit}, "
            f"horizon={horizon}) from a table padded by {pad}, of a "
            f"(R, n, m) stack; got shape {stack.shape}"
        )
    if cutoffs.shape != (limit + 1,):
        raise StateError(
            f"repro_measure reads {limit + 1} level cutoffs, got shape {cutoffs.shape}"
        )
    lib = _load_library()
    ptr = CffiBackend._ptr
    out = np.empty((len(stack), 9), dtype=np.int64)
    status = lib.repro_measure(
        ptr("int8_t *", stack), *stack.shape, horizon, threshold, limit, pad,
        ptr("int64_t *", cutoffs), out.ctypes.data,
    )
    if status < 0:
        raise MemoryError("the C kernel could not allocate its measurement scratch")
    return out.tolist()
