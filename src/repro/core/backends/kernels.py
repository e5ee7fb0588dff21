"""Single-source flip-loop kernels: plain Python, numba-compilable.

These functions are the compiled backends' ground truth.  They are written
in the restricted dialect numba's ``njit`` accepts — flat numpy arrays,
explicit ``np.uint64``/``np.int64`` casts (mixed signed/unsigned arithmetic
would silently promote to float64 under numpy's rules, which numba follows),
``while`` loops, no Python objects — and they run unmodified in two modes:

* interpreted, as the ``python`` backend (slow, always available, and what
  the test suite uses to pin the kernel *logic* even on hosts without
  numba);
* JIT-compiled, as the ``numba`` backend (the same bytecode handed to
  ``numba.njit``).

The C implementation in :mod:`repro.core.backends.cffi_backend` mirrors
these functions statement for statement.

Bitwise-exactness rules the kernels obey:

* RNG words are consumed in exactly the order of
  :meth:`repro.rng.BlockedReplicaStreams.draw_step`'s scalar loop — one of
  the five sites of that word-consumption protocol listed in the NOTE
  there; the cross-backend boundary tests pin this copy too.
* The rare slow paths (block refill, ziggurat slow path) are *not*
  reimplemented: the step kernel returns a status code and the Python
  wrapper (:class:`~repro.core.backends.kernel_backend.KernelLoopBackend`)
  services the event through the stream's own methods, then resumes the
  kernel at the exact phase it left.  Fast paths therefore never diverge
  from numpy's own bit streams.
* Floating-point updates use the same IEEE-754 double operations in the
  same order as the numpy reference (``significand * we[layer]``,
  ``times += (1.0 / size) * wait``); no fused or reassociated arithmetic.
"""

from __future__ import annotations

import numpy as np

# Step-kernel status codes: why the kernel returned.
STATUS_DONE = 0
#: Block exhausted before the waiting-time word; nothing consumed yet.
STATUS_REFILL_START = 1
#: Ziggurat fast test failed; the word is consumed, the wrapper replays the
#: draw through the scratch generator and applies the clock update itself.
STATUS_ZIGGURAT_SLOW = 2
#: Block exhausted inside the candidate draw; clock already updated.
STATUS_REFILL_CANDIDATE = 3

# Resume phases: where to re-enter the interrupted replica.
PHASE_START = 0
PHASE_CANDIDATE = 1

# uint64-typed constants: keep every shift/mask in the unsigned domain so
# the interpreted and njit-compiled executions share one promotion story.
_U3 = np.uint64(3)
_U11 = np.uint64(11)
_U32 = np.uint64(32)
_UFF = np.uint64(0xFF)
_U32_MASK = np.uint64(0xFFFFFFFF)
_U32_SPAN = np.uint64(1 << 32)


def step_round_kernel(
    candidates,
    n_candidates,
    start,
    phase,
    n_out,
    counts,
    members,
    times,
    steps,
    code,
    words,
    pos,
    has32,
    buf32,
    ke,
    we,
    block,
    n_sites,
    term_offset,
    sampler_offset,
    continuous,
    discrete_gate,
    out_reps,
    out_flats,
    event,
):
    """One round's scalar control plane over the engine's flat arrays.

    Processes ``candidates[start:n_candidates]`` (resuming at ``phase`` for
    the first one), collecting flips into ``out_reps``/``out_flats`` from
    slot ``n_out``.  Returns a ``STATUS_*`` code; on any non-DONE status
    ``event`` holds ``(replica, candidate_index, n_out)`` so the wrapper can
    service the slow path and resume.  All state mutations (``times``,
    ``steps``, ``pos``, ``has32``/``buf32``) land in place and are exact at
    every return point.
    """
    i = start
    while i < n_candidates:
        replica = candidates[i]
        if counts[replica + term_offset] == 0:
            i += 1
            phase = PHASE_START
            continue
        sampler_row = replica + sampler_offset
        size = counts[sampler_row]
        if size == 0:
            i += 1
            phase = PHASE_START
            continue
        word_base = replica * block
        if phase == PHASE_START:
            # Same draw order as GlauberDynamics.step: waiting time first
            # (continuous scheduler only), then the candidate index.
            if continuous != 0:
                position = pos[replica]
                if position >= block:
                    event[0] = replica
                    event[1] = i
                    event[2] = n_out
                    return STATUS_REFILL_START
                word = words[word_base + position]
                pos[replica] = position + 1
                significand = word >> _U11
                layer = (word >> _U3) & _UFF
                if significand < ke[layer]:
                    wait = np.float64(significand) * we[layer]
                else:
                    event[0] = replica
                    event[1] = i
                    event[2] = n_out
                    return STATUS_ZIGGURAT_SLOW
                times[replica] += (1.0 / np.float64(size)) * wait
            else:
                times[replica] += 1.0
            steps[replica] += 1
        phase = PHASE_START
        if size > 1:
            usize = np.uint64(size)
            scaled = np.uint64(0)
            threshold = np.uint64(0)
            threshold_ready = False
            while True:
                if has32[replica]:
                    cand32 = buf32[replica]
                    has32[replica] = False
                else:
                    position = pos[replica]
                    if position >= block:
                        event[0] = replica
                        event[1] = i
                        event[2] = n_out
                        return STATUS_REFILL_CANDIDATE
                    word = words[word_base + position]
                    pos[replica] = position + 1
                    cand32 = word & _U32_MASK
                    buf32[replica] = word >> _U32
                    has32[replica] = True
                scaled = cand32 * usize
                leftover = scaled & _U32_MASK
                if not threshold_ready:
                    if leftover >= usize:
                        break
                    threshold = (_U32_SPAN - usize) % usize
                    threshold_ready = True
                if leftover >= threshold:
                    break
            draw = np.int64(scaled >> _U32)
        else:
            draw = np.int64(0)
        flat = members[sampler_row * n_sites + draw]
        if discrete_gate != 0 and (code[replica * n_sites + flat] & 2) == 0:
            # Discrete scheduler samples unhappy agents, which may refuse
            # to flip.
            i += 1
            continue
        out_reps[n_out] = replica
        out_flats[n_out] = flat
        n_out += 1
        i += 1
    event[0] = -1
    event[1] = n_candidates
    event[2] = n_out
    return STATUS_DONE


def apply_flips_kernel(
    reps,
    flats,
    n_flips,
    spins,
    same,
    code,
    full_lut,
    window_lut,
    row_lut,
    col_lut,
    n_cols,
    window_side,
    window_area,
    center_col,
    total,
    code_lut,
    energies,
    n_plus,
    track,
    win_buf,
    spin_buf,
    same_buf,
    old_code_buf,
    new_code_buf,
    op_rows,
    op_indices,
    op_toggled,
    op_members,
    n_sites,
):
    """The fused gather-classify-scatter window update, one flip at a time.

    Flips are on distinct replicas (one per round each), so sequential
    per-flip processing is state-identical to the numpy backend's batched
    pass; within a flip the window is snapshot-gathered first and scattered
    in window order, replicating numpy's gather/scatter sequencing exactly.
    The membership deltas are streamed into ``op_*`` (coded-op quadruples in
    the numpy backend's ``(flip, window)`` row-major order) for
    :func:`coded_ops_kernel`; returns the op count.
    """
    n_ops = 0
    for k in range(n_flips):
        rep = reps[k]
        flat = flats[k]
        base = rep * n_sites
        center = base + flat
        new_value = spins[center]
        new_value = -new_value
        spins[center] = new_value
        if full_lut != 0:
            wbase = flat * window_area
            for j in range(window_area):
                win_buf[j] = window_lut[wbase + j]
        else:
            row = flat // n_cols
            col = flat - row * n_cols
            rbase = row * window_side
            cbase = col * window_side
            for a in range(window_side):
                roff = row_lut[rbase + a]
                abase = a * window_side
                for b in range(window_side):
                    win_buf[abase + b] = roff + col_lut[cbase + b]
        dv = np.int64(new_value)
        spin_sum = np.int64(0)
        for j in range(window_area):
            g = base + win_buf[j]
            s = spins[g]
            spin_buf[j] = s
            same_buf[j] = same[g]
            spin_sum += s
        old_center = same_buf[center_col]
        # Incremental per-replica counters: the O(1) delta of
        # ModelState.apply_flip, computed from the pre-update centre count.
        if track != 0:
            energies[rep] += dv * spin_sum + total - 2 * old_center
            n_plus[rep] += dv
        for j in range(window_area):
            same_buf[j] = same_buf[j] + dv * spin_buf[j]
        same_buf[center_col] = total + 1 - old_center
        for j in range(window_area):
            g = base + win_buf[j]
            same[g] = same_buf[j]
            spin_row = 1 if spin_buf[j] > 0 else 0
            new_code = code_lut[spin_row, same_buf[j]]
            new_code_buf[j] = new_code
            old_code_buf[j] = code[g]
            code[g] = new_code
        for j in range(window_area):
            old_code = old_code_buf[j]
            new_code = new_code_buf[j]
            if old_code == new_code:
                continue
            op_rows[n_ops] = rep
            op_indices[n_ops] = win_buf[j]
            op_toggled[n_ops] = old_code ^ new_code
            op_members[n_ops] = new_code ^ 1
            n_ops += 1
    return n_ops


def coded_ops_kernel(
    rows,
    indices,
    toggled,
    member_codes,
    n_ops,
    members,
    positions,
    counts,
    capacity,
    row_offset,
):
    """Paired swap-remove membership updates driven by two-bit codes.

    Statement-for-statement the loop of
    :meth:`repro.utils.indexset.BatchedIndexSet.apply_coded_ops` over the
    flat backing arrays: for op ``k``, bit ``b`` of ``toggled[k]`` sets the
    membership of ``indices[k]`` in row ``rows[k] + b * row_offset`` to bit
    ``b`` of ``member_codes[k]``, ``k`` order preserved, bit 0 before bit 1.
    """
    offset_base = row_offset * capacity
    for k in range(n_ops):
        row = rows[k]
        index = indices[k]
        toggle = toggled[k]
        member = member_codes[k]
        base = row * capacity
        if toggle & 1:
            target = base + index
            position = positions[target]
            if member & 1:
                if position < 0:
                    count = counts[row]
                    members[base + count] = index
                    positions[target] = count
                    counts[row] = count + 1
            elif position >= 0:
                count = counts[row] - 1
                counts[row] = count
                last = members[base + count]
                members[base + position] = last
                positions[base + last] = position
                positions[target] = -1
        if toggle & 2:
            pair_row = row + row_offset
            pair_base = base + offset_base
            target = pair_base + index
            position = positions[target]
            if member & 2:
                if position < 0:
                    count = counts[pair_row]
                    members[pair_base + count] = index
                    positions[target] = count
                    counts[pair_row] = count + 1
            elif position >= 0:
                count = counts[pair_row] - 1
                counts[pair_row] = count
                last = members[pair_base + count]
                members[pair_base + position] = last
                positions[pair_base + last] = position
                positions[target] = -1
    return 0
