"""Shared-memory codec for packed sweep results, kept for the benchmark.

No sweep path uses this module: :func:`~repro.experiments.parallel.run_sweep_parallel`
returns each chunk's :func:`~repro.experiments.parallel.pack_rows` batches
pickled through the executor's result queue.  Shared memory was measured
against that queue at realistic row volumes (a few dozen scalars per
replicate) and won nothing end to end, so the transport was removed.

The codec stays only because the benchmark's traced per-layer pass times
one :func:`encode_chunk` / :func:`decode_chunk` round trip per pool chunk
(its ``experiments.transfer`` span) next to a pickle round trip of the same
chunk.  Once that span is gone, so is this module.

:func:`encode_chunk` writes a chunk of ``(cell_index, packed_batch)`` pairs
into one :mod:`multiprocessing.shared_memory` segment and
:func:`decode_chunk` reads it back and unlinks the segment.  The wire
format keeps the columnar shape:

* **Numeric columns** (all-``bool``, all-``int`` fitting 64 bits, or
  all-``float``) are written as raw little-endian arrays — no per-value
  encoding at all; the decoder rebuilds exact Python scalars via
  ``ndarray.tolist()`` (``float64``/``int64``/``bool`` round-trip bitwise).
* **Object columns** (strings, mixed types) are pickled per column.
* **Non-uniform batches** (the ``pack_rows`` fallback) are pickled whole.

A segment holds one pickled *directory* (per-cell key lists and column
descriptors) followed by the raw data region.  Decoding returns batches
that unpack to rows identical to the ones that were encoded.
"""

from __future__ import annotations

import pickle
import struct
from typing import Optional

import numpy as np

#: 64-bit signed range check for raw-int64 column encoding.
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

#: Little-endian dtypes used for raw columns, keyed by a short tag.
_RAW_DTYPES = {
    "bool": np.dtype(np.bool_),
    "int64": np.dtype("<i8"),
    "float64": np.dtype("<f8"),
}


def _raw_column_tag(values: list[object]) -> Optional[str]:
    """The raw-array tag for a column, or ``None`` if it must be pickled.

    ``bool`` is checked before ``int`` (bools are ints in Python); ints must
    fit a signed 64-bit word to survive the array round-trip bitwise.
    """
    if not values:
        return None
    if all(type(value) is bool for value in values):
        return "bool"
    if all(
        type(value) is int and _INT64_MIN <= value <= _INT64_MAX
        for value in values
    ):
        return "int64"
    if all(type(value) is float for value in values):
        return "float64"
    return None


def _encode_batch(packed: dict[str, object], blobs: list[bytes]) -> dict[str, object]:
    """Describe one packed batch, appending its payload bytes to ``blobs``.

    Returns the directory entry for the batch; offsets are assigned later,
    once every blob's size is known, so entries carry blob *positions* here.
    """
    if "columns" not in packed:
        # Empty or non-uniform batch: ship the dict exactly as pickle would.
        blobs.append(pickle.dumps(packed, protocol=pickle.HIGHEST_PROTOCOL))
        return {"kind": "opaque", "blob": len(blobs) - 1}
    columns = []
    for values in packed["columns"]:
        tag = _raw_column_tag(values)
        if tag is not None:
            blobs.append(np.asarray(values, dtype=_RAW_DTYPES[tag]).tobytes())
            columns.append(("raw", tag, len(blobs) - 1))
        else:
            blobs.append(pickle.dumps(values, protocol=pickle.HIGHEST_PROTOCOL))
            columns.append(("pickle", None, len(blobs) - 1))
    return {
        "kind": "columnar",
        "n": packed["n"],
        "keys": packed["keys"],
        "columns": columns,
    }


def encode_chunk(results: list[tuple[int, dict[str, object]]]) -> tuple[str, int]:
    """Write ``(cell_index, packed_batch)`` pairs into a new shared segment.

    Returns ``(segment_name, segment_size)``, the arguments
    :func:`decode_chunk` needs.  This function closes its own mapping and
    leaves the segment linked until it is decoded.  Raises
    ``OSError``/``ImportError`` when shared memory is not usable on this host.
    """
    from multiprocessing import shared_memory

    blobs: list[bytes] = []
    entries = []
    for index, packed in results:
        entry = _encode_batch(packed, blobs)
        entry["index"] = index
        entries.append(entry)
    sizes = [len(blob) for blob in blobs]
    directory = pickle.dumps(
        {"entries": entries, "sizes": sizes}, protocol=pickle.HIGHEST_PROTOCOL
    )
    total = 8 + len(directory) + sum(sizes)
    segment = shared_memory.SharedMemory(create=True, size=max(total, 1))
    try:
        buffer = segment.buf
        buffer[:8] = struct.pack("<Q", len(directory))
        offset = 8
        buffer[offset : offset + len(directory)] = directory
        offset += len(directory)
        for blob in blobs:
            buffer[offset : offset + len(blob)] = blob
            offset += len(blob)
    except BaseException:
        segment.close()
        segment.unlink()
        raise
    name = segment.name
    segment.close()
    return name, total


def decode_chunk(name: str, size: int) -> list[tuple[int, dict[str, object]]]:
    """Read back what :func:`encode_chunk` wrote, then unlink the segment.

    Returns the ``(cell_index, packed_batch)`` pairs with batches equal to the
    ones that were encoded — raw columns come back as exact Python scalars
    via ``ndarray.tolist()``, pickled payloads verbatim — ready for
    :func:`~repro.experiments.parallel.unpack_rows`.
    """
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(name=name)
    try:
        buffer = bytes(segment.buf[:size])
    finally:
        segment.close()
        segment.unlink()
    (directory_size,) = struct.unpack("<Q", buffer[:8])
    directory = pickle.loads(buffer[8 : 8 + directory_size])
    offsets = []
    position = 8 + directory_size
    for blob_size in directory["sizes"]:
        offsets.append((position, blob_size))
        position += blob_size

    def blob(position_index: int) -> bytes:
        start, length = offsets[position_index]
        return buffer[start : start + length]

    results: list[tuple[int, dict[str, object]]] = []
    for entry in directory["entries"]:
        if entry["kind"] == "opaque":
            results.append((entry["index"], pickle.loads(blob(entry["blob"]))))
            continue
        columns: list[list[object]] = []
        for kind, tag, position_index in entry["columns"]:
            if kind == "raw":
                array = np.frombuffer(
                    blob(position_index), dtype=_RAW_DTYPES[tag], count=entry["n"]
                )
                columns.append(array.tolist())
            else:
                columns.append(pickle.loads(blob(position_index)))
        results.append(
            (
                entry["index"],
                {"n": entry["n"], "keys": entry["keys"], "columns": columns},
            )
        )
    return results

