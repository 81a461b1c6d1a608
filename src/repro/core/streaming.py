"""Chunked (streaming) HiCOO construction.

FROSTT files run to billions of nonzeros; holding full 64-bit coordinates
for all of them during construction is the peak-memory bottleneck.  This
module builds a HiCOO tensor from an *iterator of coordinate chunks* without
ever re-sorting the accumulated data from scratch:

* each arriving chunk is immediately reduced to a sorted, duplicate-summed
  *run* of ``(key, offsets, values)``, where ``key`` is a single uint64 that
  orders nonzeros exactly as HiCOO requires — the block Morton code in the
  high bits, mode-0-major element offsets in the low bits.  Full coordinates
  are discarded on arrival (about ``16 + N`` bytes per nonzero retained);
* runs are merged pairwise as they accumulate (a size-balanced merge
  ladder, as in LSM trees / timsort), so the total sorting work is
  O(nnz log nchunks) vectorized merge passes and :meth:`finalize` only has
  to fold the last few runs together;
* block coordinates are recovered at the end by Morton-*decoding* the per-
  block keys — ``nblocks`` decodes instead of ``nnz``.

When the combined key cannot fit 64 bits (huge index spaces) the builder
falls back to the previous whole-stream multi-word lexsort, which covers
keys up to 128 bits.

Works with any chunk source; :func:`stream_tns` adapts a ``.tns`` file.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..formats.coo import CooTensor
from ..kernels.gather import scatter_add
from ..util.bitops import (bits_for, morton_decode, morton_encode,
                           stable_argsort_u64)
from ..util.validation import check_shape
from .blocking import MAX_BLOCK_BITS
from .hicoo import HicooTensor

__all__ = ["ChunkedHicooBuilder", "hicoo_from_chunks", "stream_tns",
           "read_tns_chunks"]

Chunk = Tuple[np.ndarray, np.ndarray]  # (indices (n, N) int, values (n,))

#: a sorted, duplicate-summed segment of the stream
Run = Tuple[np.ndarray, np.ndarray, np.ndarray]  # keys, offsets, values


def read_tns_chunks(path, chunk_nnz: int = 100_000) -> Iterator[Chunk]:
    """Yield (indices, values) chunks of at most ``chunk_nnz`` nonzeros from
    a FROSTT ``.tns`` file.

    Coordinates are converted to zero-based.  Same parser, and the same
    errors on malformed lines, as :func:`repro.data.frostt.read_tns`.
    """
    from ..data.frostt import iter_tns

    if chunk_nnz < 1:
        raise ValueError(f"chunk_nnz must be positive, got {chunk_nnz}")
    with open(path, "r") as fh:
        yield from iter_tns(fh, chunk_lines=chunk_nnz)


class ChunkedHicooBuilder:
    """Incremental sort-merge HiCOO construction.

    >>> builder = ChunkedHicooBuilder(block_bits=2, shape=(8, 8))
    >>> builder.add([[0, 0], [5, 5]], [1.0, 2.0])
    >>> builder.add([[0, 1]], [3.0])
    >>> builder.finalize().nnz
    3
    """

    def __init__(self, block_bits: int, shape: Optional[Sequence[int]] = None):
        if not 1 <= block_bits <= MAX_BLOCK_BITS:
            raise ValueError(
                f"block_bits must be in [1, {MAX_BLOCK_BITS}], got {block_bits}")
        self.block_bits = int(block_bits)
        self.declared_shape = None if shape is None else check_shape(shape)
        self._runs: List[Run] = []
        #: multi-word fallback storage: [(bcoords, offsets, values), ...]
        self._raw: Optional[list] = None
        self._nmodes: Optional[int] = None
        self._max_index: Optional[np.ndarray] = None
        self._blk_bits = 1  # widest block coordinate seen, in bits

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def add(self, indices, values) -> None:
        """Ingest one coordinate chunk; it is keyed, sorted and
        duplicate-summed immediately, then merged into the run ladder."""
        inds = np.asarray(indices, dtype=np.int64)
        vals = np.asarray(values, dtype=np.float64).ravel()
        if inds.ndim != 2 or len(inds) != len(vals):
            raise ValueError("chunk must be ((n, N) indices, (n,) values)")
        if inds.size and inds.min() < 0:
            raise ValueError("negative coordinate in chunk")
        if self._nmodes is None:
            self._nmodes = inds.shape[1]
        elif inds.shape[1] != self._nmodes:
            raise ValueError(
                f"chunk has {inds.shape[1]} modes, expected {self._nmodes}")
        if len(inds) == 0:
            return
        chunk_max = inds.max(axis=0)
        self._max_index = chunk_max if self._max_index is None else np.maximum(
            self._max_index, chunk_max)

        b = self.block_bits
        bcoords = inds >> b
        offsets = (inds & ((1 << b) - 1)).astype(np.uint8)
        vals = vals.copy() if vals.base is not None else vals
        if self._raw is not None:
            self._raw.append((bcoords, offsets, vals))
            return
        nmodes = self._nmodes
        blk_bits = max(self._blk_bits, bits_for(int(bcoords.max())))
        if nmodes * (blk_bits + b) > 64:
            self._switch_to_multiword()
            self._raw.append((bcoords, offsets, vals))
            return
        self._blk_bits = blk_bits
        self._push_run(self._make_run(bcoords, offsets, vals))

    def _make_run(self, bcoords, offsets, vals) -> Run:
        """Sorted, deduplicated single-word-key run for one chunk."""
        nmodes, b = self._nmodes, self.block_bits
        key = morton_encode(bcoords.T, self._blk_bits)[0]
        np.left_shift(key, np.uint64(nmodes * b), out=key)
        for m in range(nmodes):
            shift = b * (nmodes - 1 - m)
            col = offsets[:, m].astype(np.uint64)
            key |= col << np.uint64(shift) if shift else col
        order = stable_argsort_u64(key)
        return _dedup_run(key[order], offsets[order], vals[order])

    def _push_run(self, run: Run) -> None:
        """Size-balanced merge ladder: merge whenever the newest run has
        grown to at least half its predecessor, so at most O(log nchunks)
        runs are alive and every nonzero is merged O(log nchunks) times."""
        runs = self._runs
        runs.append(run)
        while len(runs) > 1 and 2 * len(runs[-1][0]) >= len(runs[-2][0]):
            hi = runs.pop()
            lo = runs.pop()
            runs.append(_merge_runs(lo, hi))

    def _switch_to_multiword(self) -> None:
        """Key exceeded 64 bits: re-expand accumulated runs into raw block
        coordinate chunks for the whole-stream lexsort fallback."""
        self._raw = []
        nmodes, b = self._nmodes, self.block_bits
        for keys, offsets, vals in self._runs:
            codes = (keys >> np.uint64(nmodes * b))[None, :]
            bcoords = morton_decode(codes, nmodes, self._blk_bits)
            self._raw.append((bcoords.T.astype(np.int64), offsets, vals))
        self._runs = []

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def finalize(self) -> HicooTensor:
        """Fold the remaining runs together and scan out the block structure."""
        shape = self._resolve_shape()
        if self._nmodes is None:
            return HicooTensor(CooTensor.empty(shape), block_bits=self.block_bits)
        if self._raw is not None:
            return self._assemble_multiword(shape)

        runs = self._runs
        while len(runs) > 1:
            hi = runs.pop()
            lo = runs.pop()
            runs.append(_merge_runs(lo, hi))
        keys, offsets, values = runs[0]
        self._runs = []

        nmodes, b = self._nmodes, self.block_bits
        bcode = keys >> np.uint64(nmodes * b)
        changed = bcode[1:] != bcode[:-1]
        starts = np.concatenate([[0], np.flatnonzero(changed) + 1])
        bptr = np.concatenate([starts, [len(values)]]).astype(np.int64)
        block_codes = bcode[starts]
        binds = morton_decode(block_codes[None, :], nmodes, self._blk_bits).T
        _check_binds_fit(binds)
        return _raw_hicoo(shape, b, bptr, binds.astype(np.uint32),
                          offsets, values)

    def _resolve_shape(self) -> tuple:
        if self._nmodes is None:
            if self.declared_shape is None:
                raise ValueError("no chunks and no explicit shape")
            return self.declared_shape
        if self.declared_shape is None:
            return tuple(int(m) + 1 for m in self._max_index)
        shape = self.declared_shape
        if len(shape) != self._nmodes:
            raise ValueError(
                f"shape has {len(shape)} modes, chunks have {self._nmodes}")
        if self._max_index is not None and np.any(
                self._max_index >= np.asarray(shape)):
            raise ValueError("chunk coordinate out of declared shape")
        return shape

    def _assemble_multiword(self, shape) -> HicooTensor:
        """Previous whole-stream path: 2-word Morton key + offset lexsort.
        Covers index spaces whose keys need up to 128 bits."""
        nmodes, b = self._nmodes, self.block_bits
        bcoords = np.vstack([r[0] for r in self._raw])
        offsets = np.vstack([r[1] for r in self._raw])
        values = np.concatenate([r[2] for r in self._raw])
        self._raw = []

        # global Morton order over block coords, offsets lexicographic
        # within; key budget: 2 uint64 words covers N*nbits <= 128 bits
        nbits = bits_for(int(bcoords.max()) if bcoords.size else 0)
        if nmodes * nbits > 128:
            raise ValueError(
                f"Morton key needs {nmodes * nbits} bits (> 128); reduce the "
                "index space or use the in-memory constructor")
        words = morton_encode(bcoords.T, nbits)
        off_keys = tuple(offsets[:, m] for m in reversed(range(nmodes)))
        order = np.lexsort(off_keys + tuple(words[::-1]))
        bcoords = bcoords[order]
        offsets = offsets[order]
        values = values[order]

        # sum duplicates (equal block coords AND offsets)
        if len(values) > 1:
            same = np.all(bcoords[1:] == bcoords[:-1], axis=1) & \
                np.all(offsets[1:] == offsets[:-1], axis=1)
            if same.any():
                group = np.concatenate([[0], np.cumsum(~same)])
                first = np.concatenate([[0], np.flatnonzero(~same) + 1])
                summed = np.zeros(group[-1] + 1)
                scatter_add(summed, group, values, presorted=True)
                bcoords, offsets, values = bcoords[first], offsets[first], summed

        _check_binds_fit(bcoords)
        changed = np.any(bcoords[1:] != bcoords[:-1], axis=1)
        starts = np.concatenate([[0], np.flatnonzero(changed) + 1])
        bptr = np.concatenate([starts, [len(values)]]).astype(np.int64)
        return _raw_hicoo(shape, b, bptr, bcoords[starts].astype(np.uint32),
                          offsets, values)


def _dedup_run(keys, offsets, values) -> Run:
    """Sum duplicate coordinates (equal keys are equal coordinates)."""
    if len(keys) > 1:
        same = keys[1:] == keys[:-1]
        if same.any():
            first = np.concatenate([[0], np.flatnonzero(~same) + 1])
            group = np.concatenate([[0], np.cumsum(~same)])
            summed = np.zeros(group[-1] + 1)
            scatter_add(summed, group, values, presorted=True)
            return keys[first], offsets[first], summed
    return keys, offsets, values


def _merge_runs(a: Run, b: Run) -> Run:
    """Merge two sorted runs with vectorized searchsorted placement (ties go
    to ``a``, preserving arrival order), then sum cross-run duplicates."""
    ka, kb = a[0], b[0]
    pos_a = np.arange(len(ka)) + np.searchsorted(kb, ka, side="left")
    pos_b = np.arange(len(kb)) + np.searchsorted(ka, kb, side="right")
    n = len(ka) + len(kb)
    keys = np.empty(n, dtype=np.uint64)
    keys[pos_a] = ka
    keys[pos_b] = kb
    offsets = np.empty((n, a[1].shape[1]), dtype=np.uint8)
    offsets[pos_a] = a[1]
    offsets[pos_b] = b[1]
    values = np.empty(n)
    values[pos_a] = a[2]
    values[pos_b] = b[2]
    return _dedup_run(keys, offsets, values)


def _check_binds_fit(bcoords) -> None:
    # block coordinates must fit the 32-bit binds array (the in-memory
    # constructor enforces the same bound)
    if bcoords.size and int(bcoords.max()) > np.iinfo(np.uint32).max:
        raise ValueError(
            f"block coordinate {int(bcoords.max())} does not fit the "
            "32-bit binds array; use a larger block size or split the mode")


def _raw_hicoo(shape, block_bits, bptr, binds, einds, values) -> HicooTensor:
    out = HicooTensor.__new__(HicooTensor)
    out._shape = tuple(shape)
    out.block_bits = int(block_bits)
    out.bptr = bptr
    out.binds = binds
    out.einds = einds
    out.values = values
    out._gather_cache = {}
    return out


def hicoo_from_chunks(chunks: Iterable[Chunk], block_bits: int,
                      shape: Optional[Sequence[int]] = None) -> HicooTensor:
    """Assemble a HiCOO tensor from coordinate chunks.

    Per chunk, coordinates are split into (block, offset), keyed, sorted and
    merged incrementally; the full coordinates are discarded on arrival.
    See :class:`ChunkedHicooBuilder` for the mechanism.

    ``shape`` may be omitted, in which case it is inferred from the data.
    """
    builder = ChunkedHicooBuilder(block_bits, shape=shape)
    for inds, vals in chunks:
        builder.add(inds, vals)
    return builder.finalize()


def stream_tns(path, block_bits: int, shape: Optional[Sequence[int]] = None,
               chunk_nnz: int = 100_000) -> HicooTensor:
    """Build a HiCOO tensor directly from a ``.tns`` file in chunks."""
    path = Path(path)
    return hicoo_from_chunks(read_tns_chunks(path, chunk_nnz=chunk_nnz),
                             block_bits=block_bits, shape=shape)
