"""Precomputed gather/scatter primitives for the block-sparse kernels.

HiCOO's hot loops all have the same shape: *gather* factor rows at fused
global coordinates ``(bind << b) + eind``, multiply, and *scatter-add* the
result into the output.  The coordinate arithmetic is purely **symbolic** —
it depends only on the tensor's structure, never on the factor values — so
CP-ALS's N modes x K iterations can pay it exactly once.  This module
provides the three pieces of that split (the taco-style symbolic/numeric
separation; see DESIGN.md section 7):

* :class:`TaskGather` — the cached symbolic state of one thread task: fused
  int64 gather coordinates, task-ordered values, and per-mode sortedness
  flags (a sorted scatter mode renumbers its rows without a sort);
* :func:`scatter_add` — a drop-in replacement for ``np.add.at`` that picks
  the fastest NumPy scatter backend for the input at hand, bitwise equal
  to ``np.add.at`` on float64 data;
* run coalescing — consecutive block ids become ``(lo, hi)`` slice ranges so
  task setup is O(runs), not O(blocks).

Every helper is duck-typed on the HiCOO attribute contract (``bptr``,
``binds``, ``einds``, ``values``, ``block_bits``) to keep this module
import-light; :meth:`repro.core.hicoo.HicooTensor.task_gather` is the
memoizing entry point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..obs import metrics, trace

__all__ = [
    "SCATTER_SMALL_N",
    "SCATTER_COMPILED_MIN_N",
    "TaskGather",
    "scatter_add",
    "scatter_add_sequential",
    "choose_scatter_backend",
    "coalesce_runs",
    "runs_from_block_ids",
    "build_task_gather",
    "mttkrp_gather_chunk",
]

#: below this many updates the bookkeeping of the fast backends costs more
#: than ``np.add.at`` itself.
SCATTER_SMALL_N = 64

#: below this many updates a *compiled* scatter (numba/cupy) is never
#: selected even when requested and available: the per-call dispatch
#: overhead — and, on the very first call, JIT compilation — dwarfs the
#: scatter itself, so tiny inputs stay on the NumPy ladder above.
SCATTER_COMPILED_MIN_N = 4096

#: when the output has this many times more rows than there are updates, a
#: bincount over the whole output (which walks every row) loses to
#: renumbering the updates onto the rows they touch first.
_SPARSE_OUT_RATIO = 8


# ----------------------------------------------------------------------
# scatter-add backend selection
# ----------------------------------------------------------------------
def scatter_add(out: np.ndarray, idx: np.ndarray, acc: np.ndarray,
                presorted: bool | None = None,
                row_local: bool = False,
                backend: str | None = None) -> str:
    """Accumulate ``acc`` into ``out`` at rows ``idx``; returns the backend.

    Semantically identical to ``np.add.at(out, idx, acc)`` — duplicate
    indices sum — but picks the fastest primitive available.  Every rung
    adds each row's updates one at a time in input order, so into a zeroed
    float64 ``out`` the result is bitwise equal to ``np.add.at`` whichever
    rung runs:

    * ``"add_at"`` — tiny inputs (<= :data:`SCATTER_SMALL_N` updates), and
      any non-float64 data (bincount sums in float64, so integer counts
      would lose exactness);
    * ``"bincount"`` — general case: one ``np.bincount`` over the
      flattened ``(row, column)`` bins of the whole output;
    * ``"compact"`` — output rows vastly outnumber updates, or
      ``row_local``: the updates are first renumbered onto the distinct
      rows they touch (O(n) when ``idx`` is non-decreasing, a sort
      otherwise), then one bincount over those rows is added back to them;
    * ``"numba"`` — only when ``backend="numba"`` is requested, the tier is
      importable, **and** ``n >= SCATTER_COMPILED_MIN_N``: a jitted
      update loop.  An unavailable request silently stays on the NumPy
      ladder.

    ``presorted`` tells the compact rung that ``idx`` is non-decreasing
    (HiCOO tasks know this from their cached sortedness flags); ``None``
    probes it when needed.  ``row_local=True`` restricts the choice to
    backends that write only the rows in ``idx`` — required when ``out`` is
    shared between concurrent tasks that own disjoint row ranges (the
    lock-free superblock schedule): bincount adds a full-length buffer and
    would race on unowned rows.  ``out`` may be 1-D (with 1-D ``acc``) or
    2-D (rows x rank).

    Each call increments the ``scatter.calls`` / ``scatter.updates`` /
    ``scatter.<backend>`` counters of :mod:`repro.obs.metrics` (so the
    compiled tiers surface as ``scatter.numba`` / ``scatter.cupy``).
    """
    backend = _scatter_add(out, idx, acc, presorted, row_local, backend)
    _count_scatter(backend, len(idx))
    return backend


def _count_scatter(backend: str, n: int) -> None:
    reg = metrics.get_registry()
    if reg.enabled:
        reg.inc("scatter.calls", labels={"backend": backend})
        reg.inc("scatter.updates", n)
        reg.inc("scatter." + backend)


def choose_scatter_backend(n: int, rows: int,
                           row_local: bool = False,
                           backend: str | None = None,
                           compiled_available: bool | None = None) -> str:
    """Pure backend choice for an ``n``-update float64 scatter into ``rows``
    rows.

    Factored out of :func:`scatter_add` so the crossover policy — in
    particular that compiled tiers are never chosen below
    :data:`SCATTER_COMPILED_MIN_N` — is unit-testable on hosts where the
    tiers are not installed (``compiled_available`` overrides detection).
    """
    if n == 0:
        return "noop"
    if n <= SCATTER_SMALL_N:
        return "add_at"
    # only the numba tier applies here: these are host arrays (the GPU
    # tier scatters device-side, inside repro.kernels.compiled, and feeds
    # the scatter.cupy counter from there)
    if backend == "numba" and n >= SCATTER_COMPILED_MIN_N:
        if compiled_available is None:
            from .backends import tier_available

            compiled_available = tier_available(backend)
        if compiled_available:
            return backend
    if row_local or rows > _SPARSE_OUT_RATIO * n:
        return "compact"
    return "bincount"


def _scatter_add(out, idx, acc, presorted, row_local, backend=None) -> str:
    n = len(idx)
    if n == 0:
        return "noop"
    if out.dtype != np.float64 or acc.dtype != np.float64:
        choice = "add_at"
    else:
        choice = choose_scatter_backend(n, out.shape[0], row_local, backend)
    if choice == "add_at":
        np.add.at(out, idx, acc)
    elif choice == "numba":
        from .compiled import scatter_add_compiled

        scatter_add_compiled(out, idx, acc)
    elif choice == "compact":
        if presorted is None:
            presorted = bool(np.all(idx[1:] >= idx[:-1]))
        if presorted:
            first = np.empty(n, dtype=bool)
            first[0] = True
            np.not_equal(idx[1:], idx[:-1], out=first[1:])
            rows = idx[first]
            local = np.cumsum(first) - 1
        else:
            rows, local = np.unique(idx, return_inverse=True)
        # rows are pairwise distinct, so fancy += is exact and writes only
        # the rows in idx
        out[rows] += _bincount_rows(local, acc, len(rows))
    else:  # bincount
        out += _bincount_rows(idx, acc, out.shape[0])
    return choice


def _bincount_rows(idx: np.ndarray, acc: np.ndarray,
                   nrows: int) -> np.ndarray:
    """Per-row sums of ``acc`` into a fresh ``(nrows, R)`` (or ``(nrows,)``)
    array in one ``np.bincount`` pass.

    A 2-D ``acc`` is flattened onto bins ``idx * R + column``, so one pass
    covers all R columns; every bin is summed in input order.  The flat
    index is rebuilt per call — caching it would cost ``8 R`` bytes per
    update per mode.
    """
    if acc.ndim == 1:
        return np.bincount(idx, weights=acc, minlength=nrows)
    rank = acc.shape[1]
    flat = idx.astype(np.int64, copy=False)[:, None] * rank + np.arange(rank)
    sums = np.bincount(flat.ravel(), weights=acc.ravel(),
                       minlength=nrows * rank)
    return sums.reshape(nrows, rank)


def scatter_add_sequential(out: np.ndarray, idx: np.ndarray, acc: np.ndarray,
                           backend: str | None = None) -> str:
    """Scatter-add with a *pinned* summation order: left-to-right in input
    order, per output row — bitwise-identical to ``np.add.at`` into a
    zeroed float64 ``out``.

    Unlike :func:`scatter_add`, whose rung depends on ``n`` and the output
    shape, this variant only ever uses ``np.add.at``, one flattened
    ``np.bincount`` over the local row span, or the jitted sequential loop
    of the numba tier, and it never writes outside ``[idx.min(),
    idx.max()]``.  That makes the result invariant under any row-disjoint
    chunking of the input.  The ALTO format pins its scatters here so
    every backend and thread count reproduces the COO oracle bit for bit
    (DESIGN.md section 13).

    When ``out`` is shared between concurrent tasks the caller must own
    that whole interval (the equal-nnz ALTO partition cuts at row
    boundaries, so it does).
    """
    n = len(idx)
    if n == 0:
        return "noop"
    choice = "add_at"
    if backend == "numba" and n >= SCATTER_COMPILED_MIN_N:
        from .backends import tier_available

        if tier_available("numba"):
            choice = "numba"
    if choice == "numba":
        from .compiled import scatter_add_compiled

        scatter_add_compiled(out, idx, acc)
    elif (n > SCATTER_SMALL_N and out.dtype == np.float64
          and acc.dtype == np.float64):
        # bincount walks the whole local row span, so fall back to add_at
        # when the span dwarfs the update count
        lo = int(idx.min())
        hi = int(idx.max()) + 1
        if hi - lo <= _SPARSE_OUT_RATIO * n:
            choice = "bincount"
            out[lo:hi] += _bincount_rows(idx - lo, acc, hi - lo)
        else:
            np.add.at(out, idx, acc)
    else:
        np.add.at(out, idx, acc)
    _count_scatter(choice, n)
    return choice


# ----------------------------------------------------------------------
# run coalescing (O(runs) task setup)
# ----------------------------------------------------------------------
def coalesce_runs(ranges: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Merge adjacent half-open ``(lo, hi)`` ranges; drops empty ranges."""
    runs: List[Tuple[int, int]] = []
    for lo, hi in ranges:
        lo, hi = int(lo), int(hi)
        if hi <= lo:
            continue
        if runs and runs[-1][1] == lo:
            runs[-1] = (runs[-1][0], hi)
        else:
            runs.append((lo, hi))
    return runs


def runs_from_block_ids(block_ids) -> List[Tuple[int, int]]:
    """Coalesce a sequence of block ids into maximal consecutive runs."""
    ids = np.asarray(block_ids, dtype=np.int64)
    if ids.size == 0:
        return []
    breaks = np.flatnonzero(ids[1:] != ids[:-1] + 1) + 1
    starts = np.concatenate([[0], breaks])
    ends = np.concatenate([breaks, [len(ids)]])
    return [(int(ids[s]), int(ids[e - 1]) + 1) for s, e in zip(starts, ends)]


# ----------------------------------------------------------------------
# fused gather arrays
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TaskGather:
    """Cached symbolic state of one thread task over any format.

    Attributes
    ----------
    runs : tuple of (lo, hi) — what this task owns in its source: HiCOO
        block runs, or a nonzero slice of an ALTO/COO/CSF traversal.
    ginds : (nnz, N) int64 — fused global coordinates
        ``(binds[blk] << block_bits) + einds``, task order.
    values : (nnz,) float64 — the nonzero values in the same order (constant
        per tensor, cached so the numeric pass is slice-free).
    sorted_modes : (N,) bool — whether ``ginds[:, m]`` is non-decreasing;
        a sorted scatter mode finds its distinct rows in O(n), no sort.
    """

    runs: Tuple[Tuple[int, int], ...]
    ginds: np.ndarray
    values: np.ndarray
    sorted_modes: np.ndarray

    @classmethod
    def of(cls, ginds: np.ndarray, values: np.ndarray,
           runs: Tuple[Tuple[int, int], ...] = ()) -> "TaskGather":
        """Wrap task-ordered coordinates and values, probing sortedness."""
        sorted_modes = np.array(
            [bool(np.all(ginds[1:, m] >= ginds[:-1, m]))
             for m in range(ginds.shape[1])], dtype=bool)
        return cls(runs=runs, ginds=ginds, values=values,
                   sorted_modes=sorted_modes)

    @property
    def nnz(self) -> int:
        return len(self.values)

    def nbytes(self) -> int:
        """Cache footprint of the precomputed arrays."""
        return (self.ginds.nbytes + self.values.nbytes
                + self.sorted_modes.nbytes)


def build_task_gather(tensor, runs: Sequence[Tuple[int, int]]) -> TaskGather:
    """Materialize the fused gather arrays for block runs of ``tensor``.

    One vectorized pass per run (O(runs) setup + O(nnz) arithmetic) replaces
    the per-block ``arange``/``full``/``concatenate`` loop.  ``binds`` is
    sliced *before* the int64 widening so only the task's rows are cast.
    """
    runs = tuple(coalesce_runs(runs))
    nmodes = tensor.binds.shape[1] if tensor.binds.ndim == 2 else 1
    shift = tensor.block_bits
    pieces_g, pieces_v = [], []
    for blo, bhi in runs:
        lo, hi = int(tensor.bptr[blo]), int(tensor.bptr[bhi])
        counts = np.diff(tensor.bptr[blo:bhi + 1])
        blk_of = np.repeat(np.arange(blo, bhi), counts)
        base = tensor.binds[blk_of].astype(np.int64) << shift
        base += tensor.einds[lo:hi]
        pieces_g.append(base)
        pieces_v.append(tensor.values[lo:hi])
    if pieces_g:
        ginds = pieces_g[0] if len(pieces_g) == 1 else np.concatenate(pieces_g)
        values = (pieces_v[0] if len(pieces_v) == 1
                  else np.concatenate(pieces_v))
        values = np.ascontiguousarray(values, dtype=np.float64)
    else:
        ginds = np.empty((0, nmodes), dtype=np.int64)
        values = np.empty(0, dtype=np.float64)
    return TaskGather.of(ginds, values, runs=runs)


# ----------------------------------------------------------------------
# numeric MTTKRP pass over a cached gather
# ----------------------------------------------------------------------
def mttkrp_gather_chunk(tg: TaskGather, factors, mode: int, out: np.ndarray,
                        row_local: bool = False,
                        backend: str | None = None,
                        scatter: str = "auto") -> str:
    """Pure-numeric MTTKRP of one task: gather, multiply, scatter-add.

    All symbolic work lives in ``tg``; this touches only factor values.
    Returns the scatter backend used (recorded in :class:`MttkrpRun`).
    ``row_local`` is forwarded to :func:`scatter_add` (set it when ``out``
    is shared between concurrently running tasks); ``backend`` requests a
    compiled scatter tier for large-enough updates (see
    :func:`choose_scatter_backend`).  ``scatter="seq"`` pins the
    chunk-invariant left-to-right scatter of
    :func:`scatter_add_sequential` (the ALTO bit-reproducibility
    contract) instead of the adaptive ladder.
    """
    if tg.nnz == 0:
        return "noop"
    if trace.enabled():
        with trace.span("gather.chunk", mode=mode, nnz=tg.nnz):
            used = _mttkrp_gather_chunk(tg, factors, mode, out, row_local,
                                        backend, scatter)
    else:
        used = _mttkrp_gather_chunk(tg, factors, mode, out, row_local,
                                    backend, scatter)
    metrics.inc("mttkrp.nnz_processed", tg.nnz)
    return used


def _mttkrp_gather_chunk(tg, factors, mode, out, row_local, backend=None,
                         scatter="auto"):
    acc = None
    for m, f in enumerate(factors):
        if m == mode:
            continue
        rows = f[tg.ginds[:, m]]
        if acc is None:
            acc = rows  # fresh gather output — safe to scale in place below
        else:
            acc *= rows
    if acc is None:
        acc = np.repeat(tg.values[:, None], out.shape[1], axis=1)
    else:
        acc *= tg.values[:, None]
    if scatter == "seq":
        return scatter_add_sequential(out, tg.ginds[:, mode], acc,
                                      backend=backend)
    return scatter_add(out, tg.ginds[:, mode], acc,
                       presorted=bool(tg.sorted_modes[mode]),
                       row_local=row_local, backend=backend)
