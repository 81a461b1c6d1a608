"""Lowered parallel-MTTKRP plans for every format.

Neither of the paper's parallel strategies depends on the storage format:
the lock-free schedule needs tasks that own disjoint output rows, and
privatization needs nothing but a private buffer per task.  So each format
*lowers* a mode's MTTKRP to the same shape (the taco format abstraction,
arXiv:1804.10112, without a code generator): a :class:`ModePlan` holding one
:class:`~repro.kernels.gather.TaskGather` per task plus the strategy that
says how the tasks may share the output.  One executor,
:func:`repro.kernels.mttkrp.execute`, runs every lowered mode on every
backend.

==========  ============================================================
format      lowering (``lower_mode``)
==========  ============================================================
hicoo       superblock groups of the lock-free schedule (``schedule``) or
            contiguous superblock ranges (``privatize``); block runs
            materialized through the memoized ``task_gather``
alto        equal-nnz row-disjoint slices of the mode view (``schedule``)
            or equal-nnz slices of the key order (``privatize``); pins the
            sequential scatter (``scatter="seq"``)
csf         root subtrees of the level-iterated coordinates; row-disjoint
            (``subtree``) only when the target mode is the tree root
coo         equal-nnz slices (``privatize``, or ``atomic`` into a shared
            output, one task at a time)
==========  ============================================================

A CP-ALS run issues the same N MTTKRPs every iteration, so a
:class:`MttkrpPlan` lowers every mode once and is reused across
iterations, CP-ALS restarts and served requests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..obs import metrics
from .gather import TaskGather

__all__ = ["STRATEGIES", "ModePlan", "MttkrpPlan", "plan_mttkrp"]

#: every strategy name a lowering accepts (each format accepts a subset)
STRATEGIES = ("auto", "schedule", "subtree", "privatize", "atomic")


@dataclass
class ModePlan:
    """One lowered MTTKRP mode: the tasks and how they share the output."""

    mode: int
    #: "schedule" / "subtree" (tasks own disjoint output rows), "privatize"
    #: (private buffers plus a reduction) or "atomic" (shared output,
    #: overlapping rows)
    strategy: str
    #: one fused gather per task, in task order
    gathers: List[TaskGather]
    thread_nnz: np.ndarray
    #: identifies the gathers' content on their tensor: the process backend
    #: shares a mode's arrays once per key, so re-lowering the same mode
    #: (an unplanned call) re-shares nothing
    key: tuple
    #: the HiCOO lock-free schedule behind a "schedule" lowering
    schedule: Optional[object] = None
    #: the HiCOO superblock index the lowering partitioned
    superblocks: Optional[object] = None
    #: scatter contract: "auto" (adaptive ladder, any compiled tier) or
    #: "seq" (ALTO's bitwise left-to-right rule)
    scatter: str = "auto"
    #: compiled-tier state, built once per plan: the concatenated
    #: kernel-ready arrays ("fused") and the GPU device arena ("arena")
    compiled: dict = field(default_factory=dict)

    @classmethod
    def from_ranges(cls, mode: int, strategy: str, ginds: np.ndarray,
                    values: np.ndarray, ranges: Sequence[Tuple[int, int]],
                    key: tuple, scatter: str = "auto") -> "ModePlan":
        """Lower contiguous nonzero slices ``ranges`` of one traversal
        (``ginds``/``values`` in traversal order) to one task each; the
        slices are views, and ``runs`` records each task's slice."""
        ranges = tuple((int(lo), int(hi)) for lo, hi in ranges)
        return cls(mode=mode, strategy=strategy,
                   gathers=[TaskGather.of(ginds[lo:hi], values[lo:hi],
                                          runs=((lo, hi),))
                            for lo, hi in ranges],
                   thread_nnz=np.array([hi - lo for lo, hi in ranges],
                                       dtype=np.int64),
                   key=key + (ranges,), scatter=scatter)

    @property
    def nthreads(self) -> int:
        return len(self.gathers)

    @property
    def row_disjoint(self) -> bool:
        """Whether concurrent tasks may write one shared output."""
        return self.strategy in ("schedule", "subtree")

    @property
    def thread_blocks(self) -> List[List[int]]:
        """Per-task flat unit ids expanded from the gathers' runs (HiCOO:
        block ids; inspection view, execution uses the gathers)."""
        return [[b for lo, hi in tg.runs for b in range(lo, hi)]
                for tg in self.gathers]


@dataclass
class MttkrpPlan:
    """Every mode of one (tensor, rank, nthreads), lowered once."""

    nthreads: int
    rank: int
    modes: List[ModePlan]

    def for_mode(self, mode: int) -> ModePlan:
        return self.modes[mode]

    @property
    def superblocks(self):
        """The HiCOO superblock index (``None`` for other formats)."""
        return self.modes[0].superblocks if self.modes else None

    def ensure_gathers(self, tensor=None,
                       mode: Optional[int] = None) -> List[TaskGather]:
        """The gathers of ``mode`` (every mode for ``None``).

        Lowering materializes them, so this only reports the reuse: a warm
        plan serving its arrays is a hit of the gather layer.  ``tensor``
        is accepted for symmetry with the lowering and ignored.
        """
        modes = self.modes if mode is None else [self.modes[mode]]
        gathers = [tg for mp in modes for tg in mp.gathers]
        metrics.inc("gather.cache_hits", len(gathers))
        return gathers

    def gather_cache_bytes(self) -> int:
        """Footprint of the plan's gather arrays (shared arrays once)."""
        seen, total = set(), 0
        for mp in self.modes:
            for tg in mp.gathers:
                if id(tg) not in seen:
                    seen.add(id(tg))
                    total += tg.nbytes()
        return total


def plan_mttkrp(tensor, rank: int, nthreads: int,
                superblock_bits: Optional[int] = None,
                strategy: str = "auto") -> MttkrpPlan:
    """Lower every mode of ``tensor`` (any format) for ``nthreads`` tasks.

    ``strategy`` forces one strategy for all modes, or ``"auto"`` applies
    the format's default (the paper's per-mode heuristic for HiCOO).
    ``superblock_bits`` applies to HiCOO only.
    """
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")
    if nthreads < 1:
        raise ValueError(f"nthreads must be positive, got {nthreads}")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    modes = [tensor.lower_mode(mode, nthreads, strategy, superblock_bits,
                               rank=rank)
             for mode in range(tensor.nmodes)]
    return MttkrpPlan(nthreads=nthreads, rank=rank, modes=modes)
