"""MTTKRP kernels: sequential dispatch and the one parallel execution path.

Sequential MTTKRP lives on each format class; this module adds

* :func:`mttkrp` — format dispatch (the function CP-ALS calls), and
* :func:`mttkrp_parallel` — the paper's parallel algorithms for every
  format: take the mode's :class:`~repro.kernels.plan.ModePlan` from a plan
  (or lower it now with the format's ``lower_mode``) and :func:`execute` it.

A lowered mode is a list of tasks plus the strategy that says how they
share the output (see :mod:`repro.kernels.plan` for each format's
lowering):

* ``"schedule"`` / ``"subtree"`` — tasks own disjoint output rows (HiCOO's
  lock-free superblock schedule, ALTO's row-segment partition, CSF root
  subtrees of the root mode): one shared output, no atomics, no extra
  memory;
* ``"privatize"`` — every task writes a private buffer, one reduction
  follows;
* ``"atomic"`` (COO) — tasks overlap on output rows and share one output.
  NumPy has no atomic scatter-add, so these tasks run one at a time on
  every backend; the atomic penalty a real machine would pay is charged
  analytically by the machine model.

Every parallel run returns the output *and* an execution record with the
per-thread work counts the analytic machine model consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

import numpy as np

from ..core.scheduler import Schedule
from ..formats.base import SparseTensorFormat
from ..obs import metrics, trace
from ..parallel.executor import (ExecutionReport, TaskResult, resolve_backend,
                                 run_tasks)
from ..parallel.privatize import PrivateBuffers
from ..util.validation import check_factors, check_mode
from .backends import resolve_kernel_backend
from .gather import mttkrp_gather_chunk
from .plan import ModePlan

__all__ = ["MttkrpRun", "execute", "mttkrp", "mttkrp_parallel"]


@dataclass
class MttkrpRun:
    """Result and accounting of one parallel MTTKRP launch."""

    output: np.ndarray
    strategy: str
    nthreads: int
    thread_nnz: np.ndarray
    atomic_updates: int = 0
    reduction_flops: int = 0
    schedule: Optional[Schedule] = None
    report: ExecutionReport = field(default_factory=ExecutionReport)
    #: scatter backends the tasks used (sorted, deduplicated) — see
    #: :func:`repro.kernels.gather.scatter_add`; feeds the analysis layer
    scatter_backends: tuple = ()

    def makespan_nnz(self) -> int:
        """Work on the critical path, in nonzeros."""
        return int(self.thread_nnz.max()) if len(self.thread_nnz) else 0

    def load_imbalance(self) -> float:
        if not len(self.thread_nnz):
            return 1.0
        mean = self.thread_nnz.sum() / self.nthreads
        return float(self.thread_nnz.max() / mean) if mean else 1.0


def mttkrp(tensor: SparseTensorFormat, factors: Sequence[np.ndarray],
           mode: int) -> np.ndarray:
    """Sequential MTTKRP on any supported format."""
    with trace.span("mttkrp.seq", mode=mode, format=tensor.format_name):
        out = tensor.mttkrp(factors, mode)
    metrics.inc("mttkrp.calls",
                labels={"format": tensor.format_name, "mode": mode})
    return out


def mttkrp_parallel(tensor: SparseTensorFormat, factors: Sequence[np.ndarray],
                    mode: int, nthreads: int, strategy: str = "auto",
                    superblock_bits: Optional[int] = None,
                    plan=None, backend: Optional[str] = None,
                    fault_policy=None) -> MttkrpRun:
    """Parallel MTTKRP with the strategy set of the paper, on any format.

    ``strategy``: ``"auto"`` (the format's default — the paper's heuristic
    for HiCOO, ``"schedule"`` for ALTO, ``"subtree"`` for CSF,
    ``"privatize"`` for COO), ``"schedule"`` (HiCOO, ALTO), ``"subtree"``
    (CSF), ``"privatize"`` (every format) or ``"atomic"`` (COO).

    ``plan`` — a precomputed :class:`repro.kernels.plan.MttkrpPlan`; skips
    the lowering (superblocks, schedules, gathers) entirely — CP-ALS builds
    one plan and reuses it every iteration.  Its thread count wins over
    ``nthreads``.

    ``backend`` — ``"sim"`` (sequential, individually timed tasks),
    ``"thread"`` (GIL-sharing thread pool), ``"process"`` (true multicore
    over shared memory, see :mod:`repro.parallel.procpool`), ``"numba"``
    (fused machine-code kernels, ``prange`` over the plan's row-disjoint
    tasks), or ``"cupy"`` (GPU segmented reductions over a device-resident
    plan).  The compiled tiers **degrade silently** to the NumPy kernels
    when the dependency is absent (one warning, a ``kernel.fallbacks``
    counter bump, identical results) — see :mod:`repro.kernels.backends`
    and :mod:`repro.kernels.compiled`.

    ``fault_policy`` — process backend only: ``"fail-fast"`` (default, the
    first worker fault propagates), ``"retry"`` (dead/hung workers are
    respawned and their tasks re-run idempotently — the recovered output is
    bit-identical to a fault-free run), or ``"degrade"`` (exhausted
    recovery budgets fall back to the thread/sim backends).  Accepts a
    :class:`repro.parallel.supervisor.FaultConfig` for fine-grained
    budgets; see ``docs/fault_tolerance.md``.
    """
    factors = check_factors(factors, tensor.shape)
    mode = check_mode(mode, tensor.nmodes)
    if nthreads < 1:
        raise ValueError(f"nthreads must be positive, got {nthreads}")
    backend = resolve_backend(backend)
    if plan is not None:
        plan.ensure_gathers(tensor, mode)
        mode_plan = plan.for_mode(mode)
    else:
        mode_plan = tensor.lower_mode(mode, nthreads, strategy,
                                      superblock_bits,
                                      rank=factors[0].shape[1])
    return execute(tensor, mode_plan, factors, backend, fault_policy)


def execute(tensor: SparseTensorFormat, mode_plan: ModePlan,
            factors: Sequence[np.ndarray], backend: str = "sim",
            fault_policy=None) -> MttkrpRun:
    """Run one lowered mode of ``tensor`` on ``backend``.

    This is the only parallel MTTKRP executor.  ``"sim"``/``"thread"`` run
    the tasks in this process, into one shared output (row-disjoint and
    atomic plans) or private buffers (privatized plans).  ``"process"``
    runs them in the warm worker pool over shared memory; under
    ``fault_policy="degrade"`` an exhausted recovery budget re-runs the
    region in process on the first usable fallback backend — same tasks,
    same kernels, so the degraded output is identical.  The compiled tiers
    run every ``scatter="auto"`` plan through the fused kernels of
    :mod:`repro.kernels.compiled`; ``scatter="seq"`` plans (ALTO) keep their
    per-task order and only jit the scatter (numba), or fall back to NumPy
    (cupy).
    """
    backend = resolve_backend(backend)
    tier = None
    if backend in ("numba", "cupy"):
        tier = resolve_kernel_backend(backend)
        if tier == "numpy":
            backend, tier = "sim", None  # unavailable: silent NumPy fallback
        elif mode_plan.scatter != "auto" and tier != "numba":
            metrics.inc("kernel.fallbacks", labels={"tier": backend})
            backend, tier = "sim", None
    if mode_plan.strategy == "atomic" and backend in ("thread", "process"):
        backend = "sim"  # overlapping rows: one task at a time
    if backend != "process" and fault_policy is not None:
        # validate the knob even when it is moot (in-process tasks cannot
        # be lost) so typos fail loudly
        from ..parallel.supervisor import FaultConfig

        FaultConfig.resolve(fault_policy)
    fused = tier is not None and mode_plan.scatter == "auto"
    if tier == "numba":
        # JIT compilation happens here, outside the kernel span, so the
        # steady-state numbers never include it (recorded separately in
        # the compiled.compile_seconds metric)
        from .compiled import warmup_numba

        warmup_numba()

    fmt = tensor.format_name
    with trace.span("mttkrp.parallel", mode=mode_plan.mode, format=fmt,
                    nthreads=mode_plan.nthreads, backend=backend) as sp:
        run = None
        if fused:
            run = _execute_compiled(tensor, mode_plan, factors, tier)
        elif backend == "process":
            from ..parallel.supervisor import DegradedExecution

            try:
                run = _execute_process(tensor, mode_plan, factors,
                                       fault_policy)
            except DegradedExecution as exc:
                backend = _degrade(exc, mode_plan.mode)
                sp.note(degraded=True, fallback=backend)
        if run is None:
            run = _execute_local(tensor, mode_plan, factors, backend)
        sp.note(strategy=run.strategy, imbalance=run.load_imbalance())
    _note_parallel(run, fmt, mode_plan.mode, run.report.backend)
    return run


def _execute_local(tensor, mp: ModePlan, factors, backend: str) -> MttkrpRun:
    """Tasks as in-process callables (sim, thread, or numba-scatter)."""
    rows, rank = tensor.shape[mp.mode], factors[0].shape[1]
    if mp.strategy == "privatize":
        bufs = PrivateBuffers.allocate(mp.nthreads, rows, rank)
        targets = [bufs.view(t) for t in range(mp.nthreads)]
    else:
        out = np.zeros((rows, rank))
        targets = [out] * mp.nthreads
    _observe_blocks(mp.gathers)
    scatter_tier = "numba" if backend == "numba" else None
    tasks = [partial(mttkrp_gather_chunk, tg, factors, mp.mode, target,
                     row_local=mp.row_disjoint, backend=scatter_tier,
                     scatter=mp.scatter)
             for tg, target in zip(mp.gathers, targets)]
    report = run_tasks(tasks, backend=backend)
    if mp.strategy == "privatize":
        return _run_of(mp, bufs.reduce(), report,
                       reduction_flops=bufs.reduction_flops())
    return _run_of(mp, out, report)


def _execute_process(tensor, mp: ModePlan, factors,
                     fault_policy) -> MttkrpRun:
    """Tasks in the warm worker pool, over the tensor's shared session."""
    from ..parallel.procpool import get_pool, session_for
    from ..parallel.supervisor import FaultConfig

    fault_config = FaultConfig.resolve(fault_policy)
    with trace.span("mttkrp.process", mode=mp.mode, nworkers=mp.nthreads,
                    strategy=mp.strategy, fault_policy=fault_config.policy):
        pool = get_pool(mp.nthreads)
        session = session_for(tensor, mp.nthreads)
        output, report = session.run_mode(pool, factors, mp,
                                          fault_config=fault_config)
    metrics.inc("procpool.calls")
    flops = 0
    if mp.strategy == "privatize":
        flops = (mp.nthreads - 1) * output.shape[0] * output.shape[1]
    return _run_of(mp, output, report, reduction_flops=flops)


def _execute_compiled(tensor, mp: ModePlan, factors, tier: str) -> MttkrpRun:
    """One fused kernel launch (numba) or device reduction (cupy)."""
    from .compiled import mttkrp_compiled

    with trace.span("mttkrp.compiled", mode=mp.mode, tier=tier,
                    format=tensor.format_name, nthreads=mp.nthreads) as sp:
        output, flavor, times = mttkrp_compiled(
            mp, factors, tensor.shape[mp.mode], tier)
        sp.note(flavor=flavor)
    report = ExecutionReport(backend=tier, results=[
        TaskResult(tid=0, elapsed=times[0], value=flavor)])
    return _run_of(mp, output, report)


def _run_of(mp: ModePlan, output, report: ExecutionReport,
            reduction_flops: int = 0) -> MttkrpRun:
    atomic = int(mp.thread_nnz.sum()) \
        if mp.strategy == "atomic" and mp.nthreads > 1 else 0
    return MttkrpRun(output=output, strategy=mp.strategy,
                     nthreads=mp.nthreads, thread_nnz=mp.thread_nnz.copy(),
                     atomic_updates=atomic, reduction_flops=reduction_flops,
                     schedule=mp.schedule, report=report,
                     scatter_backends=_backends_of(report))


def _degrade(exc, mode: int) -> str:
    """Pick the fallback backend of a process region that gave up, and
    record the event (log line, ``supervisor.degradations``, trace)."""
    from ..util.log import get_logger

    fallbacks = exc.config.fallback_backends or ("sim",)
    backend = next((b for b in fallbacks if b in ("thread", "sim")), "sim")
    get_logger("repro.supervisor").warning(
        "process backend degraded to %r for mode %d: %s", backend, mode, exc)
    metrics.inc("supervisor.degradations")
    trace.instant("supervisor.degrade", mode=mode, fallback=backend,
                  reason=str(exc))
    return backend


def _note_parallel(run: MttkrpRun, fmt: str, mode: int,
                   backend: str) -> None:
    """Count one parallel MTTKRP under its format/backend/mode labels, so
    the telemetry slices regressions along the configuration space."""
    reg = metrics.get_registry()
    if reg.enabled:
        reg.inc("mttkrp.parallel_calls",
                labels={"format": fmt, "backend": backend, "mode": mode})
        reg.observe("mttkrp.load_imbalance", run.load_imbalance(),
                    labels={"format": fmt, "backend": backend})


def _backends_of(report: ExecutionReport) -> tuple:
    """Deduplicated scatter-backend names returned by the tasks."""
    return tuple(sorted({v for v in report.values()
                         if isinstance(v, str) and v and v != "noop"}))


def _observe_blocks(gathers) -> None:
    """Record the units (blocks or nonzeros) each task owns as a
    histogram."""
    reg = metrics.get_registry()
    if reg.enabled:
        for tg in gathers:
            reg.observe("mttkrp.blocks_per_task",
                        sum(hi - lo for lo, hi in tg.runs))


# ----------------------------------------------------------------------
# legacy reference kernel
# ----------------------------------------------------------------------
def _hicoo_block_range_chunk(tensor, block_ids, factors, mode, out):
    """Legacy per-block chunk: re-materializes index ranges on every call.

    Kept as the reference baseline the benchmarks and the CI regression
    guard compare the cached gather path against; the production paths go
    through :meth:`HicooTensor.task_gather` + :func:`mttkrp_gather_chunk`.
    """
    if not len(block_ids):
        return
    rank = out.shape[1]
    shift = tensor.block_bits
    # gather the nonzero ranges of all assigned blocks
    pieces_i = []
    pieces_blk = []
    for blk in block_ids:
        lo, hi = int(tensor.bptr[blk]), int(tensor.bptr[blk + 1])
        pieces_i.append(np.arange(lo, hi))
        pieces_blk.append(np.full(hi - lo, blk, dtype=np.int64))
    nz = np.concatenate(pieces_i)
    blk_of = np.concatenate(pieces_blk)
    base = tensor.binds[blk_of].astype(np.int64) << shift
    ginds = base + tensor.einds[nz].astype(np.int64)
    acc = np.repeat(tensor.values[nz, None], rank, axis=1)
    for m, f in enumerate(factors):
        if m != mode:
            acc *= f[ginds[:, m]]
    np.add.at(out, ginds[:, mode], acc)
