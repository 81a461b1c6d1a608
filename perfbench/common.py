"""Shared helpers of the end-to-end benchmark: statistics, host record,
resource debris, and the span analysis behind the traced run.

Nothing here imports :mod:`repro` at module level, so ``run.py`` can
locate the source tree before the program is imported.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

#: a tail percentile is reported only with at least this many samples
#: beyond it (so a single outlier never *is* the tail)
TAIL_BEYOND = 10

#: how each span name prefix maps onto the repository's layers; the
#: benchmark's own spans are named ``<layer>.<call>`` already, and its
#: per-operation root spans are ``bench.*``
LAYER_OF_PREFIX = {
    "bench": "bench",
    "data": "data",
    "formats": "formats",
    "hicoo": "formats",
    "alto": "formats",
    "coo": "formats",
    "csf": "formats",
    "core": "core",
    "convert": "core",
    "kernels": "kernels",
    "mttkrp": "kernels",
    "gather": "kernels",
    "compiled": "kernels",
    "parallel": "parallel",
    "executor": "parallel",
    "procpool": "parallel",
    "supervisor": "parallel",
    "cpd": "cpd",
    "cpals": "cpd",
    "serve": "serve",
}

#: the process-backend region span lives in the kernels module but is the
#: parallel layer's work (pool dispatch, shared-memory copies, collect)
LAYER_OF_NAME = {"mttkrp.process": "parallel"}

LAYERS = ("data", "formats", "core", "kernels", "parallel", "cpd", "serve",
          "bench")


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def tail_percentile(n: int, want: float = 99.0) -> float:
    """The highest percentile ``<= want`` with ``TAIL_BEYOND`` samples
    beyond it among ``n`` samples (0 when there are too few samples)."""
    if n <= TAIL_BEYOND:
        return 0.0
    return min(want, 100.0 * (n - TAIL_BEYOND) / n)


def tail(values, want: float = 99.0):
    """``(value, percentile, n)`` of the supported tail of ``values``."""
    q = tail_percentile(len(values), want)
    if q == 0.0:
        return max(values), 100.0, len(values)
    return float(np.percentile(values, q)), q, len(values)


# ----------------------------------------------------------------------
# host record and resources
# ----------------------------------------------------------------------
def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown (git unavailable)"
    return out.stdout.strip() or "unknown"


def source_digest(root: Path) -> str:
    """SHA-256 over the program's sources, so a result names the code it
    measured even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def host_record(root: Path, config: dict) -> dict:
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(root),
        "src_sha256": source_digest(root),
        "config": config,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process (children excluded)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0 if sys.platform != "darwin" else kb / 2**20


def shm_segments():
    """Names of live ``psm_*`` shared-memory segments, or ``None`` where
    ``/dev/shm`` cannot be listed."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return None


def stop_children(timeout_s: float = 60.0) -> list:
    """Stop every process this run started and wait until each has ended.

    That is the program's worker pools and shared-memory sessions, any other
    :mod:`multiprocessing` child, and the shared-memory resource tracker.
    The tracker otherwise outlives the run: it only exits once it has read
    the end of its pipe and worked through its queue.  Returns the pids
    that had to be killed after ``timeout_s``.
    """
    import multiprocessing as mp
    import signal

    procpool = sys.modules.get("repro.parallel.procpool")
    if procpool is not None:
        # the program's own interpreter-exit hook: stop the pools and close
        # (unlink) every live session, so nothing re-launches the tracker
        procpool._cleanup_at_exit()
    killed = []
    for child in mp.active_children():
        child.join(timeout_s)
        if child.is_alive():
            killed.append(child.pid)
            child.kill()
            child.join()

    try:
        from multiprocessing import resource_tracker
    except ImportError:  # platform without shared memory support
        return killed
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    pid = getattr(tracker, "_pid", None)
    if pid is None:
        return killed
    # what ResourceTracker._stop does, with a deadline instead of a
    # blocking waitpid
    os.close(tracker._fd)
    tracker._fd = None
    deadline = time.monotonic() + timeout_s
    while os.waitpid(pid, os.WNOHANG) == (0, 0):
        if time.monotonic() > deadline:
            killed.append(pid)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            break
        time.sleep(0.01)
    tracker._pid = None
    return killed


class Debris:
    """Counts what a workload leaves behind: threads and shared-memory
    segments alive after its teardown that were not alive before it."""

    def __init__(self) -> None:
        self.threads = {t.ident for t in threading.enumerate()}
        self.shm = shm_segments()

    def count(self, settle_s: float = 0.2) -> dict:
        time.sleep(settle_s)  # let joined threads finish exiting
        extra = [t.name for t in threading.enumerate()
                 if t.ident not in self.threads and t.is_alive()]
        now = shm_segments()
        shm = None if now is None or self.shm is None \
            else len(now - self.shm)
        return {"threads": len(extra), "thread_names": sorted(extra),
                "shm_segments": shm}


# ----------------------------------------------------------------------
# span analysis of the traced run
# ----------------------------------------------------------------------
def layer_of(name: str) -> str:
    if name in LAYER_OF_NAME:
        return LAYER_OF_NAME[name]
    return LAYER_OF_PREFIX.get(name.split(".", 1)[0], "other")


def self_times(events) -> dict:
    """Seconds of self time per layer.

    A span's self time is its duration minus the part of its interval
    covered by its direct children: spans on the same thread, one level
    deeper, inside its interval.  Within one thread spans nest, so the
    children never overlap each other.
    """
    by_thread = {}
    for e in events:
        if e.phase == "X":
            by_thread.setdefault(e.thread, []).append(e)
    out = {layer: 0.0 for layer in LAYERS}
    for evts in by_thread.values():
        evts.sort(key=lambda e: (e.start_ns, -e.dur_ns))
        stack = []  # open ancestors: [event, child_ns]
        selfs = []
        for e in evts:
            while stack and stack[-1][0].end_ns <= e.start_ns:
                selfs.append(stack.pop())
            if stack and e.depth == stack[-1][0].depth + 1 \
                    and e.end_ns <= stack[-1][0].end_ns:
                stack[-1][1] += e.dur_ns
            stack.append([e, 0])
        selfs.extend(stack)
        for e, child_ns in selfs:
            layer = layer_of(e.name)
            out[layer] = out.get(layer, 0.0) + \
                max(0, e.dur_ns - child_ns) / 1e9
    return out


def union_ns(intervals) -> int:
    """Total length of the union of ``(lo, hi)`` intervals."""
    total, cur_lo, cur_hi = 0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def coverage(roots, events, linked=None) -> float:
    """Share of the roots' wall time covered by layer spans.

    For each root span, the layer spans counted are those on the root's
    thread inside its interval, plus — via ``linked(root)`` — spans on
    other threads that belong to the same operation (a served request's
    ``serve.job`` on an executor thread).  Returns the covered share of
    the summed root durations.
    """
    by_thread = {}
    for e in events:
        if e.phase == "X" and not e.name.startswith("bench."):
            by_thread.setdefault(e.thread, []).append(e)
    covered = wall = 0
    for root in roots:
        lo, hi = root.start_ns, root.end_ns
        spans = [(max(lo, e.start_ns), min(hi, e.end_ns))
                 for e in by_thread.get(root.thread, ())
                 if e.start_ns < hi and e.end_ns > lo]
        if linked is not None:
            spans += [(max(lo, e.start_ns), min(hi, e.end_ns))
                      for e in linked(root)]
        covered += union_ns([s for s in spans if s[1] > s[0]])
        wall += root.dur_ns
    return covered / wall if wall else 0.0
