"""The long-lived tensor-decomposition daemon.

``ReproDaemon`` owns four kinds of state, all warm across requests:

* a **tensor registry** — named tensors built from synthetic specs (or
  registered in-process), converted once via ``as_format`` and kept
  resident; HiCOO and ALTO entries lazily grow a per-(rank, nthreads)
  MTTKRP-plan cache, and the process backend's shared-memory sessions
  live on the tensor objects themselves (refcounted — see
  :class:`repro.parallel.procpool.SharedMttkrpSession`);
* a **socket front door** — line-delimited JSON (:mod:`.protocol`); one
  handler thread per connection, requests answered in order; every
  malformed frame gets a structured error reply, never a traceback and
  never daemon death;
* a **scheduler + executors** — :class:`~repro.serve.scheduler.JobScheduler`
  applies admission control, priority/fairness, and compatible-request
  batching; ``executors`` threads drain it, each batch paying symbolic
  cost once;
* an **HTTP sidecar** — the ``obs.export`` ``/metrics``/``/healthz``
  server extended with ``/jobs``, ``/jobs/<id>``, ``/jobs/<id>/trace``
  (Chrome-trace JSON of the job's span window) and ``/tensors``.

Failure policy: jobs run under the configured ``fault_policy`` (default
``"degrade"``), so a killed or hung pool worker is respawned and the job
retried idempotently — bit-identically, by the supervisor's row-disjoint
argument — and an exhausted recovery budget finishes the job on a
fallback backend instead of failing it.  Per-job retries are attributed
through :func:`repro.parallel.supervisor.add_retry_listener` and surface
as the ``serve.retries`` counter the chaos test conserves against
``supervisor.task_retries``.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..formats import as_format
from ..obs import metrics, trace
from ..obs.export import MetricsServer
from ..parallel import supervisor as _supervisor
from ..util.log import get_logger
from . import protocol
from .jobs import Job, run_job, runs_parallel
from .protocol import ProtocolError, error_reply
from .scheduler import AdmissionError, JobScheduler

__all__ = ["ReproDaemon", "TensorEntry", "build_tensor"]

#: seconds a connection handler waits for its job before giving up
DEFAULT_JOB_TIMEOUT = 300.0

#: completed jobs kept for /jobs introspection
JOB_HISTORY_CAP = 1024


def build_tensor(spec: dict):
    """Materialize a synthetic-spec tensor in its registered format.

    ``spec`` is a validated registration spec (see
    :func:`repro.serve.protocol.validate_tensor_spec`): a generator
    ``kind`` from :mod:`repro.data.synthetic`, ``shape``, ``nnz``,
    ``seed``, target ``format`` and optional ``block_bits``.
    """
    from ..data import synthetic

    kind = spec.get("kind", "random")
    builders = {
        "random": synthetic.random_tensor,
        "clustered": synthetic.clustered_tensor,
        "power_law": synthetic.power_law_tensor,
        "banded": synthetic.banded_tensor,
        "lowrank": synthetic.lowrank_tensor,
    }
    shape = tuple(int(s) for s in spec["shape"])
    nnz = int(spec["nnz"])
    seed = int(spec.get("seed", 0))
    if kind == "lowrank":
        coo = builders[kind](shape, nnz, rank=4, seed=seed)
    else:
        coo = builders[kind](shape, nnz, seed=seed)
    fmt = spec.get("format", "hicoo")
    if fmt == "hicoo" and spec.get("block_bits") is not None:
        return as_format(coo, fmt, block_bits=int(spec["block_bits"]))
    return as_format(coo, fmt)


class TensorEntry:
    """One resident tensor plus its warm symbolic state."""

    def __init__(self, name: str, tensor, spec: Optional[dict] = None
                 ) -> None:
        self.name = name
        self.tensor = tensor
        self.spec = spec or {}
        self.registered_at = time.time()
        self.jobs_run = 0
        self._coo = tensor if tensor.format_name == "coo" else None
        self._views: Dict[str, object] = {}
        self._plans: Dict[Tuple[str, int, int], object] = {}
        self._lock = threading.Lock()

    def coo(self):
        """Memoized COO view (the TTM path contracts from COO)."""
        with self._lock:
            if self._coo is None:
                self._coo = self.tensor.to_coo()
            return self._coo

    def view_as(self, fmt: Optional[str]):
        """The resident tensor re-formatted on demand (memoized per format).

        Conversion goes through the direct converter registry
        (:mod:`repro.core.converters`), so re-formatting a resident CSF /
        HiCOO / ALTO tensor never re-materializes an intermediate COO —
        the first request pays one direct conversion, every later request
        is a dict hit.
        """
        if fmt is None or fmt == self.tensor.format_name:
            return self.tensor
        if fmt == "coo":
            return self.coo()
        with self._lock:
            view = self._views.get(fmt)
            if view is None:
                from ..core.converters import convert

                with trace.span("serve.view_build", tensor=self.name,
                                fmt=fmt):
                    view = convert(self.tensor, fmt)
                self._views[fmt] = view
                metrics.inc("serve.views_built", labels={"format": fmt})
            else:
                metrics.inc("serve.view_reuses", labels={"format": fmt})
            return view

    def plan_for(self, rank: int, nthreads: int, tensor=None):
        """Memoized ``schedule`` MTTKRP plan (HiCOO, ALTO: the formats
        :func:`run_job` parallelizes) — the one-time symbolic cost a
        resident service amortizes across the request stream.  ``tensor``
        selects a re-formatted view (default: the registered tensor)."""
        tensor = self.tensor if tensor is None else tensor
        if nthreads < 1:
            return None
        key = (tensor.format_name, rank, nthreads)
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                from ..kernels.plan import plan_mttkrp

                plan = plan_mttkrp(tensor, rank, nthreads,
                                   strategy="schedule")
                self._plans[key] = plan
                metrics.inc("serve.plans_built")
            else:
                metrics.inc("serve.plan_reuses")
            return plan

    def release(self) -> None:
        """Tear down shared-memory sessions for the tensor and every
        memoized view (views can host their own sessions once a job has
        run against them on the process backend)."""
        from ..parallel.procpool import release_shared

        release_shared(self.tensor)
        with self._lock:
            views = list(self._views.values())
            coo = self._coo
        for view in views:
            release_shared(view)
        if coo is not None and coo is not self.tensor:
            release_shared(coo)

    def describe(self) -> dict:
        from ..formats.levels import level_signature

        return {
            "name": self.name,
            "format": self.tensor.format_name,
            "levels": level_signature(self.tensor),
            "shape": [int(s) for s in self.tensor.shape],
            "nnz": int(self.tensor.nnz),
            "jobs_run": self.jobs_run,
            "plans_cached": len(self._plans),
            "views_cached": sorted(self._views),
        }


class ReproDaemon:
    """The resident server; start with :meth:`start` or as a context
    manager, point a :class:`~repro.serve.client.ServeClient` at
    ``.address``."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 http_port: Optional[int] = None,
                 backend: str = "sim", nthreads: int = 1,
                 fault_policy="degrade",
                 max_queue: int = 64, batch_limit: int = 8,
                 executors: int = 1,
                 job_timeout: float = DEFAULT_JOB_TIMEOUT) -> None:
        self.host = host
        self.port = port
        self.http_port = http_port
        self.backend = backend
        self.nthreads = max(1, int(nthreads))
        self.fault_policy = fault_policy
        self.job_timeout = job_timeout
        self.scheduler = JobScheduler(max_queue=max_queue,
                                      batch_limit=batch_limit)
        self.nexecutors = max(1, int(executors))
        self.log = get_logger("repro.serve")

        self._tensors: Dict[str, TensorEntry] = {}
        self._tensors_lock = threading.Lock()
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._jobs_lock = threading.Lock()
        self._job_seq = 0
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._conns: set = set()
        self._conns_lock = threading.Lock()
        self._http: Optional[MetricsServer] = None
        self._local = threading.local()  # .job — retry attribution
        self._started = False
        self._closing = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    def start(self) -> "ReproDaemon":
        if self._started:
            return self
        self._listener = socket.create_server((self.host, self.port),
                                              backlog=64, reuse_port=False)
        self.port = self._listener.getsockname()[1]
        self._started = True
        self._closing = False
        _supervisor.add_retry_listener(self._on_retry)
        for i in range(self.nexecutors):
            t = threading.Thread(target=self._executor_loop,
                                 name=f"repro-serve-exec-{i}", daemon=True)
            t.start()
            self._threads.append(t)
        t = threading.Thread(target=self._accept_loop,
                             name="repro-serve-accept", daemon=True)
        t.start()
        self._threads.append(t)
        if self.http_port is not None:
            self._http = MetricsServer(port=self.http_port, host=self.host,
                                       resolve=self._http_resolve,
                                       health=self._health).start()
            self.http_port = self._http.port
        metrics.inc("serve.daemons_started")
        self.log.info("serve daemon on %s:%d (backend=%s nthreads=%d "
                      "executors=%d max_queue=%d)", self.host, self.port,
                      self.backend, self.nthreads, self.nexecutors,
                      self.scheduler.max_queue)
        return self

    def stop(self) -> None:
        if not self._started:
            return
        self._closing = True
        self.scheduler.close()
        for job in self.scheduler.drain():
            job.state = "failed"
            job.error = {"code": "shutting_down", "status": 503,
                         "message": "daemon stopped before execution"}
            job.done.set()
        if self._listener is not None:
            # shutdown wakes the thread blocked in accept(); close alone
            # does not on Linux
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        for t in self._threads:
            t.join(timeout=5.0)
        self._threads.clear()
        _supervisor.remove_retry_listener(self._on_retry)
        if self._http is not None:
            self._http.stop()
            self._http = None
        with self._tensors_lock:
            entries = list(self._tensors.values())
            self._tensors.clear()
        for entry in entries:
            entry.release()
        self._started = False

    def __enter__(self) -> "ReproDaemon":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    # ------------------------------------------------------------------
    # tensor registry
    # ------------------------------------------------------------------
    def register_tensor(self, name: str, tensor=None,
                        spec: Optional[dict] = None) -> TensorEntry:
        """Register a resident tensor: either an in-process object or a
        synthetic ``spec`` (validated; see :mod:`.protocol`)."""
        if tensor is None:
            if spec is None:
                raise ValueError("register_tensor needs a tensor or a spec")
            spec = protocol.validate_tensor_spec(dict(spec))
            tensor = build_tensor(spec)
        entry = TensorEntry(name, tensor, spec)
        with self._tensors_lock:
            self._tensors[name] = entry
        metrics.inc("serve.tensors_registered")
        metrics.set_gauge("serve.resident_tensors", len(self._tensors))
        return entry

    def unregister_tensor(self, name: str) -> bool:
        """Drop a resident tensor.  In-flight jobs that already resolved
        the entry finish safely: the entry object outlives the registry
        slot, and shared-memory sessions defer teardown to the last
        reference (the refcounted-session contract)."""
        with self._tensors_lock:
            entry = self._tensors.pop(name, None)
        if entry is None:
            return False
        entry.release()
        metrics.set_gauge("serve.resident_tensors", len(self._tensors))
        return True

    def _entry(self, name: str) -> TensorEntry:
        with self._tensors_lock:
            entry = self._tensors.get(name)
        if entry is None:
            raise ProtocolError("not_found",
                                f"no tensor registered as {name!r}")
        return entry

    # ------------------------------------------------------------------
    # socket front door
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                conn, peer = self._listener.accept()
            except OSError:
                break  # listener closed
            with self._conns_lock:
                self._conns.add(conn)
            metrics.add_gauge("serve.active_connections", 1)
            t = threading.Thread(target=self._handle_conn,
                                 args=(conn, peer),
                                 name="repro-serve-conn", daemon=True)
            t.start()

    def _handle_conn(self, conn: socket.socket, peer) -> None:
        client = f"{peer[0]}:{peer[1]}"
        rfile = conn.makefile("rb")
        try:
            while not self._closing:
                try:
                    line = rfile.readline(protocol.MAX_FRAME_BYTES + 2)
                except (OSError, ValueError):
                    break
                if not line:
                    break  # clean EOF (or mid-request disconnect)
                if not line.endswith(b"\n"):
                    if len(line) > protocol.MAX_FRAME_BYTES:
                        # oversized frame: reply, then drop the connection —
                        # the byte stream is no longer line-synchronized
                        self._reply(conn, error_reply(
                            "frame_too_large",
                            f"frame exceeds {protocol.MAX_FRAME_BYTES} "
                            f"bytes"))
                        metrics.inc("serve.protocol_errors",
                                    labels={"code": "frame_too_large"})
                    break  # truncated final line: disconnect mid-frame
                reply, fatal = self._one_request(line.rstrip(b"\r\n"),
                                                client)
                if not self._reply(conn, reply):
                    break
                if fatal:
                    break
        finally:
            try:
                rfile.close()
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
            with self._conns_lock:
                self._conns.discard(conn)
            metrics.add_gauge("serve.active_connections", -1)

    def _reply(self, conn: socket.socket, obj: dict) -> bool:
        try:
            payload = protocol.encode_frame(obj)
        except ProtocolError as exc:  # reply itself oversized
            payload = protocol.encode_frame(exc.reply(obj.get("id")))
        try:
            conn.sendall(payload)
            return True
        except OSError:
            return False  # client went away mid-reply; daemon unaffected

    def _one_request(self, line: bytes, client: str) -> Tuple[dict, bool]:
        """Decode, validate, dispatch; returns (reply, fatal)."""
        req_id = None
        try:
            obj = protocol.decode_frame(line)
            req_id = obj.get("id")
            op, obj = protocol.validate_request(obj)
            metrics.inc("serve.requests", labels={"op": op})
            reply = self._dispatch(op, obj, client)
            if req_id is not None:
                reply.setdefault("id", req_id)
            return reply, False
        except ProtocolError as exc:
            metrics.inc("serve.protocol_errors", labels={"code": exc.code})
            return exc.reply(req_id), exc.fatal
        except Exception as exc:  # noqa: BLE001 — the daemon must survive
            self.log.exception("internal error handling request")
            metrics.inc("serve.protocol_errors", labels={"code": "internal"})
            return error_reply("internal",
                               f"{type(exc).__name__}: {exc}",
                               req_id=req_id), False

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, op: str, obj: dict, client: str) -> dict:
        if op == "ping":
            return {"ok": True, "pong": True,
                    "version": protocol.PROTOCOL_VERSION}
        if op == "tensors":
            with self._tensors_lock:
                entries = [e.describe() for e in self._tensors.values()]
            return {"ok": True, "tensors": entries}
        if op == "stats":
            return {"ok": True, "stats": self._stats()}
        if op == "register":
            if self._closing:
                raise ProtocolError("shutting_down", "daemon is stopping")
            entry = self.register_tensor(obj["name"], spec=obj["spec"])
            return {"ok": True, "tensor": entry.describe()}
        if op == "unregister":
            if not self.unregister_tensor(obj["name"]):
                raise ProtocolError("not_found",
                                    f"no tensor registered as "
                                    f"{obj['name']!r}")
            return {"ok": True, "unregistered": obj["name"]}
        if op == "job_status":
            with self._jobs_lock:
                job = self._jobs.get(obj["job"])
            if job is None:
                raise ProtocolError("not_found",
                                    f"unknown job {obj['job']!r}")
            return {"ok": True, "job": job.describe()}
        # job ops: admission, enqueue, synchronous wait
        return self._submit_and_wait(op, obj, client)

    def _submit_and_wait(self, op: str, obj: dict, client: str) -> dict:
        if self._closing:
            raise ProtocolError("shutting_down", "daemon is stopping")
        self._entry(obj["tensor"])  # existence check at admission time
        with self._jobs_lock:
            self._job_seq += 1
            job_id = f"j{self._job_seq:06d}"
        job = Job(id=job_id, op=op, tensor=obj["tensor"],
                  rank=int(obj["rank"]), seed=int(obj.get("seed", 0)),
                  mode=int(obj.get("mode", 0)),
                  iters=int(obj.get("iters", 3)),
                  priority=int(obj.get("priority", 1)), client=client,
                  return_data=bool(obj.get("return_data", False)),
                  format=obj.get("format"))
        job.submitted_at_monotonic = time.monotonic()
        with self._jobs_lock:
            self._jobs[job_id] = job
            while len(self._jobs) > JOB_HISTORY_CAP:
                self._jobs.popitem(last=False)
        try:
            self.scheduler.submit(job)
        except AdmissionError as exc:
            job.state = "failed"
            job.error = {"code": "overloaded", "status": 429,
                         "message": str(exc)}
            job.done.set()
            raise ProtocolError("overloaded", str(exc)) from None
        metrics.inc("serve.accepted", labels={"op": op})
        if not job.done.wait(timeout=self.job_timeout):
            raise ProtocolError("internal",
                                f"job {job_id} timed out after "
                                f"{self.job_timeout:.0f}s")
        if job.state != "done":
            err = job.error or {"code": "internal", "status": 500,
                                "message": "job failed"}
            return {"ok": False, "job": job.id, "error": err}
        reply = {"ok": True, "job": job.id, "op": op,
                 "tensor": job.tensor, "state": job.state,
                 "digest": job.result["digest"],
                 "shape": job.result["shape"],
                 "kind": job.result["kind"],
                 "queued_s": round(job.queued_s, 6),
                 "run_s": round(job.run_s, 6),
                 "retries": job.retries,
                 "batch_size": job.batch_size,
                 "degraded": job.degraded}
        for extra in ("fit", "iterations", "nfibers"):
            if extra in job.result:
                reply[extra] = job.result[extra]
        if job.return_data:
            reply["data"] = [np.asarray(a).tolist()
                             for a in job.result["arrays"]]
        return reply

    # ------------------------------------------------------------------
    # executors
    # ------------------------------------------------------------------
    def _executor_loop(self) -> None:
        while True:
            batch = self.scheduler.next_batch(timeout=0.5)
            if batch is None:
                if self._closing:
                    return
                continue
            try:
                self._run_batch(batch)
            except Exception:  # noqa: BLE001 — executors must survive
                self.log.exception("executor failed on batch %s",
                                   [j.id for j in batch])
                for job in batch:
                    if not job.done.is_set():
                        job.state = "failed"
                        job.error = {"code": "internal", "status": 500,
                                     "message": "executor error"}
                        job.done.set()

    def _run_batch(self, batch: List[Job]) -> None:
        head = batch[0]
        try:
            entry = self._entry(head.tensor)
        except ProtocolError as exc:
            for job in batch:
                job.state = "failed"
                job.error = {"code": exc.code, "status": exc.status,
                             "message": str(exc)}
                job.done.set()
            return
        # jobs in one batch share a batch_key, hence one format override:
        # resolve the (memoized) view once, plan against it
        try:
            view = entry.view_as(head.format)
        except Exception as exc:  # noqa: BLE001 — conversion failure != death
            for job in batch:
                job.state = "failed"
                job.error = {"code": "job_failed", "status": 500,
                             "message": f"{type(exc).__name__}: {exc}"}
                job.done.set()
            return
        plan = None
        if head.op == "mttkrp" and runs_parallel(view, self.nthreads,
                                                  self.backend):
            plan = entry.plan_for(head.rank, self.nthreads, tensor=view)
        with trace.span("serve.batch", op=head.op, tensor=head.tensor,
                        jobs=len(batch)):
            for job in batch:
                job.batch_size = len(batch)
                self._run_one(job, entry, plan, view)
        entry.jobs_run += len(batch)

    def _run_one(self, job: Job, entry: TensorEntry, plan, view) -> None:
        job.state = "running"
        started = time.monotonic()
        job.queued_s = started - (job.submitted_at_monotonic
                                  if hasattr(job, "submitted_at_monotonic")
                                  else started)
        self._local.job = job
        job.start_ns = time.perf_counter_ns()
        tensor = view if job.op != "ttm" else entry.coo()
        try:
            with trace.span("serve.job", job=job.id, op=job.op,
                            tensor=job.tensor, client=job.client):
                result = run_job(job.op, tensor, mode=job.mode,
                                 rank=job.rank, seed=job.seed,
                                 iters=job.iters, backend=self.backend,
                                 nthreads=self.nthreads,
                                 fault_policy=self.fault_policy,
                                 plan=plan)
            job.result = result
            job.state = "done"
            metrics.inc("serve.jobs_done", labels={"op": job.op})
        except Exception as exc:  # noqa: BLE001 — one job, not the daemon
            self.log.warning("job %s failed: %s", job.id, exc)
            job.state = "failed"
            job.error = {"code": "job_failed", "status": 500,
                         "message": f"{type(exc).__name__}: {exc}"}
            metrics.inc("serve.jobs_failed", labels={"op": job.op})
        finally:
            job.end_ns = time.perf_counter_ns()
            job.run_s = time.monotonic() - started
            metrics.observe("serve.job_seconds", job.run_s,
                            labels={"op": job.op})
            self._local.job = None
            job.done.set()

    def _on_retry(self, task_id: int, worker_id: int, attempt: int) -> None:
        """Supervisor retry listener: attribute the retry to the job this
        executor thread is running (listeners fire in the region's own
        thread, so thread-local attribution is exact)."""
        job = getattr(self._local, "job", None)
        if job is not None:
            job.retries += 1
            metrics.inc("serve.retries")

    # ------------------------------------------------------------------
    # HTTP sidecar
    # ------------------------------------------------------------------
    def _stats(self) -> dict:
        with self._tensors_lock:
            ntensors = len(self._tensors)
        return {
            "queue_depth": self.scheduler.depth,
            "max_queue": self.scheduler.max_queue,
            "tensors": ntensors,
            "backend": self.backend,
            "nthreads": self.nthreads,
            "executors": self.nexecutors,
            "jobs_done": int(metrics.value("serve.jobs_done")),
            "jobs_failed": int(metrics.value("serve.jobs_failed")),
            "rejected": int(metrics.value("serve.rejected")),
            "retries": int(metrics.value("serve.retries")),
            "batches": int(metrics.value("serve.batches")),
        }

    def _health(self) -> dict:
        return {"serve": self._stats()}

    def _http_resolve(self, path: str):
        """Extra GET routes mounted on the metrics server."""
        if path == "/tensors":
            with self._tensors_lock:
                body = [e.describe() for e in self._tensors.values()]
            return (200, "application/json",
                    json.dumps(body, indent=2).encode())
        if path == "/jobs":
            with self._jobs_lock:
                body = [j.describe() for j in self._jobs.values()]
            return (200, "application/json",
                    json.dumps(body, indent=2).encode())
        if path.startswith("/jobs/"):
            parts = [p for p in path.split("/") if p]
            with self._jobs_lock:
                job = self._jobs.get(parts[1])
            if job is None:
                return (404, "application/json",
                        json.dumps({"error": "unknown job"}).encode())
            if len(parts) == 2:
                return (200, "application/json",
                        json.dumps(job.describe(), indent=2).encode())
            if len(parts) == 3 and parts[2] == "trace":
                evts = trace.events_between(job.start_ns, job.end_ns) \
                    if job.end_ns else []
                doc = trace.to_chrome_trace(evts)
                return (200, "application/json",
                        json.dumps(doc, default=str).encode())
        return None
