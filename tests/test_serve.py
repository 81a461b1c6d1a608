"""The serve daemon's correctness harness: differential, fuzz, chaos.

Three properties are pinned here, each stated as an executable contract:

1. **Differential equality** — every job a concurrent, batched,
   fault-injected daemon completes is *bitwise identical* (SHA-256 of the
   exact result bytes) to a fresh sequential execution of the same job by
   the same :func:`repro.serve.jobs.run_job` with ``backend="sim"`` and
   the same thread count.  This inherits the PR-4/PR-7 backend-equivalence
   contracts and extends them across the wire, the scheduler, and the
   batcher.
2. **Protocol robustness** — no byte sequence a client can send kills the
   daemon or elicits a traceback: every hostile frame from
   :func:`repro.testing.fuzz_frames` gets a structured error reply (or a
   clean close for desynchronizing frames), and the daemon still answers
   pings afterwards.
3. **Overload honesty** — a full bounded queue sheds load with an explicit
   ``overloaded`` (429) reply, never a silent drop, never unbounded queue
   growth, and ``/healthz`` stays green throughout.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.request

import pytest

from repro import testing
from repro.analysis.traffic import RequestStream
from repro.obs import metrics
from repro.serve import (AdmissionError, JobScheduler, ReproDaemon,
                         ServeClient)
from repro.serve.daemon import build_tensor
from repro.serve.jobs import Job, run_job
from repro.serve.protocol import ERROR_CODES, MAX_FRAME_BYTES

# ----------------------------------------------------------------------
# shared workload: three resident tensors across three formats
# ----------------------------------------------------------------------
SPECS = {
    "hot": {"kind": "random", "shape": [24, 20, 16], "nnz": 1200,
            "seed": 3, "format": "hicoo"},
    "skew": {"kind": "power_law", "shape": [30, 30, 30], "nnz": 1500,
             "seed": 5, "format": "alto"},
    "cold": {"kind": "clustered", "shape": [16, 16, 16], "nnz": 600,
             "seed": 9, "format": "csf"},
}


@pytest.fixture(scope="module")
def oracle_tensors():
    """The oracle's own copies, built from the identical specs."""
    return {name: build_tensor(dict(spec)) for name, spec in SPECS.items()}


def make_oracle(tensors, nthreads):
    """Sequential-oracle closure: same ``run_job``, ``backend="sim"``,
    same ``nthreads`` (the lock-free partition depends on it), with a
    per-(tensor, rank) plan cache so 200 oracle runs stay cheap."""
    from repro.kernels.plan import plan_mttkrp

    plans = {}

    def oracle(req):
        t = tensors[req["tensor"]]
        plan = None
        if (req["op"] == "mttkrp" and nthreads > 1
                and t.format_name == "hicoo"):
            key = (req["tensor"], req["rank"])
            if key not in plans:
                plans[key] = plan_mttkrp(t, req["rank"], nthreads,
                                         strategy="schedule")
            plan = plans[key]
        return run_job(req["op"], t, mode=req.get("mode", 0),
                       rank=req["rank"], seed=req.get("seed", 0),
                       iters=req.get("iters", 3), backend="sim",
                       nthreads=nthreads, plan=plan)

    return oracle


def _register_all(port):
    with ServeClient(port=port) as cli:
        for name, spec in SPECS.items():
            cli.register(name, spec)


def _healthz(http_port):
    with urllib.request.urlopen(
            f"http://127.0.0.1:{http_port}/healthz") as resp:
        return json.loads(resp.read())


# ----------------------------------------------------------------------
# 1. the acceptance test: replay under concurrency + injected fault
# ----------------------------------------------------------------------
def test_chaos_differential_replay(oracle_tensors):
    """200-request seeded replay, 8 concurrent clients, process backend,
    one worker killed mid-replay: every completed job bitwise-equal to
    the sequential oracle, retries conserved, health green throughout."""
    from repro.parallel.procpool import shutdown_pools

    metrics.reset()
    requests = RequestStream({name: 3 for name in SPECS}, n=200, seed=42,
                             ranks=(2, 4), iters=(1, 2)).generate()
    daemon = ReproDaemon(backend="process", nthreads=2, executors=2,
                         fault_policy="degrade", max_queue=256,
                         http_port=0)
    daemon.start()
    try:
        _register_all(daemon.port)
        assert _healthz(daemon.http_port)["status"] == "ok"
        # arm exactly one worker kill; the next process-backend region
        # (some job mid-replay) consumes it
        testing.install_chaos(testing.chaos(testing.kill_at(0, at_task=1)))
        replies = testing.replay_requests(daemon.port, requests, nclients=8)
        assert _healthz(daemon.http_port)["status"] == "ok"
        stats = daemon._stats()
    finally:
        testing.clear_chaos()
        daemon.stop()
        shutdown_pools()

    assert len(replies) == len(requests)
    oracle = make_oracle(oracle_tensors, nthreads=2)
    failed = [r for r in replies if not (r and r.get("ok"))]
    assert not failed, f"jobs failed under chaos: {failed[:3]}"
    for req, rep in zip(requests, replies):
        expect = oracle(req)
        assert rep["digest"] == expect["digest"], (
            f"daemon diverged from oracle on {req}")
    # the injected kill really happened, and every supervisor retry was
    # attributed to exactly one job (conservation)
    assert metrics.value("serve.retries") >= 1
    assert (metrics.value("serve.retries")
            == metrics.value("supervisor.task_retries"))
    assert sum(r["retries"] for r in replies) == int(
        metrics.value("serve.retries"))
    assert stats["jobs_done"] == len(requests)
    assert stats["jobs_failed"] == 0


# ----------------------------------------------------------------------
# 2. batching changes scheduling, never numerics
# ----------------------------------------------------------------------
def test_batched_equals_unbatched(oracle_tensors):
    seeds = list(range(40))

    def drive(batch_limit):
        daemon = ReproDaemon(backend="sim", nthreads=2, executors=1,
                             batch_limit=batch_limit, max_queue=128)
        daemon.start()
        try:
            with ServeClient(port=daemon.port) as cli:
                cli.register("hot", SPECS["hot"])
            reqs = [{"op": "mttkrp", "tensor": "hot", "mode": 1,
                     "rank": 4, "seed": s} for s in seeds]
            replies = testing.replay_requests(daemon.port, reqs,
                                              nclients=8)
        finally:
            daemon.stop()
        assert all(r.get("ok") for r in replies)
        return replies

    batched = drive(batch_limit=8)
    unbatched = drive(batch_limit=1)
    # with 8 closed-loop clients and one executor, batches must form
    assert max(r["batch_size"] for r in batched) > 1
    assert all(r["batch_size"] == 1 for r in unbatched)
    oracle = make_oracle(oracle_tensors, nthreads=2)
    for s, rb, ru in zip(seeds, batched, unbatched):
        expect = oracle({"op": "mttkrp", "tensor": "hot", "mode": 1,
                         "rank": 4, "seed": s})["digest"]
        assert rb["digest"] == expect
        assert ru["digest"] == expect


# ----------------------------------------------------------------------
# 3. protocol fuzzing: structured errors, never death
# ----------------------------------------------------------------------
def test_protocol_fuzz_never_kills_daemon():
    daemon = ReproDaemon(backend="sim", nthreads=1, http_port=0)
    daemon.start()
    try:
        with ServeClient(port=daemon.port) as cli:
            cli.register("hot", SPECS["hot"])
        for label, payload in testing.fuzz_frames(seed=7, n=64):
            cli = ServeClient(port=daemon.port, timeout=30.0)
            try:
                cli.send_raw(payload)
                if not payload.endswith(b"\n"):
                    continue  # unterminated: disconnect is the reply
                try:
                    reply = cli.read_reply()
                except ConnectionError:
                    # clean close is acceptable only for desynchronizing
                    # frames (oversized)
                    assert len(payload) > MAX_FRAME_BYTES, (
                        f"{label}: connection dropped without a reply")
                    continue
                assert isinstance(reply, dict) and "ok" in reply, label
                if not reply["ok"]:
                    assert reply["error"]["code"] in ERROR_CODES, label
            finally:
                cli.close()
        # after the whole battery the daemon is unharmed
        with ServeClient(port=daemon.port) as cli:
            assert cli.ping()["pong"]
            r = cli.mttkrp("hot", mode=0, rank=2, seed=1)
            assert r["ok"]
        assert _healthz(daemon.http_port)["status"] == "ok"
    finally:
        daemon.stop()


def test_oversized_frame_gets_413_then_close():
    daemon = ReproDaemon(backend="sim")
    daemon.start()
    try:
        cli = ServeClient(port=daemon.port, timeout=30.0)
        cli.send_raw(b'{"op": "ping", "pad": "'
                     + b"B" * (MAX_FRAME_BYTES + 10) + b'"}\n')
        reply = cli.read_reply()
        assert reply["ok"] is False
        assert reply["error"]["code"] == "frame_too_large"
        assert reply["error"]["status"] == 413
        with pytest.raises(ConnectionError):
            cli.read_reply()  # daemon closed the desynchronized stream
        cli.close()
        with ServeClient(port=daemon.port) as cli2:
            assert cli2.ping()["pong"]  # fresh connections unaffected
    finally:
        daemon.stop()


def test_disconnect_mid_frame_is_harmless():
    daemon = ReproDaemon(backend="sim")
    daemon.start()
    try:
        for _ in range(3):
            raw = socket.create_connection(("127.0.0.1", daemon.port))
            raw.sendall(b'{"op": "ping"')  # no terminator, then vanish
            raw.close()
        time.sleep(0.1)
        with ServeClient(port=daemon.port) as cli:
            assert cli.ping()["pong"]
    finally:
        daemon.stop()


def test_stop_returns_promptly_after_a_client():
    """A thread blocked in accept() must wake on stop(): no join timeout
    to sit out, and no serve thread left behind."""
    daemon = ReproDaemon(backend="sim")
    daemon.start()
    with ServeClient(port=daemon.port) as cli:
        assert cli.ping()["pong"]
    t0 = time.monotonic()
    daemon.stop()
    assert time.monotonic() - t0 < 1.0
    alive = [t.name for t in threading.enumerate()
             if t.name.startswith("repro-serve-")]
    assert alive == []


# ----------------------------------------------------------------------
# 4. overload: bounded queue, explicit shedding, survival
# ----------------------------------------------------------------------
def test_overload_sheds_explicitly(oracle_tensors):
    metrics.reset()
    daemon = ReproDaemon(backend="sim", nthreads=1, executors=1,
                         max_queue=4, http_port=0)
    daemon.start()
    try:
        with ServeClient(port=daemon.port) as cli:
            cli.register("hot", SPECS["hot"])
        # slow heads keep the single executor busy; the tail overflows
        # the 4-slot queue
        reqs = ([{"op": "cp_als", "tensor": "hot", "rank": 8, "seed": s,
                  "iters": 4} for s in range(8)]
                + [{"op": "mttkrp", "tensor": "hot", "mode": 0, "rank": 4,
                    "seed": s} for s in range(48)])
        replies = testing.replay_requests(daemon.port, reqs, nclients=8)
        assert _healthz(daemon.http_port)["status"] == "ok"
        stats = daemon._stats()
    finally:
        daemon.stop()

    ok = [r for r in replies if r.get("ok")]
    shed = [r for r in replies if not r.get("ok")]
    assert shed, "queue never overflowed — overload path untested"
    for r in shed:  # every rejection is explicit and structured
        assert r["error"]["code"] == "overloaded"
        assert r["error"]["status"] == 429
    assert stats["rejected"] == len(shed)
    assert stats["queue_depth"] == 0  # drained, not grown without bound
    # accepted work is still bit-perfect under overload
    oracle = make_oracle(oracle_tensors, nthreads=1)
    by_key = {}
    for req, rep in zip(reqs, replies):
        if rep.get("ok"):
            key = json.dumps(req, sort_keys=True)
            if key not in by_key:
                by_key[key] = oracle(req)["digest"]
            assert rep["digest"] == by_key[key]


# ----------------------------------------------------------------------
# 5. registration lifecycle is isolated from in-flight traffic
# ----------------------------------------------------------------------
def test_registration_isolation(oracle_tensors):
    daemon = ReproDaemon(backend="sim", nthreads=2, executors=2,
                         max_queue=128)
    daemon.start()
    errors = []
    try:
        with ServeClient(port=daemon.port) as cli:
            cli.register("hot", SPECS["hot"])
        expect = make_oracle(oracle_tensors, nthreads=2)(
            {"op": "mttkrp", "tensor": "hot", "mode": 0, "rank": 4,
             "seed": 77})["digest"]

        def churn():
            try:
                with ServeClient(port=daemon.port) as c:
                    for i in range(6):
                        c.register(f"tmp{i}", SPECS["cold"])
                        r = c.mttkrp(f"tmp{i}", mode=0, rank=2, seed=i)
                        assert r["ok"]
                        c.unregister(f"tmp{i}")
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        churner = threading.Thread(target=churn, daemon=True)
        churner.start()
        with ServeClient(port=daemon.port) as cli:
            for _ in range(30):
                r = cli.mttkrp("hot", mode=0, rank=4, seed=77)
                assert r["digest"] == expect, (
                    "registration churn perturbed an unrelated tensor")
        churner.join(timeout=60)
        assert not errors, errors
        with ServeClient(port=daemon.port) as cli:
            # the churned tensors are really gone, with structured errors
            bad = cli.mttkrp("tmp0", mode=0, rank=2, check=False)
            assert bad["error"]["code"] == "not_found"
            assert {t["name"] for t in cli.tensors()} == {"hot"}
    finally:
        daemon.stop()


# ----------------------------------------------------------------------
# 6. scheduler unit contracts
# ----------------------------------------------------------------------
def _job(i, *, op="cp_als", client="c", priority=1, tensor="t", rank=4,
         mode=0):
    return Job(id=f"u{i}", op=op, tensor=tensor, rank=rank, seed=i,
               mode=mode, priority=priority, client=client)


def test_scheduler_priority_and_fairness():
    sched = JobScheduler(max_queue=16)
    sched.submit(_job(0, priority=2, client="low"))
    sched.submit(_job(1, priority=0, client="hi"))
    sched.submit(_job(2, priority=1, client="mid"))
    order = [sched.next_batch(timeout=1)[0].priority for _ in range(3)]
    assert order == [0, 1, 2]

    # round-robin: a flooding client cannot starve a peer at its level
    for i in range(3):
        sched.submit(_job(10 + i, client="flood"))
    sched.submit(_job(20, client="polite"))
    served = [sched.next_batch(timeout=1)[0].client for _ in range(4)]
    assert served == ["flood", "polite", "flood", "flood"]


def test_scheduler_admission_and_close():
    sched = JobScheduler(max_queue=2)
    sched.submit(_job(0))
    sched.submit(_job(1))
    with pytest.raises(AdmissionError):
        sched.submit(_job(2))
    sched.close()
    with pytest.raises(AdmissionError):
        sched.submit(_job(3))
    assert sched.next_batch(timeout=1) is not None
    assert sched.next_batch(timeout=1) is not None
    assert sched.next_batch(timeout=1) is None  # closed and drained


def test_scheduler_batches_compatible_mttkrp_only():
    sched = JobScheduler(max_queue=16, batch_limit=4)
    for i in range(5):
        sched.submit(_job(i, op="mttkrp", client=f"c{i % 2}"))
    sched.submit(_job(9, op="mttkrp", rank=8))  # different key
    batch = sched.next_batch(timeout=1)
    assert len(batch) == 4  # capped at batch_limit
    assert len({j.batch_key for j in batch}) == 1
    # fairness rotation serves the other client's (incompatible) job next
    rest = sched.next_batch(timeout=1)
    assert [j.rank for j in rest] == [8]
    last = sched.next_batch(timeout=1)
    assert len(last) == 1 and last[0].rank == 4  # the 5th same-key job
    # cp_als never batches even with identical parameters
    sched2 = JobScheduler(max_queue=8, batch_limit=4)
    sched2.submit(_job(0, op="cp_als"))
    sched2.submit(_job(0, op="cp_als"))
    assert len(sched2.next_batch(timeout=1)) == 1


# ----------------------------------------------------------------------
# 7. HTTP introspection and the request stream generator
# ----------------------------------------------------------------------
def test_http_jobs_tensors_and_trace():
    daemon = ReproDaemon(backend="sim", http_port=0)
    daemon.start()
    try:
        with ServeClient(port=daemon.port) as cli:
            cli.register("hot", SPECS["hot"])
            job_id = cli.mttkrp("hot", mode=0, rank=2, seed=1)["job"]
        base = f"http://127.0.0.1:{daemon.http_port}"
        jobs = json.loads(urllib.request.urlopen(base + "/jobs").read())
        assert [j["id"] for j in jobs] == [job_id]
        assert jobs[0]["state"] == "done"
        one = json.loads(
            urllib.request.urlopen(f"{base}/jobs/{job_id}").read())
        assert one["id"] == job_id and "result" in one
        tr = json.loads(
            urllib.request.urlopen(f"{base}/jobs/{job_id}/trace").read())
        assert "traceEvents" in tr
        tensors = json.loads(
            urllib.request.urlopen(base + "/tensors").read())
        assert tensors[0]["name"] == "hot"
        body = urllib.request.urlopen(base + "/metrics").read().decode()
        assert "serve_jobs_done" in body.replace(".", "_")
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(base + "/jobs/nope")
    finally:
        daemon.stop()


def test_request_stream_is_deterministic_and_admissible():
    tensors = {"a": 3, "b": 4}
    stream = RequestStream(tensors, n=100, seed=11)
    first, second = stream.generate(), RequestStream(
        tensors, n=100, seed=11).generate()
    assert first == second
    arrivals = [r["arrival_s"] for r in first]
    assert arrivals == sorted(arrivals)
    from repro.serve.protocol import validate_request

    for req in first:
        wire = {k: v for k, v in req.items() if k != "arrival_s"}
        op, _ = validate_request(wire)  # every generated request is legal
        assert op == req["op"]
        if "mode" in req:
            assert 0 <= req["mode"] < tensors[req["tensor"]]
    # popularity is skewed toward earlier registrations (zipf)
    counts = [sum(1 for r in first if r["tensor"] == t) for t in tensors]
    assert counts[0] > counts[1]


def test_fuzz_frames_deterministic():
    assert testing.fuzz_frames(3, 32) == testing.fuzz_frames(3, 32)
    labels = [lbl for lbl, _ in testing.fuzz_frames(3, 32)]
    assert len(labels) == len(set(labels)) == 32
