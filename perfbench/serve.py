"""The two served workloads: ``serve-steady`` and ``serve-churn``.

An in-process ``ReproDaemon`` (backend ``sim``, ``nthreads=2``, two
executors) holds three resident tensors.  One generator thread drives an
**open loop** over two connections: each request is sent at its due time
whatever the daemon is doing, and its latency runs from that due time to
its reply, so a stall is charged to every request it delays.  The offered
rate steps up a short fixed ladder, and latency is reported at its first
(nominal) rung.  A closed-loop phase follows that keeps the daemon busy
(a fixed number of requests outstanding on each connection); goodput is
the rate of correct replies within the latency limit in that phase.

``serve-churn`` adds write traffic on the same connections: fresh tensors
are registered, queried with per-request ``format`` overrides (converter
view builds and cold plan builds) and unregistered again.
"""

from __future__ import annotations

import gc
import json
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from common import Debris, coverage, peak_rss_mb, self_times, tail

BACKEND = "sim"
NTHREADS = 2
EXECUTORS = 2
CONNECTIONS = 2

#: the resident tensors: (name, generator kind, shape, nnz, format)
RESIDENT = (
    ("hot", "power_law", (2000, 1500, 800), 20_000, "hicoo"),
    ("warm", "clustered", (200, 60, 300, 400), 12_000, "alto"),
    ("cold", "random", (1000, 1000, 1000), 6_000, "hicoo"),
)

#: offered rates (requests/s), calibrated once against the measured
#: capacity of this configuration (110 to 250 req/s over two connections on
#: a 2-core host, depending on the seed's tensors and the host's load) and
#: never re-calibrated per run: the nominal rung is about a third of the
#: capacity, so it keeps headroom when other load on the host takes half
#: the cores, and the top rung is near the capacity's low end
LADDER_RPS = (60.0, 120.0, 160.0)
#: share of the measured seconds spent on each rung
RUNG_SHARE = (0.3, 0.08, 0.08)
NOMINAL = 0
#: the closed-loop phase: its share of the measured seconds, the requests
#: kept outstanding on each connection (enough that a connection always has
#: the next request queued), and the rate its schedule is drawn at (about
#: the capacity, so churn registers tensors as often per request as it does
#: in the open loop near capacity)
BUSY_SHARE = 0.54
BUSY_WINDOW = 4
BUSY_RPS = 200.0
#: the busy phase's rate is the median over blocks of this many consecutive
#: replies, so a burst of other load on the host moves only its own blocks
BLOCK_REPLIES = 100
#: a rung meets the service level when its tail latency is within this,
#: and its backlog at the rung's end is at most what a queue holding this
#: latency would hold at the rung's rate (so the backlog is not growing)
LIMIT_MS = 250.0
#: a rung is invalid when the generator itself sent this late (p99)
GENERATOR_LATE_MS = 25.0

#: operand seeds are drawn from a small per-run pool so the oracle can
#: memoize identical requests; the daemon still computes every request
SEED_POOL = 2
#: every request asks for this rank and CP-ALS for this many iterations, so
#: the latency tail is one populous cluster (CP-ALS on the hot tensor and
#: the requests queued behind it) instead of a handful of rare heavy
#: solves whose count varies with the seed
RANK = 4
CPALS_ITERS = 2

#: churn: a fresh tensor every FRESH_EVERY_S, alive for FRESH_LIFE_S; this
#: share of request slots targets a live fresh tensor with a format override
FRESH_EVERY_S = 0.5
FRESH_LIFE_S = 1.5
FRESH_SHARE = 0.3
FRESH_SPECS = (("power_law", (800, 600, 400), 5_000, "hicoo"),
               ("clustered", (300, 200, 500), 5_000, "alto"))
FORMATS = ("coo", "csf", "hicoo", "alto")

SETUP_REPS = 13
DRAIN_TIMEOUT_S = 60.0
#: CP-ALS requests per resident tensor sent one at a time after the open
#: loop, with no other traffic: the served solve time without queueing or
#: executor contention (those are in the latency figures)
SOLO_SOLVES = 7


def config(name: str) -> dict:
    return {"backend": BACKEND, "nthreads": NTHREADS,
            "executors": EXECUTORS, "connections": CONNECTIONS,
            "loop": "open", "ladder_rps": list(LADDER_RPS),
            "rung_share": list(RUNG_SHARE), "limit_ms": LIMIT_MS,
            "busy_share": BUSY_SHARE,
            "busy_window": BUSY_WINDOW,
            "generator_late_ms": GENERATOR_LATE_MS,
            "resident": [{"name": n, "kind": k, "shape": list(s), "nnz": z,
                          "format": f} for n, k, s, z, f in RESIDENT],
            "churn": name == "serve-churn"}


def spec_for(kind, shape, nnz, fmt, seed, scale) -> dict:
    nnz = max(64, int(nnz * scale))
    return {"kind": kind, "shape": list(shape), "nnz": nnz,
            "seed": int(seed), "format": fmt}


@dataclass
class Event:
    """One frame the generator sends, with everything observed about it."""

    due: float
    conn: int
    rung: int
    frame: dict
    kind: str  # "job" | "register" | "unregister"
    sent: float = 0.0
    replied: float = 0.0
    reply: dict = field(default_factory=dict)
    ok: bool = False


# ----------------------------------------------------------------------
# schedule
# ----------------------------------------------------------------------
def build_schedule(seed: int, rungs, churn: bool, scale: float):
    """The run's events, due-time ordered, plus the fresh tensors' specs.

    ``rungs`` is a list of ``(rate_rps, duration_s)``; request slots are
    evenly spaced at each rung's rate (fixed offered load).  Every event
    carries the rung its due time falls in.
    """
    from repro.analysis.traffic import RequestStream

    nslots = sum(int(rate * dur) for rate, dur in rungs)
    stream = RequestStream({name: len(shape) for name, _k, shape, _z, _f
                            in RESIDENT}, n=max(1, nslots),
                           seed=seed, ranks=(RANK,),
                           iters=(CPALS_ITERS,)).generate()
    rng = np.random.default_rng(seed + 17)
    pool = [int(s) for s in rng.integers(0, 2**31, SEED_POOL)]
    events, fresh = [], {}
    t0, slot = 0.0, 0
    next_fresh, fresh_seq, live = 0.0, 0, []
    for r, (rate, dur) in enumerate(rungs):
        for j in range(int(rate * dur)):
            due = t0 + j / rate
            while churn and due >= next_fresh:
                kind, shape, nnz, fmt = FRESH_SPECS[fresh_seq % 2]
                name = f"fresh{fresh_seq}"
                spec = spec_for(kind, shape, nnz, fmt,
                                seed * 7919 + fresh_seq, scale)
                conn = fresh_seq % CONNECTIONS
                fresh[name] = spec
                events.append(Event(next_fresh, conn, r, {
                    "op": "register", "name": name, "spec": spec},
                    "register"))
                events.append(Event(next_fresh + FRESH_LIFE_S, conn, r, {
                    "op": "unregister", "name": name}, "unregister"))
                live.append((name, next_fresh, conn, fmt, len(shape), r))
                fresh_seq += 1
                next_fresh += FRESH_EVERY_S
            req = dict(stream[slot])
            req.pop("arrival_s", None)
            req["seed"] = pool[slot % SEED_POOL]
            req["id"] = slot
            slot += 1
            # slots alternate connections, so each connection sees an
            # evenly spaced stream; a fresh tensor is queried on the
            # connection that registered it (replies are in order there)
            # and only inside its own rung, so each rung can be driven alone
            conn = j % CONNECTIONS
            usable = [f for f in live if f[5] == r and f[2] == conn
                      and f[1] + 0.1 <= due < f[1] + FRESH_LIFE_S - 0.05]
            if usable and rng.random() < FRESH_SHARE:
                name, _reg, _c, reg_fmt, nmodes, _r = usable[
                    int(rng.integers(len(usable)))]
                fmt = str(rng.choice([f for f in FORMATS if f != reg_fmt]))
                req["tensor"], req["format"] = name, fmt
                if "mode" in req:
                    req["mode"] = int(rng.integers(nmodes))
            events.append(Event(due, conn, r, req, "job"))
        t0 += dur
    ends = np.cumsum([dur for _rate, dur in rungs])
    for e in events:
        e.rung = min(int(np.searchsorted(ends, e.due, side="right")),
                     len(rungs) - 1)
    events.sort(key=lambda e: e.due)
    return events, fresh


# ----------------------------------------------------------------------
# the open loop
# ----------------------------------------------------------------------
def drive(address, events, window: int = 0,
          seconds: float = float("inf")) -> float:
    """Send events over ``CONNECTIONS`` sockets and timestamp every reply;
    returns the loop's start time.

    Open loop (``window`` 0): each event is sent at its due time, an offset
    from the start.  Closed loop: each connection keeps ``window`` events
    outstanding, in due order, each due when it is sent, until ``seconds``
    have passed; events never sent keep ``sent == 0``.  Replies on one
    connection arrive in request order.  Sent events left without a reply
    (the daemon hung up, or the drain timed out) count as failed.
    """
    from repro.serve import protocol

    socks = [socket.create_connection(address, timeout=DRAIN_TIMEOUT_S)
             for _ in range(CONNECTIONS)]
    for s in socks:
        # pipelined small frames: without this, Nagle's algorithm holds a
        # request until the previous one is acknowledged
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sel = selectors.DefaultSelector()
    start = time.perf_counter()
    queues = [[e for e in events if e.conn == c] for c in range(CONNECTIONS)]
    frames = {id(e): protocol.encode_frame(e.frame) for e in events}
    bufs, pending = [b""] * CONNECTIONS, [[] for _ in range(CONNECTIONS)]
    nexts, heads = [0] * CONNECTIONS, [0] * CONNECTIONS
    try:
        for i, s in enumerate(socks):
            sel.register(s, selectors.EVENT_READ, i)
        start = time.perf_counter()
        stop_at = start + seconds
        if not window:
            for e in events:
                e.due += start
            stop_at = max((e.due for e in events), default=start)
        deadline = stop_at + DRAIN_TIMEOUT_S
        sent = done = 0
        while True:
            now = time.perf_counter()
            for c, q in enumerate(queues):
                while nexts[c] < len(q):
                    e = q[nexts[c]]
                    if window:
                        if now >= stop_at or \
                                len(pending[c]) - heads[c] >= window:
                            break
                        e.due = now
                    elif e.due > now:
                        break
                    e.sent = time.perf_counter()
                    socks[c].sendall(frames[id(e)])
                    pending[c].append(e)
                    nexts[c] += 1
                    sent += 1
                    now = time.perf_counter()
            unsent = [q[nexts[c]] for c, q in enumerate(queues)
                      if nexts[c] < len(q)]
            if done == sent and (not unsent or now >= stop_at and window):
                return start
            if now > deadline:
                return start  # unreplied events count as failed
            if window or not unsent:
                wait = 0.25
            else:
                wait = min(e.due for e in unsent) - now
            for key, _ in sel.select(max(0.0, wait)):
                c = key.data
                data = key.fileobj.recv(1 << 16)
                t = time.perf_counter()
                if not data:
                    return start  # the daemon hung up
                bufs[c] += data
                while b"\n" in bufs[c]:
                    line, bufs[c] = bufs[c].split(b"\n", 1)
                    e = pending[c][heads[c]]
                    heads[c] += 1
                    e.replied = t
                    e.reply = json.loads(line)
                    done += 1
    except OSError:
        return start
    finally:
        sel.close()
        for s in socks:
            s.close()


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------
class Oracle:
    """Re-executes requests with ``run_job(..., backend="sim",
    nthreads=2)`` on the benchmark's own copies of the inputs."""

    def __init__(self, specs: dict) -> None:
        self.specs = specs
        self.base, self.views, self.memo = {}, {}, {}
        self.generate_s = {}

    def tensor(self, name: str, fmt: Optional[str], op: str):
        from repro.data import synthetic
        from repro.formats import as_format
        from repro.obs import trace

        if name not in self.base:
            spec = self.specs[name]
            gen = getattr(synthetic, f"{spec['kind']}_tensor")
            t0 = time.perf_counter()
            with trace.span("data.generate", tensor=name):
                coo = gen(tuple(spec["shape"]), spec["nnz"],
                          seed=spec["seed"])
            self.generate_s[name] = time.perf_counter() - t0
            self.base[name] = as_format(coo, spec["format"])
        base = self.base[name]
        if op == "ttm" or fmt is None or fmt == base.format_name:
            return base  # TTM contracts from the registered tensor's COO
        key = (name, fmt)
        if key not in self.views:
            self.views[key] = base.to_coo() if fmt == "coo" \
                else as_format(base, fmt)
        return self.views[key]

    def digest(self, frame: dict) -> str:
        from repro.serve.jobs import run_job

        key = tuple(sorted((k, v) for k, v in frame.items() if k != "id"))
        if key not in self.memo:
            op = frame["op"]
            tensor = self.tensor(frame["tensor"], frame.get("format"), op)
            self.memo[key] = run_job(
                op, tensor, mode=frame.get("mode", 0), rank=frame["rank"],
                seed=frame["seed"], iters=frame.get("iters", 3),
                backend="sim", nthreads=NTHREADS)["digest"]
        return self.memo[key]


def check(events, oracle: Oracle) -> list:
    """Mark each event ok / failed; returns failure descriptions."""
    failures = []
    for e in events:
        rep = e.reply
        if not e.replied:
            e.ok = False
            failures.append(f"{e.kind} {e.frame.get('id')}: no reply")
        elif not rep.get("ok"):
            e.ok = False
            failures.append(f"{e.kind} {e.frame.get('id')}: "
                            f"{rep.get('error')}")
        elif e.kind == "job":
            e.ok = rep.get("digest") == oracle.digest(e.frame)
            if not e.ok:
                failures.append(f"job {e.frame['id']}: digest differs from "
                                f"the sequential oracle")
        else:
            e.ok = True
    return failures


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def warm_up(client, specs: dict) -> None:
    """Register the resident tensors and touch every plan and view the
    stream will use, so the measured phase sees only cache hits."""
    for name, spec in specs.items():
        client.register(name, spec)
        for mode in range(len(spec["shape"])):
            client.mttkrp(name, mode=mode, rank=RANK)
            client.ttm(name, mode=mode, rank=RANK)
        client.cp_als(name, rank=RANK, iters=1)


def rung_stats(events, rung: int, start: float, end: float) -> dict:
    jobs = [e for e in events if e.rung == rung and e.kind == "job"]
    ok = [e for e in jobs if e.ok]
    lat = [(e.replied - e.due) * 1e3 for e in ok]
    late = [(e.sent - e.due) * 1e3 for e in jobs if e.sent]
    sent_by_end = sum(1 for e in events if e.sent and e.sent <= end)
    replied_by_end = sum(1 for e in events if e.replied
                         and e.replied <= end)
    rate = len(jobs) / (end - start)
    out = {"offered_rps": rate, "requests": len(jobs), "ok": len(ok),
           "backlog_end": sent_by_end - replied_by_end,
           "backlog_limit": rate * LIMIT_MS / 1e3}
    if lat:
        p99, q, n = tail(lat)
        last = max(e.replied for e in ok)
        out.update(p50_ms=float(np.median(lat)), tail_ms=p99, tail_pct=q,
                   samples=n, goodput_rps=len(ok) / (last - start))
    if late:
        out["generator_late_p99_ms"], _, _ = tail(late)
        out["generator_late_max_ms"] = max(late)
    out["valid"] = out.get("generator_late_p99_ms", 0.0) <= GENERATOR_LATE_MS
    out["meets_limit"] = bool(
        lat and out["tail_ms"] <= LIMIT_MS
        and out["backlog_end"] <= out["backlog_limit"]
        and len(ok) == len(jobs))
    return out


def busy_stats(events, rung: int, start: float) -> dict:
    """The closed-loop phase: correct replies within the latency limit per
    second, and its latency (each request due when sent).

    The rate is the median over blocks of ``BLOCK_REPLIES`` consecutive
    correct replies, each block timed from the previous block's last reply
    (the first from the phase's start); ``mean_rps`` is the whole phase's.
    """
    jobs = [e for e in events if e.rung == rung and e.kind == "job"]
    ok = sorted((e for e in jobs if e.ok), key=lambda e: e.replied)
    out = {"requests": len(jobs), "ok": len(ok),
           "registrations": sum(1 for e in events if e.rung == rung
                                and e.kind == "register")}
    if ok:
        lat = [(e.replied - e.sent) * 1e3 for e in ok]
        p99, q, n = tail(lat)
        good = np.array([ms <= LIMIT_MS for ms in lat])
        t = np.array([start] + [e.replied for e in ok])
        ends = list(range(BLOCK_REPLIES, len(ok) + 1, BLOCK_REPLIES)) or \
            [len(ok)]
        rates = [good[lo:hi].sum() / (t[hi] - t[lo])
                 for lo, hi in zip([0] + ends[:-1], ends)]
        out.update(within_limit=int(good.sum()),
                   goodput_rps=float(np.median(rates)),
                   mean_rps=float(good.sum() / (t[-1] - start)),
                   blocks=len(rates), p50_ms=float(np.median(lat)),
                   tail_ms=p99, tail_pct=q, samples=n)
    return out


def counters() -> dict:
    from repro.obs import metrics

    snap = metrics.snapshot("convert.seconds").get("convert.seconds", {})
    return {k: metrics.value(f"serve.{k}") for k in
            ("plans_built", "plan_reuses", "views_built", "view_reuses")} \
        | {"convert_s": snap.get("total", 0.0) if snap else 0.0}


def run(name: str, seed: int, seconds: float, traced: bool, scale: float,
        workdir: str) -> dict:
    from repro.obs import trace
    from repro.serve.client import ServeClient
    from repro.serve.daemon import ReproDaemon

    churn = name == "serve-churn"
    specs = {n: spec_for(k, s, z, f, seed * 31 + i, scale)
             for i, (n, k, s, z, f) in enumerate(RESIDENT)}
    if traced:
        # nominal rung only: an untraced half, then a traced half
        rungs = [(LADDER_RPS[NOMINAL], seconds / 2)] * 2
    else:
        # the open-loop ladder, then the closed-loop phase
        rungs = [(rate, seconds * share)
                 for rate, share in zip(LADDER_RPS, RUNG_SHARE)] + \
            [(BUSY_RPS, seconds * BUSY_SHARE)]
    debris = Debris()

    # the benchmark's own request schedule, built once and not timed
    events, fresh = build_schedule(seed, rungs, churn, scale)

    # ---- set-up: daemon start once, registration + warm-up several
    # times (each repetition replaces the previous tensors) --------------
    # the schedule and the interpreter's start-up objects are moved out of
    # the collector's reach, so the set-up is timed as in a fresh daemon
    gc.collect()
    gc.freeze()
    t0 = time.perf_counter()
    daemon = ReproDaemon(backend=BACKEND, nthreads=NTHREADS,
                         executors=EXECUTORS).start()
    start_s = time.perf_counter() - t0
    setups = []
    with ServeClient(*daemon.address) as client:
        for rep in range(SETUP_REPS):
            if rep:
                for n in specs:
                    client.unregister(n)
                gc.collect()
            t0 = time.perf_counter()
            warm_up(client, specs)
            setups.append(start_s + time.perf_counter() - t0)

    # ---- measured phases -----------------------------------------------
    # the daemon shares this process: move everything set-up allocated out
    # of the collector's reach, so a full collection during the loop scans
    # only what the loop itself allocates, as it would in a daemon process
    gc.collect()
    gc.freeze()
    before = counters()
    if traced:
        # the traced half starts at the second rung; enable tracing then
        t_half = rungs[0][1]
        events_a = [e for e in events if e.rung == 0]
        events_b = [e for e in events if e.rung == 1]
        for e in events_b:
            e.due -= t_half
        start_a = drive(daemon.address, events_a)
        trace.enable()
        start_b = drive(daemon.address, events_b)
        spans = trace.events()
        trace.disable()
        trace.clear()
        starts = [start_a, start_b]
    else:
        nopen = len(LADDER_RPS)
        loop = [e for e in events if e.rung < nopen]
        busy = [e for e in events if e.rung == nopen]
        start = drive(daemon.address, loop)
        busy_start = drive(daemon.address, busy, window=BUSY_WINDOW,
                           seconds=rungs[nopen][1])
        events = loop + [e for e in busy if e.sent]
        spans = []
        starts = list(start + np.cumsum([0.0] + [d for _r, d in rungs]))
        rungs = rungs[:nopen]
    after = counters()
    gc.unfreeze()

    # ---- served CP-ALS, one request at a time --------------------------
    solo = []
    with ServeClient(*daemon.address) as client:
        for name in specs:
            for i in range(SOLO_SOLVES):
                frame = {"op": "cp_als", "tensor": name, "rank": RANK,
                         "iters": CPALS_ITERS, "seed": i % SEED_POOL,
                         "id": f"solo-{name}-{i}"}
                e = Event(0.0, 0, -1, frame, "job")
                e.due = e.sent = time.perf_counter()
                e.reply = client.request(frame, check=False)
                e.replied = time.perf_counter()
                solo.append(e)
    events += solo

    # ---- teardown ------------------------------------------------------
    t0 = time.perf_counter()
    daemon.stop()
    teardown_s = time.perf_counter() - t0
    # the daemon's whole lifetime, before the oracle's copies exist
    rss_mb = peak_rss_mb()
    left = debris.count()

    # ---- correctness ---------------------------------------------------
    oracle = Oracle({**specs, **fresh})
    failures = check(events, oracle)
    attempted = len(events)
    failed = sum(1 for e in events if not e.ok)

    rung_report = [rung_stats(events, r, starts[r], starts[r] + dur)
                   for r, (_rate, dur) in enumerate(rungs)]
    report = {"rungs": rung_report, "setup_samples_s": setups,
              "teardown_s": teardown_s, "debris": left,
              "failures": failures[:10], "requests": attempted}
    if not traced:
        report["busy"] = busy_stats(events, len(rungs), busy_start)
    nominal = rung_report[0 if traced else NOMINAL]
    # served CP-ALS time, like cpals-*: summed over the resident tensors,
    # each the median job run time of its solo CP-ALS requests
    cp = {}
    for e in solo:
        if e.ok:
            cp.setdefault(e.frame["tensor"], []).append(e.reply["run_s"])
    # the ladder's goodput: the achieved rate of the last rung before the
    # first one that misses the service level or whose generator fell behind
    ladder = 0.0
    for r in rung_report:
        if not (r["valid"] and r["meets_limit"]):
            break
        ladder = r["goodput_rps"]
    report["ladder_goodput_rps"] = ladder
    e2e = {
        "setup_s": (np.median(setups), "s"),
        "lat_p50_ms": (nominal.get("p50_ms", 0.0), "ms"),
        "goodput_rps": (report["busy"].get("goodput_rps", 0.0) if not traced
                        else ladder, "1/s"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "teardown_s": (teardown_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    report["cpals_s"] = sum(np.median(v) for v in cp.values())
    report["latency_samples"] = nominal.get("samples", 0)
    report["latency_tail_pct"] = nominal.get("tail_pct", 0.0)

    layers = {"cpd.cpals_s": report["cpals_s"],
              "debris.threads": left["threads"],
              "debris.shm_segments": left["shm_segments"]}
    if traced:
        layers.update(per_layer(events, spans, before, after, oracle,
                                rung_report, fresh))
    return {"attempted": attempted, "failed": failed, "e2e": e2e,
            "layers": layers, "report": report}


def per_layer(events, spans, before, after, oracle, rung_report,
              fresh) -> dict:
    """Layer metrics of the traced run: reply-field figures from the
    untraced half (rung 0), span figures from the traced half (rung 1)."""
    from repro.kernels.plan import plan_mttkrp

    plain = [e for e in events if e.rung == 0 and e.ok]
    jobs = [e for e in plain if e.kind == "job"]
    out = {
        "serve.wire_ms": np.median([
            (e.replied - e.sent - e.reply["queued_s"] - e.reply["run_s"])
            * 1e3 for e in jobs]),
        "serve.queue_wait_ms_p50": np.median(
            [e.reply["queued_s"] * 1e3 for e in jobs]),
        "serve.queue_wait_ms_p99": tail(
            [e.reply["queued_s"] * 1e3 for e in jobs])[0],
        "serve.send_wait_ms": np.median([(e.sent - e.due) * 1e3
                                      for e in jobs]),
        "serve.batch_size_mean": float(np.mean(
            [e.reply["batch_size"] for e in jobs])),
        "serve.backlog_end": rung_report[0]["backlog_end"],
        "serve.lat_p99_ms": rung_report[0]["tail_ms"],
    }
    for op in ("mttkrp", "cp_als", "ttm"):
        runs = [e.reply["run_s"] * 1e3 for e in jobs if e.frame["op"] == op]
        out[f"serve.run_ms.{op}"] = np.median(runs) if runs else 0.0
    regs = [(e.replied - e.sent) * 1e3 for e in plain
            if e.kind == "register"]
    out["serve.register_ms"] = np.median(regs) if regs else 0.0
    # counters cover both halves of the measured phase
    for kind in ("plan", "view"):
        built = after[f"{kind}s_built"] - before[f"{kind}s_built"]
        hits = after[f"{kind}_reuses"] - before[f"{kind}_reuses"]
        out[f"serve.{kind}_hit_ratio"] = hits / (hits + built) \
            if hits + built else 1.0
    out["core.convert_s"] = after["convert_s"] - before["convert_s"]
    gens = [oracle.generate_s[n] for n in fresh if n in oracle.generate_s]
    out["data.generate_s"] = np.median(gens) if gens else 0.0

    # plan build cost of every HiCOO tensor or view the stream used
    plans = []
    for view in list(oracle.views.values()) + list(oracle.base.values()):
        if view.format_name == "hicoo":
            t0 = time.perf_counter()
            plan = plan_mttkrp(view, RANK, NTHREADS, strategy="schedule")
            plan.ensure_gathers(view)
            plans.append(time.perf_counter() - t0)
    out["kernels.plan_s"] = np.median(plans) if plans else 0.0

    # spans of the traced half; each request's root span runs from its
    # due time to its reply and links to its job's span by job id
    from repro.obs.trace import SpanEvent

    traced = [e for e in events if e.rung == 1 and e.replied]
    roots = [SpanEvent("bench.request", int(e.due * 1e9),
                       int((e.replied - e.due) * 1e9), -1, 0,
                       {"job": e.reply.get("job")}) for e in traced]
    ncp = sum(1 for s in spans if s.name == "cpals")
    kern = {}
    for s in spans:
        if s.name == "mttkrp.parallel" and s.args:
            kern.setdefault(s.args.get("format"), []).append(s.dur_ns / 1e6)
    for fmt in FORMATS:
        ms = kern.get(fmt)
        out[f"kernels.mttkrp_ms.{fmt}"] = float(np.mean(ms)) if ms else 0.0
    cp_spans = [s for s in spans if s.name == "cpals"]
    cp_total = sum(s.dur_ns for s in cp_spans)
    in_cp = sum(s.dur_ns for s in spans if s.name == "mttkrp.parallel"
                and _inside(s, cp_spans))
    out["cpd.fit_s"] = out["cpd.fit_span_s"] = sum(
        s.dur_ns for s in spans if s.name == "cpals.fit") / 1e9 / max(1, ncp)
    out["cpd.dense_s"] = sum(s.dur_ns for s in spans
                             if s.name == "cpals.dense") / 1e9 / max(1, ncp)
    out["cpd.mttkrp_share"] = in_cp / cp_total if cp_total else 0.0
    jobs_by_id = {}
    for s in spans:
        if s.name == "serve.job" and s.args:
            jobs_by_id[s.args.get("job")] = s
    for layer, secs in self_times(spans).items():
        out[f"self_s.{layer}"] = secs
    out["coverage.serve"] = coverage(
        roots, spans, linked=lambda r: [jobs_by_id[r.args["job"]]]
        if r.args.get("job") in jobs_by_id else [])
    lat_a = [e.replied - e.due for e in events if e.rung == 0 and e.ok
             and e.kind == "job"]
    lat_b = [e.replied - e.due for e in traced if e.ok and e.kind == "job"]
    out["trace.overhead_pct"] = 100.0 * (np.mean(lat_b) - np.mean(lat_a)) \
        / np.mean(lat_a)
    return out


def _inside(span, parents) -> bool:
    return any(p.thread == span.thread and p.start_ns <= span.start_ns
               and span.end_ns <= p.end_ns for p in parents)
