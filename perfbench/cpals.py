"""The two cold CP-ALS workloads: ``cpals-cold`` (sequential kernels, all
four formats) and ``cpals-par`` (HiCOO and ALTO on the process backend).

One *solve* is the user's ``hicoo-repro cpd`` path: ``read_tns`` ->
``as_format`` -> ``cp_als`` (rank 16, 10 iterations, ``tol=0``, a fixed
seeded init).  A *round* solves every (tensor, format) pair once; the
workload repeats rounds for the requested seconds and reports per-pair
medians across rounds.
"""

from __future__ import annotations

import gc
import os
import shutil
import time

import numpy as np

from common import Debris, coverage, peak_rss_mb, self_times

TENSORS = ("deli", "uber")
RANK = 16
ITERS = 10
NTHREADS = 2
FIT_AGREEMENT = 1e-9  # the E9 rule: every format reaches the same fit
SETUP_REPS = 5
#: extra pool start/stop cycles of cpals-par, so pool shutdown (a few ms)
#: is a median of several samples
POOL_CYCLES = 20
#: input scale of the warm-up solves: large enough that each kernel takes
#: the code path (and pays the first-call costs) of the full-size inputs
WARM_SCALE = 0.2

WORKLOADS = {
    "cpals-cold": {"formats": ("coo", "csf", "hicoo", "alto"),
                   "parallel": False},
    "cpals-par": {"formats": ("hicoo", "alto"), "parallel": True},
}


def config(name: str) -> dict:
    w = WORKLOADS[name]
    cfg = {"tensors": list(TENSORS), "formats": list(w["formats"]),
           "rank": RANK, "iters": ITERS, "tol": 0.0}
    if w["parallel"]:
        cfg.update(backend="process", nthreads=NTHREADS,
                   strategy="schedule", fault_policy="retry")
    else:
        cfg.update(backend="sequential kernels")
    return cfg


def tensor_seed(seed: int, name: str) -> int:
    return (seed * 1_000_003 + sum(map(ord, name))) & 0x7FFFFFFF


def make_inputs(seed: int, scale: float, workdir: str) -> dict:
    """Generate the registry analogs, write them as ``.tns`` files, and
    draw the fixed CP-ALS init for each."""
    from repro.data import registry
    from repro.data.frostt import write_tns

    inputs = {}
    for name in TENSORS:
        coo = registry.load(name, scale=scale, seed=tensor_seed(seed, name))
        path = os.path.join(workdir, f"{name}.tns")
        write_tns(coo, path)
        rng = np.random.default_rng(tensor_seed(seed, name) + 1)
        init = [rng.random((s, RANK)) for s in coo.shape]
        inputs[name] = {"path": path, "shape": coo.shape, "init": init,
                        "nnz": coo.nnz}
    return inputs


def warm_up(formats, par_kwargs: dict, scale: float) -> None:
    """Pay each format's first-call costs (lazy imports, kernel dispatch,
    the first shared-memory session) on scaled-down analogs, so no
    measured solve is the process's first.  A first full-size COO solve
    otherwise runs about twice as long as later ones."""
    from repro.cpd.cp_als import cp_als
    from repro.data import registry
    from repro.formats import as_format
    from repro.parallel import procpool

    for name in TENSORS:
        coo = registry.load(name, scale=WARM_SCALE * scale, seed=1)
        for fmt in formats:
            tensor = as_format(coo, fmt)
            cp_als(tensor, RANK, maxiters=2, tol=0.0, seed=1, **par_kwargs)
            procpool.release_shared(tensor)


def solve(inp: dict, fmt: str, solve_id: str, par_kwargs: dict) -> dict:
    """One cold solve, timed per layer from the benchmark's side."""
    from repro.cpd.cp_als import cp_als
    from repro.data.frostt import read_tns
    from repro.formats import as_format
    from repro.obs import trace

    with trace.span("bench.solve", solve=solve_id, format=fmt):
        t0 = time.perf_counter()
        with trace.span("data.read_tns", solve=solve_id):
            coo = read_tns(inp["path"], shape=inp["shape"])
        t1 = time.perf_counter()
        with trace.span("formats.as_format", solve=solve_id, format=fmt):
            tensor = as_format(coo, fmt)
        t2 = time.perf_counter()
        with trace.span("cpd.cp_als", solve=solve_id, format=fmt):
            res = cp_als(tensor, RANK, maxiters=ITERS, tol=0.0,
                         init=inp["init"], **par_kwargs)
        t3 = time.perf_counter()
    storage = tensor.storage_bytes()
    return {
        "tensor": tensor, "fits": list(map(float, res.fits)),
        "total_s": t3 - t0, "read_s": t1 - t0, "construct_s": t2 - t1,
        "cpals_s": res.total_seconds, "mttkrp_s": res.mttkrp_seconds,
        "dense_s": res.dense_seconds,
        "calls": res.iterations * tensor.nmodes,
        "index_bytes": sum(v for k, v in storage.items() if k != "values"),
        "nnz": tensor.nnz,
    }


def fits_agree(fits_by_format: dict, tol: float = FIT_AGREEMENT) -> bool:
    """The E9 rule: every format's final fit within ``tol`` of the others."""
    finals = [f[-1] for f in fits_by_format.values()]
    return all(np.isfinite(finals)) and max(finals) - min(finals) <= tol


def fits_identical(fits, reference) -> bool:
    """The ``schedule`` contract: a parallel fit trajectory is bitwise the
    sequential one."""
    return len(fits) == len(reference) and all(
        a == b for a, b in zip(fits, reference))


def run(name: str, seed: int, seconds: float, traced: bool, scale: float,
        workdir: str) -> dict:
    from repro.obs import metrics, trace
    from repro.parallel import procpool

    spec = WORKLOADS[name]
    formats, parallel = spec["formats"], spec["parallel"]
    par_kwargs = dict(backend="process", nthreads=NTHREADS,
                      strategy="schedule", fault_policy="retry") \
        if parallel else {}
    debris = Debris()
    os.makedirs(workdir, exist_ok=True)

    # ---- set-up: inputs, warm-up (and the worker pool), several times --
    setups, teardowns = [], []
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        inputs = make_inputs(seed, scale, workdir)
        if parallel:
            procpool.get_pool(NTHREADS)
        warm_up(formats, par_kwargs, scale)
        setups.append(time.perf_counter() - t0)
        if parallel and rep < SETUP_REPS - 1:
            t0 = time.perf_counter()
            procpool.shutdown_pools()
            teardowns.append(time.perf_counter() - t0)

    # ---- measured rounds ----------------------------------------------
    retries0 = metrics.value("supervisor.task_retries")
    rounds = []  # {"traced": bool, "solves": {(tensor, fmt): record}}
    attempted = failed = 0
    failures = []
    t_start = time.perf_counter()
    rnd = 0
    while True:
        # the traced run alternates untraced and traced rounds so tracing
        # overhead is measured inside one process on identical inputs
        tracing = traced and rnd % 2 == 1
        if tracing:
            trace.enable()
        t_round = time.perf_counter()
        solves = {}
        for tname in TENSORS:
            for fmt in formats:
                attempted += 1
                rec = solve(inputs[tname], fmt, f"r{rnd}/{tname}/{fmt}",
                            par_kwargs)
                # release the solved tensor (and its shared-memory sessions)
                t0 = time.perf_counter()
                if parallel:
                    procpool.release_shared(rec["tensor"])
                rec["tensor"] = None
                gc.collect()
                rec["release_s"] = time.perf_counter() - t0
                solves[(tname, fmt)] = rec
        wall = time.perf_counter() - t_round
        events = trace.events() if tracing else []
        if tracing:
            trace.disable()
            trace.clear()
        rounds.append({"traced": tracing, "solves": solves, "wall": wall,
                       "events": events})
        for tname in TENSORS:
            group = {f: solves[(tname, f)]["fits"] for f in formats}
            if not fits_agree(group):
                failed += len(formats)
                failures.append(f"round {rnd} {tname}: fits disagree "
                                f"across formats: {group}")
        rnd += 1
        # stop before a round that would end past the measured seconds
        # (always one round; two in the traced run)
        elapsed = time.perf_counter() - t_start
        if elapsed + wall > seconds and (not traced or rnd >= 2):
            break
    retries = metrics.value("supervisor.task_retries") - retries0
    # the measured solves' peak, before the reference solves below
    rss_mb = peak_rss_mb()

    # ---- correctness of cpals-par: the same schedule executed
    # sequentially (backend "sim") must give bitwise the same fits, and the
    # sequential kernels (also the speedup base) the same fit within the
    # E9 tolerance
    seq = {}
    if parallel:
        sim = dict(par_kwargs, backend="sim", fault_policy=None)
        for tname in TENSORS:
            for fmt in formats:
                ref = solve(inputs[tname], fmt, "sim", sim)["fits"]
                seq[(tname, fmt)] = solve(inputs[tname], fmt, "seq", {})
                seq[(tname, fmt)]["tensor"] = None
                for i, r in enumerate(rounds):
                    fits = r["solves"][(tname, fmt)]["fits"]
                    if not fits_identical(fits, ref):
                        failed += 1
                        failures.append(
                            f"round {i} {tname}/{fmt}: process-backend fits "
                            f"differ from the sim-backend schedule")
                    elif not fits_agree({"process": fits, "sequential":
                                         seq[(tname, fmt)]["fits"]}):
                        failed += 1
                        failures.append(
                            f"round {i} {tname}/{fmt}: process-backend fit "
                            f"differs from the sequential kernels'")

    # ---- teardown ------------------------------------------------------
    if parallel:
        for cycle in range(POOL_CYCLES + 1):
            if cycle:
                procpool.get_pool(NTHREADS)
                warm_up(formats[:1], par_kwargs, 0.1 * scale)
            t0 = time.perf_counter()
            procpool.shutdown_pools()
            teardowns.append(time.perf_counter() - t0)
    else:
        teardowns = [rec["release_s"] for r in rounds
                     for rec in r["solves"].values()]
    left = debris.count()

    plain = [r for r in rounds if not r["traced"]]
    pairs = list(plain[0]["solves"])

    totals = {k: np.median([r["solves"][k]["total_s"] for r in plain])
              for k in pairs}
    e2e = {
        "setup_s": (np.median(setups), "s"),
        "lat_p50_ms": (np.median(list(totals.values())) * 1e3, "ms"),
        "goodput_rps": (len(pairs) / sum(totals.values()), "1/s"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "teardown_s": (np.median(teardowns), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    report = {
        "rounds": len(rounds), "solves_per_round": len(pairs),
        "cpals_s": sum(totals.values()),
        "latency_samples": len(pairs),
        "per_pair_s": {f"{t}/{f}": round(v, 6)
                       for (t, f), v in totals.items()},
        "fits": {f"{t}/{f}": plain[0]["solves"][(t, f)]["fits"][-1]
                 for (t, f) in pairs},
        "setup_samples_s": setups, "teardown_samples_s": teardowns,
        "debris": left, "failures": failures[:10],
    }
    layers = {}
    if traced:
        layers = per_layer(name, formats, rounds, plain, pairs, inputs, seq,
                           retries)
    shutil.rmtree(workdir, ignore_errors=True)
    layers["cpd.cpals_s"] = sum(totals.values())
    layers["debris.threads"] = left["threads"]
    layers["debris.shm_segments"] = left["shm_segments"]
    return {"attempted": attempted, "failed": failed, "e2e": e2e,
            "layers": layers, "report": report}


def per_layer(name, formats, rounds, plain, pairs, inputs, seq,
              retries) -> dict:
    """Layer metrics of the traced run (timings from untraced rounds,
    span-derived figures from the traced ones)."""
    from repro.analysis.traffic import mttkrp_work
    from repro.data.frostt import read_tns
    from repro.formats import as_format
    from repro.kernels.plan import plan_mttkrp
    from repro.obs import metrics

    def med(field):
        return {k: np.median([r["solves"][k][field] for r in plain])
                for k in pairs}

    read, construct = med("read_s"), med("construct_s")
    mttkrp_s, dense, total_cp = med("mttkrp_s"), med("dense_s"), \
        med("cpals_s")
    calls = {k: plain[0]["solves"][k]["calls"] for k in pairs}
    out = {"data.read_s": sum(read.values())}
    for fmt in formats:
        keys = [k for k in pairs if k[1] == fmt]
        ms = 1e3 * sum(mttkrp_s[k] for k in keys) / sum(calls[k]
                                                        for k in keys)
        out[f"formats.construct_s.{fmt}"] = sum(construct[k] for k in keys)
        out[f"formats.index_bytes_per_nnz.{fmt}"] = (
            sum(plain[0]["solves"][k]["index_bytes"] for k in keys)
            / sum(plain[0]["solves"][k]["nnz"] for k in keys))
        if name == "cpals-par":
            out[f"parallel.mttkrp_ms.{fmt}"] = ms
            seq_ms = 1e3 * sum(seq[k]["mttkrp_s"] for k in keys) / sum(
                seq[k]["calls"] for k in keys)
            out[f"kernels.mttkrp_ms.{fmt}"] = seq_ms
            out[f"parallel.speedup.{fmt}"] = seq_ms / ms
        else:
            out[f"kernels.mttkrp_ms.{fmt}"] = ms
        # computed (not measured) traffic of one MTTKRP sweep over all modes
        work_bytes = work_flops = 0.0
        for tname in TENSORS:
            tensor = as_format(read_tns(inputs[tname]["path"],
                                        shape=inputs[tname]["shape"]), fmt)
            for mode in range(tensor.nmodes):
                w = mttkrp_work(tensor, mode, RANK)
                work_bytes += w.bytes_moved
                work_flops += w.flops
            if fmt == "hicoo" and name == "cpals-par":
                t0 = time.perf_counter()
                plan = plan_mttkrp(tensor, RANK, NTHREADS,
                                   strategy="schedule")
                plan.ensure_gathers(tensor)
                out["kernels.plan_s"] = out.get("kernels.plan_s", 0.0) + \
                    time.perf_counter() - t0
        out[f"kernels.mttkrp_bytes.{fmt}"] = work_bytes
        out[f"kernels.flops_per_byte.{fmt}"] = work_flops / work_bytes

    fit = {k: total_cp[k] - mttkrp_s[k] - dense[k] for k in pairs}
    out["cpd.fit_s"] = sum(fit.values())
    out["cpd.dense_s"] = sum(dense.values())
    out["cpd.mttkrp_share"] = sum(mttkrp_s.values()) / sum(total_cp.values())

    traced = [r for r in rounds if r["traced"]]
    events = [e for r in traced for e in r["events"]]
    fit_span = sum(e.dur_ns for e in events if e.name == "cpals.fit") / 1e9
    out["cpd.fit_span_s"] = fit_span / len(traced)
    for layer, secs in self_times(events).items():
        out[f"self_s.{layer}"] = secs / len(traced)
    roots = [e for e in events if e.name == "bench.solve"]
    out["coverage.cpals"] = coverage(roots, events)
    untraced_wall = np.median([r["wall"] for r in plain])
    traced_wall = np.median([r["wall"] for r in traced])
    out["trace.overhead_pct"] = 100.0 * (traced_wall - untraced_wall) \
        / untraced_wall
    if name == "cpals-par":
        imb = metrics.snapshot("mttkrp.load_imbalance").get(
            "mttkrp.load_imbalance", {})
        out["parallel.load_imbalance"] = imb.get("mean", 0.0)
        out["parallel.retries"] = retries
    return out
