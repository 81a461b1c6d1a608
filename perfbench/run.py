"""End-to-end benchmark of the HiCOO reproduction: cold CP-ALS solves and
served requests, split by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cpals-cold --seed 1 --seconds 18 \\
        --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the workload with the program's tracer on and prints
every per-layer metric instead.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it (prefixed ``#``) are the host record and the workload's detail.
The command exits 1 when any output fails its correctness check and 2 when
it cannot run at all (for instance outside a checkout with ``src/``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402 — after the path set-up above

WORKLOADS = ("cpals-cold", "cpals-par", "serve-steady", "serve-churn")

FORMATS = ("coo", "csf", "hicoo", "alto")

#: (name, unit) of every end-to-end metric; order as printed
END_TO_END = (
    ("setup_s", "s"), ("lat_p50_ms", "ms"), ("goodput_rps", "1/s"),
    ("ok_ratio", "ratio"), ("teardown_s", "s"), ("peak_rss_mb", "MB"),
)

#: (name, unit, value when the layer does no such work in a workload)
PER_LAYER = (
    [("data.read_s", "s", 0.0), ("data.generate_s", "s", 0.0)]
    + [(f"formats.construct_s.{f}", "s", 0.0) for f in FORMATS]
    + [(f"formats.index_bytes_per_nnz.{f}", "B/nnz", 0.0) for f in FORMATS]
    + [("core.convert_s", "s", 0.0)]
    + [(f"kernels.mttkrp_ms.{f}", "ms", 0.0) for f in FORMATS]
    + [(f"kernels.mttkrp_bytes.{f}", "B-computed", 0.0) for f in FORMATS]
    + [(f"kernels.flops_per_byte.{f}", "flop/B-computed", 0.0)
       for f in FORMATS]
    + [("kernels.plan_s", "s", 0.0), ("cpd.cpals_s", "s", 0.0),
       ("cpd.fit_s", "s", 0.0), ("cpd.fit_span_s", "s", 0.0),
       ("cpd.dense_s", "s", 0.0), ("cpd.mttkrp_share", "ratio", 0.0)]
    + [(f"parallel.mttkrp_ms.{f}", "ms", 0.0) for f in ("hicoo", "alto")]
    + [(f"parallel.speedup.{f}", "x", 0.0) for f in ("hicoo", "alto")]
    + [("parallel.load_imbalance", "ratio", 0.0),
       ("parallel.retries", "count", 0),
       ("serve.wire_ms", "ms", 0.0), ("serve.queue_wait_ms_p50", "ms", 0.0),
       ("serve.queue_wait_ms_p99", "ms", 0.0),
       ("serve.send_wait_ms", "ms", 0.0), ("serve.lat_p99_ms", "ms", 0.0)]
    + [(f"serve.run_ms.{op}", "ms", 0.0) for op in ("mttkrp", "cp_als",
                                                     "ttm")]
    + [("serve.batch_size_mean", "count", 0.0),
       ("serve.backlog_end", "count", 0),
       ("serve.register_ms", "ms", 0.0),
       ("serve.plan_hit_ratio", "ratio", 1.0),
       ("serve.view_hit_ratio", "ratio", 1.0)]
    + [(f"self_s.{layer}", "s", 0.0) for layer in common.LAYERS]
    + [("coverage.cpals", "ratio", 0.0), ("coverage.serve", "ratio", 0.0),
       ("trace.overhead_pct", "%", 0.0),
       ("debris.threads", "count", 0), ("debris.shm_segments", "count", 0)]
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input size factor (the self-test runs at smoke "
                         "size; results are comparable only at 1.0)")
    return ap.parse_args(argv)


def metrics_block(result: dict, traced: bool) -> dict:
    """The ``metrics`` object: every end-to-end or every per-layer metric,
    each with its unit."""
    if not traced:
        return {name: {"value": result["e2e"][name][0], "unit": unit}
                for name, unit in END_TO_END}
    layers = result["layers"]
    not_measured = result.get("not_measured", ())
    out = {}
    for name, unit, idle in PER_LAYER:
        value = layers.get(name, idle)
        if any(name.startswith(p) for p in not_measured):
            value = None
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}; run from "
              f"the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401 — fail here, not mid-workload

    if Path(repro.__file__).resolve().parents[2] != ROOT:
        print(f"error: imported repro from {repro.__file__}, not from this "
              f"checkout", file=sys.stderr)
        return 2

    if args.workload.startswith("cpals"):
        import cpals as workload
    else:
        import serve as workload
    workdir = str(ROOT / ".perfbench_work" / str(os.getpid()))
    host = common.host_record(ROOT, workload.config(args.workload))
    try:
        result = workload.run(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.scale, workdir)
    finally:
        # on every path out: no process of this run outlives it
        killed = common.stop_children()
    result["report"]["killed_children"] = killed
    if args.workload == "cpals-par" and host["nproc"] < 2:
        # a 2-worker speedup timed on fewer cores is not a result
        result["not_measured"] = ("parallel.",)
    try:
        os.rmdir(ROOT / ".perfbench_work")
    except OSError:
        pass

    print("# host " + json.dumps(host, sort_keys=True))
    print("# detail " + json.dumps(result["report"], sort_keys=True,
                                   default=str))
    if result["failed"]:
        print(f"# FAILED {result['failed']} of {result['attempted']} "
              f"operations", file=sys.stderr)
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics_block(result, bool(args.trace))}))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
