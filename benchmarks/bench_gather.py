"""Scatter-add micro-benchmark: one flat bincount vs a per-column loop vs
``np.add.at``.

Quantifies the ``"bincount"`` rung of
:func:`repro.kernels.gather.scatter_add`: a 2-D ``(n, R)`` update is
flattened onto bins ``row * R + column`` so one ``np.bincount`` pass covers
every column.  The per-column loop it replaced makes R passes over the
updates (each reading a strided column) and R passes over the output;
``np.add.at`` is NumPy's slowest scatter primitive (a buffered inner
loop).  All three sum every bin in input order, so the results are
bitwise equal.

``bench_scatter`` returns the records and ``flat_speedups`` the per-column /
flat time ratios that ``check_regression.py`` holds to a floor.  Run as a
test (``pytest benchmarks/bench_gather.py``) it also emits a table plus
machine-readable ``BENCH_gather.json``.
"""

import numpy as np

from repro.analysis.report import render_table
from repro.kernels.gather import _bincount_rows, scatter_add

from conftest import RANK, best_time, write_bench_json, write_result

#: (label, number of updates, output rows)
SCENARIOS = [
    ("small", 1_000, 500),
    ("medium", 50_000, 5_000),
    ("large", 200_000, 20_000),
    ("sparse-out", 20_000, 1_000_000),
]

#: the variants timed per scenario, in table order
VARIANTS = ("add_at", "per_column", "flat", "auto")


def _bench_one(n, rows, rank, rng, repeat):
    idx = rng.integers(0, rows, size=n)
    acc = rng.normal(size=(n, rank))

    def run_add_at():
        np.add.at(np.zeros((rows, rank)), idx, acc)

    def run_per_column():
        out = np.zeros((rows, rank))
        for r in range(rank):
            out[:, r] += np.bincount(idx, weights=acc[:, r], minlength=rows)

    def run_flat():
        out = np.zeros((rows, rank))
        out += _bincount_rows(idx, acc, rows)

    def run_auto():
        scatter_add(np.zeros((rows, rank)), idx, acc)

    runs = {"add_at": run_add_at, "per_column": run_per_column,
            "flat": run_flat, "auto": run_auto}
    return {name: best_time(runs[name], repeat=repeat) for name in VARIANTS}


def bench_scatter(repeat: int = 3, rank: int = RANK):
    """Time every variant on every scenario; one record per cell."""
    rng = np.random.default_rng(0)
    records = []
    for label, n, rows in SCENARIOS:
        for variant, t in _bench_one(n, rows, rank, rng, repeat).items():
            records.append({
                "op": "scatter_add", "format": "dense-out",
                "strategy": variant, "dataset": label, "variant": variant,
                "n_updates": n, "rows": rows, "rank": rank,
                "time_s": t,
            })
    return records


def flat_speedups(records):
    """Per-column-loop time over flat-bincount time, per scenario."""
    times = {(r["dataset"], r["variant"]): r["time_s"] for r in records}
    return {label: times[(label, "per_column")] / times[(label, "flat")]
            for label, _, _ in SCENARIOS}


def test_scatter_backend_microbench():
    records = bench_scatter()
    times = {}
    for r in records:
        times.setdefault(r["dataset"], {})[r["variant"]] = r["time_s"]
    rows_out = []
    for label, n, rows in SCENARIOS:
        cell = times[label]
        rows_out.append({"scenario": label, "n": n, "rows": rows, **{
            k: f"{cell[k] * 1e3:.2f}ms" for k in VARIANTS}})
        # the auto backend must never lose badly to the best hand-picked one
        best_fixed = min(cell[k] for k in VARIANTS if k != "auto")
        assert cell["auto"] <= 5 * best_fixed + 1e-4
    text = render_table(
        rows_out,
        ["scenario", "n", "rows", *VARIANTS],
        title=f"scatter_add variants, best-of-3 (R={RANK})",
        widths={"scenario": 11},
    )
    write_result("BENCH_gather.txt", text)
    write_bench_json(records, filename="BENCH_gather.json")
