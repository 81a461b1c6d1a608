"""Unit tests for the compiled kernel tier and its dispatch plumbing.

These run on every host: the registry, the silent-fallback contract, the
scatter crossover policy, and — crucially — the *interpreted twins* of the
jitted/device kernels.  The numba decorators wrap plain Python functions,
so the exact loop nests CI's jit-smoke job compiles are verified
interpreted here, and the cupy tier's segmented-reduction algorithm is
array-module generic and tested with ``xp=numpy``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hicoo import HicooTensor
from repro.cpd.cp_als import cp_als
from repro.formats.coo import CooTensor
from repro.kernels import backends, compiled
from repro.kernels.gather import (SCATTER_COMPILED_MIN_N, SCATTER_SMALL_N,
                                  choose_scatter_backend, scatter_add)
from repro.kernels.mttkrp import mttkrp
from repro.kernels.plan import plan_mttkrp
from repro.obs import metrics
from repro.parallel.executor import BACKENDS, resolve_backend, run_tasks
from repro.tools.cli import main as cli_main


def _tensor(seed=0, shape=(18, 14, 21), nnz=260, block_bits=3):
    rng = np.random.default_rng(seed)
    flat = rng.choice(int(np.prod(shape)), size=nnz, replace=False)
    inds = np.stack(np.unravel_index(flat, shape), axis=1)
    vals = rng.random(nnz) + 0.5
    coo = CooTensor(shape, inds, vals, sum_duplicates=False)
    return coo, HicooTensor(coo, block_bits=block_bits)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_registry_shape():
    tiers = backends.detect_tiers()
    assert set(tiers) == set(backends.KERNEL_TIERS)
    assert tiers["numpy"].available
    for name in ("numba", "cupy"):
        info = tiers[name]
        # either it runs here, or the reason is a human-readable sentence
        assert info.available or info.reason
    assert "numpy" in backends.available_tiers()


def test_resolve_kernel_backend():
    assert backends.resolve_kernel_backend(None) == "numpy"
    assert backends.resolve_kernel_backend("numpy") == "numpy"
    auto = backends.resolve_kernel_backend("auto")
    assert auto == ("numba" if backends.tier_available("numba") else "numpy")
    with pytest.raises(ValueError, match="unknown kernel backend"):
        backends.resolve_kernel_backend("tpu")


def test_unavailable_request_degrades_and_counts(monkeypatch):
    """Forcing a tier unavailable must fall back to numpy + count it."""
    fake = dict(backends.detect_tiers())
    fake["numba"] = backends.TierInfo("numba", False, "forced off (test)")
    monkeypatch.setattr(backends, "_CACHE", fake)
    metrics.reset()
    assert backends.resolve_kernel_backend("numba") == "numpy"
    assert metrics.value("kernel.fallbacks") == 1


def test_executor_accepts_compiled_backends():
    assert "numba" in BACKENDS and "cupy" in BACKENDS
    assert resolve_backend("numba") == "numba"
    report = run_tasks([lambda: 1, lambda: 2], backend="numba")
    assert report.values() == [1, 2]
    # without the dependency the region is recorded as the sim fallback
    expected = "numba" if backends.tier_available("numba") else "sim"
    assert report.backend == expected


# ----------------------------------------------------------------------
# scatter crossover: compiled tiers must never pay JIT/dispatch overhead
# on tiny scatters
# ----------------------------------------------------------------------
def test_scatter_crossover_policy():
    assert SCATTER_SMALL_N < SCATTER_COMPILED_MIN_N
    small, mid, big = SCATTER_SMALL_N, SCATTER_COMPILED_MIN_N - 1, \
        SCATTER_COMPILED_MIN_N
    # tiny inputs: add_at regardless of any compiled request
    assert choose_scatter_backend(small, 100, backend="numba",
                                  compiled_available=True) == "add_at"
    # mid-range: the NumPy ladder even when the tier is available
    assert choose_scatter_backend(mid, 100, backend="numba",
                                  compiled_available=True) == "bincount"
    assert choose_scatter_backend(mid, 100, row_local=True, backend="numba",
                                  compiled_available=True) == "compact"
    # at/above the crossover: the compiled tier (when available)...
    assert choose_scatter_backend(big, 100, backend="numba",
                                  compiled_available=True) == "numba"
    # ...and the NumPy ladder when it is not
    assert choose_scatter_backend(big, 100, backend="numba",
                                  compiled_available=False) == "bincount"
    # no request -> never compiled, no matter the size
    assert choose_scatter_backend(big, 100,
                                  compiled_available=True) == "bincount"
    # the GPU tier never serves host-array scatters
    assert choose_scatter_backend(big, 100, backend="cupy",
                                  compiled_available=True) == "bincount"
    assert choose_scatter_backend(0, 100, backend="numba",
                                  compiled_available=True) == "noop"


def test_scatter_add_with_backend_request_is_correct():
    """scatter_add(backend=...) must stay exact on every host."""
    rng = np.random.default_rng(3)
    n, rows, rank = SCATTER_COMPILED_MIN_N + 100, 64, 3
    idx = rng.integers(0, rows, size=n)
    acc = rng.random((n, rank))
    expect = np.zeros((rows, rank))
    np.add.at(expect, idx, acc)
    out = np.zeros((rows, rank))
    metrics.reset()
    used = scatter_add(out, idx, acc, backend="numba")
    assert np.allclose(out, expect, rtol=1e-12)
    expected_backend = ("numba" if backends.tier_available("numba")
                        else "bincount")
    assert used == expected_backend
    assert metrics.value("scatter." + used) == 1


def test_scatter_add_compiled_twin_matches_add_at():
    """The jitted scatter loop bodies, run interpreted, equal np.add.at."""
    rng = np.random.default_rng(4)
    idx = rng.integers(0, 20, size=500)
    acc2 = rng.random((500, 4))
    out = np.zeros((20, 4))
    compiled.scatter_add_compiled(out, idx, acc2)
    expect = np.zeros((20, 4))
    np.add.at(expect, idx, acc2)
    assert np.allclose(out, expect, rtol=1e-15)
    acc1 = rng.random(500)
    out1, expect1 = np.zeros(20), np.zeros(20)
    compiled.scatter_add_compiled(out1, idx, acc1)
    np.add.at(expect1, idx, acc1)
    assert np.allclose(out1, expect1, rtol=1e-15)


# ----------------------------------------------------------------------
# the kernel bodies (what numba compiles), interpreted
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy", ["schedule", "privatize"])
def test_fused_kernel_twin_matches_oracle(strategy):
    coo, hic = _tensor(seed=11)
    rng = np.random.default_rng(11)
    factors = [rng.random((s, 4)) + 0.1 for s in coo.shape]
    plan = plan_mttkrp(hic, 4, 3, strategy=strategy)
    for mode in range(coo.nmodes):
        oracle = mttkrp(hic, factors, mode)
        gathers = plan.ensure_gathers(hic, mode)
        fused = compiled.build_fused_tasks(gathers, strategy == "schedule")
        assert fused.nnz == coo.nnz
        assert len(fused.task_ptr) == len(gathers) + 1
        out = np.zeros_like(oracle)
        compiled.run_fused_mttkrp(fused, factors, mode, out)
        assert np.allclose(out, oracle, rtol=1e-12)
        # the serial kernel body must agree with the task-parallel one
        out_serial = np.zeros_like(oracle)
        compiled.run_fused_mttkrp(fused, factors, mode, out_serial,
                                  force_serial=True)
        assert np.allclose(out_serial, oracle, rtol=1e-12)


@pytest.mark.parametrize("fmt,strategy", [("coo", "privatize"),
                                          ("coo", "atomic"),
                                          ("csf", "subtree"),
                                          ("csf", "privatize")])
def test_fused_kernel_twin_runs_coo_and_csf_plans(fmt, strategy):
    """Every ``scatter="auto"`` lowering reaches the fused kernel, not
    just HiCOO's."""
    from repro.formats import as_format

    coo, _ = _tensor(seed=17)
    tensor = as_format(coo, fmt)
    rng = np.random.default_rng(17)
    factors = [rng.random((s, 4)) + 0.1 for s in coo.shape]
    plan = plan_mttkrp(tensor, 4, 3, strategy=strategy)
    for mode in range(coo.nmodes):
        out, _, _ = compiled.mttkrp_compiled(plan.for_mode(mode), factors,
                                             coo.shape[mode], "numba")
        assert np.allclose(out, mttkrp(coo, factors, mode), rtol=1e-12)


def test_segmented_mttkrp_numpy_twin_matches_oracle():
    """The cupy tier's algorithm, executed with xp=numpy."""
    coo, hic = _tensor(seed=12, shape=(25, 9, 13, 7), nnz=220)
    rng = np.random.default_rng(12)
    factors = [rng.random((s, 3)) + 0.1 for s in coo.shape]
    plan = plan_mttkrp(hic, 3, 2)
    for mode in range(coo.nmodes):
        oracle = mttkrp(hic, factors, mode)
        gathers = plan.ensure_gathers(hic, mode)
        fused = compiled.build_fused_tasks(gathers, True)
        out = np.zeros_like(oracle)
        compiled.segmented_mttkrp(np, fused.ginds, fused.values, factors,
                                  mode, out)
        assert np.allclose(out, oracle, rtol=1e-10)


def test_device_arena_uploads_once():
    coo, hic = _tensor(seed=13)
    rng = np.random.default_rng(13)
    factors = [rng.random((s, 4)) + 0.1 for s in coo.shape]
    plan = plan_mttkrp(hic, 4, 2)
    gathers = plan.ensure_gathers(hic, 0)
    fused = compiled.build_fused_tasks(gathers, True)
    arena = compiled.DeviceArena(xp=np)
    metrics.reset()
    oracle = mttkrp(hic, factors, 0)
    out1 = arena.run(0, fused, factors, coo.shape[0], 4)
    out2 = arena.run(0, fused, factors, coo.shape[0], 4)
    assert np.allclose(out1, oracle, rtol=1e-10)
    assert np.array_equal(out1, out2)
    assert metrics.value("compiled.upload_hits") == 1  # second call: cached
    assert metrics.value("compiled.upload_bytes") > 0
    assert arena.nbytes() > 0


def test_plan_caches_fused_state():
    coo, hic = _tensor(seed=14)
    rng = np.random.default_rng(14)
    factors = [rng.random((s, 4)) + 0.1 for s in coo.shape]
    plan = plan_mttkrp(hic, 4, 2)
    metrics.reset()
    rows = coo.shape[0]
    out1, _, _ = compiled.mttkrp_compiled(plan.for_mode(0), factors, rows,
                                          "numba")
    out2, _, _ = compiled.mttkrp_compiled(plan.for_mode(0), factors, rows,
                                          "numba")
    assert np.allclose(out1, out2, rtol=1e-15)
    assert metrics.value("compiled.fused_builds") == 1
    assert metrics.value("compiled.fused_hits") == 1
    assert metrics.value("scatter.numba") == 2
    assert plan.for_mode(0).compiled["fused"].nnz == coo.nnz


def test_warmup_is_noop_without_numba():
    if backends.tier_available("numba"):
        assert compiled.warmup_numba() >= 0.0
    else:
        assert compiled.warmup_numba() == 0.0


# ----------------------------------------------------------------------
# end-to-end: CP-ALS and the CLI under a compiled-tier request
# ----------------------------------------------------------------------
def test_cp_als_backend_numba_matches_default():
    coo, hic = _tensor(seed=15)
    base = cp_als(hic, 3, maxiters=5, seed=42)
    jit = cp_als(hic, 3, maxiters=5, seed=42, backend="numba")
    assert jit.iterations == base.iterations
    assert np.allclose(jit.fits, base.fits, rtol=1e-8)


def test_cli_info_reports_tiers(capsys):
    assert cli_main(["info"]) == 0
    out = capsys.readouterr().out
    assert "kernel tiers:" in out
    assert "numpy " in out and "numba " in out and "cupy " in out
    for name in ("numba", "cupy"):
        if not backends.tier_available(name):
            assert "unavailable" in out
    assert "execution backends:" in out


def test_cli_mttkrp_backend_numba(tmp_path):
    from repro.data.frostt import write_tns

    coo, _ = _tensor(seed=16)
    path = tmp_path / "t.tns"
    write_tns(coo, path)
    assert cli_main(["mttkrp", str(path), "-r", "4", "-t", "2",
                     "--backend", "numba"]) == 0
