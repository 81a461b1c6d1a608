"""Tests for the gather/scatter kernel layer (repro.kernels.gather)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hicoo import HicooTensor
from repro.kernels.gather import (SCATTER_SMALL_N, build_task_gather,
                                  coalesce_runs, mttkrp_gather_chunk,
                                  runs_from_block_ids, scatter_add,
                                  scatter_add_sequential)
from tests.conftest import make_random_coo


def _reference_scatter(rows, idx, acc):
    out = (np.zeros(rows) if acc.ndim == 1
           else np.zeros((rows, acc.shape[1])))
    np.add.at(out, idx, acc)
    return out


class TestScatterAdd:
    @pytest.mark.parametrize("n,rows", [(10, 8), (500, 40), (500, 100_000),
                                        (2000, 2000)])
    @pytest.mark.parametrize("rank", [1, 7])
    @pytest.mark.parametrize("sort", [False, True])
    def test_matches_add_at(self, n, rows, rank, sort):
        rng = np.random.default_rng(n + rows + rank + sort)
        idx = rng.integers(0, rows, size=n)
        if sort:
            idx = np.sort(idx)
        acc = rng.normal(size=(n, rank)) if rank > 1 else rng.normal(size=n)
        out = np.zeros((rows, rank)) if rank > 1 else np.zeros(rows)
        backend = scatter_add(out, idx, acc)
        np.testing.assert_allclose(out, _reference_scatter(rows, idx, acc),
                                   atol=1e-12)
        assert backend in ("add_at", "bincount", "compact")

    def test_backend_selection(self):
        rng = np.random.default_rng(0)
        # tiny input -> add_at
        out = np.zeros((10, 2))
        idx = rng.integers(0, 10, size=SCATTER_SMALL_N)
        assert scatter_add(out, idx, rng.normal(size=(len(idx), 2))) == "add_at"
        # sorted input -> the same one-pass bincount as unsorted input
        out = np.zeros((50, 2))
        idx = np.sort(rng.integers(0, 50, size=400))
        assert scatter_add(out, idx, rng.normal(size=(400, 2))) == "bincount"
        # unsorted, comparable output size -> bincount
        out = np.zeros((50, 2))
        idx = rng.permutation(np.repeat(np.arange(50), 8))
        assert scatter_add(out, idx, rng.normal(size=(400, 2))) == "bincount"
        # unsorted, output far larger than update count -> compact
        out = np.zeros((100_000, 2))
        idx = rng.integers(0, 100_000, size=400)
        idx[::2] = idx[::-2]  # scramble so it is not sorted
        assert scatter_add(out, idx, rng.normal(size=(400, 2))) \
            == "compact"

    def test_row_local_avoids_bincount(self):
        rng = np.random.default_rng(1)
        out = np.zeros((50, 2))
        idx = rng.permutation(np.repeat(np.arange(50), 8))
        acc = rng.normal(size=(400, 2))
        backend = scatter_add(out, idx, acc, row_local=True)
        assert backend == "compact"
        np.testing.assert_allclose(out, _reference_scatter(50, idx, acc),
                                   atol=1e-12)

    def test_explicit_presorted_flag(self):
        rng = np.random.default_rng(2)
        idx = np.sort(rng.integers(0, 30, size=300))
        acc = rng.normal(size=(300, 3))
        out = np.zeros((30, 3))
        assert scatter_add(out, idx, acc, presorted=True) == "bincount"
        np.testing.assert_allclose(out, _reference_scatter(30, idx, acc),
                                   atol=1e-12)
        # the flag lets the row-local rung find its rows without a sort
        out = np.zeros((30, 3))
        assert scatter_add(out, idx, acc, presorted=True,
                           row_local=True) == "compact"
        np.testing.assert_allclose(out, _reference_scatter(30, idx, acc),
                                   atol=1e-12)

    def test_empty_and_int_accumulators(self):
        out = np.zeros((5, 2))
        assert scatter_add(out, np.empty(0, dtype=np.int64),
                           np.empty((0, 2))) == "noop"
        # int64 accumulators survive the reduceat path exactly
        up = np.zeros(4, dtype=np.int64)
        idx = np.sort(np.random.default_rng(3).integers(0, 4, size=200))
        counts = np.ones(200, dtype=np.int64)
        scatter_add(up, idx, counts, presorted=True)
        assert up.sum() == 200


@st.composite
def _scatter_case(draw):
    """A float64 scatter: few or many distinct rows (long or short runs per
    row), sorted or not, 1-D or 2-D, into a dense or a sparse output."""
    n = draw(st.integers(0, 1500))
    sparse_out = draw(st.booleans())
    rows = (draw(st.integers(8 * n + 1, 8 * n + 5000)) if sparse_out
            else draw(st.integers(1, max(1, n // 2))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.choice(rows, size=min(rows, draw(st.integers(1, 64))),
                      replace=False)
    idx = pool[rng.integers(0, len(pool), size=n)]
    presorted = draw(st.booleans())
    if presorted:
        idx = np.sort(idx)
    rank = draw(st.sampled_from([0, 1, 3, 16]))  # 0 -> 1-D
    size = (n,) if rank == 0 else (n, rank)
    # magnitudes spread over 16 decades make any reordering show in the bits
    acc = rng.normal(size=size) * 10.0 ** rng.integers(-8, 8, size=size)
    return rows, idx, acc, presorted


@given(_scatter_case())
@settings(max_examples=80, deadline=None)
def test_scatters_are_bitwise_add_at(case):
    rows, idx, acc, presorted = case
    ref = _reference_scatter(rows, idx, acc)
    runs = [lambda out: scatter_add(out, idx, acc),
            lambda out: scatter_add(out, idx, acc, presorted=presorted),
            lambda out: scatter_add(out, idx, acc, presorted=presorted,
                                    row_local=True),
            lambda out: scatter_add_sequential(out, idx, acc)]
    for run in runs:
        out = np.zeros_like(ref)
        backend = run(out)
        np.testing.assert_array_equal(out.view(np.uint64),
                                      ref.view(np.uint64), err_msg=backend)


class TestRunCoalescing:
    def test_coalesce_runs(self):
        assert coalesce_runs([(0, 3), (3, 5), (7, 9)]) == [(0, 5), (7, 9)]
        assert coalesce_runs([(2, 2), (4, 3)]) == []
        assert coalesce_runs([]) == []

    def test_runs_from_block_ids(self):
        assert runs_from_block_ids([0, 1, 2, 5, 6, 9]) == [(0, 3), (5, 7),
                                                           (9, 10)]
        assert runs_from_block_ids([]) == []
        assert runs_from_block_ids([4]) == [(4, 5)]


class TestTaskGather:
    @pytest.fixture
    def hic(self):
        return HicooTensor(make_random_coo((40, 30, 20), 500, seed=3),
                           block_bits=3)

    def test_full_tensor_matches_global_indices(self, hic):
        tg = build_task_gather(hic, [(0, hic.nblocks)])
        blk = np.repeat(np.arange(hic.nblocks), np.diff(hic.bptr))
        expect = (hic.binds[blk].astype(np.int64) << hic.block_bits) \
            + hic.einds.astype(np.int64)
        np.testing.assert_array_equal(tg.ginds, expect)
        np.testing.assert_array_equal(tg.values, hic.values)
        assert tg.nnz == hic.nnz
        assert tg.ginds.dtype == np.int64

    def test_sorted_modes_flags_are_true_claims(self, hic):
        tg = build_task_gather(hic, [(0, hic.nblocks)])
        for m in range(3):
            is_sorted = bool(np.all(np.diff(tg.ginds[:, m]) >= 0))
            assert bool(tg.sorted_modes[m]) == is_sorted

    def test_memoization(self, hic):
        a = hic.task_gather([0, 1, 2])
        b = hic.task_gather([(0, 3)])  # runs form of the same blocks
        assert a is b
        assert hic.gather_cache_bytes() > 0
        hic.clear_gather_cache()
        assert hic.gather_cache_bytes() == 0
        c = hic.task_gather([(0, 3)])
        assert c is not a
        np.testing.assert_array_equal(c.ginds, a.ginds)

    def test_partial_runs_concatenate(self, hic):
        full = hic.task_gather([(0, hic.nblocks)])
        mid = hic.nblocks // 2
        split = build_task_gather(hic, [(0, mid), (mid, hic.nblocks)])
        np.testing.assert_array_equal(split.ginds, full.ginds)

    def test_gather_chunk_matches_blocked_kernel(self, hic):
        rng = np.random.default_rng(5)
        factors = [rng.normal(size=(s, 6)) for s in hic.shape]
        for mode in range(3):
            ref = hic.mttkrp(factors, mode, kernel="blocked")
            out = np.zeros_like(ref)
            tg = hic.task_gather([(0, hic.nblocks)])
            backend = mttkrp_gather_chunk(tg, factors, mode, out)
            assert backend != "noop"
            np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_empty_task(self, hic):
        tg = hic.task_gather([])
        assert tg.nnz == 0
        out = np.zeros((hic.shape[0], 4))
        factors = [np.ones((s, 4)) for s in hic.shape]
        assert mttkrp_gather_chunk(tg, factors, 0, out) == "noop"
        assert not out.any()
