"""Tests for the model-driven tuner and streaming HiCOO construction."""

import numpy as np
import pytest

from repro.core.hicoo import HicooTensor
from repro.core.streaming import hicoo_from_chunks, read_tns_chunks, stream_tns
from repro.core.tuner import tune
from repro.data.frostt import write_tns
from repro.data.synthetic import clustered_tensor
from repro.parallel.machine import Machine

MACHINE = Machine()


class TestTuner:
    def test_best_is_min_score(self, small3d):
        out = tune(small3d, rank=4, machine=MACHINE, nthreads=4)
        board = out["scoreboard"]
        assert out["best"] is board[0]
        assert all(board[0].score <= c.score for c in board)

    def test_candidates_respected(self, small3d):
        out = tune(small3d, rank=4, machine=MACHINE,
                   block_candidates=[3, 4], superblock_offsets=[1])
        assert {c.block_bits for c in out["scoreboard"]} == {3, 4}
        assert all(c.superblock_bits == c.block_bits + 1
                   for c in out["scoreboard"])

    def test_strategies_per_mode(self, small3d):
        out = tune(small3d, rank=4, machine=MACHINE, nthreads=4)
        assert all(len(c.strategies) == 3 for c in out["scoreboard"])
        assert all(s in ("schedule", "privatize")
                   for c in out["scoreboard"] for s in c.strategies)

    def test_storage_weight_shifts_choice(self):
        """With a huge storage weight, the tuner picks the smallest-bytes
        configuration."""
        coo = clustered_tensor((512, 512, 512), 3000, nclusters=16,
                               spread=3.0, seed=0)
        fast = tune(coo, 8, MACHINE, storage_weight=0.0)
        small = tune(coo, 8, MACHINE, storage_weight=1e9)
        min_bytes = min(c.total_bytes for c in small["scoreboard"])
        assert small["best"].total_bytes == min_bytes
        assert fast["best"].predicted_seconds <= small["best"].predicted_seconds + 1e-12

    def test_validation(self, small3d):
        with pytest.raises(ValueError):
            tune(small3d, 0, MACHINE)
        with pytest.raises(ValueError):
            tune(small3d, 2, MACHINE, nthreads=0)
        with pytest.raises(ValueError):
            tune(small3d, 2, MACHINE, storage_weight=-1)


class TestStreaming:
    def _chunks_of(self, coo, size):
        for lo in range(0, coo.nnz, size):
            yield coo.indices[lo:lo + size], coo.values[lo:lo + size]

    def test_matches_inmemory_construction(self, small3d):
        streamed = hicoo_from_chunks(self._chunks_of(small3d, 37),
                                     block_bits=3, shape=small3d.shape)
        direct = HicooTensor(small3d, block_bits=3)
        np.testing.assert_array_equal(streamed.bptr, direct.bptr)
        np.testing.assert_array_equal(streamed.binds, direct.binds)
        np.testing.assert_array_equal(streamed.einds, direct.einds)
        np.testing.assert_allclose(streamed.values, direct.values)

    @pytest.mark.parametrize("chunk", [1, 7, 10_000])
    def test_chunk_size_irrelevant(self, small3d, chunk):
        streamed = hicoo_from_chunks(self._chunks_of(small3d, chunk),
                                     block_bits=2, shape=small3d.shape)
        back = streamed.to_coo().sort_lexicographic()
        orig = small3d.sort_lexicographic()
        assert np.array_equal(back.indices, orig.indices)
        np.testing.assert_allclose(back.values, orig.values)

    def test_duplicates_across_chunks_summed(self):
        a = (np.array([[1, 2], [3, 4]]), np.array([1.0, 2.0]))
        b = (np.array([[1, 2]]), np.array([10.0]))
        hic = hicoo_from_chunks([a, b], block_bits=2, shape=(8, 8))
        coo = hic.to_coo()
        assert coo.nnz == 2
        dense = coo.to_dense()
        assert dense[1, 2] == 11.0

    def test_shape_inferred(self):
        chunk = (np.array([[5, 9]]), np.array([1.0]))
        hic = hicoo_from_chunks([chunk], block_bits=2)
        assert hic.shape == (6, 10)

    def test_shape_violation_rejected(self):
        chunk = (np.array([[5, 9]]), np.array([1.0]))
        with pytest.raises(ValueError, match="out of declared shape"):
            hicoo_from_chunks([chunk], block_bits=2, shape=(6, 6))

    def test_empty_no_shape_rejected(self):
        with pytest.raises(ValueError, match="no chunks"):
            hicoo_from_chunks([], block_bits=2)

    def test_empty_with_shape(self):
        hic = hicoo_from_chunks([], block_bits=2, shape=(4, 4))
        assert hic.nnz == 0

    def test_ragged_chunk_rejected(self):
        good = (np.array([[1, 2]]), np.array([1.0]))
        bad = (np.array([[1, 2, 3]]), np.array([1.0]))
        with pytest.raises(ValueError, match="modes"):
            hicoo_from_chunks([good, bad], block_bits=2)

    def test_stream_tns_end_to_end(self, small3d, tmp_path):
        path = tmp_path / "s.tns"
        write_tns(small3d, path)
        hic = stream_tns(path, block_bits=3, chunk_nnz=50)
        # shapes may differ (stream infers from max index); compare content
        a = hic.to_coo().sort_lexicographic()
        b = small3d.sort_lexicographic()
        assert np.array_equal(a.indices, b.indices)
        np.testing.assert_allclose(a.values, b.values)

    def test_read_tns_chunks_validation(self, tmp_path):
        path = tmp_path / "bad.tns"
        path.write_text("1 1 2.0\n1 1 1 2.0\n")
        with pytest.raises(ValueError, match="fields"):
            list(read_tns_chunks(path))
        with pytest.raises(ValueError):
            list(read_tns_chunks(path, chunk_nnz=0))

    def test_read_tns_chunks_errors_name_the_file_line(self, tmp_path):
        path = tmp_path / "late.tns"
        path.write_text("# header\n1 1 1.0\n2 2 2.0\n3 3 3.0\n4 x 4.0\n")
        with pytest.raises(ValueError, match="line 5: non-numeric"):
            list(read_tns_chunks(path, chunk_nnz=2))

    def test_mttkrp_on_streamed(self, small3d, rng):
        streamed = hicoo_from_chunks(self._chunks_of(small3d, 64),
                                     block_bits=3, shape=small3d.shape)
        factors = [rng.random((s, 3)) for s in small3d.shape]
        np.testing.assert_allclose(streamed.mttkrp(factors, 1),
                                   small3d.mttkrp(factors, 1), atol=1e-10)
