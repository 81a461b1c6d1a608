"""Tests for the CP-ALS solver."""

import numpy as np
import pytest

from repro.core.hicoo import HicooTensor
from repro.cpd.cp_als import cp_als
from repro.cpd.init import hosvd_init, initialize, random_init
from repro.cpd.ktensor import KruskalTensor
from repro.formats.coo import CooTensor
from repro.formats.csf import CsfTensor
from repro.data.synthetic import lowrank_tensor


class TestRecovery:
    def test_planted_dense_tensor(self):
        rng = np.random.default_rng(0)
        true = KruskalTensor(np.ones(3), [rng.random((s, 3)) for s in (20, 15, 10)])
        coo = CooTensor.from_dense(true.full())
        res = cp_als(coo, 3, maxiters=80, tol=1e-10, seed=1)
        assert res.final_fit > 0.95

    def test_planted_mostly_dense_sample(self):
        # sampling 80% of the cells keeps the tensor approximately low-rank
        # (a sparse sample of a low-rank tensor is NOT low-rank in general,
        # since the implicit zeros are real zeros)
        coo = lowrank_tensor((15, 12, 10), 1440, rank=2, seed=2)
        res = cp_als(coo, 4, maxiters=60, seed=3)
        assert res.final_fit > 0.6

    def test_fit_monotone(self):
        coo = lowrank_tensor((30, 30, 30), 1500, rank=3, seed=4)
        res = cp_als(coo, 3, maxiters=30, tol=0.0, seed=5)
        diffs = np.diff(res.fits)
        assert np.all(diffs > -1e-8), res.fits

    def test_convergence_flag(self):
        coo = lowrank_tensor((20, 20, 20), 800, rank=2, seed=6)
        res = cp_als(coo, 2, maxiters=200, tol=1e-4, seed=7)
        assert res.converged
        assert res.iterations < 200


class TestFormatAgreement:
    def test_identical_iterates_across_formats(self, small3d, rng):
        init = [rng.random((s, 3)) for s in small3d.shape]
        runs = [
            cp_als(t, 3, maxiters=4, tol=0.0, init=init)
            for t in (small3d, CsfTensor(small3d),
                      HicooTensor(small3d, block_bits=3))
        ]
        for other in runs[1:]:
            np.testing.assert_allclose(runs[0].fits, other.fits, atol=1e-10)

    def test_parallel_matches_sequential(self, small3d, rng):
        init = [rng.random((s, 3)) for s in small3d.shape]
        hic = HicooTensor(small3d, block_bits=2)
        seq = cp_als(hic, 3, maxiters=3, tol=0.0, init=init)
        par = cp_als(hic, 3, maxiters=3, tol=0.0, init=init, nthreads=4)
        np.testing.assert_allclose(seq.fits, par.fits, atol=1e-10)

    def test_4d(self, small4d, rng):
        init = [rng.random((s, 2)) for s in small4d.shape]
        a = cp_als(small4d, 2, maxiters=3, tol=0.0, init=init)
        b = cp_als(HicooTensor(small4d, block_bits=2), 2, maxiters=3,
                   tol=0.0, init=init)
        np.testing.assert_allclose(a.fits, b.fits, atol=1e-10)


class TestFitFromMttkrp:
    """The solver takes each iteration's fit from the last MTTKRP; the
    sparse inner product of :meth:`KruskalTensor.fit` is the oracle."""

    @pytest.mark.parametrize("fmt", ["coo", "csf", "hicoo", "alto"])
    def test_every_iteration_matches_sparse_oracle(self, small3d, rng, fmt):
        from repro.formats import as_format

        tensor = as_format(small3d, fmt)
        init = [rng.random((s, 3)) for s in small3d.shape]
        full = cp_als(tensor, 3, maxiters=4, tol=0.0, init=init)
        for k in range(1, 5):
            # a k-iteration run ends on the model behind full.fits[k - 1]
            model = cp_als(tensor, 3, maxiters=k, tol=0.0, init=init).ktensor
            oracle = model.fit(small3d)
            assert full.fits[k - 1] == pytest.approx(oracle, rel=1e-10)

    def test_empty_tensor(self, rng):
        empty = CooTensor.empty((4, 5, 6))
        init = [rng.random((s, 2)) for s in empty.shape]
        res = cp_als(empty, 2, maxiters=2, tol=0.0, init=init)
        oracle = res.ktensor.fit(empty)
        assert res.fits == [oracle, oracle]


class TestInterface:
    def test_bad_rank(self, small3d):
        with pytest.raises(ValueError):
            cp_als(small3d, 0)

    def test_bad_maxiters(self, small3d):
        with pytest.raises(ValueError):
            cp_als(small3d, 2, maxiters=0)

    def test_bad_init_rank(self, small3d, rng):
        init = [rng.random((s, 5)) for s in small3d.shape]
        with pytest.raises(ValueError, match="rank"):
            cp_als(small3d, 3, init=init)

    def test_callback_invoked(self, small3d):
        calls = []
        cp_als(small3d, 2, maxiters=3, tol=0.0, seed=0,
               callback=lambda it, fit: calls.append((it, fit)))
        assert [c[0] for c in calls] == [0, 1, 2]

    def test_timers_populated(self, small3d):
        res = cp_als(small3d, 2, maxiters=2, tol=0.0, seed=0)
        assert res.mttkrp_seconds > 0
        assert res.total_seconds >= res.mttkrp_seconds
        assert res.seconds_per_iteration() > 0

    def test_result_is_arranged(self, small3d):
        res = cp_als(small3d, 3, maxiters=3, tol=0.0, seed=0)
        w = np.abs(res.ktensor.weights)
        assert np.all(np.diff(w) <= 1e-12)

    def test_seed_reproducibility(self, small3d):
        a = cp_als(small3d, 2, maxiters=3, tol=0.0, seed=42)
        b = cp_als(small3d, 2, maxiters=3, tol=0.0, seed=42)
        np.testing.assert_allclose(a.fits, b.fits)


class TestInit:
    def test_random_shapes(self):
        fs = random_init((3, 4, 5), 2, np.random.default_rng(0))
        assert [f.shape for f in fs] == [(3, 2), (4, 2), (5, 2)]

    def test_random_bad_rank(self):
        with pytest.raises(ValueError):
            random_init((3,), 0)

    def test_hosvd_shapes(self, small3d):
        fs = hosvd_init(small3d, 4, np.random.default_rng(0))
        assert [f.shape for f in fs] == [(s, 4) for s in small3d.shape]

    def test_hosvd_helps_convergence(self):
        coo = lowrank_tensor((40, 40, 40), 4000, rank=3, seed=8)
        rand = cp_als(coo, 3, maxiters=5, tol=0.0, init="random", seed=9)
        hosvd = cp_als(coo, 3, maxiters=5, tol=0.0, init="hosvd", seed=9)
        # HOSVD should be at least competitive after few iterations
        assert hosvd.final_fit > rand.final_fit - 0.05

    def test_dispatch(self, small3d):
        assert len(initialize(small3d, 2, "random")) == 3
        with pytest.raises(ValueError, match="unknown init"):
            initialize(small3d, 2, "bogus")
