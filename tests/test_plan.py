"""Tests for precomputed parallel MTTKRP plans."""

import numpy as np
import pytest

from repro.core.hicoo import HicooTensor
from repro.cpd.cp_als import cp_als
from repro.formats import as_format
from repro.formats.dense import DenseTensor
from repro.kernels.mttkrp import mttkrp_parallel
from repro.kernels.plan import plan_mttkrp


@pytest.fixture
def hic(small3d):
    return HicooTensor(small3d, block_bits=2)


class TestPlanConstruction:
    def test_covers_all_modes(self, hic):
        plan = plan_mttkrp(hic, rank=4, nthreads=3)
        assert len(plan.modes) == 3
        for mode, mp in enumerate(plan.modes):
            assert mp.mode == mode
            assert mp.strategy in ("schedule", "privatize")
            assert mp.thread_nnz.sum() == hic.nnz

    def test_forced_strategy(self, hic):
        for strat in ("schedule", "privatize"):
            plan = plan_mttkrp(hic, rank=4, nthreads=3, strategy=strat)
            assert all(mp.strategy == strat for mp in plan.modes)

    def test_schedule_plans_carry_schedules(self, hic):
        plan = plan_mttkrp(hic, rank=4, nthreads=3, strategy="schedule")
        for mp in plan.modes:
            assert mp.schedule is not None
            assert len(mp.thread_blocks) == 3
            mp.schedule.verify(plan.superblocks)

    @pytest.mark.parametrize("fmt,strategies", [
        ("coo", ("auto", "privatize", "atomic")),
        ("csf", ("auto", "subtree", "privatize")),
        ("hicoo", ("auto", "schedule", "privatize")),
        ("alto", ("auto", "schedule", "privatize")),
    ])
    def test_every_format_plans(self, small3d, factors3d, fmt, strategies):
        tensor = as_format(small3d, fmt)
        for strategy in strategies:
            plan = plan_mttkrp(tensor, rank=6, nthreads=3, strategy=strategy)
            gathers = plan.ensure_gathers(tensor)
            assert sum(tg.nnz for tg in gathers) == 3 * tensor.nnz
            for mode, mp in enumerate(plan.modes):
                assert mp.nthreads == 3
                assert mp.thread_nnz.sum() == tensor.nnz
                ref = small3d.mttkrp(factors3d, mode)
                run = mttkrp_parallel(tensor, factors3d, mode, 3, plan=plan)
                np.testing.assert_allclose(run.output, ref, atol=1e-10)
                assert run.strategy == mp.strategy

    def test_validation(self, hic, small3d):
        with pytest.raises(TypeError, match="no parallel MTTKRP"):
            plan_mttkrp(DenseTensor(small3d.to_dense()), rank=4, nthreads=2)
        with pytest.raises(ValueError, match="COO supports"):
            plan_mttkrp(small3d, rank=4, nthreads=2, strategy="schedule")
        with pytest.raises(ValueError):
            plan_mttkrp(hic, rank=0, nthreads=2)
        with pytest.raises(ValueError):
            plan_mttkrp(hic, rank=2, nthreads=0)
        with pytest.raises(ValueError):
            plan_mttkrp(hic, rank=2, nthreads=2, strategy="nope")


class TestPlannedExecution:
    @pytest.mark.parametrize("strategy", ["auto", "schedule", "privatize"])
    def test_matches_unplanned(self, hic, small3d, factors3d, strategy):
        plan = plan_mttkrp(hic, rank=6, nthreads=4, strategy=strategy)
        for mode in range(3):
            ref = small3d.mttkrp(factors3d, mode)
            run = mttkrp_parallel(hic, factors3d, mode, 4, plan=plan)
            np.testing.assert_allclose(run.output, ref, atol=1e-10)
            assert run.strategy == plan.for_mode(mode).strategy

    def test_plan_reusable_across_calls(self, hic, factors3d):
        plan = plan_mttkrp(hic, rank=6, nthreads=2)
        a = mttkrp_parallel(hic, factors3d, 0, 2, plan=plan).output
        b = mttkrp_parallel(hic, factors3d, 0, 2, plan=plan).output
        np.testing.assert_allclose(a, b)

    def test_cp_als_with_plan_matches_without(self, hic, small3d, rng):
        init = [rng.random((s, 3)) for s in small3d.shape]
        # nthreads>1 on a HiCOO tensor now goes through the plan path
        planned = cp_als(hic, 3, maxiters=3, tol=0.0, init=init, nthreads=4)
        serial = cp_als(hic, 3, maxiters=3, tol=0.0, init=init, nthreads=1)
        np.testing.assert_allclose(planned.fits, serial.fits, atol=1e-10)

    @pytest.mark.parametrize("fmt", ["coo", "csf", "alto"])
    def test_cp_als_takes_a_plan_of_any_format(self, small3d, rng, fmt):
        tensor = as_format(small3d, fmt)
        init = [rng.random((s, 3)) for s in small3d.shape]
        plan = plan_mttkrp(tensor, rank=3, nthreads=3)
        planned = cp_als(tensor, 3, maxiters=3, tol=0.0, init=init,
                         plan=plan)
        serial = cp_als(tensor, 3, maxiters=3, tol=0.0, init=init)
        np.testing.assert_allclose(planned.fits, serial.fits, atol=1e-10)
