"""Scheduler unit tests on crafted, hand-checkable scenarios.

The finish-time estimator is backed by a stub so every number in these
tests can be verified by hand against the algorithms in Section IV.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.common import Placement
from repro.core.bandwidth_splitting import (
    SizeIntervalSplittingScheduler,
    compute_size_bounds,
)
from repro.core.base import SystemState
from repro.core.estimators import FinishTimeEstimator
from repro.core.greedy import GreedyScheduler
from repro.core.ic_only import ICOnlyScheduler
from repro.core.order_preserving import OrderPreservingScheduler
from repro.core.chunking import ChunkPolicy
from repro.models.qrsm import QuadraticResponseSurface
from repro.workload.generator import WorkloadGenerator
from repro.workload.processing import GroundTruthProcessingModel

from tests.conftest import make_job, make_state


class StubEstimator(FinishTimeEstimator):
    """Estimator whose processing-time estimate equals the true time."""

    def __init__(self) -> None:
        pass  # no QRSM needed

    def est_proc_time(self, job):
        return job.true_proc_time


@pytest.fixture
def estimator() -> StubEstimator:
    return StubEstimator()


def real_estimator() -> FinishTimeEstimator:
    gen = WorkloadGenerator(seed=2, truth=GroundTruthProcessingModel(noise_sigma=0.0))
    qrsm = QuadraticResponseSurface().fit(*gen.sample_training_set(300))
    return FinishTimeEstimator(qrsm)


class TestEstimatorArithmetic:
    """ft^ic / ft^ec on states with explicit numbers."""

    def test_ft_ic_idle_machines(self, estimator):
        state = make_state(now=10.0, ic_free=[10.0, 10.0])
        job = make_job(proc_time=60.0)
        assert estimator.ft_ic(job, state) == pytest.approx(70.0)

    def test_ft_ic_waits_for_earliest_machine(self, estimator):
        state = make_state(now=0.0, ic_free=[100.0, 40.0])
        job = make_job(proc_time=60.0)
        assert estimator.ft_ic(job, state) == pytest.approx(100.0)

    def test_ft_ic_speed_scaling(self, estimator):
        state = make_state(now=0.0, ic_free=[0.0], ic_speed=2.0)
        job = make_job(proc_time=60.0)
        assert estimator.ft_ic(job, state) == pytest.approx(30.0)

    def test_ft_ec_breakdown(self, estimator):
        # up_rate = min(4*0.5, 2.0) = 2 MB/s; down same.
        state = make_state(now=0.0, ec_free=[0.0, 0.0],
                           upload_backlog_mb=100.0, download_backlog_mb=0.0)
        job = make_job(size_mb=100.0, proc_time=60.0, output_mb=40.0)
        ec = estimator.ft_ec(job, state)
        assert ec.upload_end == pytest.approx(100.0)   # (100+100)/2
        assert ec.exec_start == pytest.approx(100.0)
        assert ec.exec_end == pytest.approx(160.0)
        assert ec.completion == pytest.approx(180.0)   # +40/2

    def test_ft_ec_waits_for_ec_machine(self, estimator):
        state = make_state(now=0.0, ec_free=[500.0, 500.0])
        job = make_job(size_mb=10.0, proc_time=60.0, output_mb=10.0)
        ec = estimator.ft_ec(job, state)
        assert ec.exec_start == pytest.approx(500.0)

    def test_unloaded_round_trip(self, estimator):
        state = make_state(now=0.0)
        job = make_job(size_mb=100.0, proc_time=60.0, output_mb=40.0)
        # 100/2 + 60 + 40/2 = 130.
        assert estimator.ec_round_trip_unloaded(job, state) == pytest.approx(130.0)

    def test_parallelism_raises_up_rate(self, estimator):
        assert make_state(now=0.0, est_up_mbps=10.0).sites[0].up_rate == pytest.approx(2.0)
        state = make_state(now=0.0, est_up_mbps=10.0, upload_parallelism=3)
        assert state.sites[0].up_rate == pytest.approx(6.0)


class TestICOnly:
    def test_everything_placed_internally(self, estimator):
        state = make_state(ic_free=[0.0, 0.0])
        jobs = [make_job(job_id=i, proc_time=10.0) for i in range(1, 6)]
        plan = ICOnlyScheduler(estimator).plan(jobs, state)
        assert all(d.placement == Placement.IC for d in plan.decisions)
        assert plan.n_bursted == 0

    def test_completion_estimates_fold_queueing(self, estimator):
        state = make_state(ic_free=[0.0, 0.0])
        jobs = [make_job(job_id=i, proc_time=10.0) for i in range(1, 5)]
        plan = ICOnlyScheduler(estimator).plan(jobs, state)
        # Two machines: finishes at 10,10,20,20.
        assert [d.est_completion for d in plan.decisions] == pytest.approx(
            [10.0, 10.0, 20.0, 20.0]
        )


class TestGreedy:
    def test_prefers_idle_ic(self, estimator):
        """With IC idle and slow links, everything stays local."""
        state = make_state(ic_free=[0.0] * 4, est_up_mbps=0.1, est_down_mbps=0.1)
        jobs = [make_job(job_id=i, size_mb=100, proc_time=30.0) for i in range(1, 4)]
        plan = GreedyScheduler(estimator).plan(jobs, state)
        assert plan.n_bursted == 0

    def test_bursts_when_ic_backlogged(self, estimator):
        """A loaded IC plus a fast pipe pushes work out (Alg. 1 line 4)."""
        state = make_state(
            ic_free=[1000.0], ec_free=[0.0],
            est_up_mbps=10.0, est_down_mbps=10.0, up_threads=20, down_threads=20,
        )
        job = make_job(size_mb=10.0, proc_time=30.0, output_mb=5.0)
        plan = GreedyScheduler(estimator).plan([job], state)
        assert plan.decisions[0].placement == Placement.EC

    def test_tie_goes_to_ic(self, estimator):
        """Alg. 1 line 4: t_ic <= t_ec keeps the job local."""
        # Craft exact tie: ft_ic = 60; ft_ec = 10/2 + 50 + 10/2 = 60.
        state = make_state(ic_free=[0.0], ec_free=[0.0])
        job = make_job(size_mb=10.0, proc_time=60.0, output_mb=10.0)
        # ft_ec = 5 + 60 + 5 = 70 > 60 -> IC, then tweak to tie via proc.
        plan = GreedyScheduler(estimator).plan([job], state)
        assert plan.decisions[0].placement == Placement.IC

    def test_in_batch_commitment(self, estimator):
        """Each decision loads the planning state for the next job."""
        state = make_state(
            ic_free=[0.0], ec_free=[0.0],
            est_up_mbps=10.0, est_down_mbps=10.0, up_threads=20, down_threads=20,
        )
        jobs = [make_job(job_id=i, size_mb=10.0, proc_time=30.0, output_mb=5.0)
                for i in range(1, 7)]
        plan = GreedyScheduler(estimator).plan(jobs, state)
        placements = [d.placement for d in plan.decisions]
        # First job IC (idle), and with a single IC machine the batch must
        # spill to the EC rather than all queue locally.
        assert placements[0] == Placement.IC
        assert Placement.EC in placements
        assert Placement.IC in placements[1:]

    def test_estimates_monotone_in_queue_order_for_same_placement(self, estimator):
        state = make_state(ic_free=[0.0])
        jobs = [make_job(job_id=i, proc_time=10.0) for i in range(1, 4)]
        plan = GreedyScheduler(estimator).plan(jobs, state)
        ic_completions = [d.est_completion for d in plan.decisions
                          if d.placement == Placement.IC]
        assert ic_completions == sorted(ic_completions)


class TestOrderPreserving:
    def scheduler(self, estimator, **kw) -> OrderPreservingScheduler:
        kw.setdefault("enable_chunking", False)
        return OrderPreservingScheduler(estimator, **kw)

    def test_head_job_never_bursted_on_empty_system(self, estimator):
        state = make_state(ic_free=[0.0] * 2)
        jobs = [make_job(job_id=1, proc_time=30.0)]
        plan = self.scheduler(estimator).plan(jobs, state)
        assert plan.decisions[0].placement == Placement.IC

    def test_bursts_only_within_slack(self, estimator):
        """Hand-checked Alg. 2: job 2 fits its cushion, job 3's is gone.

        One IC machine, 1 MB jobs, 2 MB/s links, EC idle:
        job1 -> IC, finishes 100; slack for job2 = 100.
        job2: ft_ec = 0.5 + 20 + 0.5 = 21 <= 100 -> EC.
        job3: slack = max(100, 21) = 100; ft_ec = (1+1)/2 + 20 + (1+1)/2 = 42? still <= 100 -> EC.
        """
        state = make_state(ic_free=[0.0], ec_free=[0.0, 0.0])
        jobs = [
            make_job(job_id=1, size_mb=1.0, proc_time=100.0, output_mb=1.0),
            make_job(job_id=2, size_mb=1.0, proc_time=20.0, output_mb=1.0),
            make_job(job_id=3, size_mb=1.0, proc_time=20.0, output_mb=1.0),
        ]
        plan = self.scheduler(estimator).plan(jobs, state)
        assert [d.placement for d in plan.decisions] == [
            Placement.IC, Placement.EC, Placement.EC,
        ]

    def test_long_round_trip_fails_slack(self, estimator):
        """A bursted job may not outlive the work preceding it."""
        state = make_state(ic_free=[0.0], ec_free=[0.0, 0.0])
        jobs = [
            make_job(job_id=1, size_mb=1.0, proc_time=50.0, output_mb=1.0),
            # Round trip = 100/2 + 30 + 50/2 = 105 > slack 50 -> IC.
            make_job(job_id=2, size_mb=100.0, proc_time=30.0, output_mb=50.0),
        ]
        plan = self.scheduler(estimator).plan(jobs, state)
        assert [d.placement for d in plan.decisions] == [Placement.IC, Placement.IC]

    def test_pending_completions_seed_slack(self, estimator):
        """Backlog from earlier batches opens the cushion (Eq. 1)."""
        state = make_state(
            ic_free=[500.0], ec_free=[0.0, 0.0], pending_completions=[500.0]
        )
        jobs = [make_job(job_id=1, size_mb=10.0, proc_time=30.0, output_mb=5.0)]
        plan = self.scheduler(estimator).plan(jobs, state)
        assert plan.decisions[0].placement == Placement.EC

    def test_slack_margin_relaxes_constraint(self, estimator):
        state = make_state(ic_free=[0.0], ec_free=[0.0, 0.0])
        jobs = [
            make_job(job_id=1, size_mb=1.0, proc_time=20.0, output_mb=1.0),
            # ft_ec = 1 + 20 + 1 = 22 > 20 strict, but <= 20+5 with margin.
            make_job(job_id=2, size_mb=1.0, proc_time=20.0, output_mb=1.0),
        ]
        strict = self.scheduler(estimator).plan(jobs, make_state(ic_free=[0.0], ec_free=[0.0, 0.0]))
        relaxed = self.scheduler(estimator, slack_margin=5.0).plan(jobs, state)
        assert strict.decisions[1].placement == Placement.IC
        assert relaxed.decisions[1].placement == Placement.EC

    def test_chunking_enabled_inserts_subjobs(self):
        est = real_estimator()
        policy = ChunkPolicy(window=3, threshold_mb=40.0, min_chunk_mb=20.0,
                             max_chunk_mb=60.0)
        sched = OrderPreservingScheduler(est, chunk_policy=policy)
        gen = WorkloadGenerator(seed=8)
        jobs = [make_job(job_id=1, size_mb=280.0, proc_time=100.0),
                make_job(job_id=2, size_mb=10.0, proc_time=10.0)]
        state = make_state(ic_free=[0.0] * 4)
        plan = sched.plan(jobs, state)
        assert len(plan.decisions) > 2
        assert all(d.job.key == k for d, k in zip(plan.decisions,
                   sorted(d.job.key for d in plan.decisions)))

    def test_burst_count_monotone_in_backlog(self, estimator):
        """More pending IC work -> weakly more bursting (sanity)."""
        jobs = [make_job(job_id=i, size_mb=20.0, proc_time=30.0, output_mb=10.0)
                for i in range(1, 8)]
        light = self.scheduler(estimator).plan(
            jobs, make_state(ic_free=[0.0] * 4, ec_free=[0.0, 0.0]))
        heavy = self.scheduler(estimator).plan(
            jobs, make_state(ic_free=[400.0] * 4, ec_free=[0.0, 0.0],
                             pending_completions=[400.0] * 4))
        assert heavy.n_bursted >= light.n_bursted


class TestComputeSizeBounds:
    def test_too_few_candidates(self):
        assert compute_size_bounds([10.0, 20.0], [0, 0, 0]) is None

    def test_equal_thirds_when_queues_empty(self):
        sizes = list(np.linspace(10, 90, 9))
        bounds = compute_size_bounds(sizes, [0.0, 0.0, 0.0])
        assert bounds is not None
        s, m = bounds
        assert s < m
        assert s == pytest.approx(30.0)
        assert m == pytest.approx(60.0)

    def test_loaded_queue_gets_smaller_share(self):
        sizes = list(np.linspace(10, 120, 12))
        balanced = compute_size_bounds(sizes, [1.0, 1.0, 1.0])
        small_loaded = compute_size_bounds(sizes, [100.0, 1.0, 1.0])
        # A saturated small queue shrinks the small interval.
        assert small_loaded[0] <= balanced[0]

    def test_bounds_strictly_ordered(self):
        for loads in ([0, 0, 0], [5, 1, 1], [1, 5, 1], [1, 1, 5]):
            bounds = compute_size_bounds([10.0, 10.0, 10.0, 10.0], loads)
            assert bounds[0] < bounds[1]

    def test_bounds_are_observed_sizes(self):
        sizes = [10.0, 50.0, 200.0, 30.0, 80.0, 250.0]
        s, m = compute_size_bounds(sizes, [0, 0, 0])
        assert s in sizes and (m in sizes or m > s)


class TestSizeIntervalScheduler:
    def test_wants_split_queues(self):
        sched = SizeIntervalSplittingScheduler(StubEstimator())
        assert sched.wants_size_interval_queues()
        assert not OrderPreservingScheduler(StubEstimator()).wants_size_interval_queues()

    def test_plan_carries_bounds_when_candidates_exist(self):
        sched = SizeIntervalSplittingScheduler(StubEstimator(), enable_chunking=False)
        # Big IC backlog -> every job is a burst candidate (Alg. 3 line 6).
        state = make_state(
            ic_free=[800.0] * 4, ec_free=[0.0, 0.0],
            pending_completions=[800.0] * 4,
            upload_queue_loads_mb=[0.0, 0.0, 0.0],
        )
        jobs = [make_job(job_id=i, size_mb=s, proc_time=30.0, output_mb=5.0)
                for i, s in enumerate([10, 40, 90, 150, 220, 280], 1)]
        plan = sched.plan(jobs, state)
        assert plan.upload_bounds is not None
        s, m = plan.upload_bounds
        assert 0 < s < m

    def test_no_bounds_without_candidates(self):
        sched = SizeIntervalSplittingScheduler(StubEstimator(), enable_chunking=False)
        # Idle IC: nothing qualifies as a burst candidate -> bounds None.
        state = make_state(ic_free=[0.0] * 8, ec_free=[0.0, 0.0],
                           est_up_mbps=0.01, est_down_mbps=0.01)
        jobs = [make_job(job_id=i, size_mb=100.0, proc_time=10.0) for i in range(1, 4)]
        plan = sched.plan(jobs, state)
        assert plan.upload_bounds is None

    def test_placement_logic_matches_op_given_same_state(self):
        """SIBS placement == Op placement when parallelism is equal."""
        jobs = [make_job(job_id=i, size_mb=20.0, proc_time=30.0, output_mb=10.0)
                for i in range(1, 6)]
        op = OrderPreservingScheduler(StubEstimator(), enable_chunking=False)
        sibs = SizeIntervalSplittingScheduler(StubEstimator(), enable_chunking=False)
        s1 = make_state(ic_free=[300.0] * 2, ec_free=[0.0, 0.0],
                        pending_completions=[300.0] * 2)
        s2 = s1.clone()
        p_op = op.plan(jobs, s1)
        p_sibs = sibs.plan(jobs, s2)
        assert [d.placement for d in p_op.decisions] == [
            d.placement for d in p_sibs.decisions
        ]
