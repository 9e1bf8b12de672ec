"""Integration tests of the full simulated environment (Fig. 5 pipeline)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common import Placement
from repro.core.greedy import GreedyScheduler
from repro.core.ic_only import ICOnlyScheduler
from repro.core.order_preserving import OrderPreservingScheduler
from repro.sim.environment import CloudBurstEnvironment, ECSiteSpec, SystemConfig
from repro.workload.distributions import Bucket
from repro.workload.generator import WorkloadConfig, WorkloadGenerator


def run_env(scheduler_cls, config=None, workload=None, seed=5, **sched_kw):
    config = config or SystemConfig(ic_machines=4, ec_machines=2, seed=77)
    gen = WorkloadGenerator(bucket=Bucket.UNIFORM, seed=seed)
    batches = workload or gen.generate(
        WorkloadConfig(n_batches=2, mean_jobs_per_batch=6, seed=seed)
    )
    env = CloudBurstEnvironment(config)
    env.pretrain_qrsm(*gen.sample_training_set(200))
    scheduler = scheduler_cls(env.estimator, **sched_kw)
    return env.run(batches, scheduler), batches, env


class TestLifecycle:
    def test_every_job_completes_exactly_once(self):
        trace, batches, _ = run_env(ICOnlyScheduler)
        n_jobs = sum(len(b) for b in batches)
        assert len(trace.records) == n_jobs
        assert all(r.completed for r in trace.records)
        trace.validate()  # timestamps monotone, keys unique

    def test_chunked_run_completes_all_units(self):
        trace, batches, _ = run_env(OrderPreservingScheduler)
        assert all(r.completed for r in trace.records)
        trace.validate()
        # Chunk units cover their parents' ids.
        parent_ids = {j.job_id for b in batches for j in b}
        assert {r.job_id for r in trace.records} == parent_ids

    def test_ec_jobs_traverse_full_pipeline(self):
        trace, _, _ = run_env(GreedyScheduler)
        ec = trace.by_placement(Placement.EC)
        if not ec:
            pytest.skip("no jobs bursted in this configuration")
        for r in ec:
            assert r.upload_start is not None
            assert r.upload_end >= r.upload_start
            assert r.exec_start >= r.upload_end
            assert r.exec_end > r.exec_start
            assert r.download_end >= r.download_start >= r.exec_end
            assert r.completion_time == r.download_end

    def test_ic_jobs_skip_transfer_stages(self):
        trace, _, _ = run_env(ICOnlyScheduler)
        for r in trace.records:
            assert r.upload_start is None
            assert r.download_start is None
            assert r.exec_end == r.completion_time

    def test_machine_attribution(self):
        trace, _, _ = run_env(ICOnlyScheduler)
        assert all(r.machine is not None and r.machine.startswith("ic-")
                   for r in trace.records)


class TestAccounting:
    def test_busy_time_bounded_by_pool_capacity(self):
        trace, _, _ = run_env(GreedyScheduler)
        horizon = trace.end_time - trace.arrival_time
        assert 0 < trace.ic_busy_time <= trace.ic_machines * horizon + 1e-6
        assert 0 <= trace.ec_busy_time <= trace.ec_machines * horizon + 1e-6

    def test_ic_busy_time_equals_processing_time_for_ic_only(self):
        trace, _, _ = run_env(ICOnlyScheduler)
        total_proc = sum(r.true_proc_time for r in trace.records)
        assert trace.ic_busy_time == pytest.approx(total_proc, rel=1e-6)

    def test_makespan_at_least_longest_job(self):
        trace, _, _ = run_env(ICOnlyScheduler)
        assert trace.makespan >= max(r.true_proc_time for r in trace.records)

    def test_bandwidth_samples_recorded(self):
        trace, _, _ = run_env(GreedyScheduler)
        assert len(trace.bandwidth_samples) > 0


class TestDeterminism:
    def test_same_seed_same_trace(self):
        t1, _, _ = run_env(GreedyScheduler)
        t2, _, _ = run_env(GreedyScheduler)
        c1 = [r.completion_time for r in t1.records]
        c2 = [r.completion_time for r in t2.records]
        assert c1 == c2
        assert [r.placement for r in t1.records] == [r.placement for r in t2.records]

    def test_different_system_seed_changes_network_draws(self):
        t1, _, _ = run_env(GreedyScheduler, config=SystemConfig(
            ic_machines=4, ec_machines=2, seed=1))
        t2, _, _ = run_env(GreedyScheduler, config=SystemConfig(
            ic_machines=4, ec_machines=2, seed=2))
        # Probe measurements sample the stochastic capacity, so different
        # system seeds must yield different learned-bandwidth traces.
        assert t1.bandwidth_samples != t2.bandwidth_samples


class TestEstimationBoundary:
    def test_scheduler_estimates_differ_from_truth(self):
        """The QRSM estimate must not leak the hidden true time."""
        trace, _, _ = run_env(GreedyScheduler)
        diffs = [abs(r.est_proc_time - r.true_proc_time) for r in trace.records]
        assert np.mean(diffs) > 0.1  # noise guarantees a gap

    def test_qrsm_tuned_online(self):
        _, _, env = run_env(GreedyScheduler)
        # Pretraining 200 + one observation per completed job.
        assert env.qrsm.n_observations > 200


class TestSingleUse:
    def test_env_cannot_run_twice(self):
        trace, batches, env = run_env(ICOnlyScheduler)
        with pytest.raises(RuntimeError):
            env.run(batches, ICOnlyScheduler(env.estimator))


class TestRescheduling:
    def test_ic_pull_marks_rescheduled_jobs(self):
        config = SystemConfig(
            ic_machines=4, ec_machines=1, seed=3,
            enable_ic_pull=True,
            # Throttle the pipe so uploads queue and IC idles first.
            up_base_mbps=0.6, down_base_mbps=0.8,
        )
        trace, _, _ = run_env(GreedyScheduler, config=config)
        assert all(r.completed for r in trace.records)
        pulled = [r for r in trace.records if r.rescheduled]
        for r in pulled:
            assert r.placement == Placement.IC
            assert r.upload_start is None  # cancelled before upload began

    def test_ec_push_runs_clean(self):
        config = SystemConfig(
            ic_machines=2, ec_machines=2, seed=3, enable_ec_push=True,
            up_base_mbps=8.0, down_base_mbps=8.0,
        )
        trace, _, _ = run_env(OrderPreservingScheduler, config=config)
        assert all(r.completed for r in trace.records)
        trace.validate()

    def test_strategies_off_by_default(self):
        trace, _, _ = run_env(GreedyScheduler)
        assert not any(r.rescheduled for r in trace.records)


class TestConfigValidation:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(ic_machines=0)
        with pytest.raises(ValueError):
            SystemConfig(up_base_mbps=0.0)
        with pytest.raises(ValueError):
            SystemConfig(start_hour=24.0)

    @pytest.mark.parametrize("n_extra,ec_site", [(0, -1), (2, -1), (2, 3)])
    def test_out_of_range_ec_site_rejected(self, n_extra, ec_site):
        class EverySiteScheduler(GreedyScheduler):
            def plan(self, jobs, state):
                plan = super().plan(jobs, state)
                for d in plan.decisions:
                    d.placement, d.ec_site = Placement.EC, ec_site
                return plan

        sites = tuple(ECSiteSpec(name=n) for n in "ab"[:n_extra])
        config = SystemConfig(ic_machines=4, ec_machines=2, seed=77,
                              extra_ec_sites=sites)
        with pytest.raises(ValueError, match=f"no EC site with index {ec_site}"):
            run_env(EverySiteScheduler, config=config)

    def test_start_hour_offsets_clock(self):
        config = SystemConfig(ic_machines=2, ec_machines=1, start_hour=6.0, seed=1)
        env = CloudBurstEnvironment(config)
        assert env.sim.now == pytest.approx(6 * 3600.0)


class TestSibsIntegration:
    def test_upload_queue_labels_recorded(self):
        """SIBS runs tag every bursted record with its size-interval queue."""
        from repro.core.bandwidth_splitting import SizeIntervalSplittingScheduler

        config = SystemConfig(ic_machines=4, ec_machines=2, seed=77)
        gen = WorkloadGenerator(bucket=Bucket.LARGE, seed=5)
        batches = gen.generate(
            WorkloadConfig(bucket=Bucket.LARGE, n_batches=3,
                           mean_jobs_per_batch=8, seed=5)
        )
        env = CloudBurstEnvironment(config)
        env.pretrain_qrsm(*gen.sample_training_set(200))
        trace = env.run(batches, SizeIntervalSplittingScheduler(env.estimator))
        bursted = [r for r in trace.records if r.placement == Placement.EC]
        assert bursted, "SIBS should burst on a loaded large bucket"
        labels = {r.upload_queue for r in bursted}
        assert labels <= {"upload-small", "upload-medium", "upload-large", None}
        assert any(l is not None for l in labels)

    def test_single_queue_label_for_plain_op(self):
        from repro.core.order_preserving import OrderPreservingScheduler

        config = SystemConfig(ic_machines=4, ec_machines=2, seed=77)
        gen = WorkloadGenerator(bucket=Bucket.LARGE, seed=5)
        batches = gen.generate(
            WorkloadConfig(bucket=Bucket.LARGE, n_batches=3,
                           mean_jobs_per_batch=8, seed=5)
        )
        env = CloudBurstEnvironment(config)
        env.pretrain_qrsm(*gen.sample_training_set(200))
        trace = env.run(batches, OrderPreservingScheduler(env.estimator))
        bursted = [r for r in trace.records if r.placement == Placement.EC]
        assert all(r.upload_queue in (None, "upload-all") for r in bursted)
