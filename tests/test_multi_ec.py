"""Multi-cloud bursting tests: per-site state, schedulers, environment sites."""

from __future__ import annotations

import pytest

from repro.common import Placement
from repro.core.base import ECSiteState
from repro.core.multi_ec import MultiECGreedyScheduler, MultiECOrderPreservingScheduler
from repro.metrics.sla import summarize
from repro.sim.environment import CloudBurstEnvironment, ECSiteSpec, SystemConfig
from repro.workload.distributions import Bucket
from repro.workload.generator import WorkloadConfig, WorkloadGenerator

from tests.conftest import make_job, make_state
from tests.test_schedulers import StubEstimator


def state_with_sites(**kwargs):
    state = make_state(**kwargs)
    state.sites.append(
        ECSiteState(
            name="provider-b",
            ec_free=[state.now, state.now],
            est_up_mbps=2.0,
            est_down_mbps=2.0,
            up_threads=4,
            down_threads=4,
            per_thread_mbps=0.5,
        )
    )
    return state


class TestSiteState:
    def test_ft_ec_reads_the_addressed_site(self):
        """Equal sites give equal round trips; a backlog on one slows only it."""
        est = StubEstimator()
        state = state_with_sites(now=0.0)
        job = make_job(size_mb=100.0, proc_time=60.0, output_mb=40.0)
        primary = est.ft_ec(job, state, 60.0)
        assert est.ft_ec(job, state, 60.0, site=1) == primary
        state.commit_ec(make_job(size_mb=100.0, output_mb=0.0), 0.0, 0.0, site=1)
        extra = est.ft_ec(job, state, 60.0, site=1)
        assert extra.upload_end == pytest.approx(primary.upload_end + 100.0 / 2.0)
        assert est.ft_ec(job, state, 60.0) == primary

    def test_commit_ec_on_primary_mutates_site_zero(self):
        state = make_state(ec_free=[0.0])
        job = make_job(size_mb=50.0, output_mb=20.0)
        state.commit_ec(job, ec_exec_end=100.0, completion=120.0)
        assert state.sites[0].upload_backlog_mb == 50.0
        assert state.sites[0].download_backlog_mb == 20.0
        assert state.sites[0].ec_free == [100.0]
        assert state.pending_completions[-1] == 120.0

    def test_commit_ec_on_extra_site_mutates_only_that_site(self):
        state = state_with_sites()
        job = make_job(size_mb=50.0, output_mb=20.0)
        state.commit_ec(job, ec_exec_end=100.0, completion=120.0, site=1)
        site = state.sites[1]
        assert site.upload_backlog_mb == 50.0
        assert 100.0 in site.ec_free
        assert state.sites[0].upload_backlog_mb == 0.0  # primary untouched
        assert state.pending_completions[-1] == 120.0  # shared pool

    def test_clone_deep_copies_sites(self):
        state = state_with_sites()
        clone = state.clone()
        clone.commit_ec(make_job(size_mb=99.0), 1.0, 2.0, site=1)
        assert state.sites[1].upload_backlog_mb == 0.0
        assert state.sites[1].ec_free == [0.0, 0.0]


class TestMultiSchedulers:
    def test_reduces_to_single_site_greedy(self):
        """With one site, MultiGreedy == Greedy decisions."""
        from repro.core.greedy import GreedyScheduler

        jobs = [make_job(job_id=i, size_mb=10.0, proc_time=30.0, output_mb=5.0)
                for i in range(1, 7)]
        s1 = make_state(ic_free=[0.0], ec_free=[0.0],
                        est_up_mbps=10.0, est_down_mbps=10.0,
                        up_threads=20, down_threads=20)
        s2 = s1.clone()
        p_single = GreedyScheduler(StubEstimator()).plan(jobs, s1)
        p_multi = MultiECGreedyScheduler(StubEstimator()).plan(jobs, s2)
        assert [d.placement for d in p_single.decisions] == [
            d.placement for d in p_multi.decisions
        ]
        assert all(d.ec_site == 0 for d in p_multi.decisions)

    def test_overflows_to_second_site(self):
        """When the primary path saturates, bursts spill to provider B."""
        state = state_with_sites(
            ic_free=[10_000.0], ec_free=[0.0],
            est_up_mbps=10.0, est_down_mbps=10.0,
            up_threads=20, down_threads=20,
            pending_completions=[10_000.0],
        )
        state.sites[1].est_up_mbps = 10.0
        state.sites[1].est_down_mbps = 10.0
        state.sites[1].up_threads = 20
        state.sites[1].down_threads = 20
        jobs = [make_job(job_id=i, size_mb=50.0, proc_time=30.0, output_mb=20.0)
                for i in range(1, 11)]
        plan = MultiECGreedyScheduler(StubEstimator()).plan(jobs, state)
        sites = {d.ec_site for d in plan.decisions if d.placement == Placement.EC}
        assert sites == {0, 1}

    def test_multi_op_respects_slack(self):
        """Head of queue still never bursts, even with many sites."""
        state = state_with_sites(ic_free=[0.0, 0.0])
        jobs = [make_job(job_id=1, proc_time=30.0)]
        plan = MultiECOrderPreservingScheduler(StubEstimator()).plan(jobs, state)
        assert plan.decisions[0].placement == Placement.IC


class TestMultiSiteEnvironment:
    def _run(self, scheduler_cls):
        cfg = SystemConfig(
            ic_machines=4, ec_machines=1, seed=5,
            extra_ec_sites=(
                ECSiteSpec(name="b", machines=1, up_base_mbps=3.0, down_base_mbps=4.0),
            ),
        )
        gen = WorkloadGenerator(bucket=Bucket.LARGE, seed=9)
        batches = gen.generate(
            WorkloadConfig(bucket=Bucket.LARGE, n_batches=3, mean_jobs_per_batch=8, seed=9)
        )
        env = CloudBurstEnvironment(cfg)
        env.pretrain_qrsm(*gen.sample_training_set(200))
        trace = env.run(batches, scheduler_cls(env.estimator))
        return env, trace

    def test_jobs_complete_across_sites(self):
        env, trace = self._run(MultiECGreedyScheduler)
        assert all(r.completed for r in trace.records)
        trace.validate()
        # The trace accounts for all EC machines across sites.
        assert trace.ec_machines == 2

    def test_build_state_lists_every_site_primary_first(self):
        cfg = SystemConfig(
            ec_machines=1, ec_speed=2.0, seed=5,
            extra_ec_sites=(ECSiteSpec(name="b", machines=3, speed=1.5),),
        )
        env = CloudBurstEnvironment(cfg)
        sites = env.build_state().sites
        assert [s.name for s in sites] == ["primary", "b"]
        assert [len(s.ec_free) for s in sites] == [1, 3]
        assert [s.ec_speed for s in sites] == [2.0, 1.5]
        assert env.sites[0].cluster is env.ec
        assert [s.cluster.name for s in env.sites] == ["ec", "ec-b"]

    def test_extra_site_actually_used(self):
        env, trace = self._run(MultiECGreedyScheduler)
        used_sites = {
            st.site for st in env._states.values()
            if st.record.placement == Placement.EC
        }
        assert 1 in used_sites

    def test_busy_time_sums_sites(self):
        env, trace = self._run(MultiECOrderPreservingScheduler)
        expected = env.ec.total_busy_time + sum(
            s.cluster.total_busy_time for s in env.sites[1:]
        )
        assert trace.ec_busy_time == pytest.approx(expected)

    def test_two_sites_beat_one_under_load(self):
        """Doubling EC capacity via a second provider cuts makespan."""
        gen = WorkloadGenerator(bucket=Bucket.LARGE, seed=9)
        batches = gen.generate(
            WorkloadConfig(bucket=Bucket.LARGE, n_batches=4, mean_jobs_per_batch=12, seed=9)
        )

        def run(extra):
            cfg = SystemConfig(ic_machines=4, ec_machines=2, seed=5,
                               extra_ec_sites=extra)
            env = CloudBurstEnvironment(cfg)
            env.pretrain_qrsm(*gen.sample_training_set(200))
            return env.run(batches, MultiECGreedyScheduler(env.estimator))

        single = run(())
        double = run((ECSiteSpec(name="b", machines=2),))
        assert double.makespan < single.makespan

    def test_invalid_site_spec(self):
        with pytest.raises(ValueError):
            ECSiteSpec(name="x", machines=0)
        with pytest.raises(ValueError):
            ECSiteSpec(name="x", up_base_mbps=0.0)


class TestMultiSiteGoldens:
    """Pinned digests of a three-site run (primary plus two extra sites).

    The goldens were recorded before the primary EC became ``sites[0]``;
    they pin the RNG draw order, the event order, the per-site resource
    names (``ec-b-0``, ``upload-c-all``, ...) and the float summation
    order of ``trace.ec_busy_time`` (primary first, then the extras).
    """

    CONFIG = SystemConfig(
        ic_machines=4, ec_machines=2, seed=5,
        extra_ec_sites=(
            ECSiteSpec(name="b", machines=2, up_base_mbps=3.0, peak_hour=10.0),
            ECSiteSpec(name="c", machines=3, speed=1.5, down_base_mbps=6.0),
        ),
    )
    GOLDENS = {
        "MultiGreedy": "94be87e71a5e30f3063fc95ae9302acbba5f7f062da2131b70c767c9a5c73a97",
        "MultiOp": "d04ffc3a9ee873c490bc60c2d661cb9dfb8cd552fc7a0717ede6840afb5aeb31",
    }

    def _run(self, scheduler_cls):
        gen = WorkloadGenerator(bucket=Bucket.LARGE, seed=9)
        batches = gen.generate(
            WorkloadConfig(bucket=Bucket.LARGE, n_batches=6, mean_jobs_per_batch=12, seed=9)
        )
        env = CloudBurstEnvironment(self.CONFIG)
        env.pretrain_qrsm(*gen.sample_training_set(200))
        return env, env.run(batches, scheduler_cls(env.estimator))

    @pytest.mark.parametrize(
        "scheduler_cls", [MultiECGreedyScheduler, MultiECOrderPreservingScheduler]
    )
    def test_double_run_matches_golden(self, scheduler_cls):
        from repro.analysis.determinism import hash_trace

        env, first = self._run(scheduler_cls)
        _, second = self._run(scheduler_cls)
        assert hash_trace(first) == hash_trace(second) == self.GOLDENS[scheduler_cls.name]
        used = {st.site for st in env._states.values()
                if st.record.placement == Placement.EC}
        assert {1, 2} <= used
