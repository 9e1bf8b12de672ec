"""Hand-checked tests of the environment's SystemState construction.

``build_state`` is the boundary between the hidden ground truth and what
schedulers may see; these tests pin its arithmetic on crafted situations.
"""

from __future__ import annotations

import pytest

from repro.common import Placement
from repro.core.ic_only import ICOnlyScheduler
from repro.sim.environment import CloudBurstEnvironment, SystemConfig
from repro.workload.distributions import Bucket
from repro.workload.generator import Batch, WorkloadGenerator

from tests.conftest import make_job


def fresh_env(**overrides):
    defaults = dict(ic_machines=2, ec_machines=2, seed=17,
                    bandwidth_variation=0.0)
    defaults.update(overrides)
    env = CloudBurstEnvironment(SystemConfig(**defaults))
    gen = WorkloadGenerator(bucket=Bucket.UNIFORM, seed=3)
    env.pretrain_qrsm(*gen.sample_training_set(150))
    return env


class TestInitialState:
    def test_idle_system_state(self):
        env = fresh_env()
        state = env.build_state()
        now = env.sim.now
        assert state.now == now
        assert state.ic_free == [now, now]
        assert [site.name for site in state.sites] == ["primary"]
        primary = state.sites[0]
        assert primary.ec_free == [now, now]
        assert primary.upload_backlog_mb == 0.0
        assert primary.download_backlog_mb == 0.0
        assert state.pending_completions == []
        assert primary.upload_parallelism == 1

    def test_bandwidth_estimates_use_prior_before_data(self):
        env = fresh_env()
        state = env.build_state()
        assert state.sites[0].est_up_mbps == pytest.approx(4.0 * 0.8)
        assert state.sites[0].est_down_mbps == pytest.approx(5.0 * 0.8)

    def test_threads_come_from_tuner(self):
        env = fresh_env(initial_threads=6)
        state = env.build_state()
        assert state.sites[0].up_threads == 6
        assert state.sites[0].down_threads == 6


class TestLoadedState:
    def test_ic_backlog_folds_estimates_not_truth(self):
        """Machine availability must reflect QRSM estimates, never the
        hidden true processing times."""
        env = fresh_env()
        # Admit a batch of three jobs onto the 2-machine IC by hand.
        jobs = [make_job(job_id=i, proc_time=50.0) for i in (1, 2, 3)]
        batch = Batch(batch_id=0, arrival_time=0.0, jobs=jobs)
        scheduler = ICOnlyScheduler(env.estimator)
        env._scheduler = scheduler
        from repro.sim.tracing import RunTrace
        env._trace = RunTrace(scheduler_name="t", ic_machines=2, ec_machines=2)
        env._batches_arrived += 1
        env._on_batch_arrival(batch)

        state = env.build_state()
        now = env.sim.now
        est = {key: st.est_proc for key, st in env._states.items()}
        # Jobs 1,2 run; job 3 queued behind the earlier-finishing machine.
        running_frees = sorted([now + est[(1, 0)], now + est[(2, 0)]])
        expected = sorted([running_frees[1], running_frees[0] + est[(3, 0)]])
        assert sorted(state.ic_free) == pytest.approx(expected)
        # All three contribute to the pending pool.
        assert len(state.pending_completions) == 3

    def test_pending_keyed_matches_pending(self):
        env = fresh_env()
        jobs = [make_job(job_id=i, proc_time=30.0) for i in (1, 2)]
        batch = Batch(batch_id=0, arrival_time=0.0, jobs=jobs)
        from repro.sim.tracing import RunTrace
        env._scheduler = ICOnlyScheduler(env.estimator)
        env._trace = RunTrace(scheduler_name="t", ic_machines=2, ec_machines=2)
        env._on_batch_arrival(batch)
        state = env.build_state()
        assert [t for _, t in state.pending_keyed] == state.pending_completions
        assert {k for k, _ in state.pending_keyed} == {(1, 0), (2, 0)}

    def test_running_job_estimate_shrinks_with_elapsed_time(self):
        env = fresh_env()
        jobs = [make_job(job_id=1, proc_time=100.0)]
        from repro.sim.tracing import RunTrace
        env._scheduler = ICOnlyScheduler(env.estimator)
        env._trace = RunTrace(scheduler_name="t", ic_machines=2, ec_machines=2)
        env._on_batch_arrival(Batch(batch_id=0, arrival_time=0.0, jobs=jobs))
        s0 = env.build_state()
        remaining0 = max(s0.ic_free) - env.sim.now
        env.sim.run(until=env.sim.now + 10.0)
        s1 = env.build_state()
        remaining1 = max(s1.ic_free) - env.sim.now
        assert remaining1 == pytest.approx(remaining0 - 10.0, abs=1e-6)

    def test_running_estimate_never_negative(self):
        """A job outliving its estimate leaves free-at = now, not the past."""
        env = fresh_env()
        job = make_job(job_id=1, proc_time=100.0)
        from repro.sim.tracing import RunTrace
        env._scheduler = ICOnlyScheduler(env.estimator)
        env._trace = RunTrace(scheduler_name="t", ic_machines=2, ec_machines=2)
        env._on_batch_arrival(Batch(batch_id=0, arrival_time=0.0, jobs=[job]))
        # Force a tiny estimate so the true runtime overshoots it.
        env._states[(1, 0)].est_proc = 1.0
        env.sim.run(until=env.sim.now + 50.0)
        state = env.build_state()
        assert min(state.ic_free) >= state.now - 1e-9
