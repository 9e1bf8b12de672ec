"""The environment's plugin list (:mod:`repro.sim.plugins`).

Every plane — invariants, econ, obs, policy, the broker — attaches to one
ordered list. The composition test drives all of them on one broker run
under spot churn and pins its digests; the rest pins ``attach`` itself.
"""

from __future__ import annotations

import pytest

from repro.analysis.determinism import _policy_check_config, hash_trace
from repro.analysis.invariants import install_invariants
from repro.core.greedy import GreedyScheduler
from repro.econ import EconConfig, SpotMarketConfig, attach_econ
from repro.experiments.runner import make_scheduler
from repro.obs import attach_obs
from repro.policy import attach_policy
from repro.service import BurstBroker
from repro.service.loadgen import LoadGenConfig, generate_arrivals
from repro.sim.environment import CloudBurstEnvironment, SystemConfig
from repro.sim.plugins import HOOKS, EnvPlugin
from repro.workload.generator import WorkloadGenerator


def all_planes_run(obs: bool = True) -> dict[str, object]:
    """400 Poisson jobs through a broker with every plane attached."""
    env = CloudBurstEnvironment(SystemConfig(seed=7))
    install_invariants(env)
    attach_econ(
        env, EconConfig(spot=SpotMarketConfig(bid_usd_per_hour=0.13, variation=0.4))
    )
    if obs:
        attach_obs(env)
    attach_policy(env, _policy_check_config())
    env.pretrain_qrsm(*WorkloadGenerator(seed=8).sample_training_set(200))
    broker = BurstBroker(env, make_scheduler("Op", env))
    arrivals = LoadGenConfig(n_jobs=400, rate_per_s=0.05, seed=9)
    for arrival_time, jobs in generate_arrivals(arrivals):
        broker.submit(jobs, arrival_time=arrival_time)
    trace = broker.finish()
    meta = trace.metadata
    return {
        "trace": hash_trace(trace),
        "ledger": meta["econ"]["ledger_sha256"],
        "audit": meta["policy"]["audit_sha256"],
        "registry": meta["obs"]["registry_sha256"] if obs else None,
        "preemptions": meta["econ"]["preemptions"],
        "accepted": meta["admission"]["accepted"],
    }


@pytest.fixture(scope="module")
def all_planes() -> list[dict[str, object]]:
    return [all_planes_run(), all_planes_run(), all_planes_run(obs=False)]


class TestAllPlanesComposition:
    def test_double_run_reproduces_every_digest(self, all_planes):
        first, second, _ = all_planes
        assert first == second

    def test_obs_moves_no_digest(self, all_planes):
        with_obs, _, without = all_planes
        for key in ("trace", "ledger", "audit", "preemptions", "accepted"):
            assert without[key] == with_obs[key]

    def test_digests_match_goldens(self, all_planes):
        run = all_planes[0]
        assert run["trace"].startswith("91c827f7ce08b849")
        assert run["ledger"].startswith("a4219e1f5cbebb18")
        assert run["audit"].startswith("daa894524b4b77d4")
        assert run["registry"].startswith("b28a1d095335e6ef")
        assert run["preemptions"] == 23
        assert run["accepted"] == 400


# ----------------------------------------------------------------------
# attach / plugin / emit
# ----------------------------------------------------------------------
def small_run(env: CloudBurstEnvironment, small_workload, generator):
    env.pretrain_qrsm(*generator.sample_training_set(100))
    return env.run(small_workload, GreedyScheduler(env.estimator))


class Recorder(EnvPlugin):
    def __init__(self, key: str, log: list[tuple[str, str]]) -> None:
        self.key = key
        self.log = log

    def on_plan(self, n_jobs, n_bursted, at_s):
        self.log.append((self.key, "plan"))

    def on_complete(self, record):
        self.log.append((self.key, "complete"))

    def on_preempt(self, elapsed_s, at_s):
        self.log.append((self.key, "preempt"))


class CompletionCounter(EnvPlugin):
    key = "counter"

    def __init__(self) -> None:
        self.completed = 0

    def on_complete(self, record):
        self.completed += 1


class TestAttach:
    def test_duplicate_key_raises(self, fast_config):
        env = CloudBurstEnvironment(fast_config)
        first = Recorder("a", [])
        env.attach(first)
        with pytest.raises(RuntimeError, match="a already attached"):
            env.attach(Recorder("a", []))
        assert env.plugin("a") is first
        assert env.plugin("missing") is None

    def test_hooks_fire_in_attach_order(
        self, fast_config, small_workload, generator
    ):
        log: list[tuple[str, str]] = []
        env = CloudBurstEnvironment(fast_config)
        env.attach(Recorder("b", log))
        env.attach(Recorder("a", log))
        env.emit("on_preempt", 1.0, env.sim.now)
        trace = small_run(env, small_workload, generator)
        assert log[:2] == [("b", "preempt"), ("a", "preempt")]
        assert [key for key, _ in log] == ["b", "a"] * (len(log) // 2)
        assert sum(event == "complete" for _, event in log) == 2 * len(trace.records)
        assert sum(event == "plan" for _, event in log) == 2 * len(small_workload)

    def test_plugin_bound_only_for_overridden_hooks(
        self, fast_config, small_workload, generator
    ):
        env = CloudBurstEnvironment(fast_config)
        counter = CompletionCounter()
        env.attach(counter)
        bound = [
            name for name in HOOKS
            if any(getattr(h, "__self__", None) is counter for h in env._hooks[name])
        ]
        assert bound == ["on_complete"]
        env.emit("on_preempt", 1.0, env.sim.now)  # reaches no counter hook
        trace = small_run(env, small_workload, generator)
        assert counter.completed == len(trace.records)
        assert "counter" not in trace.metadata  # finalize returned None

    def test_install_invariants_is_idempotent(
        self, fast_config, small_workload, generator
    ):
        env = CloudBurstEnvironment(fast_config)
        checker = install_invariants(env)
        assert install_invariants(env) is checker
        assert env.plugin("invariants") is checker
        trace = small_run(env, small_workload, generator)
        assert checker.stats.admissions_seen == len(trace.records)
        assert checker.stats.finishes_checked == 1
