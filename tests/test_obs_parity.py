"""Telemetry is a pure observer: digests must not move when it attaches.

These are the acceptance tests for the observability PR's core contract:
``hash_trace`` over a run with :func:`attach_obs` equals the bare run,
and a fleet run with ``telemetry=True`` produces the same fleet sha256
as ``telemetry=False``. The obs output itself (metric snapshot, spans)
rides in ``trace.metadata`` — which the hash deliberately excludes — and
must be deterministic across repeated runs of the same seed.
"""

from __future__ import annotations

import pytest

from repro.analysis.determinism import (
    PASSES,
    CheckContext,
    ParityResult,
    Witness,
    hash_trace,
)
from repro.experiments.runner import make_scheduler
from repro.obs import ObsConfig, ObsRuntime, attach_obs
from repro.sim.environment import CloudBurstEnvironment
from repro.workload.distributions import Bucket
from repro.workload.generator import WorkloadConfig, WorkloadGenerator


def run_trace(config, *, instrument: bool):
    env = CloudBurstEnvironment(config)
    gen = WorkloadGenerator(bucket=Bucket.UNIFORM, seed=11)
    env.pretrain_qrsm(*gen.sample_training_set(150))
    obs = attach_obs(env, ObsConfig()) if instrument else None
    workload = gen.generate(
        WorkloadConfig(bucket=Bucket.UNIFORM, n_batches=4, mean_jobs_per_batch=6, seed=11)
    )
    trace = env.run(workload, make_scheduler("Op", env))
    return trace, obs


class TestTraceParity:
    def test_trace_hash_unchanged_by_instrumentation(self, fast_config):
        bare, _ = run_trace(fast_config, instrument=False)
        instrumented, obs = run_trace(fast_config, instrument=True)
        assert hash_trace(instrumented) == hash_trace(bare)
        assert isinstance(obs, ObsRuntime)

    def test_obs_output_lands_in_metadata_only(self, fast_config):
        bare, _ = run_trace(fast_config, instrument=False)
        instrumented, _ = run_trace(fast_config, instrument=True)
        assert "obs" not in bare.metadata
        meta = instrumented.metadata["obs"]
        assert meta["registry_sha256"]
        assert meta["registry"]["families"]
        assert meta["spans"]["summary"]["kept"] > 0

    def test_obs_metadata_deterministic_across_runs(self, fast_config):
        first, _ = run_trace(fast_config, instrument=True)
        second, _ = run_trace(fast_config, instrument=True)
        assert first.metadata["obs"] == second.metadata["obs"]

    def test_double_attach_raises(self, fast_config):
        env = CloudBurstEnvironment(fast_config)
        attach_obs(env)
        with pytest.raises(RuntimeError, match="already attached"):
            attach_obs(env)


class TestCheckObsParity:
    def test_check_reports_invisible(self):
        obs_pass = next(p for p in PASSES if p.name == "obs")
        result = obs_pass.check("Op", CheckContext(n_shards=2, fleet_jobs=160))
        assert isinstance(result, ParityResult)
        assert result.ok
        trace, fleet = result.witnesses["trace"], result.witnesses["fleet"]
        assert trace.hash_a == trace.hash_b
        assert fleet.hash_a == fleet.hash_b
        assert result.stats["families"] >= 10
        assert result.stats["spans"] > 0
        assert "OK" in result.render()

    def test_render_flags_divergence(self):
        broken = ParityResult(
            label="obs",
            witnesses={
                "trace": Witness("aaaa", "bbbb", "hashes differ"),
                "fleet": Witness("cccc", "cccc"),
            },
            stats={"records": 1, "families": 13, "spans": 1, "registry": "dddd"},
        )
        assert not broken.ok
        assert "FAIL" in broken.render()
