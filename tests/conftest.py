"""Shared fixtures: small deterministic workloads and fast system configs."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.core.base import ECSiteState, SystemState
from repro.policy import Converger, ConvergerConfig, PolicySet, ScalingPolicy
from repro.sim.cluster import Cluster
from repro.sim.engine import Simulator
from repro.sim.environment import SystemConfig
from repro.workload.distributions import Bucket
from repro.workload.document import DocumentFeatures, Job, JobType
from repro.workload.generator import WorkloadConfig, WorkloadGenerator
from repro.workload.processing import GroundTruthProcessingModel


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def features() -> DocumentFeatures:
    """A mid-sized colour marketing document."""
    return DocumentFeatures(
        size_mb=120.0,
        n_pages=100,
        n_images=150,
        mean_image_mb=0.5,
        resolution_dpi=600.0,
        color_fraction=0.6,
        text_ratio=0.4,
        coverage=0.7,
        job_type=JobType.MARKETING,
    )


def make_job(
    job_id: int = 1,
    size_mb: float = 100.0,
    proc_time: float = 60.0,
    output_mb: float = 40.0,
    arrival: float = 0.0,
    batch_id: int = 0,
) -> Job:
    """Hand-built job with explicit size/time for scenario tests."""
    feats = DocumentFeatures(
        size_mb=size_mb,
        n_pages=max(1, int(size_mb)),
        n_images=max(1, int(size_mb)),
        mean_image_mb=0.5,
        resolution_dpi=300.0,
        color_fraction=0.5,
        text_ratio=0.5,
        coverage=0.5,
    )
    return Job(
        job_id=job_id,
        batch_id=batch_id,
        features=feats,
        true_proc_time=proc_time,
        output_mb=output_mb,
        arrival_time=arrival,
    )


@pytest.fixture
def job() -> Job:
    return make_job()


#: ``ECSiteState`` fields ``make_state`` accepts flat, for site 0.
_SITE_FIELDS = {f.name for f in fields(ECSiteState)} - {"name"}


def make_state(
    now: float = 0.0,
    ic_free: list[float] | None = None,
    ec_free: list[float] | None = None,
    **kwargs,
) -> SystemState:
    """SystemState with explicit, easily hand-checked numbers.

    Primary-site fields (``ec_free``, ``est_up_mbps``,
    ``upload_backlog_mb``, ...) are given flat and land in ``sites[0]``.
    """
    site = dict(
        est_up_mbps=2.0, est_down_mbps=2.0, up_threads=4, down_threads=4,
        per_thread_mbps=0.5,
    )
    site.update({k: kwargs.pop(k) for k in list(kwargs) if k in _SITE_FIELDS})
    primary = ECSiteState(
        name="primary", ec_free=ec_free if ec_free is not None else [now] * 2, **site
    )
    return SystemState(
        now=now,
        ic_free=ic_free if ic_free is not None else [now] * 4,
        sites=[primary],
        **kwargs,
    )


@pytest.fixture
def fast_config() -> SystemConfig:
    """Small, quick testbed for integration tests."""
    return SystemConfig(
        ic_machines=4,
        ec_machines=2,
        bandwidth_variation=0.15,
        probe_interval_s=120.0,
        seed=99,
    )


@pytest.fixture
def small_workload() -> list:
    gen = WorkloadGenerator(bucket=Bucket.UNIFORM, seed=5)
    return gen.generate(
        WorkloadConfig(bucket=Bucket.UNIFORM, n_batches=2, mean_jobs_per_batch=6, seed=5)
    )


@pytest.fixture
def generator() -> WorkloadGenerator:
    return WorkloadGenerator(bucket=Bucket.UNIFORM, seed=3)


@pytest.fixture
def truth() -> GroundTruthProcessingModel:
    return GroundTruthProcessingModel()


@pytest.fixture
def noiseless_truth() -> GroundTruthProcessingModel:
    return GroundTruthProcessingModel(noise_sigma=0.0)


def queue_idle_converger(
    sim: Simulator,
    cluster: Cluster,
    *,
    min_capacity: int = 1,
    max_capacity: int = 8,
    interval_s: float = 60.0,
    queue_at_least: int = 1,
    sustain_periods: int = 2,
) -> Converger:
    """A started converger running the queue-up / sustained-idle-down rule.

    Queue pressure (severity 10) outranks sustained idling; both step by
    one machine inside ``[min_capacity, max_capacity]``. The gross basis
    counts draining machines (still billed), and offline reclaim stays off.
    """
    bounds = {"min_capacity": min_capacity, "max_capacity": max_capacity}
    policies = PolicySet((
        ScalingPolicy(
            name="queue-up", trigger="queue", action="step_up",
            queue_at_least=queue_at_least, severity=10, **bounds,
        ),
        ScalingPolicy(
            name="idle-down", trigger="idle", action="step_down",
            sustain_periods=sustain_periods, **bounds,
        ),
    ))
    converger = Converger(
        sim, cluster, policies,
        ConvergerConfig(interval_s=interval_s, basis="gross", delete_offline=False),
    )
    converger.start()
    return converger


def scale_counts(converger: Converger) -> tuple[int, int]:
    """Applied (ups, downs): a launch is up, any other applied step down."""
    totals = converger.step_totals()
    return totals["launch"], totals["drain"] + totals["delete"]
