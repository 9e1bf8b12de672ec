"""Determinism harness: prove a seeded run reproduces bit-for-bit.

The engine's FIFO tie-break and the seeded RNGs promise that a whole
simulation is a pure function of ``(scheduler, spec)``. This module turns
that promise into a checkable property: ``repro check`` walks one table
of parity passes (:data:`PASSES`). Each pass builds two runs, A and B,
and compares their named *witnesses*:

* a double-run pass builds the same seeded run twice (A = B) — paper
  (runtime invariants on), econ (billing and spot preemption; ledger
  witness), fleet (sharded multi-tenant; merged fleet digest) and
  policy (converger under spot churn; audit witness);
* a parity pass builds one workload two ways that must not differ —
  exec (inprocess vs multiprocess executor), obs (telemetry off vs on)
  and idle (no policy vs a never-firing one).

A witness is a :class:`RunTrace` (hashed by :func:`hash_trace`), a
:class:`~repro.fleet.FleetReport` (its ``sha256``) or a digest string
such as a ledger or audit hash. On mismatch the report names the first
divergent record and field — for a fleet, the divergent shards and the
first divergent record of the merged trace — rather than just "hashes
differ". Adding a pass is one :class:`ParityPass` entry in the table.

CLI::

    repro check                 # every pass, default spec
    repro check --scheduler Op  # per-scheduler passes narrowed to Op
    repro check --seed 7        # another workload and fleet seed
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from functools import cached_property, partial
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Union,
)

if TYPE_CHECKING:
    from ..fleet import FleetReport, TenantRegistry
    from ..policy.runtime import PolicyConfig
    from ..workload.generator import Batch

from ..experiments.config import DEFAULT_SPEC, ExperimentSpec
from ..experiments.runner import PAPER_SCHEDULERS, build_workload, run_one
from ..sim.environment import CloudBurstEnvironment
from ..sim.tracing import JobRecord, RunTrace
from .invariants import install_invariants

__all__ = [
    "Divergence",
    "hash_trace",
    "canonical_records",
    "first_divergence",
    "ECON_SCHEDULERS",
    "CheckContext",
    "Run",
    "Witness",
    "ParityResult",
    "compare",
    "ParityPass",
    "PASSES",
]

#: JobRecord fields in declaration order — the canonical hashing schema.
_RECORD_FIELDS = tuple(f.name for f in fields(JobRecord))

#: Run-level fields folded into the hash after the per-record stream.
_TRACE_FIELDS = ("arrival_time", "end_time", "ic_busy_time", "ec_busy_time")


def _canon(value: object) -> str:
    """A bit-exact textual form: floats hash by their IEEE-754 bits."""
    if isinstance(value, bool):  # bool before int/float — bool is an int
        return "T" if value else "F"
    if isinstance(value, float):
        return value.hex()
    return repr(value)


def canonical_records(trace: RunTrace) -> list[tuple[str, ...]]:
    """Every record as a tuple of canonicalised field values, in trace order."""
    return [
        tuple(_canon(getattr(record, name)) for name in _RECORD_FIELDS)
        for record in trace.records
    ]


def hash_trace(trace: RunTrace) -> str:
    """SHA-256 over every lifecycle timestamp and run-level accumulator.

    Two traces hash equal iff every job record field (including float
    timestamps, compared at full bit precision) and every run-level busy
    time agree. Metadata and bandwidth samples are included too — a
    divergent probe sequence is a determinism bug even if job timestamps
    happen to coincide.
    """
    digest = hashlib.sha256()
    for row in canonical_records(trace):
        digest.update("\x1f".join(row).encode())
        digest.update(b"\x1e")
    for name in _TRACE_FIELDS:
        digest.update(f"{name}={_canon(getattr(trace, name))}".encode())
        digest.update(b"\x1e")
    for t, mbps in trace.bandwidth_samples:
        digest.update(f"{_canon(t)},{_canon(mbps)}".encode())
        digest.update(b"\x1e")
    return digest.hexdigest()


@dataclass(frozen=True)
class Divergence:
    """Where two supposedly identical runs first disagreed."""

    #: Index into ``trace.records``, or ``None`` for a run-level field.
    record_index: Optional[int]
    #: ``(job_id, sub_id)`` of the divergent record, when record-level.
    job_key: Optional[tuple[int, int]]
    field: str
    value_a: str
    value_b: str

    def render(self) -> str:
        where = (
            f"record #{self.record_index} (job {self.job_key})"
            if self.record_index is not None
            else "run-level"
        )
        return (
            f"first divergence at {where}, field {self.field!r}: "
            f"run A = {self.value_a} vs run B = {self.value_b}"
        )


def first_divergence(a: RunTrace, b: RunTrace) -> Optional[Divergence]:
    """Locate the earliest field where two traces disagree, if any."""
    rows_a, rows_b = canonical_records(a), canonical_records(b)
    for index, (row_a, row_b) in enumerate(zip(rows_a, rows_b)):
        for name, va, vb in zip(_RECORD_FIELDS, row_a, row_b):
            if va != vb:
                rec = a.records[index]
                return Divergence(index, (rec.job_id, rec.sub_id), name, va, vb)
    if len(rows_a) != len(rows_b):
        return Divergence(
            None, None, "len(records)", str(len(rows_a)), str(len(rows_b))
        )
    for name in _TRACE_FIELDS:
        va, vb = _canon(getattr(a, name)), _canon(getattr(b, name))
        if va != vb:
            return Divergence(None, None, name, va, vb)
    if a.bandwidth_samples != b.bandwidth_samples:
        return Divergence(
            None,
            None,
            "bandwidth_samples",
            str(len(a.bandwidth_samples)),
            str(len(b.bandwidth_samples)),
        )
    return None



# ----------------------------------------------------------------------
# Runs, witnesses and verdicts
# ----------------------------------------------------------------------

#: Schedulers the econ and policy passes double-run: the paper's four
#: plus the cost-aware variant the ledger actually steers.
ECON_SCHEDULERS = PAPER_SCHEDULERS + ("CostAware",)

#: The scheduler a once-in-total pass runs.
ONCE_SCHEDULER = "Op"

#: What a witness hash is taken over.
WitnessSource = Union[RunTrace, "FleetReport", str]


@dataclass(frozen=True)
class CheckContext:
    """Workload, seeds and sizes shared by every pass of one check."""

    spec: ExperimentSpec = DEFAULT_SPEC
    #: Seed of the fleet passes' shard substreams and load generator.
    fleet_seed: int = 2024
    #: Arm the runtime invariant checker on paper, econ and policy runs.
    invariants: bool = True
    n_shards: int = 4
    #: Jobs in the fleet double-run; the exec and obs runs take half.
    fleet_jobs: int = 400

    @cached_property
    def batches(self) -> "list[Batch]":
        """The spec's batch list, built once and replayed by every run."""
        return build_workload(self.spec)


@dataclass(frozen=True)
class Run:
    """One side of a pass: named witnesses plus its headline counts.

    A count renders as ``"<value> <name>"``; a string stat is a digest
    only this side produces (so not a witness) and renders as
    ``"<name> <16-hex prefix>"``.
    """

    witnesses: Mapping[str, WitnessSource]
    stats: Mapping[str, Union[int, str]]


@dataclass(frozen=True)
class Witness:
    """One witness's hash in run A and run B, and where they split."""

    hash_a: str
    hash_b: str
    detail: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.hash_a == self.hash_b


@dataclass(frozen=True)
class ParityResult:
    """The verdict of one pass on one scheduler."""

    label: str
    witnesses: Mapping[str, Witness]
    #: Run B's stats — the attached side of a parity pass.
    stats: Mapping[str, Union[int, str]]

    @property
    def ok(self) -> bool:
        return all(witness.ok for witness in self.witnesses.values())

    def render(self) -> str:
        for name, witness in self.witnesses.items():
            if not witness.ok:
                return f"{self.label:>8}: FAIL  {name}: {witness.detail}"
        stats = ", ".join(
            f"{key} {value[:16]}" if isinstance(value, str) else f"{value} {key}"
            for key, value in self.stats.items()
        )
        hashes = ", ".join(
            f"{name} {witness.hash_a[:16]}"
            for name, witness in self.witnesses.items()
        )
        return f"{self.label:>8}: OK  {stats}; {hashes}"


def _digest(source: WitnessSource) -> str:
    if isinstance(source, str):
        return source
    if isinstance(source, RunTrace):
        return hash_trace(source)
    return source.sha256


def _trace_detail(a: RunTrace, b: RunTrace) -> str:
    divergence = first_divergence(a, b)
    return divergence.render() if divergence is not None else "hashes differ"


def _detail(a: WitnessSource, b: WitnessSource, hash_a: str, hash_b: str) -> str:
    """Where two witnesses of one kind first disagree."""
    if isinstance(a, RunTrace) and isinstance(b, RunTrace):
        return _trace_detail(a, b)
    if not isinstance(a, (str, RunTrace)) and not isinstance(b, (str, RunTrace)):
        divergent = [
            index
            for index, (x, y) in enumerate(zip(a.shard_hashes, b.shard_hashes))
            if x != y
        ]
        if not divergent:
            return (
                "shard traces agree; merged stats/ledger state diverged "
                f"({hash_a[:16]} vs {hash_b[:16]})"
            )
        return (
            f"shard trace hash(es) differ at index {divergent}; "
            + _trace_detail(a.trace, b.trace)
        )
    return f"hashes differ: {hash_a[:16]} vs {hash_b[:16]}"


def compare(label: str, run_a: Run, run_b: Run) -> ParityResult:
    """Witness by witness verdict on two runs that must agree."""
    if run_a.witnesses.keys() != run_b.witnesses.keys():
        raise ValueError(
            f"{label}: runs name different witnesses "
            f"{list(run_a.witnesses)} vs {list(run_b.witnesses)}"
        )
    witnesses: dict[str, Witness] = {}
    for name, a in run_a.witnesses.items():
        b = run_b.witnesses[name]
        hash_a, hash_b = _digest(a), _digest(b)
        detail = None if hash_a == hash_b else _detail(a, b, hash_a, hash_b)
        witnesses[name] = Witness(hash_a, hash_b, detail)
    return ParityResult(label, witnesses, dict(run_b.stats))


# ----------------------------------------------------------------------
# Run builders
# ----------------------------------------------------------------------

Attach = Callable[[CloudBurstEnvironment], object]
Builder = Callable[[str, CheckContext], Run]


def _run(scheduler: str, ctx: CheckContext, *attach: Attach) -> RunTrace:
    """One seeded ``run_one`` with each ``attach`` armed in order."""

    def hook(env: CloudBurstEnvironment) -> None:
        for arm in attach:
            arm(env)

    return run_one(scheduler, ctx.spec, batches=ctx.batches, env_hook=hook)


def _invariants(ctx: CheckContext) -> tuple[Attach, ...]:
    return (install_invariants,) if ctx.invariants else ()


def _attach_spot_econ(env: CloudBurstEnvironment) -> None:
    """Billing on a finite-bid spot market, so preemption is exercised."""
    from ..econ import EconConfig, SpotMarketConfig, attach_econ

    attach_econ(
        env,
        EconConfig(spot=SpotMarketConfig(bid_usd_per_hour=0.13, variation=0.4)),
    )


def _policy_check_config() -> "PolicyConfig":
    """The convergence-under-churn policy the check pass drives.

    A steady target above the default EC pool size, converging
    *effective* capacity with a launch delay — so spot preemptions and
    offline windows force replacement launches mid-run and the
    delete-offline reclaim path runs too.
    """
    from ..policy import ConvergerConfig, PolicyConfig, ScalingPolicy

    return PolicyConfig(
        policies=(
            ScalingPolicy(
                name="hold-capacity", action="target", amount=6,
                max_capacity=16,
            ),
        ),
        converger=ConvergerConfig(interval_s=180.0, launch_delay_s=30.0),
    )


def _attach_check_policy(env: CloudBurstEnvironment) -> None:
    from ..policy import attach_policy

    attach_policy(env, _policy_check_config())


def _attach_idle_policy(env: CloudBurstEnvironment) -> None:
    """A converger whose one policy can never trigger."""
    from ..policy import ConvergerConfig, PolicyConfig, ScalingPolicy, attach_policy

    attach_policy(
        env,
        PolicyConfig(
            policies=(
                ScalingPolicy(
                    name="never", trigger="queue", queue_at_least=10**9,
                    action="step_up",
                ),
            ),
            converger=ConvergerConfig(interval_s=120.0),
        ),
    )


def _paper_run(scheduler: str, ctx: CheckContext) -> Run:
    trace = _run(scheduler, ctx, *_invariants(ctx))
    return Run({"trace": trace}, {"records": len(trace.records)})


def _econ_run(scheduler: str, ctx: CheckContext) -> Run:
    trace = _run(scheduler, ctx, *_invariants(ctx), _attach_spot_econ)
    econ = trace.metadata["econ"]
    return Run(
        {"trace": trace, "ledger": str(econ["ledger_sha256"])},
        {"records": len(trace.records), "preemptions": int(econ["preemptions"])},
    )


def _policy_run(scheduler: str, ctx: CheckContext) -> Run:
    trace = _run(
        scheduler, ctx, *_invariants(ctx), _attach_spot_econ, _attach_check_policy
    )
    policy = trace.metadata["policy"]
    steps = policy["summary"]["steps"]
    return Run(
        {"trace": trace, "audit": str(policy["audit_sha256"])},
        {
            "records": len(trace.records),
            "ticks": int(policy["summary"]["ticks"]),
            "steps": sum(n for kind, n in steps.items() if kind != "failed"),
            "preemptions": int(trace.metadata["econ"]["preemptions"]),
        },
    )


def _idle_run(attached: bool, scheduler: str, ctx: CheckContext) -> Run:
    trace = _run(scheduler, ctx, *((_attach_idle_policy,) if attached else ()))
    stats: dict[str, Union[int, str]] = {"records": len(trace.records)}
    if attached:
        stats["ticks"] = int(trace.metadata["policy"]["summary"]["ticks"])
    return Run({"trace": trace}, stats)


def _fleet_load(
    scheduler: str,
    ctx: CheckContext,
    n_jobs: int,
    *,
    registry: "Optional[TenantRegistry]" = None,
    executor: Optional[str] = None,
    telemetry: bool = True,
) -> "FleetReport":
    """One seeded open-loop fleet run; its merged report."""
    # Local import: repro.fleet builds on this module's hash_trace.
    from ..fleet import FleetConfig, FleetLoadConfig, run_fleet_load

    result = run_fleet_load(
        FleetConfig(
            n_shards=ctx.n_shards,
            seed=ctx.fleet_seed,
            scheduler=scheduler,
            telemetry=telemetry,
        ),
        FleetLoadConfig(n_jobs=n_jobs, rate_per_s=50.0, seed=ctx.fleet_seed),
        registry=registry,
        executor=executor,
    )
    return result.report


def _fleet_run(scheduler: str, ctx: CheckContext) -> Run:
    from ..fleet import BRONZE, TenantRegistry, TenantSpec, default_registry

    registry = TenantRegistry(list(default_registry(11)))
    # A deliberately starved tenant: the quota refusal path must be
    # part of what the digest certifies.
    registry.register(
        TenantSpec(tenant_id="starved-012", sla_class=BRONZE, quota_jobs=5)
    )
    report = _fleet_load(scheduler, ctx, ctx.fleet_jobs, registry=registry)
    return Run(
        {"fleet": report},
        {
            "records": len(report.trace.records),
            "quota refusals": report.quota_rejected,
        },
    )


def _exec_run(executor: str, scheduler: str, ctx: CheckContext) -> Run:
    report = _fleet_load(scheduler, ctx, ctx.fleet_jobs // 2, executor=executor)
    return Run({"fleet": report}, {"records": len(report.trace.records)})


def _obs_run(attached: bool, scheduler: str, ctx: CheckContext) -> Run:
    from ..obs import attach_obs

    trace = _run(scheduler, ctx, *((attach_obs,) if attached else ()))
    report = _fleet_load(
        scheduler, ctx, ctx.fleet_jobs // 2, telemetry=attached
    )
    stats: dict[str, Union[int, str]] = {"records": len(trace.records)}
    if attached:
        obs = trace.metadata["obs"]
        stats["families"] = len(obs["registry"]["families"])
        stats["spans"] = int(obs["spans"]["summary"]["kept"])
        stats["registry"] = str(obs["registry_sha256"])
    return Run({"trace": trace, "fleet": report}, stats)


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ParityPass:
    """One row of the ``repro check`` table: two run builders to compare."""

    name: str
    #: One line on what runs twice and what must agree.
    header: str
    run_a: Builder
    run_b: Builder
    #: The schedulers a per-scheduler pass covers (``--scheduler``
    #: narrows them); ``None`` runs the pass once, on ONCE_SCHEDULER.
    schedulers: Optional[tuple[str, ...]] = None
    #: Result label, formatted with ``scheduler`` and ``ctx``.
    label: str = "{scheduler}"

    def schedulers_for(
        self, selection: Optional[Sequence[str]] = None
    ) -> tuple[str, ...]:
        if self.schedulers is None:
            return (ONCE_SCHEDULER,)
        return tuple(selection) if selection else self.schedulers

    def heading(self, selection: Optional[Sequence[str]] = None) -> str:
        if self.schedulers is None:
            return f"{self.name} check: {self.header}"
        n = len(self.schedulers_for(selection))
        return f"{self.name} check: {n} scheduler(s), {self.header}"

    def check(self, scheduler: str, ctx: CheckContext) -> ParityResult:
        """Build both runs for ``scheduler`` and compare their witnesses."""
        return compare(
            self.label.format(scheduler=scheduler, ctx=ctx),
            self.run_a(scheduler, ctx),
            self.run_b(scheduler, ctx),
        )

    def results(
        self, ctx: CheckContext, selection: Optional[Sequence[str]] = None
    ) -> Iterator[ParityResult]:
        for scheduler in self.schedulers_for(selection):
            yield self.check(scheduler, ctx)


#: Every pass ``repro check`` runs, in order.
PASSES: tuple[ParityPass, ...] = (
    ParityPass(
        "paper",
        "double-run, trace hash",
        _paper_run,
        _paper_run,
        schedulers=PAPER_SCHEDULERS,
    ),
    ParityPass(
        "econ",
        "double-run with billing + spot preemption, trace + ledger hashes",
        _econ_run,
        _econ_run,
        schedulers=ECON_SCHEDULERS,
    ),
    ParityPass(
        "fleet",
        "multi-tenant sharded double-run, merged trace/ledger/stats digest",
        _fleet_run,
        _fleet_run,
        label="fleet[{ctx.n_shards}]",
    ),
    ParityPass(
        "exec",
        "one fleet workload under the inprocess and multiprocess "
        "executors, one digest",
        partial(_exec_run, "inprocess"),
        partial(_exec_run, "multiprocess"),
        label="exec[{ctx.n_shards}]",
    ),
    ParityPass(
        "obs",
        "telemetry off vs on, trace hash and fleet digest must not move",
        partial(_obs_run, False),
        partial(_obs_run, True),
        label="obs",
    ),
    ParityPass(
        "policy",
        "convergence autoscaler under spot churn, trace + audit double-run",
        _policy_run,
        _policy_run,
        schedulers=ECON_SCHEDULERS,
    ),
    ParityPass(
        "idle",
        "no policy vs a never-firing one, trace hash must not move",
        partial(_idle_run, False),
        partial(_idle_run, True),
        label="idle",
    ),
)
