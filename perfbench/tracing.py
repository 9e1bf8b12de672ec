"""Layer spans timed from outside the program.

A traced run wraps public functions of the ``repro`` modules at run time
and records one span per call: name, start, end, parent span and the id
of the batch or request being served.  Nothing under ``src/`` changes.
Where a caller imported a function by name, the name is patched where
that caller looks it up.  :func:`installed` restores every original
object on exit, and :func:`check_restored` proves it.

Spans stay in memory; :func:`write_spans` writes them out at the end.  :func:`layer_metrics` folds them into the per-layer figures.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

#: One recorded span: (name, start_s, end_s, parent_index, tag, note).
Span = tuple[str, float, float, int, str, Any]


class SpanRecorder:
    """In-memory span list with a call stack for parent links."""

    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self._stack: list[int] = []
        #: Id of the batch or request being served, set by the workload.
        self.tag = ""

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        before: Optional[Callable[..., Any]] = None,
        note: Optional[Callable[..., Any]] = None,
    ) -> Callable[..., Any]:
        """``fn`` with a span around each call.

        ``before(*args)`` runs ahead of the clock and its value goes to
        ``note(args, result, pre)``, which runs after the clock stops and
        returns the span's count field.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            pre = before(*args) if before is not None else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.tag, None)
            if note is not None:
                spans[index] = (name, start, end, parent, self.tag, note(args, result, pre))
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def done(self) -> list[Span]:
        """Every span, once no wrapped call is still open."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        return list(self.spans)  # type: ignore[arg-type]


def write_spans(spans: list[Span], path: str) -> None:
    """Write spans as JSON lines, gzip-compressed."""
    with gzip.open(path, "wt", encoding="utf-8") as out:
        for span in spans:
            out.write(json.dumps(span) + "\n")


@dataclass(frozen=True)
class Target:
    """One public function to wrap: ``owner.attr`` becomes a span."""

    owner: Any
    attr: str
    span: str
    before: Optional[Callable[..., Any]] = None
    note: Optional[Callable[..., Any]] = None


def _engine_counts(owner: Any, *_: Any) -> tuple[int, int]:
    """Events and compactions of a Simulator, or of a Session's."""
    sim = owner.env.sim if hasattr(owner, "env") else owner
    return sim.events_processed, sim.compactions


def _engine_note(args: tuple, _result: Any, pre: tuple[int, int]) -> list[int]:
    events, compactions = _engine_counts(args[0])
    return [events - pre[0], compactions - pre[1]]


def _plan_note(args: tuple, plan: Any, _pre: Any) -> list[int]:
    jobs = args[0]
    batch_id = jobs[0].batch_id if jobs else -1
    return [len(plan.decisions), plan.n_bursted, batch_id]


def _admit_note(_args: tuple, result: Any, _pre: Any) -> int:
    return int(result.admitted)


def _snapshot_note(_args: tuple, state: Any, _pre: Any) -> int:
    return len(state.pending_completions)


def _executor_note(args: tuple, _result: Any, _pre: Any) -> str:
    return str(args[2])


def in_process_targets() -> list[Target]:
    """Every layer boundary the benchmark process itself crosses."""
    import repro.experiments.runner as runner
    import repro.service.broker as broker_mod
    import repro.sim.network as network
    from repro.fleet.client import FleetClient
    from repro.models.qrsm import QuadraticResponseSurface
    from repro.service.broker import BurstBroker
    from repro.service.policy import SLAPolicy
    from repro.sim.engine import Simulator
    from repro.sim.environment import CloudBurstEnvironment, Session
    from repro.workload.generator import WorkloadGenerator

    return [
        # sim.engine: the broker plays events through run_until; an
        # offline replay and a broker drain step the heap inside the
        # environment's Session.
        Target(Simulator, "run", "engine.run", _engine_counts, _engine_note),
        Target(Simulator, "run_until", "engine.run", _engine_counts, _engine_note),
        Target(Session, "run_batches", "engine.run", _engine_counts, _engine_note),
        Target(Session, "finish", "engine.run", _engine_counts, _engine_note),
        # sim.network: FluidLink looks waterfill up in its own module.
        Target(network, "waterfill", "network.waterfill"),
        Target(network.FluidLink, "current_rates", "network.rates"),
        Target(network.FluidLink, "start_transfer", "network.transfer"),
        # sim.environment
        Target(CloudBurstEnvironment, "build_state", "environment.build_state",
               note=_snapshot_note),
        # models
        Target(QuadraticResponseSurface, "predict", "qrsm.predict"),
        Target(QuadraticResponseSurface, "predict_many", "qrsm.predict"),
        Target(QuadraticResponseSurface, "observe", "qrsm.observe"),
        Target(CloudBurstEnvironment, "pretrain_qrsm", "experiments.pretrain"),
        # service: the broker imported quote_job by name.
        Target(BurstBroker, "submit", "service.submit"),
        Target(broker_mod, "quote_job", "service.quote"),
        Target(SLAPolicy, "admit", "service.admit", note=_admit_note),
        Target(BurstBroker, "finish", "service.finish"),
        # fleet (client side)
        Target(FleetClient, "submit", "fleet.client_submit"),
        # workload: run_one and the benchmark look build_workload up in
        # the runner module.
        Target(runner, "build_workload", "workload.synth"),
        Target(WorkloadGenerator, "sample_job", "workload.synth"),
    ]


def launcher_targets() -> list[Target]:
    """Layer boundaries inside the fleet launcher process."""
    from repro.fleet.api import _Handler
    from repro.fleet.executor import MultiprocessExecutor
    from repro.fleet.sharding import FleetManager

    return [
        Target(_Handler, "do_POST", "fleet.http_handler"),
        Target(MultiprocessExecutor, "call", "fleet.executor_call",
               note=_executor_note),
        Target(FleetManager, "finish", "fleet.finish"),
    ]


def _scheduler_factory(recorder: SpanRecorder, factory: Callable[..., Any]) -> Callable[..., Any]:
    """``make_scheduler`` whose schedulers record core spans.

    Each scheduler instance gets its ``plan`` and ``plan_online`` wrapped
    on the instance, so the wrappers die with it.
    """

    def make_scheduler(name: str, env: Any) -> Any:
        scheduler = factory(name, env)
        for attr in ("plan", "plan_online"):
            bound = getattr(scheduler, attr)
            setattr(scheduler, attr, recorder.wrap("core.plan", bound, note=_plan_note))
        return scheduler

    make_scheduler.__wrapped__ = factory  # type: ignore[attr-defined]
    return make_scheduler


def _originals(targets: list[Target]) -> list[tuple[Any, str, Any]]:
    return [(t.owner, t.attr, t.owner.__dict__[t.attr]) for t in targets]


@contextlib.contextmanager
def installed(recorder: SpanRecorder, targets: list[Target], schedulers: bool = True) -> Iterator[list[tuple[Any, str, Any]]]:
    """Wrap every target for the duration of the block, then restore.

    Yields the ``(owner, attr, original)`` list that
    :func:`check_restored` verifies after the block.
    """
    saved = _originals(targets)
    if schedulers:
        import repro.experiments.runner as runner

        saved.append((runner, "make_scheduler", runner.__dict__["make_scheduler"]))
    try:
        for target, (_, _, original) in zip(targets, saved):
            setattr(target.owner, target.attr,
                    recorder.wrap(target.span, original, target.before, target.note))
        if schedulers:
            runner.make_scheduler = _scheduler_factory(recorder, saved[-1][2])
        yield saved
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def check_restored(saved: list[tuple[Any, str, Any]]) -> list[str]:
    """Names of wrapped attributes that are not the original object."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, original in saved
        if owner.__dict__.get(attr) is not original
    ]


# ----------------------------------------------------------------------
# Folding spans into per-layer metrics
# ----------------------------------------------------------------------
def _outermost(spans: list[Span]) -> Iterator[tuple[int, Span]]:
    """Spans not nested in a span of the same name.

    A re-entrant path (``plan_online`` delegating to ``plan``,
    ``build_workload`` sampling jobs) then counts once.
    """
    for i, span in enumerate(spans):
        parent = span[3]
        if parent < 0 or spans[parent][0] != span[0]:
            yield i, span


def seconds_by_tag(spans: list[Span], name: str) -> dict[str, float]:
    """Outermost seconds of one span name, per tag."""
    out: dict[str, float] = {}
    for _, (span_name, start, end, _parent, tag, _note) in _outermost(spans):
        if span_name == name:
            out[tag] = out.get(tag, 0.0) + (end - start)
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and seconds of one traced pass."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    counts = {"events": 0, "compactions": 0, "snapshot_jobs": 0, "planned": 0,
              "bursted": 0, "admits": 0, "admitted": 0}
    executor_submit_s = 0.0
    child_s: dict[int, float] = {}
    for span in spans:
        if span[3] >= 0:
            child_s[span[3]] = child_s.get(span[3], 0.0) + (span[2] - span[1])
    engine_self = 0.0
    for i, (name, start, end, _parent, _tag, note) in _outermost(spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        if name == "engine.run":
            counts["events"] += note[0]
            counts["compactions"] += note[1]
            engine_self += dur - child_s.get(i, 0.0)
        elif name == "environment.build_state":
            counts["snapshot_jobs"] += note
        elif name == "core.plan":
            counts["planned"] += note[0]
            counts["bursted"] += note[1]
        elif name == "service.admit":
            counts["admits"] += 1
            counts["admitted"] += note
        elif name == "fleet.executor_call" and note == "submit":
            executor_submit_s += dur

    def c(name: str) -> float:
        return float(calls.get(name, 0))

    def s(name: str) -> float:
        return total.get(name, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "engine.events": float(counts["events"]),
        "engine.compactions": float(counts["compactions"]),
        "engine.self_s": engine_self,
        "engine.events_per_s": ratio(counts["events"], s("engine.run")),
        "network.waterfill_calls": c("network.waterfill"),
        "network.waterfill_s": s("network.waterfill"),
        "network.rates_calls": c("network.rates"),
        "network.rates_s": s("network.rates"),
        "network.transfers": c("network.transfer"),
        "environment.build_state_calls": c("environment.build_state"),
        "environment.build_state_s": s("environment.build_state"),
        "environment.snapshot_jobs_mean": ratio(
            counts["snapshot_jobs"], c("environment.build_state")),
        "core.plan_calls": c("core.plan"),
        "core.plan_s": s("core.plan"),
        "core.jobs_planned": float(counts["planned"]),
        "core.burst_ratio": ratio(counts["bursted"], counts["planned"]),
        "qrsm.predict_calls": c("qrsm.predict"),
        "qrsm.predict_s": s("qrsm.predict"),
        "qrsm.observe_calls": c("qrsm.observe"),
        "qrsm.observe_s": s("qrsm.observe"),
        "experiments.pretrain_s": s("experiments.pretrain"),
        "service.submit_s": s("service.submit"),
        "service.quote_calls": c("service.quote"),
        "service.quote_s": s("service.quote"),
        "service.admit_s": s("service.admit"),
        "service.admit_ratio": ratio(counts["admitted"], counts["admits"]),
        "service.finish_s": s("service.finish"),
        "fleet.client_s": s("fleet.client_submit"),
        "fleet.http_handler_s": s("fleet.http_handler"),
        "fleet.executor_calls": c("fleet.executor_call"),
        "fleet.executor_call_s": s("fleet.executor_call"),
        "fleet.executor_submit_s": executor_submit_s,
        "workload.synth_s": s("workload.synth"),
    }
