"""The three user paths the benchmark drives.

Each workload turns ``--seed`` into inputs (:meth:`setup`), then runs
one *pass* over them (:meth:`run_pass`): a fixed amount of work through
the path a user of the repository waits on.  A pass returns its wall
time, the wall time of every user-facing call inside it, the jobs it
moved and a digest of its outputs.  ``run.py`` repeats
passes until the run's time is spent and checks that every pass of a
run reports the same digest.  The CPU-bound workloads report their
times in reference seconds (see ``hostspeed.py``); the raw wall times
stay in each pass's ``detail``.

* ``replay_large``  -- ``run_one`` for each paper scheduler on one
  LARGE-bucket batch sequence (closed replay, as fast as it can run).
* ``broker_poisson`` -- one in-process ``BurstBroker`` (Op scheduler)
  fed single-job Poisson arrivals, submit after submit, then drained.
* ``fleet_http`` -- one ``FleetClient`` on one keep-alive connection to
  a ``FleetAPIServer`` served by ``fleet_launcher.py`` in its own
  process, multiprocess executor, then drained to the merged digest
  and checked against an in-process replay of the same request log.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Optional

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
LAUNCHER = Path(__file__).resolve().parent / "fleet_launcher.py"
#: Reports and span files, under the checkout and ignored by git.
OUT_DIR = ROOT / ".perfbench"


@dataclass
class PassResult:
    """One pass over a workload's inputs.

    On a host-adjusted workload every time is in reference seconds.
    """

    wall_s: float
    #: Wall seconds of each user-facing call (run_one / submit / POST).
    calls_s: list[float]
    jobs: int
    #: Seconds the throughput figure divides ``jobs`` by.
    busy_s: float
    digest: str
    failures: list[str] = field(default_factory=list)
    #: Peak resident set of the processes serving the pass, when they
    #: are not this process.
    rss_mb: Optional[float] = None
    detail: dict[str, Any] = field(default_factory=dict)
    #: Spans recorded in another process, already on this clock's axis.
    remote_spans: list[Any] = field(default_factory=list)
    #: What each call ran, when the calls of a pass are different programs.
    call_labels: Optional[list[str]] = None
    #: The calibration round that closed the pass, on a host-adjusted
    #: workload; the next set-up starts from it.
    last_round_s: Optional[float] = None


class Workload:
    """Inputs from a seed, passes over them, checks of their outputs."""

    name = ""
    #: Whether one untimed pass should run first.  Work in this process
    #: needs it: in trials the first pass ran 20-35% slower while the
    #: allocator, caches and lazy imports settled.
    warm_up = True
    #: Whether times are scaled to reference seconds by calibration
    #: rounds around the timed work (CPU-bound work only).
    host_adjusted = True
    #: Set during a traced pass: spans are tagged with the call's id.
    recorder: Any = None

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    @staticmethod
    def inputs_key(inputs: Any) -> str:
        """A digest of the generated inputs."""
        raise NotImplementedError

    def run_pass(self, inputs: Any, round_s: Optional[float]) -> PassResult:
        """One pass; ``round_s`` is the calibration round just before it
        on a host-adjusted workload, else None."""
        raise NotImplementedError

    def verify(self, result: PassResult) -> list[str]:
        """Checks that must run outside the timed and traced pass."""
        return []

    def _tag(self, tag: str) -> None:
        if self.recorder is not None:
            self.recorder.tag = tag


def _seeded(seed: int, label: str) -> int:
    """A 31-bit seed derived from the run seed and a label."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


# ----------------------------------------------------------------------
# replay_large
# ----------------------------------------------------------------------
class ReplayLarge(Workload):
    """``run_one`` for ICOnly, Greedy, Op and OpSIBS on one sequence."""

    name = "replay_large"

    def __init__(self, n_batches: int = 300) -> None:
        self.n_batches = n_batches

    def setup(self, seed: int) -> Any:
        """The batch sequence only: ``run_one`` pretrains its own QRSM,
        so replay pretraining is timed in ``wall_s``, not ``setup_s``."""
        import repro.experiments.runner as runner
        from repro.experiments.config import DEFAULT_SPEC
        from repro.workload.distributions import Bucket

        spec = replace(
            DEFAULT_SPEC.with_bucket(Bucket.LARGE), n_batches=self.n_batches
        ).with_seed(_seeded(seed, "replay-workload"))
        spec = replace(spec, training_seed=_seeded(seed, "replay-training"))
        return spec, runner.build_workload(spec)

    @staticmethod
    def inputs_key(inputs: Any) -> str:
        _spec, batches = inputs
        h = hashlib.sha256()
        for batch in batches:
            for job in batch.jobs:
                h.update(repr((batch.batch_id, job.job_id, job.input_mb,
                               job.arrival_time)).encode())
        return h.hexdigest()

    def run_pass(self, inputs: Any, round_s: Optional[float]) -> PassResult:
        """Each ``run_one`` call sits between two calibration rounds and
        is scaled by them on its own."""
        import repro.experiments.runner as runner
        from repro.analysis.determinism import hash_trace

        spec, batches = inputs
        n_jobs = sum(len(b.jobs) for b in batches)
        calls: list[float] = []
        raw_calls: list[float] = []
        per_scheduler: dict[str, float] = {}
        digests: dict[str, str] = {}
        failures: list[str] = []
        before = round_s
        for name in runner.PAPER_SCHEDULERS:
            self._tag(name)
            t0 = time.perf_counter()
            trace = runner.run_one(name, spec, batches=batches)
            dt = time.perf_counter() - t0
            after = hostspeed.round_s()
            raw_calls.append(dt)
            dt *= hostspeed.scale(before, after)
            before = after
            calls.append(dt)
            per_scheduler[name] = dt
            try:
                trace.validate()
            except ValueError as exc:
                failures.append(f"{name}: trace invalid: {exc}")
            digests[name] = hash_trace(trace)
        wall = sum(calls)
        return PassResult(
            wall_s=wall,
            calls_s=calls,
            jobs=n_jobs * len(calls),
            busy_s=wall,
            digest=_digest_of(digests),
            failures=failures,
            call_labels=list(per_scheduler),
            last_round_s=before,
            detail={"scheduler_s": per_scheduler, "digests": digests,
                    "raw_wall_s": sum(raw_calls), "raw_calls_s": raw_calls,
                    "n_batches": len(batches), "n_jobs": n_jobs},
        )


# ----------------------------------------------------------------------
# broker_poisson
# ----------------------------------------------------------------------
def _production_policy() -> Any:
    """The bounded admission policy the repo's load drivers use."""
    from repro.metrics.tickets import ProportionalTicket
    from repro.service import SLAPolicy

    return SLAPolicy(
        ticket=ProportionalTicket(base_s=300.0, factor=6.0),
        degraded_slack_s=-120.0,
        max_in_system=60,
    )


#: Poisson arrivals per virtual second.  In sizing, 0.1/s admitted
#: 4,000 of 4,000 jobs under the bounded policy and played ~11.7k events;
#: at 50/s the same policy refuses ~98% and the pass measures refusals.
BROKER_RATE_PER_S = 0.1


class BrokerPoisson(Workload):
    """One in-process broker session fed single-job Poisson arrivals."""

    name = "broker_poisson"

    def __init__(self, n_jobs: int = 4000) -> None:
        self.n_jobs = n_jobs

    def setup(self, seed: int) -> Any:
        import repro.experiments.runner as runner
        from repro.metrics.streaming import StreamingSLAStats
        from repro.service import BurstBroker, LoadGenConfig, generate_arrivals
        from repro.sim.environment import CloudBurstEnvironment, SystemConfig
        from repro.workload.generator import WorkloadGenerator

        config = LoadGenConfig(
            n_jobs=self.n_jobs,
            rate_per_s=BROKER_RATE_PER_S,
            process="poisson",
            seed=_seeded(seed, "broker-arrivals"),
        )
        arrivals = list(generate_arrivals(config))
        trainer = WorkloadGenerator(bucket=config.bucket,
                                    seed=_seeded(seed, "broker-training"))
        env = CloudBurstEnvironment(SystemConfig(seed=_seeded(seed, "broker-system")))
        env.pretrain_qrsm(*trainer.sample_training_set(400))
        scheduler = runner.make_scheduler("Op", env)
        broker = BurstBroker(
            env, scheduler, policy=_production_policy(),
            stats=StreamingSLAStats(reservoir_seed=_seeded(seed, "broker-stats")),
        )
        return arrivals, broker

    @staticmethod
    def inputs_key(inputs: Any) -> str:
        arrivals, _broker = inputs
        h = hashlib.sha256()
        for t, jobs in arrivals:
            for job in jobs:
                h.update(repr((t, job.job_id, job.input_mb)).encode())
        return h.hexdigest()

    def run_pass(self, inputs: Any, round_s: Optional[float]) -> PassResult:
        """The pass sits between two calibration rounds; one scale
        applies to all of its calls."""
        from repro.analysis.determinism import hash_trace

        arrivals, broker = inputs
        before = round_s
        calls: list[float] = []
        clock = time.perf_counter
        n_jobs = 0
        for i, (arrival_time, jobs) in enumerate(arrivals):
            self._tag(f"submit-{i}")
            t0 = clock()
            broker.submit(jobs, arrival_time=arrival_time)
            calls.append(clock() - t0)
            n_jobs += len(jobs)
        self._tag("finish")
        t0 = clock()
        trace = broker.finish()
        finish_s = clock() - t0
        after = hostspeed.round_s()
        factor = hostspeed.scale(before, after)
        raw_wall = sum(calls) + finish_s
        calls = [c * factor for c in calls]
        finish_s *= factor
        failures: list[str] = []
        try:
            trace.validate()
        except ValueError as exc:
            failures.append(f"broker trace invalid: {exc}")
        admission = trace.metadata["admission"]
        if admission["submitted"] != n_jobs:
            failures.append(
                f"broker counted {admission['submitted']} submissions of {n_jobs}"
            )
        submit_s = sum(calls)
        return PassResult(
            wall_s=submit_s + finish_s,
            calls_s=calls,
            jobs=n_jobs,
            busy_s=submit_s,
            digest=_digest_of({"trace": hash_trace(trace), "admission": admission}),
            failures=failures,
            detail={"finish_s": finish_s, "admission": admission,
                    "events": broker.env.sim.events_processed,
                    "raw_wall_s": raw_wall, "scale": factor},
            last_round_s=after,
        )


# ----------------------------------------------------------------------
# fleet_http
# ----------------------------------------------------------------------
def fleet_shards() -> int:
    """At most two shards, never more than the cores this process may use."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def fleet_config(seed: int, executor: str) -> Any:
    """The fleet both the launcher and the in-process replay build."""
    from repro.fleet import FleetConfig

    return FleetConfig(
        n_shards=fleet_shards(),
        seed=_seeded(seed, "fleet"),
        scheduler="Op",
        policy=_production_policy(),
        executor=executor,
    )


def request_log(seed: int, n_requests: int) -> list[tuple[str, int, float]]:
    """Seeded ``(tenant, n_jobs, arrival_time_s)`` groups, times increasing.

    Group sizes are a seeded shuffle of 1, 2, 3, 4, 1, 2, ..., so every
    seed posts the same number of jobs and ``jobs_per_s`` compares
    across seeds.
    """
    from repro.fleet import default_registry

    tenants = [t.tenant_id for t in default_registry()]
    rng = random.Random(_seeded(seed, "fleet-requests"))
    sizes = [1 + i % 4 for i in range(n_requests)]
    rng.shuffle(sizes)
    t = 0.0
    log = []
    for size in sizes:
        t += rng.expovariate(1.0 / 25.0)
        log.append((rng.choice(tenants), size, round(t, 6)))
    return log


def _children_rss_mb(pid: int) -> float:
    """Summed peak resident set of every child process of ``pid``."""
    total_kb = 0
    task_dir = Path(f"/proc/{pid}/task")
    children: list[str] = []
    for task in task_dir.iterdir():
        children += (task / "children").read_text().split()
    for child in children:
        for line in Path(f"/proc/{child}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


class _Launcher:
    """The fleet launcher process: ``serve_fleet`` on port 0."""

    def __init__(self, seed: int, spans_path: Optional[Path]) -> None:
        args = [sys.executable, str(LAUNCHER), "--seed", str(seed)]
        if spans_path is not None:
            args += ["--spans", str(spans_path)]
        env = dict(os.environ)
        # The digest line must reach us when the drain ends, not at the
        # launcher's exit, or drain_s would count its teardown.
        env["PYTHONUNBUFFERED"] = "1"
        env["PYTHONPATH"] = str(ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.proc = subprocess.Popen(
            args, cwd=str(ROOT), env=env, stdout=subprocess.PIPE, text=True,
        )
        line = self._line()
        prefix = "fleet API listening on "
        while not line.startswith(prefix):
            line = self._line()
        self.url = line[len(prefix):].strip()

    def _line(self) -> str:
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"fleet launcher exited early ({self.proc.wait()})")
        return line

    def drain(self) -> tuple[Optional[str], list[str], dict[str, Any]]:
        """SIGTERM, then read the digest, ``LOST`` lines and the summary."""
        self.proc.send_signal(signal.SIGTERM)
        sha: Optional[str] = None
        lost: list[str] = []
        summary: dict[str, Any] = {}
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            if line.startswith("fleet sha256: "):
                sha = line.split(": ", 1)[1].strip()
                summary["digest_at"] = time.perf_counter()
            elif line.startswith("LOST shard"):
                lost.append(line.strip())
            elif line.startswith("launcher "):
                summary.update(json.loads(line[len("launcher "):]))
        self.proc.wait(timeout=60)
        return sha, lost, summary

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=60)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class FleetHTTP(Workload):
    """Closed-loop HTTP submits through a live fleet front."""

    name = "fleet_http"
    #: Every pass starts fresh server and worker processes.
    warm_up = False
    #: Its round trip sits on a ~48 ms floor that is a timer, not CPU
    #: work, so host speed barely moves it and scaling would add noise.
    host_adjusted = False

    def __init__(self, n_requests: int = 200) -> None:
        self.n_requests = n_requests

    def setup(self, seed: int) -> Any:
        """Start the launcher and wait until ``/v1/health`` is ok."""
        from repro.fleet import FleetAPIError, FleetClient

        log = request_log(seed, self.n_requests)
        spans_path = None
        if self.recorder is not None:
            spans_path = OUT_DIR / f"launcher-spans-{seed}.json.gz"
        launcher = _Launcher(seed, spans_path)
        try:
            client = FleetClient(launcher.url)
            deadline = time.monotonic() + 150.0
            while True:
                try:
                    if client.health().status == "ok":
                        break
                except FleetAPIError as exc:
                    if exc.code != "starting":
                        raise
                if time.monotonic() > deadline:
                    raise RuntimeError("fleet did not become healthy")
                time.sleep(0.02)
        except BaseException:
            launcher.kill()
            raise
        return seed, log, launcher, client, spans_path

    @staticmethod
    def inputs_key(inputs: Any) -> str:
        return _digest_of(inputs[1])

    def run_pass(self, inputs: Any, round_s: Optional[float]) -> PassResult:
        from repro.fleet import FleetAPIError

        seed, log, launcher, client, spans_path = inputs
        calls: list[float] = []
        failures: list[str] = []
        n_jobs = 0
        clock = time.perf_counter
        try:
            pass_start = clock()
            for i, (tenant, count, arrival) in enumerate(log):
                self._tag(f"request-{i}")
                t0 = clock()
                try:
                    result = client.submit(tenant, count, arrival)
                except FleetAPIError as exc:
                    failures.append(f"POST /v1/jobs: {exc}")
                    calls.append(clock() - t0)
                    continue
                calls.append(clock() - t0)
                if len(result.outcomes) != count:
                    failures.append(
                        f"{tenant}: {len(result.outcomes)} outcomes for {count} jobs"
                    )
                n_jobs += count
            last_reply = clock()
            scrape = client.metrics()
            rss_mb = _children_rss_mb(launcher.proc.pid)
            client.close()
            drain_start = clock()
            sha, lost, summary = launcher.drain()
        finally:
            client.close()
            launcher.kill()
        failures += lost
        if sha is None:
            failures.append("fleet launcher printed no digest")
        worker_cpu = _histogram_sum(scrape, "fleet_worker_command_cpu_seconds", op="submit")
        retries = _family_total(scrape, "fleet_executor_retries_total")
        lost_total = _family_total(scrape, "fleet_shards_lost_total")
        if lost_total:
            failures.append(f"{lost_total:g} shards lost")
        rss_mb += float(summary.get("rss_mb", 0.0))
        drain_s = summary.get("digest_at", drain_start) - drain_start
        if summary.get("unrestored"):
            failures.append(f"launcher left wrapped: {summary['unrestored']}")
        remote = []
        if spans_path is not None and spans_path.exists():
            remote = _load_spans(spans_path, summary)
        busy = sum(calls)
        return PassResult(
            wall_s=(last_reply - pass_start) + drain_s,
            calls_s=calls,
            jobs=n_jobs,
            busy_s=busy,
            digest=sha or "missing",
            failures=failures,
            rss_mb=rss_mb,
            detail={"drain_s": drain_s, "worker_cpu_submit_s": worker_cpu,
                    "retries": retries, "shards_lost": lost_total,
                    "n_shards": fleet_shards(), "requests": len(log),
                    "seed": seed},
            remote_spans=remote,
        )

    def verify(self, result: PassResult) -> list[str]:
        """HTTP versus in-process parity on the exact request log."""
        if result.digest == "missing":
            return []
        log = request_log(result.detail["seed"], result.detail["requests"])
        parity = replay_in_process(result.detail["seed"], log)
        if parity != result.digest:
            return [f"HTTP digest {result.digest[:16]} != in-process {parity[:16]}"]
        return []


def replay_in_process(seed: int, log: list[tuple[str, int, float]]) -> str:
    """The same request log through an in-process manager; its digest."""
    from repro.fleet import FleetManager, default_registry

    manager = FleetManager(fleet_config(seed, "inprocess"), default_registry())
    for tenant, count, arrival in log:
        manager.submit_count(tenant, count, arrival)
    return manager.finish().sha256


def _histogram_sum(scrape: Any, family: str, **labels: str) -> float:
    want = tuple(sorted(labels.items()))
    total = 0.0
    for fam in scrape.families:
        if fam.name != family:
            continue
        for sample in fam.samples:
            if sample.name == family + "_sum" and all(
                pair in sample.labels for pair in want
            ):
                total += sample.value
    return total


def _family_total(scrape: Any, family: str) -> float:
    return sum(
        sample.value
        for fam in scrape.families if fam.name == family
        for sample in fam.samples
    )


def _load_spans(path: Path, summary: dict[str, Any]) -> list[Any]:
    """Launcher spans moved onto this process's ``perf_counter`` axis.

    Both processes read the same monotonic clock, so the offset the
    launcher reports between its ``perf_counter`` and ``time.monotonic``
    suffices.
    """
    import gzip

    offset = float(summary.get("perf_minus_monotonic", 0.0))
    here = time.perf_counter() - time.monotonic()
    shift = here - offset
    spans = []
    with gzip.open(path, "rt", encoding="utf-8") as src:
        for line in src:
            name, start, end, parent, tag, note = json.loads(line)
            spans.append((name, start + shift, end + shift, parent, tag, note))
    path.unlink()
    return spans


def _digest_of(value: Any) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True, default=str).encode()).hexdigest()


WORKLOADS = {
    "replay_large": ReplayLarge,
    "broker_poisson": BrokerPoisson,
    "fleet_http": FleetHTTP,
}
