"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload replay_large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload fleet_http --seed 1 --seconds 30 --trace 1

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
On the CPU-bound workloads every time is in reference seconds (see
``hostspeed.py``) and each metric is the median among the run's passes;
on ``fleet_http`` it is the best raw figure.
``--trace 1`` makes the same untraced passes and then one traced pass,
checks that both give the same digests, and reports the per-layer
metrics of the traced pass plus the tracing overhead (the traced pass
minus the median untraced pass).  The last line of standard output is
the JSON result; the full report, machine facts included, goes to
``.perfbench/`` under the repository root.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

# One BLAS thread, in this process and the fleet processes it starts.
# The program's matrices are a few dozen wide, too small to gain from a
# second thread; on two shared vCPUs a worker thread only waits for the
# other vCPU, and in trials that wait alone moved a replay call by 40%.
# Set before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hostspeed  # noqa: E402
from workloads import OUT_DIR, ROOT, WORKLOADS  # noqa: E402

#: The paper's schedulers, in the order ``replay_large`` runs them.
SCHEDULERS = ("ICOnly", "Greedy", "Op", "OpSIBS")

#: Per-scheduler layer seconds of the traced replay: label -> span name.
REPLAY_LAYERS = {
    "build_state_s": "environment.build_state",
    "network_s": "network.rates",
    "plan_s": "core.plan",
}

#: End-to-end metrics and units, reported with tracing off.
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "jobs_per_s": "jobs/s",
    "call_p50_ms": "ms",
    "call_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics and units, reported by the traced run.
LAYER_UNITS = {
    "engine.events": "count",
    "engine.compactions": "count",
    "engine.self_s": "s",
    "engine.events_per_s": "events/s",
    "network.waterfill_calls": "count",
    "network.waterfill_s": "s",
    "network.rates_calls": "count",
    "network.rates_s": "s",
    "network.transfers": "count",
    "environment.build_state_calls": "count",
    "environment.build_state_s": "s",
    "environment.snapshot_jobs_mean": "jobs",
    "core.plan_calls": "count",
    "core.plan_s": "s",
    "core.jobs_planned": "count",
    "core.burst_ratio": "ratio",
    "qrsm.predict_calls": "count",
    "qrsm.predict_s": "s",
    "qrsm.observe_calls": "count",
    "qrsm.observe_s": "s",
    "experiments.pretrain_s": "s",
    "service.submit_s": "s",
    "service.quote_calls": "count",
    "service.quote_s": "s",
    "service.admit_s": "s",
    "service.admit_ratio": "ratio",
    "service.finish_s": "s",
    "fleet.http_handler_s": "s",
    "fleet.http_transport_s": "s",
    "fleet.executor_calls": "count",
    "fleet.executor_call_s": "s",
    "fleet.worker_cpu_s": "s",
    "fleet.ipc_s": "s",
    "fleet.retries": "count",
    "fleet.shards_lost": "count",
    "fleet.drain_s": "s",
    "workload.synth_s": "s",
    "trace.spans": "count",
    **{f"replay.{name}.{label}": "s"
       for name in SCHEDULERS
       for label in ("wall_s", "build_state_s", "network_s", "plan_s")},
    "overhead.setup_s": "s",
    "overhead.wall_s": "s",
    "overhead.jobs_per_s": "jobs/s",
    "overhead.call_p50_ms": "ms",
    "overhead.call_p95_ms": "ms",
}

#: Passes a measured run makes at least, so set-up is timed several times.
MIN_PASSES = 3


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _rss_mb() -> float:
    """This process's peak resident set, less the calibration table."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return peak - hostspeed.TABLE_MB


def pass_figures(setup_s: float, p: Any) -> dict[str, float]:
    """End-to-end figures of one pass."""
    return {
        "setup_s": setup_s,
        "wall_s": p.wall_s,
        "jobs_per_s": p.jobs / p.busy_s,
        "call_p50_ms": percentile(p.calls_s, 50) * 1e3,
        "call_p95_ms": percentile(p.calls_s, 95) * 1e3,
        "peak_rss_mb": p.rss_mb if p.rss_mb is not None else _rss_mb(),
    }


def e2e_metrics(
    figures: list[dict[str, float]], passes: list[Any], adjusted: bool
) -> dict[str, float]:
    """A run's end-to-end metrics from its passes' figures.

    On a shared machine the same code runs up to twice as slow while
    other tenants load the host, in stretches that can outlast a run.
    On a host-adjusted workload each figure is already in reference
    seconds, so the median pass counts.  Otherwise (``fleet_http``, timer-bound)
    the best pass counts: the smallest time and the largest
    ``jobs_per_s``.  ``setup_s`` is always the median set-up, and
    ``peak_rss_mb`` the run's peak.

    When a pass's calls are different programs (the four schedulers of
    ``replay_large``), each program's figure is taken over its own calls
    and the pass figures are rebuilt from those.
    """
    typical = statistics.median if adjusted else min
    pick = {"setup_s": statistics.median, "peak_rss_mb": max,
            "jobs_per_s": statistics.median if adjusted else max}
    out = {k: pick.get(k, typical)(f[k] for f in figures) for k in E2E_UNITS}
    if passes[0].call_labels is not None:
        by_label: dict[str, list[float]] = {}
        for p in passes:
            for label, call_s in zip(p.call_labels, p.calls_s):
                by_label.setdefault(label, []).append(call_s)
        calls = [typical(v) for v in by_label.values()]
        out["wall_s"] = sum(calls)
        out["jobs_per_s"] = passes[0].jobs / out["wall_s"]
        out["call_p50_ms"] = percentile(calls, 50) * 1e3
        out["call_p95_ms"] = percentile(calls, 95) * 1e3
    return out


def _one_pass(
    workload: Any, seed: int, round_s: Optional[float] = None
) -> tuple[float, Any, str]:
    """Set up (timed on its own) and run one pass.

    On a host-adjusted workload calibration rounds bracket the set-up,
    which is scaled by them, and the round after it opens the pass.
    ``round_s`` is a round just taken (the previous pass's last), which
    then opens the set-up instead of a new one.  The previous pass's
    garbage is collected first, so no set-up pays for it.
    """
    gc.collect()
    if workload.host_adjusted and round_s is None:
        round_s = hostspeed.round_s()
    t0 = time.perf_counter()
    inputs = workload.setup(seed)
    setup_s = time.perf_counter() - t0
    key = workload.inputs_key(inputs)
    after = None
    if workload.host_adjusted:
        after = hostspeed.round_s()
        setup_s *= hostspeed.scale(round_s, after)
    return setup_s, workload.run_pass(inputs, after), key


def _check_passes(passes: list[Any], keys: list[str], what: str) -> list[str]:
    failures = [f for p in passes for f in p.failures]
    if len(set(keys)) > 1:
        failures.append(f"{what}: inputs differ between passes of one seed")
    digests = sorted({p.digest for p in passes})
    if len(digests) > 1:
        failures.append(f"{what}: digests differ between passes: {digests}")
    return failures


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """Run one workload and return the full report.

    ``sizes`` overrides the workload's default input size (the smoke
    tests run tiny inputs).
    """
    import tracing

    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[name](**(sizes or {}))
    last_round = None
    if workload.warm_up:
        last_round = _one_pass(workload, seed)[1].last_round_s

    report: dict[str, Any] = {"workload": name, "seed": seed, "trace": int(trace)}
    setups: list[float] = []
    passes: list[Any] = []
    keys: list[str] = []
    # Set-ups, calibration rounds and output checks count against the
    # run's time too, so a run takes about ``seconds`` on any workload.
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        setup_s, result, key = _one_pass(workload, seed, last_round)
        last_round = result.last_round_s
        result.failures += workload.verify(result)
        setups.append(setup_s)
        passes.append(result)
        keys.append(key)
    failures = _check_passes(passes, keys, "untraced")
    figures = [pass_figures(s, p) for s, p in zip(setups, passes)]
    e2e = e2e_metrics(figures, passes, workload.host_adjusted)
    attempted = sum(len(p.calls_s) for p in passes)
    report["passes"] = [
        {**_pass_summary(p), "figures": f} for p, f in zip(passes, figures)
    ]
    report["median_of_passes"] = {
        k: statistics.median(f[k] for f in figures) for k in E2E_UNITS
    }
    report["inputs_key"] = keys[0]
    report["digest"] = passes[0].digest

    if trace:
        recorder = tracing.SpanRecorder()
        workload.recorder = recorder
        try:
            with tracing.installed(recorder, tracing.in_process_targets()) as saved:
                setup_s, traced, key = _one_pass(workload, seed, last_round)
        finally:
            workload.recorder = None
        traced.failures += workload.verify(traced)
        unrestored = tracing.check_restored(saved)
        if unrestored:
            failures.append(f"wrappers left installed: {unrestored}")
        failures += _check_passes([traced], [key], "traced")
        if traced.digest != passes[0].digest:
            failures.append(
                f"traced digest {traced.digest[:16]} != untraced {passes[0].digest[:16]}"
            )
        attempted += len(traced.calls_s)
        spans = recorder.done()
        spans = spans + _rebase(traced.remote_spans, len(spans))
        traced_e2e = pass_figures(setup_s, traced)
        metrics = layer_from_spans(spans, traced)
        # One traced pass against the typical untraced pass, not the best.
        typical = report["median_of_passes"]
        for key_name in ("setup_s", "wall_s", "jobs_per_s", "call_p50_ms", "call_p95_ms"):
            metrics[f"overhead.{key_name}"] = traced_e2e[key_name] - typical[key_name]
        report["traced_pass"] = {**_pass_summary(traced), "figures": traced_e2e}
        report["untraced_e2e"] = e2e
        report["traced_e2e"] = traced_e2e
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl.gz"
        tracing.write_spans(spans, str(spans_path))
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        units = LAYER_UNITS
    else:
        metrics = e2e
        units = E2E_UNITS

    report["failures"] = failures
    report["attempted"] = attempted
    report["failed"] = len(failures)
    report["error_rate"] = len(failures) / attempted if attempted else 1.0
    report["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    report["spread"] = _spread(passes)
    return report


def _rebase(spans: list[Any], offset: int) -> list[Any]:
    """Remote spans appended after ``offset`` local ones; request tags
    follow each front ``do_POST`` span down to its children."""
    out: list[Any] = []
    request = 0
    for name, start, end, parent, tag, note in spans:
        if name == "fleet.http_handler":
            tag = f"request-{request}"
            request += 1
        elif parent >= 0:
            tag = out[parent][4]
        out.append((name, start, end, parent + offset if parent >= 0 else -1, tag, note))
    return out


def layer_from_spans(spans: list[Any], traced: Any) -> dict[str, float]:
    """Per-layer metrics of the traced pass, fleet split included."""
    import tracing

    m = tracing.layer_metrics(spans)
    detail = traced.detail
    worker_cpu = float(detail.get("worker_cpu_submit_s", 0.0))
    client = m.pop("fleet.client_s")
    executor_submit = m.pop("fleet.executor_submit_s")
    m["fleet.worker_cpu_s"] = worker_cpu
    m["fleet.ipc_s"] = executor_submit - worker_cpu if executor_submit else 0.0
    m["fleet.http_transport_s"] = client - m["fleet.http_handler_s"] if client else 0.0
    m["fleet.retries"] = float(detail.get("retries", 0.0))
    m["fleet.shards_lost"] = float(detail.get("shards_lost", 0.0))
    m["fleet.drain_s"] = float(detail.get("drain_s", 0.0))
    m["trace.spans"] = float(len(spans))
    # Each scheduler's wall and split come from the same traced pass, and
    # are raw wall seconds like the spans.
    walls = dict(zip(detail.get("scheduler_s", {}), detail.get("raw_calls_s", [])))
    for name in SCHEDULERS:
        m[f"replay.{name}.wall_s"] = walls.get(name, 0.0)
    for label, span in REPLAY_LAYERS.items():
        per_tag = tracing.seconds_by_tag(spans, span)
        for name in SCHEDULERS:
            m[f"replay.{name}.{label}"] = per_tag.get(name, 0.0)
    return m


def _pass_summary(p: Any) -> dict[str, Any]:
    return {
        "wall_s": p.wall_s,
        "busy_s": p.busy_s,
        "jobs": p.jobs,
        "calls": len(p.calls_s),
        "digest": p.digest,
        "rss_mb": p.rss_mb,
        "detail": p.detail,
    }


def _spread(passes: list[Any]) -> dict[str, float]:
    """Spread of pass wall times inside this run."""
    walls = [p.wall_s for p in passes]
    out = {"passes": len(walls), "min_s": min(walls), "max_s": max(walls)}
    if len(walls) >= 2:
        q1, _, q3 = statistics.quantiles(walls, n=4)
        out["iqr_share"] = (q3 - q1) / statistics.median(walls)
    return out


def facts(seed: int) -> dict[str, Any]:
    """What a reader needs to place a result: machine, versions, seed."""
    import numpy

    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=str(ROOT),
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    return {
        "os_cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "git_commit": commit,
    }


def _importable() -> bool:
    """Whether the program under test is present next to the benchmark."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    return True


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="repro end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _importable():
        print("perfbench: no src/repro next to the benchmark; nothing to run",
              file=sys.stderr)
        return 2
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report["facts"] = facts(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=2, default=str) + "\n")
    _print_human(report)
    print(json.dumps({
        "correct": not report["failures"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


def _print_human(report: dict[str, Any]) -> None:
    f = report["facts"]
    print(f"perfbench {report['workload']} seed={report['seed']} trace={report['trace']}")
    print(f"  machine: {f['cpu_model']}, os.cpu_count={f['os_cpu_count']}, "
          f"nproc={f['nproc']}, {f['platform']}, python {f['python']}, "
          f"numpy {f['numpy']}, commit {f['git_commit']}")
    sp = report["spread"]
    print(f"  passes: {sp['passes']}, pass wall {sp['min_s']:.3f}..{sp['max_s']:.3f} s"
          + (f", IQR {sp['iqr_share']:.1%} of median" if "iqr_share" in sp else ""))
    for p in report["passes"]:
        d = p["detail"]
        extra = ""
        if "scheduler_s" in d:
            extra = " " + " ".join(f"{k}={v:.3f}s" for k, v in d["scheduler_s"].items())
        elif "admission" in d:
            extra = f" finish={d['finish_s']:.3f}s admitted={d['admission']['accepted']}"
        elif "drain_s" in d:
            extra = f" drain={d['drain_s']:.3f}s shards={d['n_shards']}"
        if "raw_wall_s" in d:
            extra += f" raw_wall={d['raw_wall_s']:.3f}s"
        print(f"  pass: setup={p['figures']['setup_s']:.3f}s wall={p['wall_s']:.3f}s "
              f"jobs={p['jobs']} calls={p['calls']}{extra} digest={p['digest'][:16]}")
    print(f"  error_rate: {report['failed']}/{report['attempted']} = {report['error_rate']:.6f}")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")
    for k, v in report["metrics"].items():
        print(f"  {k} = {v['value']:.6g} {v['unit']}")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
