"""Smoke-size tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q

Each workload runs at a tiny size, so the whole file takes well under a
minute (the fleet test starts real server and worker processes).
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: The form every workload and metric name in BENCHMARK.json must take.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

SMOKE = {
    "replay_large": {"n_batches": 4},
    "broker_poisson": {"n_jobs": 40},
    "fleet_http": {"n_requests": 5},
}


def _bench_json() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _smoke(name: str, trace: bool, seed: int = 3) -> dict:
    return run.measure(name, seed, 0.0, trace, sizes=SMOKE[name])


def test_declared_metrics_match_what_the_benchmark_emits() -> None:
    bench = _bench_json()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.LAYER_UNITS
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)


def test_every_name_is_well_formed() -> None:
    bench = _bench_json()
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_every_metric_is_emitted_with_its_unit(name: str) -> None:
    untraced = _smoke(name, trace=False)
    assert untraced["failures"] == []
    assert {k: v["unit"] for k, v in untraced["metrics"].items()} == run.E2E_UNITS
    assert all(v["value"] > 0 for v in untraced["metrics"].values())
    traced = _smoke(name, trace=True)
    assert traced["failures"] == []
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == run.LAYER_UNITS
    assert traced["digest"] == untraced["digest"]


def test_wrapped_functions_are_the_originals_after_a_traced_run() -> None:
    targets = tracing.in_process_targets()
    before = {(id(t.owner), t.attr): t.owner.__dict__[t.attr] for t in targets}
    import repro.experiments.runner as runner

    factory = runner.make_scheduler
    report = _smoke("broker_poisson", trace=True)
    assert report["metrics"]["service.quote_calls"]["value"] > 0
    for t in targets:
        assert t.owner.__dict__[t.attr] is before[(id(t.owner), t.attr)], t.attr
    assert runner.make_scheduler is factory


def test_adjusted_times_scale_with_the_calibration_round() -> None:
    assert hostspeed.scale(hostspeed.REFERENCE_S, hostspeed.REFERENCE_S) == 1.0
    assert hostspeed.scale(0.1, 0.3) == pytest.approx(hostspeed.REFERENCE_S / 0.2)
    report = _smoke("replay_large", trace=False)
    for p in report["passes"]:
        raw = p["detail"]["raw_calls_s"]
        assert len(raw) == 4 and all(r > 0 for r in raw)
        assert p["detail"]["raw_wall_s"] == pytest.approx(sum(raw))


def test_restoration_holds_when_the_traced_block_raises() -> None:
    targets = tracing.in_process_targets()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.SpanRecorder(), targets) as saved:
            raise RuntimeError("boom")
    assert tracing.check_restored(saved) == []


@pytest.mark.parametrize("name", ["replay_large", "broker_poisson"])
def test_a_different_seed_changes_the_inputs(name: str) -> None:
    workload = workloads.WORKLOADS[name](**SMOKE[name])
    first, again, other = (workload.inputs_key(workload.setup(seed)) for seed in (1, 1, 2))
    assert first == again
    assert first != other


def test_a_different_seed_changes_the_request_log() -> None:
    assert workloads.request_log(1, 20) == workloads.request_log(1, 20)
    assert workloads.request_log(1, 20) != workloads.request_log(2, 20)


def test_arrival_times_of_the_request_log_increase() -> None:
    times = [t for _, _, t in workloads.request_log(5, 50)]
    assert times == sorted(times) and len(set(times)) == len(times)
