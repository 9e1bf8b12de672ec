"""Tests for the determinism harness and the ``repro`` CLI.

The harness's own promise is tested both ways: a seeded double run must
hash identical, and any single-bit perturbation of a trace must change
the hash *and* be located precisely by the first-divergence report.
Every pass of the ``repro check`` table runs here at small sizes, and
each witness kind's FAIL line is pinned.
"""

from __future__ import annotations

import copy
import dataclasses

import pytest

from repro.analysis.determinism import (
    ECON_SCHEDULERS,
    PASSES,
    CheckContext,
    Run,
    compare,
    first_divergence,
    hash_trace,
)
from repro.cli import main
from repro.experiments.config import ExperimentSpec
from repro.experiments.runner import run_one

SMALL_SPEC = ExperimentSpec(
    n_batches=2, mean_jobs_per_batch=4.0, training_samples=50
)


@pytest.fixture(scope="module")
def small_trace():
    return run_one("Greedy", SMALL_SPEC)


class TestHashing:
    def test_identical_runs_hash_identical(self, small_trace):
        again = run_one("Greedy", SMALL_SPEC)
        assert hash_trace(small_trace) == hash_trace(again)
        assert first_divergence(small_trace, again) is None

    def test_hash_is_sha256_hex(self, small_trace):
        digest = hash_trace(small_trace)
        assert len(digest) == 64
        int(digest, 16)  # valid hex

    def test_single_timestamp_flip_changes_hash(self, small_trace):
        before = hash_trace(small_trace)
        record = small_trace.records[3]
        original = record.completion_time
        # The smallest representable perturbation must still be caught.
        record.completion_time = original + 1e-9
        try:
            assert hash_trace(small_trace) != before
        finally:
            record.completion_time = original
        assert hash_trace(small_trace) == before

    def test_first_divergence_names_record_and_field(self, small_trace):
        other = run_one("Greedy", SMALL_SPEC)
        other.records[3].completion_time += 1e-9
        div = first_divergence(small_trace, other)
        assert div is not None
        assert div.record_index == 3
        assert div.field == "completion_time"
        assert div.job_key == (
            small_trace.records[3].job_id,
            small_trace.records[3].sub_id,
        )
        assert "record #3" in div.render()

    def test_first_divergence_on_length_mismatch(self, small_trace):
        other = run_one("Greedy", SMALL_SPEC)
        other.records.pop()
        div = first_divergence(small_trace, other)
        assert div is not None
        assert div.field == "len(records)"
        assert div.record_index is None

    def test_first_divergence_on_run_level_field(self, small_trace):
        other = run_one("Greedy", SMALL_SPEC)
        other.ic_busy_time += 1.0
        div = first_divergence(small_trace, other)
        assert div is not None
        assert div.field == "ic_busy_time"
        assert "run-level" in div.render()


PASS_BY_NAME = {p.name: p for p in PASSES}

#: Every pass at small sizes: a 2-batch spec and a 2-shard fleet.
SMALL_CTX = CheckContext(spec=SMALL_SPEC, n_shards=2, fleet_jobs=160)


class TestHarness:
    def test_check_scheduler_verdict(self):
        result = PASS_BY_NAME["paper"].check("Greedy", SMALL_CTX)
        assert result.ok
        assert result.witnesses["trace"].detail is None
        assert result.stats["records"] > 0
        assert "OK" in result.render()

    def test_check_determinism_covers_requested_schedulers(self):
        results = list(
            PASS_BY_NAME["paper"].results(SMALL_CTX, ["ICOnly", "OpSIBS"])
        )
        assert [r.label for r in results] == ["ICOnly", "OpSIBS"]
        assert all(r.ok for r in results)

    def test_invariants_ride_along_by_default(self):
        # The default check runs with the runtime checker installed; a
        # structurally sound scheduler must not trip it.
        assert SMALL_CTX.invariants
        result = PASS_BY_NAME["paper"].check("Op", SMALL_CTX)
        assert result.ok


class TestParityTable:
    def test_table_covers_every_pass_once(self):
        assert [p.name for p in PASSES] == [
            "paper", "econ", "fleet", "exec", "obs", "policy", "idle",
        ]

    @pytest.mark.parametrize("parity_pass", PASSES, ids=lambda p: p.name)
    def test_every_pass_ok_with_sha256_witnesses(self, parity_pass):
        results = list(parity_pass.results(SMALL_CTX))
        assert len(results) == len(parity_pass.schedulers_for())
        for result in results:
            assert result.ok, result.render()
            line = result.render()
            assert ": OK  " in line
            for name, witness in result.witnesses.items():
                assert len(witness.hash_a) == 64
                int(witness.hash_a, 16)
                assert f"{name} {witness.hash_a[:16]}" in line

    def test_scheduler_selection_narrows_per_scheduler_passes_only(self):
        econ, fleet = PASS_BY_NAME["econ"], PASS_BY_NAME["fleet"]
        assert econ.schedulers_for() == ECON_SCHEDULERS
        assert econ.schedulers_for(["Op"]) == ("Op",)
        assert econ.heading(["Op"]).startswith("econ check: 1 scheduler(s)")
        assert fleet.schedulers_for(["Greedy"]) == ("Op",)

    def test_runs_naming_different_witnesses_is_an_error(self, small_trace):
        with pytest.raises(ValueError, match="different witnesses"):
            compare(
                "x",
                Run({"trace": small_trace}, {}),
                Run({"trace": small_trace, "ledger": "0" * 64}, {}),
            )


class TestFailRender:
    def test_trace_witness_names_record_and_field(self, small_trace):
        other = run_one("Greedy", SMALL_SPEC)
        other.records[3].completion_time += 1e-9
        result = compare(
            "Greedy",
            Run({"trace": small_trace}, {"records": 1}),
            Run({"trace": other}, {"records": 1}),
        )
        assert not result.ok
        line = result.render()
        assert "Greedy: FAIL  trace: first divergence at record #3" in line
        assert "'completion_time'" in line

    @pytest.mark.parametrize("name", ["ledger", "audit"])
    def test_digest_witness_names_itself_with_both_prefixes(
        self, small_trace, name
    ):
        hash_a, hash_b = "a" * 64, "b" * 64
        result = compare(
            "Op",
            Run({"trace": small_trace, name: hash_a}, {}),
            Run({"trace": small_trace, name: hash_b}, {}),
        )
        assert not result.ok
        assert result.witnesses["trace"].ok
        line = result.render()
        assert f"FAIL  {name}: hashes differ: {hash_a[:16]} vs {hash_b[:16]}" in line

    def test_fleet_witness_names_shard_and_record(self):
        run = PASS_BY_NAME["exec"].run_a("Op", SMALL_CTX)
        report = run.witnesses["fleet"]
        trace = copy.deepcopy(report.trace)
        trace.records[5].completion_time += 1e-9
        shard_hashes = list(report.shard_hashes)
        shard_hashes[1] = "0" * 64
        perturbed = dataclasses.replace(
            report, trace=trace, shard_hashes=shard_hashes, sha256="f" * 64
        )
        result = compare("exec[2]", run, Run({"fleet": perturbed}, {}))
        line = result.render()
        assert "FAIL  fleet: shard trace hash(es) differ at index [1]" in line
        assert "first divergence at record #5" in line
        assert "'completion_time'" in line

    def test_fleet_witness_with_agreeing_shards_blames_merged_state(self):
        run = PASS_BY_NAME["exec"].run_a("Op", SMALL_CTX)
        report = run.witnesses["fleet"]
        perturbed = dataclasses.replace(report, sha256="f" * 64)
        line = compare("exec[2]", run, Run({"fleet": perturbed}, {})).render()
        assert "shard traces agree; merged stats/ledger state diverged" in line
        assert report.sha256[:16] in line and "f" * 16 in line


class TestCLI:
    def test_lint_clean_file_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def f(sim):\n    return sim.now\n")
        assert main(["lint", str(clean)]) == 0
        assert "no violations" in capsys.readouterr().out

    def test_lint_violating_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nt = time.time()\n")
        assert main(["lint", str(tmp_path)]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_lint_missing_path_exits_two(self, tmp_path):
        assert main(["lint", str(tmp_path / "nope")]) == 2

    def test_check_rejects_unknown_scheduler(self):
        assert main(["check", "--scheduler", "NoSuchThing"]) == 2

    @pytest.mark.parametrize(
        "flag", ["--no-econ", "--no-fleet", "--no-obs", "--no-policy"]
    )
    def test_check_has_no_pass_skip_flags(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(["check", flag])
        assert exc.value.code == 2

    def test_typecheck_skips_gracefully_without_mypy(self, capsys):
        rc = main(["typecheck"])
        out = capsys.readouterr().out
        # With mypy absent this skips (rc 0); with mypy present the typed
        # core must actually pass strict mode.
        assert rc == 0
        assert "typecheck" in out or "mypy" in out
