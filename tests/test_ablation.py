"""Tests for the ablation matrix runner and its deterministic artifacts."""

from __future__ import annotations

import pytest

from repro.experiments.ablation import (
    FAULTS,
    MECHANISMS,
    POLICIES,
    AblationManifest,
    AblationRunResult,
    default_manifest,
    render_markdown,
    run_ablation,
    run_cell,
    smoke_manifest,
    write_reports,
)
from repro.slo.cost_model import SlaCostModel, SlaObservation


class TestAblationManifest:
    def test_defaults_are_valid(self):
        manifest = default_manifest()
        assert manifest.cell_count() == len(manifest.faults) * len(manifest.mechanisms)
        assert set(manifest.mechanisms) <= set(MECHANISMS)
        assert set(manifest.faults) <= set(FAULTS)
        assert set(manifest.policies) <= set(POLICIES)

    def test_unknown_fault_rejected_listing_known(self):
        with pytest.raises(ValueError) as excinfo:
            AblationManifest(faults=["bit-rot"])
        message = str(excinfo.value)
        assert "bit-rot" in message
        assert "slow-downstream" in message  # the known set is spelled out

    def test_unknown_mechanism_and_policy_rejected(self):
        with pytest.raises(ValueError):
            AblationManifest(mechanisms=["prayer"])
        with pytest.raises(ValueError):
            AblationManifest(policies=["reboot-weekly"])

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            AblationManifest(faults=[])
        with pytest.raises(ValueError):
            AblationManifest(seeds=[])
        with pytest.raises(ValueError):
            AblationManifest(duration_scale=0.0)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError) as excinfo:
            AblationManifest.from_dict({"name": "x", "speeds": [1]})
        assert "speeds" in str(excinfo.value)

    def test_round_trips_through_dict(self):
        manifest = smoke_manifest()
        again = AblationManifest.from_dict(manifest.to_dict())
        assert again == manifest

    def test_from_file(self, tmp_path):
        import json

        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(smoke_manifest().to_dict()))
        assert AblationManifest.from_file(str(path)) == smoke_manifest()


def _synthetic_result() -> AblationRunResult:
    """Hand-built cells with known costs to pin the ranking math."""
    manifest = AblationManifest(
        name="synthetic",
        policies=["no-action", "time-based"],
        faults=["memory-leak", "lock-convoy"],
        mechanisms=["none", "naive-retry", "backoff"],
        seeds=[1],
    )
    costs = {
        # (policy, fault): {mechanism: cost}
        ("no-action", "memory-leak"): {"none": 10.0, "naive-retry": 8.0, "backoff": 2.0},
        ("no-action", "lock-convoy"): {"none": 20.0, "naive-retry": 18.0, "backoff": 6.0},
        ("time-based", "memory-leak"): {"none": 6.0, "naive-retry": 5.0, "backoff": 3.0},
        ("time-based", "lock-convoy"): {"none": 12.0, "naive-retry": 11.0, "backoff": 4.0},
    }
    cells = [
        {
            "policy": policy,
            "fault": fault,
            "mechanism": mechanism,
            "seed": 1,
            "sla_cost": cost,
            "completed": 100,
            "errors": 0,
            "timeouts": 0,
            "retries": 0,
            "refused": 0,
            "downtime_s": 0.0,
        }
        for (policy, fault), by_mechanism in costs.items()
        for mechanism, cost in by_mechanism.items()
    ]
    return AblationRunResult(manifest=manifest, cells=cells, duration_scale=0.05)


class TestRankingMath:
    def test_mechanism_importance_vs_none_baseline(self):
        rows = _synthetic_result().mechanism_importance()
        by_name = {row["mechanism"]: row for row in rows}
        # backoff removes mean((10-2)+(20-6)+(6-3)+(12-4))/4 = 8.25
        assert by_name["backoff"]["mean_cost_removed"] == pytest.approx(8.25)
        # naive-retry removes mean(2+2+1+1)/4 = 1.5
        assert by_name["naive-retry"]["mean_cost_removed"] == pytest.approx(1.5)
        assert by_name["backoff"]["rank"] == 1
        assert by_name["naive-retry"]["rank"] == 2
        assert all(row["baseline"] == "none" for row in rows)

    def test_policy_regret_ranks_the_best_policy_first(self):
        rows = _synthetic_result().policy_regret()
        by_name = {row["policy"]: row for row in rows}
        # time-based is best in every (fault, mechanism) cell except
        # (memory-leak, backoff) where no-action wins by 1.
        assert by_name["time-based"]["mean_regret"] == pytest.approx(1.0 / 6.0)
        assert by_name["no-action"]["mean_regret"] == pytest.approx(
            (4.0 + 3.0 + 0.0 + 8.0 + 7.0 + 2.0) / 6.0
        )
        assert by_name["time-based"]["rank"] == 1

    def test_fault_severity_ranked_descending(self):
        rows = _synthetic_result().fault_severity()
        assert [row["fault"] for row in rows] == ["lock-convoy", "memory-leak"]
        assert rows[0]["mean_sla_cost"] == pytest.approx((20 + 18 + 6 + 12 + 11 + 4) / 6)
        assert rows[0]["rank"] == 1

    def test_payload_contains_all_reports(self):
        payload = _synthetic_result().to_payload()
        assert set(payload) == {
            "manifest",
            "duration_scale",
            "cells",
            "mechanism_importance",
            "policy_regret",
            "fault_severity",
        }


class TestRunAblation:
    @pytest.fixture(scope="class")
    def mini(self):
        manifest = AblationManifest(
            name="mini",
            policies=["no-action"],
            faults=["slow-downstream"],
            mechanisms=["naive-retry", "backoff-breaker"],
            seeds=[42],
            duration_scale=0.01,
            period_n=3,
            ebs=20,
            tiny=True,
        )
        return manifest, run_ablation(manifest)

    def test_runs_every_cell_in_order(self, mini):
        manifest, result = mini
        assert len(result.cells) == manifest.cell_count() == 2
        assert [cell["mechanism"] for cell in result.cells] == [
            "naive-retry",
            "backoff-breaker",
        ]
        for cell in result.cells:
            assert cell["completed"] > 0
            assert cell["sla_cost"] >= 0.0

    def test_artifacts_are_byte_identical_across_reruns(self, mini, tmp_path):
        manifest, result = mini
        first_dir = tmp_path / "first"
        second_dir = tmp_path / "second"
        first_paths = write_reports(result, str(first_dir))
        assert sorted(path.split("/")[-1] for path in first_paths) == [
            "ablation_mini.csv",
            "ablation_mini.json",
            "ablation_mini.md",
        ]
        # A completely fresh run of the same manifest regenerates the same bytes.
        rerun = run_ablation(
            AblationManifest.from_dict(manifest.to_dict())
        )
        second_paths = write_reports(rerun, str(second_dir))
        for first_file, second_file in zip(first_paths, second_paths):
            with open(first_file, "rb") as a, open(second_file, "rb") as b:
                assert a.read() == b.read(), first_file

    def test_markdown_includes_the_three_ranked_tables(self, mini):
        _, result = mini
        rendered = render_markdown(result)
        assert "# Ablation matrix: mini" in rendered
        assert "## Mechanism importance" in rendered
        assert "## Policy regret" in rendered
        assert "## Fault severity" in rendered
        assert "## Cells" in rendered

    def test_csv_has_fixed_columns(self, mini, tmp_path):
        _, result = mini
        paths = write_reports(result, str(tmp_path / "csv"))
        csv_path = next(path for path in paths if path.endswith(".csv"))
        with open(csv_path, "r", encoding="utf-8") as handle:
            header = handle.readline().strip()
        assert header == (
            "policy,fault,mechanism,seed,sla_cost,completed,errors,"
            "timeouts,retries,refused,downtime_s"
        )

    def test_restarting_cell_counts_each_refusal_once(self):
        # The generator-side ``refused`` already includes the refusals of
        # the policy's outage windows; the cell's cost must score exactly
        # the refusals its row reports, not those plus the controller's.
        manifest = smoke_manifest()
        row = run_cell(manifest, "time-based", "slow-downstream", "none", 42)
        assert row["refused"] > 0 and row["downtime_s"] > 0
        observation = SlaObservation(
            duration_seconds=3600.0 * manifest.duration_scale,
            downtime_seconds=row["downtime_s"],
            failed_requests=row["errors"] + row["timeouts"],
            refused_requests=row["refused"],
        )
        assert row["sla_cost"] == SlaCostModel().score(observation)


class TestAblateCli:
    def test_parser_accepts_preset_and_overrides(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["ablate", "--preset", "smoke", "--tiny", "--duration-scale", "0.02"]
        )
        assert args.preset == "smoke"
        assert args.tiny
        assert args.duration_scale == pytest.approx(0.02)

    def test_bad_manifest_path_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        missing = tmp_path / "nope.json"
        assert main(["ablate", "--manifest", str(missing)]) == 2
        assert "error" in capsys.readouterr().err.lower()


class TestParallelAblation:
    @pytest.fixture(scope="class")
    def manifest(self):
        return AblationManifest(
            name="par",
            policies=["no-action"],
            faults=["slow-downstream"],
            mechanisms=["naive-retry", "backoff-breaker"],
            seeds=[42],
            duration_scale=0.01,
            period_n=3,
            ebs=20,
            tiny=True,
        )

    def test_jobs_must_be_positive(self, manifest):
        with pytest.raises(ValueError, match="jobs"):
            run_ablation(manifest, jobs=0)

    def test_process_pool_payload_identical_to_serial(self, manifest):
        """--jobs N must only change wall-clock, never a single byte.

        Each cell is an independent simulation seeded from its own
        coordinates, and the pool map preserves submission order, so the
        merged payload (cells + all three ranked reports) must compare
        equal to the serial run's.
        """
        serial = run_ablation(manifest, jobs=1)
        parallel = run_ablation(manifest, jobs=2)
        assert parallel.cells == serial.cells
        assert parallel.to_payload() == serial.to_payload()

    def test_progress_reports_every_cell_up_front(self, manifest):
        labels = []
        run_ablation(manifest, jobs=2, progress=labels.append)
        assert len(labels) == manifest.cell_count()
        assert "naive-retry" in labels[0]
