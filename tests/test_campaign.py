"""Campaign orchestration: specs, store, runner, aggregation, CLI."""

import json
import os
import subprocess
import sys

import pytest

from repro.campaign import (
    CampaignSpec,
    CampaignStore,
    CellRecord,
    ScenarioSpec,
    derive_seed,
    get_adapter,
    paper_campaign,
    report_from_store,
    run_campaign,
    smoke_campaign,
    status_table,
    SMOKE_SCALE,
)
from repro.campaign.runner import execute_cell
from repro.cli import main
from repro.core.results import SummaryStats
from repro.errors import CampaignError, StoreIntegrityError
from repro.experiments.scale import ExperimentScale


def tiny_campaign(platforms=("zoom",), name="tiny", master_seed=7):
    """A one-platform lag+qoe grid that runs in about a second."""
    return CampaignSpec(
        name=name,
        scenarios=(
            ScenarioSpec("lag", {
                "platform": platforms,
                "host": ("US-East",),
                "group": ("US",),
            }),
            ScenarioSpec("qoe", {
                "platform": platforms,
                "motion": ("low",),
                "participants": (2,),
            }),
        ),
        scale=SMOKE_SCALE,
        master_seed=master_seed,
    )


class TestSpecExpansion:
    def test_grid_is_cartesian_product(self):
        spec = ScenarioSpec("qoe", {
            "platform": ("zoom", "meet"),
            "motion": ("low", "high"),
            "participants": (2, 3, 4),
        })
        assert spec.cell_count() == 12
        cells = list(spec.cells())
        assert len(cells) == 12
        assert {frozenset(c.items()) for c in cells} == {
            frozenset({"platform": p, "motion": m, "participants": n}.items())
            for p in ("zoom", "meet")
            for m in ("low", "high")
            for n in (2, 3, 4)
        }

    def test_duplicate_cells_are_deduplicated(self):
        spec = CampaignSpec(
            name="dup",
            scenarios=(
                ScenarioSpec("lag", {"platform": ("zoom",),
                                     "host": ("US-East",),
                                     "group": ("US",)}),
                ScenarioSpec("lag", {"platform": ("zoom",),
                                     "host": ("US-East",),
                                     "group": ("US",)}),
            ),
        )
        assert spec.cell_count() == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(CampaignError):
            ScenarioSpec("teleport", {"platform": ("zoom",)})

    def test_empty_axis_rejected(self):
        with pytest.raises(CampaignError):
            ScenarioSpec("lag", {"platform": ()})

    def test_round_trip(self):
        spec = tiny_campaign()
        clone = CampaignSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert clone.spec_hash() == spec.spec_hash()
        assert [c.cell_id for c in clone.expand()] == [
            c.cell_id for c in spec.expand()
        ]

    def test_paper_campaign_covers_all_kinds(self):
        spec = paper_campaign(scale=SMOKE_SCALE)
        kinds = {c.kind for c in spec.expand()}
        assert kinds == {"lag", "qoe", "bandwidth", "mobile", "endpoints",
                         "dynamics"}
        # 3 platforms x 4 hosts of lag alone
        assert spec.cell_count() > 12


class TestSeedDeterminism:
    def test_same_spec_same_seeds(self):
        first = [c.seed for c in tiny_campaign().expand()]
        second = [c.seed for c in tiny_campaign().expand()]
        assert first == second

    def test_master_seed_changes_cell_seeds(self):
        base = tiny_campaign(master_seed=7).expand()
        other = tiny_campaign(master_seed=8).expand()
        assert [c.cell_id for c in base] == [c.cell_id for c in other]
        assert all(a.seed != b.seed for a, b in zip(base, other))

    def test_cell_seeds_are_distinct(self):
        seeds = [c.seed for c in paper_campaign(scale=SMOKE_SCALE).expand()]
        assert len(set(seeds)) == len(seeds)

    def test_seed_independent_of_grid_membership(self):
        # Adding a scenario must not change existing cells' seeds.
        small = {c.cell_id: c.seed for c in tiny_campaign().expand()}
        grown = {
            c.cell_id: c.seed
            for c in tiny_campaign(platforms=("zoom", "meet")).expand()
        }
        for cell_id, seed in small.items():
            assert grown[cell_id] == seed
        assert derive_seed(7, "x") != derive_seed(7, "y")


class TestStore:
    def record(self, cell_id="lag:x", status="ok"):
        return CellRecord(
            cell_id=cell_id, kind="lag", params={"platform": "zoom"},
            seed=3, spec_hash="abc", status=status, duration_s=1.5,
            metrics={"lag_ms": SummaryStats.from_values([1, 2, 3]).to_dict()},
        )

    def test_round_trip(self, tmp_path):
        store = CampaignStore(str(tmp_path / "s.jsonl"))
        spec = tiny_campaign()
        store.initialise(spec)
        store.append_cell(self.record("lag:a"))
        store.append_cell(self.record("lag:b", status="error"))
        assert store.spec().spec_hash() == spec.spec_hash()
        records = store.cell_records()
        assert [r.cell_id for r in records] == ["lag:a", "lag:b"]
        assert records[0].metrics["lag_ms"]["count"] == 3
        assert store.completed_ids() == {"lag:a"}

    def test_initialise_refuses_existing(self, tmp_path):
        store = CampaignStore(str(tmp_path / "s.jsonl"))
        store.initialise(tiny_campaign())
        with pytest.raises(CampaignError):
            store.initialise(tiny_campaign())

    def test_verify_spec_mismatch(self, tmp_path):
        store = CampaignStore(str(tmp_path / "s.jsonl"))
        store.initialise(tiny_campaign())
        store.verify_spec(tiny_campaign())
        with pytest.raises(StoreIntegrityError):
            store.verify_spec(tiny_campaign(master_seed=99))

    def test_truncated_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = CampaignStore(str(path))
        store.initialise(tiny_campaign())
        store.append_cell(self.record("lag:a"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "cell", "cell_id": "lag:trunc')
        assert store.completed_ids() == {"lag:a"}

    def test_missing_store_raises(self, tmp_path):
        with pytest.raises(CampaignError):
            CampaignStore(str(tmp_path / "absent.jsonl")).header()


class TestRunner:
    def test_run_and_resume_skips_completed(self, tmp_path):
        spec = tiny_campaign()
        path = str(tmp_path / "c.jsonl")
        first = run_campaign(spec, path, workers=1)
        assert first.executed == 2 and first.failed == 0
        again = run_campaign(spec, path, workers=1, resume=True)
        assert again.executed == 0
        assert again.skipped == first.total == 2

    def test_existing_store_requires_resume(self, tmp_path):
        spec = tiny_campaign()
        path = str(tmp_path / "c.jsonl")
        run_campaign(spec, path)
        with pytest.raises(CampaignError):
            run_campaign(spec, path)

    def test_resume_rejects_changed_spec(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        run_campaign(tiny_campaign(), path)
        with pytest.raises(StoreIntegrityError):
            run_campaign(tiny_campaign(master_seed=99), path, resume=True)

    def test_failed_cell_recorded_and_retried(self, tmp_path):
        # participants=9 exceeds the roster: the driver raises, the
        # campaign records the failure and carries on.
        spec = CampaignSpec(
            name="bad",
            scenarios=(
                ScenarioSpec("qoe", {"platform": ("zoom",),
                                     "participants": (9,)}),
                ScenarioSpec("lag", {"platform": ("zoom",),
                                     "host": ("US-East",),
                                     "group": ("US",)}),
            ),
            scale=SMOKE_SCALE,
        )
        path = str(tmp_path / "c.jsonl")
        summary = run_campaign(spec, path, workers=1)
        assert summary.executed == 2 and summary.failed == 1
        failed = [r for r in summary.records if not r.ok]
        assert len(failed) == 1 and "roster" in failed[0].error
        # A failed cell is not "completed": resume retries it.
        again = run_campaign(spec, path, workers=1, resume=True)
        assert again.executed == 1 and again.failed == 1

    def test_parallel_matches_serial(self, tmp_path):
        spec = tiny_campaign(platforms=("zoom", "meet"))
        serial = run_campaign(spec, str(tmp_path / "serial.jsonl"), workers=1)
        parallel = run_campaign(
            spec, str(tmp_path / "parallel.jsonl"), workers=2
        )
        by_id_serial = {r.cell_id: r.metrics for r in serial.records}
        by_id_parallel = {r.cell_id: r.metrics for r in parallel.records}
        assert by_id_serial == by_id_parallel

    def test_execute_cell_is_deterministic(self):
        cell = tiny_campaign().expand()[0]
        payload = {
            "cell_id": cell.cell_id,
            "kind": cell.kind,
            "params": dict(cell.params),
            "seed": cell.seed,
            "spec_hash": "x",
            "scale": SMOKE_SCALE.to_dict(),
        }
        first = execute_cell(payload)
        second = execute_cell(payload)
        assert first["status"] == "ok"
        assert first["metrics"] == second["metrics"]


class TestTimelineAxes:
    """Condition timelines as first-class, serializable grid axes."""

    def spec_with_timeline(self, master_seed=7):
        from repro.net.dynamics import bandwidth_ramp_timeline

        timeline = bandwidth_ramp_timeline((None, 250e3, None), step_s=2.0)
        return CampaignSpec(
            name="dyn",
            scenarios=(
                ScenarioSpec("dynamics", {
                    "platform": ("zoom",),
                    "scenario": ("custom-ramp",),
                    "timeline": (timeline,),
                }),
            ),
            scale=SMOKE_SCALE,
            master_seed=master_seed,
        )

    def test_timeline_axis_is_json_and_hash_stable(self):
        spec = self.spec_with_timeline()
        clone = CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone.spec_hash() == spec.spec_hash()
        assert [c.cell_id for c in clone.expand()] == [
            c.cell_id for c in spec.expand()
        ]

    def test_cell_params_carry_tagged_timeline(self):
        from repro.net.dynamics import ConditionTimeline, TIMELINE_TAG

        cell = self.spec_with_timeline().expand()[0]
        value = cell.params["timeline"]
        assert TIMELINE_TAG in value
        timeline = ConditionTimeline.coerce(value)
        assert timeline.phase_names() == [
            "p0-uncapped", "p1-250kbps", "p2-uncapped"
        ]

    def test_dynamics_cell_executes_from_serialized_timeline(self, tmp_path):
        spec = self.spec_with_timeline()
        summary = run_campaign(spec, str(tmp_path / "dyn.jsonl"), workers=1)
        assert summary.executed == 1 and summary.failed == 0
        metrics = summary.records[0].metrics
        assert set(metrics["phases"]) == {
            "p0-uncapped", "p1-250kbps", "p2-uncapped"
        }
        capped = metrics["phases"]["p1-250kbps"]
        free = metrics["phases"]["p0-uncapped"]
        assert capped["download_mbps"] < free["download_mbps"]


class TestRegistry:
    def test_defaults_fill_unswept_axes(self):
        adapter = get_adapter("qoe")
        bound = adapter.bind({"platform": "meet"})
        assert bound["motion"] == "high"
        assert bound["participants"] == 3

    def test_dynamics_defaults(self):
        adapter = get_adapter("dynamics")
        bound = adapter.bind({"platform": "meet"})
        assert bound["scenario"] == "ramp"
        assert bound["timeline"] is None

    def test_unknown_param_rejected(self):
        with pytest.raises(CampaignError):
            get_adapter("lag").bind({"flux_capacitor": 1})

    def test_unknown_kind_rejected(self):
        with pytest.raises(CampaignError):
            get_adapter("teleport")


class TestAggregation:
    def test_report_from_store_alone(self, tmp_path):
        spec = tiny_campaign()
        path = str(tmp_path / "c.jsonl")
        run_campaign(spec, path, workers=1)
        text = report_from_store(path).render()
        assert "Campaign report: tiny" in text
        assert "Streaming lag" in text and "Video QoE" in text
        assert "Median lag (ms)" in text and "PSNR" in text

    def test_retried_failure_not_reported(self, tmp_path):
        # An error record superseded by an ok record on resume is not
        # a failure.
        spec = tiny_campaign()
        cell = spec.expand()[0]
        store = CampaignStore(str(tmp_path / "c.jsonl"))
        store.initialise(spec)
        base = dict(cell_id=cell.cell_id, kind=cell.kind,
                    params=dict(cell.params), seed=cell.seed,
                    spec_hash=spec.spec_hash())
        store.append_cell(CellRecord(status="error", error="boom", **base))
        store.append_cell(CellRecord(
            status="ok",
            metrics={"lag_band_ms": [1.0, 2.0],
                     "lag_ms": SummaryStats.from_values([1.0]).to_dict(),
                     "rtt_ms": None, "median_lag_ms": {}, "mean_rtt_ms": {},
                     "sessions": 1},
            **base,
        ))
        from repro.campaign import build_report
        text = build_report(spec, store.cell_records()).render()
        assert "## Failures" not in text
        assert "0 failures" in text

    def test_status_table(self, tmp_path):
        spec = tiny_campaign()
        path = str(tmp_path / "c.jsonl")
        run_campaign(spec, path, workers=1)
        store = CampaignStore(path)
        text = status_table(store.spec(), store.cell_records()).render()
        assert "Pending" in text
        assert "lag" in text and "qoe" in text


class TestSerializationHelpers:
    def test_summary_stats_round_trip(self):
        stats = SummaryStats.from_values([1.0, 2.0, 3.0, 4.0])
        assert SummaryStats.from_dict(stats.to_dict()) == stats

    def test_scale_round_trip(self):
        scale = SMOKE_SCALE
        clone = ExperimentScale.from_dict(
            json.loads(json.dumps(scale.to_dict()))
        )
        assert clone == scale
        assert clone.with_seed(99).seed == 99


#: Runs one smoke-scale mobile cell inline into the store at argv[1]
#: and prints its content key.
MOBILE_CELL_SCRIPT = """
import sys
from repro.campaign import (SMOKE_SCALE, CampaignSpec, ScenarioSpec,
                            open_store, run_campaign)
spec = CampaignSpec(name="hashseed", scenarios=[ScenarioSpec(
    "mobile", {"platform": ("meet",), "scenario": ("LM-Video-View",)})],
    scale=SMOKE_SCALE, master_seed=12345)
run_campaign(spec, sys.argv[1], workers=1)
records = open_store(sys.argv[1]).cell_records()
print([record.content_key() for record in records])
"""


def test_mobile_cell_content_ignores_python_hash_seed(tmp_path):
    """A mobile cell must not depend on per-interpreter str hashing.

    The phones' rng seeds and the order streamers encode simulcast
    layers in (gallery view with cameras on) both once followed it.
    """
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    keys = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        store = str(tmp_path / f"mobile-{hash_seed}.jsonl")
        done = subprocess.run(
            [sys.executable, "-c", MOBILE_CELL_SCRIPT, store],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        keys.append(done.stdout)
    assert "'ok'" in keys[0]
    assert keys[0] == keys[1]


class TestCampaignCli:
    def test_run_status_report(self, tmp_path, capsys):
        store = str(tmp_path / "cli.jsonl")
        smoke = ["campaign", "run", "--store", store, "--smoke",
                 "--workers", "1"]
        assert main(smoke) == 0
        out = capsys.readouterr().out
        assert "5 executed" in out
        assert "blas: cells run inline with the default BLAS threads" in out

        assert main(smoke + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "5 resumed, 0 executed" in out

        assert main(["campaign", "status", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "Pending" in out

        assert main(["campaign", "report", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "Campaign report: smoke" in out

    def test_run_refuses_existing_store_without_resume(self, tmp_path,
                                                       capsys):
        store = str(tmp_path / "cli.jsonl")
        args = ["campaign", "run", "--store", store, "--smoke"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 2
        assert "already holds a campaign" in capsys.readouterr().err

    def test_report_missing_store(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.jsonl")
        assert main(["campaign", "report", "--store", missing]) == 2
        assert "no campaign store" in capsys.readouterr().err
