"""Tests for the v4 volume-flow and durability-ordering passes.

Fixture contract:

- ``volume_pkg_bad`` persists a ``len()`` of tainted rows and a
  ``perf_counter`` duration into its telemetry store with no
  ``volume_surface`` declarations — both must flag (and a constant
  counter increment must stay silent);
- ``volume_pkg_good`` is the same code with both flows declared;
- ``durability_pkg_bad`` seeds exactly one function per durability rule;
- ``durability_pkg_good`` holds the correct WAL-ordering idioms
  (log-then-mutate, mutate-then-log, CLR-first rollback, flushed commit)
  plus one deliberately waived no-force commit.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.analysis import run_analysis
from repro.analysis.cli import main as cli_main
from repro.analysis.fingerprint import NEVER_BASELINED, render_baseline
from repro.analysis.passes import build_volume_surface, default_registry
from repro.analysis.sarif import to_sarif

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"
REPO_ROOT = Path(__file__).resolve().parents[1]


def run_fixture(name, **kwargs):
    root = FIXTURES / name
    return run_analysis(
        root / "src" / name, name, root / "leakage_spec.json", **kwargs
    )


def copy_fixture(tmp_path, name):
    work = tmp_path / name
    shutil.copytree(
        FIXTURES / name,
        work,
        ignore=shutil.ignore_patterns(".repro-lint-cache", "__pycache__"),
    )
    return work


def run_work(work, name, **kwargs):
    return run_analysis(
        work / "src" / name, name, work / "leakage_spec.json", **kwargs
    )


class TestVolumePass:
    def test_bad_fixture_flags_length_and_duration(self):
        report = run_fixture("volume_pkg_bad")
        assert report.exit_code == 1
        assert {v.rule for v in report.violations} == {"volume-undeclared-flow"}
        assert {v.key for v in report.violations} == {
            "volume.length->telemetry_store",
            "volume.duration->telemetry_store",
        }
        assert {v.function.rsplit(".", 1)[1] for v in report.violations} == {
            "scan_count",
            "timed_scan",
        }

    def test_constant_counter_stays_silent(self):
        report = run_fixture("volume_pkg_bad")
        assert not any(
            v.function.endswith("bump") for v in report.violations
        )

    def test_good_fixture_is_clean(self):
        report = run_fixture("volume_pkg_good")
        assert report.exit_code == 0
        assert report.violations == []
        assert not report.stale_documented

    def test_volume_findings_are_never_baselined(self, tmp_path):
        assert "volume-undeclared-flow" in NEVER_BASELINED
        report = run_fixture("volume_pkg_bad")
        baseline = tmp_path / "baseline.txt"
        baseline.write_text(
            render_baseline(report.violations), encoding="utf-8"
        )
        rerun = run_fixture("volume_pkg_bad", baseline=baseline)
        assert rerun.exit_code == 1

    def test_stale_declaration_warns(self, tmp_path):
        work = copy_fixture(tmp_path, "volume_pkg_good")
        spec_path = work / "leakage_spec.json"
        raw = json.loads(spec_path.read_text(encoding="utf-8"))
        raw["volume_surface"]["sinks"].append(
            {
                "callable": "volume_pkg_good.app.Telemetry.gauge",
                "sink": "gauge_store",
                "category": "telemetry",
                "params": ["value"],
            }
        )
        raw["volume_surface"]["declared"].append(
            {
                "taint": "volume.length",
                "sinks": ["gauge_store"],
                "source": "declared but never observed",
                "granularity": "n/a",
                "experiments": ["E14"],
            }
        )
        spec_path.write_text(json.dumps(raw, indent=2), encoding="utf-8")
        report = run_work(work, "volume_pkg_good")
        assert report.exit_code == 0
        assert (
            "volume.length -> gauge_store (volume_surface declaration)"
            in report.stale_documented
        )

    def test_volume_surface_artifact_lists_undeclared_flows(self):
        report = run_fixture("volume_pkg_bad")
        surface = build_volume_surface(report.spec, report.flows)
        entry = surface["sinks"]["telemetry_store"]
        assert {f["taint"] for f in entry["flows"]} == {
            "volume.length",
            "volume.duration",
        }
        assert all(f["source"] == "UNDECLARED" for f in entry["flows"])
        assert all(f["observed_at"] for f in entry["flows"])

    def test_declared_artifact_carries_granularity(self):
        report = run_fixture("volume_pkg_good")
        surface = build_volume_surface(report.spec, report.flows)
        entry = surface["sinks"]["telemetry_store"]
        assert all(f["source"] != "UNDECLARED" for f in entry["flows"])
        assert all(f["granularity"] for f in entry["flows"])
        assert all(f["observed_at"] for f in entry["flows"])

    def test_observed_at_is_an_offset_from_the_def_line(self, tmp_path):
        work = copy_fixture(tmp_path, "volume_pkg_good")

        def observed_at():
            report = run_work(work, "volume_pkg_good")
            surface = build_volume_surface(report.spec, report.flows)
            flows = surface["sinks"]["telemetry_store"]["flows"]
            return {f["taint"]: f["observed_at"] for f in flows}

        before = observed_at()
        assert before == {
            "volume.duration": "volume_pkg_good.app.Store.timed_scan+3",
            "volume.length": "volume_pkg_good.app.Store.scan_count+1",
        }
        # Lines added above the functions leave the artifact unchanged.
        app = work / "src" / "volume_pkg_good" / "app.py"
        source = app.read_text(encoding="utf-8")
        app.write_text(
            source.replace("class Store:", "# padding\n\n\nclass Store:"),
            encoding="utf-8",
        )
        assert observed_at() == before


class TestDurabilityPass:
    def test_bad_fixture_flags_every_rule(self):
        report = run_fixture("durability_pkg_bad")
        assert report.exit_code == 1
        by_rule = {}
        for v in report.violations:
            by_rule.setdefault(v.rule, set()).add(
                v.function.rsplit(".", 1)[1]
            )
        assert by_rule == {
            "durability-unlogged-mutation": {"unlogged_branch"},
            "durability-unflushed-commit": {"unflushed_commit"},
            "durability-append-after-flush": {"late_append"},
        }

    def test_only_the_unlogged_path_is_flagged(self):
        # unlogged_branch has two insert sites; only the append-free fast
        # path flags.
        report = run_fixture("durability_pkg_bad")
        unlogged = [
            v
            for v in report.violations
            if v.rule == "durability-unlogged-mutation"
        ]
        assert len(unlogged) == 1

    def test_good_fixture_is_clean_with_waiver(self):
        report = run_fixture("durability_pkg_good")
        assert report.exit_code == 0
        assert report.violations == []


class TestRuleSurfaces:
    """--explain and SARIF must enumerate every registered rule (no
    hardcoded v3 lists anywhere)."""

    def test_explain_covers_every_registered_rule(self, capsys):
        for meta in default_registry().rules():
            assert cli_main(["--explain", meta.id]) == 0
            out = capsys.readouterr().out
            assert meta.id in out
            if meta.spec_section:
                assert meta.spec_section in out

    def test_sarif_rule_table_covers_every_registered_rule(self):
        report = run_fixture("volume_pkg_bad")
        sarif = to_sarif(report, "test")
        ids = {
            rule["id"]
            for rule in sarif["runs"][0]["tool"]["driver"]["rules"]
        }
        assert ids == {meta.id for meta in default_registry().rules()}
        assert "volume-undeclared-flow" in ids
        assert "durability-unflushed-commit" in ids


class TestVolumeSpecCacheInvalidation:
    def test_volume_section_edit_invalidates_cached_results(self, tmp_path):
        """Editing only the volume_surface section must invalidate every
        cache layer: the spec hash keys both the tree payload and the
        per-module contributions (sink params and volume kinds come from
        the spec, so cached Contributions genuinely depend on it)."""
        work = copy_fixture(tmp_path, "volume_pkg_good")
        cache = tmp_path / "cache"
        cold = run_work(work, "volume_pkg_good", cache_dir=cache)
        assert cold.exit_code == 0
        warm = run_work(work, "volume_pkg_good", cache_dir=cache)
        assert warm.cache_stats["mode"] == "warm-full"
        spec_path = work / "leakage_spec.json"
        raw = json.loads(spec_path.read_text(encoding="utf-8"))
        raw["volume_surface"]["declared"] = [
            d
            for d in raw["volume_surface"]["declared"]
            if d["taint"] != "volume.duration"
        ]
        spec_path.write_text(json.dumps(raw, indent=2), encoding="utf-8")
        rerun = run_work(work, "volume_pkg_good", cache_dir=cache)
        assert rerun.cache_stats["mode"] != "warm-full"
        assert rerun.exit_code == 1
        assert any(
            v.key == "volume.duration->telemetry_store"
            for v in rerun.violations
        )
        fresh = run_work(work, "volume_pkg_good")
        assert rerun.to_json() == fresh.to_json()

    def test_warm_run_is_byte_identical_after_module_edit(self, tmp_path):
        work = copy_fixture(tmp_path, "volume_pkg_bad")
        cache = tmp_path / "cache"
        run_work(work, "volume_pkg_bad", cache_dir=cache)
        app = work / "src" / "volume_pkg_bad" / "app.py"
        app.write_text(
            app.read_text(encoding="utf-8") + "\n\nEXTRA = 1\n",
            encoding="utf-8",
        )
        warm = run_work(work, "volume_pkg_bad", cache_dir=cache)
        assert warm.cache_stats["mode"] in {
            "warm-incremental",
            "warm-fallback",
        }
        fresh = run_work(work, "volume_pkg_bad")
        assert warm.to_json() == fresh.to_json()


class TestRealTreeVolume:
    """Regression pins for the dogfood findings on the shipped tree."""

    @pytest.fixture(scope="class")
    def report(self):
        return run_analysis(
            REPO_ROOT / "src" / "repro",
            "repro",
            REPO_ROOT / "leakage_spec.json",
        )

    def test_dogfood_flows_are_observed_and_declared(self, report):
        pairs = {(f.taint, f.sink) for f in report.flows}
        declared = report.spec.volume_surface.declared_pairs()
        # The channels the paper's volume attacks read: query-log row
        # counts, obs counters, perf-schema aggregates, WAL record sizes.
        for sink in (
            "general_log",
            "slow_log",
            "obs_metrics",
            "performance_schema",
            "redo_log",
            "binlog",
        ):
            assert ("volume.length", sink) in pairs
            assert ("volume.length", sink) in declared

    def test_read_only_commit_waiver_is_recorded(self, report):
        assert report.exit_code == 0
        declared = report.spec.durability_protocol.declared
        assert any(
            d.rule == "durability-unflushed-commit"
            and d.function.endswith("StorageEngine.commit")
            and d.call == "append_commit"
            for d in declared
        )
