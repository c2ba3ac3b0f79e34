"""Perf-regression ledger tests: schema, legacy ingestion, comparison.

Three layers:

* unit: fingerprints, direction heuristics, save/load round-trip,
  schema rejection;
* ingestion: every committed legacy ``BENCH_*.json`` loads through the
  unified adapters, and the committed ``PERF_LEDGER.json`` baseline
  parses;
* comparison: property-based (hypothesis) — identical ledgers never
  regress; a uniform 2x slowdown on duration metrics is always flagged
  — plus the CLI contract (``repro bench --compare`` exits nonzero on
  regression, zero with ``--report-only``).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf.ledger import (
    DEFAULT_THRESHOLD,
    SCHEMA,
    Ledger,
    LedgerEntry,
    compare,
    config_fingerprint,
    entries_from_report,
    load_report,
    metric_direction,
    render_compare,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
LEGACY_REPORTS = [
    REPO_ROOT / f"BENCH_{name}.json"
    for name in ("obs", "backends", "gradients", "parallel")
]


# ----------------------------------------------------------------------
# unit
# ----------------------------------------------------------------------
class TestEntryAndLedger:
    def test_fingerprint_is_stable_and_order_independent(self):
        a = config_fingerprint({"sites": 1000, "backend": "compiled"})
        b = config_fingerprint({"backend": "compiled", "sites": 1000})
        assert a == b
        assert len(a) == 12
        assert a != config_fingerprint({"sites": 2000, "backend": "compiled"})

    def test_entry_auto_fingerprints_and_keys(self):
        e = LedgerEntry("bench_x", config={"sites": 10}, metrics={"t_s": 1.0})
        assert e.fingerprint == config_fingerprint({"sites": 10})
        assert e.key == ("bench_x", e.fingerprint)
        assert LedgerEntry.from_dict(e.to_dict()) == e

    def test_save_load_round_trip(self, tmp_path):
        led = Ledger(
            [
                LedgerEntry("a", {"n": 1}, {"wall_s": 2.0}),
                LedgerEntry("b", {"n": 2}, {"speedup": 3.5}),
            ]
        )
        path = led.save(tmp_path / "ledger.json")
        again = Ledger.load(path)
        assert len(again) == 2
        assert again.benchmarks() == ["a", "b"]
        assert again.entries[0] == led.entries[0]
        assert json.loads(path.read_text())["schema"] == SCHEMA

    def test_load_rejects_foreign_json(self, tmp_path):
        bad = tmp_path / "not_a_ledger.json"
        bad.write_text(json.dumps({"results": [1, 2, 3]}))
        with pytest.raises(ValueError, match="not a perf ledger"):
            Ledger.load(bad)

    def test_by_key_is_latest_wins(self):
        old = LedgerEntry("a", {"n": 1}, {"wall_s": 2.0})
        new = LedgerEntry("a", {"n": 1}, {"wall_s": 1.0})
        led = Ledger([old, new])
        assert led.by_key()[old.key].metrics["wall_s"] == 1.0

    def test_metric_direction_conventions(self):
        assert metric_direction("wall_s") == "lower"
        assert metric_direction("compiled.per_op_s") == "lower"
        assert metric_direction("probe_ns") == "lower"
        assert metric_direction("disabled_overhead_ratio") == "lower"
        assert metric_direction("speedup") == "higher"
        assert metric_direction("modes.fork.speedup") == "higher"
        assert metric_direction("dispatches") is None  # informational
        assert metric_direction("n_events") is None


# ----------------------------------------------------------------------
# legacy ingestion
# ----------------------------------------------------------------------
class TestLegacyIngestion:
    @pytest.mark.parametrize(
        "path", LEGACY_REPORTS, ids=[p.stem for p in LEGACY_REPORTS]
    )
    def test_every_committed_bench_report_loads(self, path):
        entries = load_report(path)
        assert entries, f"{path.name} produced no ledger entries"
        for e in entries:
            assert e.source == path.name
            assert e.fingerprint
            assert e.metrics, f"{path.name} entry has no metrics"
            assert all(
                isinstance(v, float) for v in e.metrics.values()
            ), "metrics must be flat floats"
            # at least one metric per report is a regression signal
        assert any(
            metric_direction(m) is not None
            for e in entries
            for m in e.metrics
        ), f"{path.name}: no directional metric survived ingestion"

    def test_unified_shape_ingests(self):
        report = {
            "benchmark": "bench_new",
            "entries": [
                {"config": {"k": 1}, "metrics": {"wall_s": 0.5, "nested": {"x_us": 2}}}
            ],
        }
        (entry,) = entries_from_report(report, source="inline")
        assert entry.benchmark == "bench_new"
        assert entry.metrics == {"wall_s": 0.5, "nested.x_us": 2.0}

    def test_unknown_shape_raises(self):
        with pytest.raises(ValueError, match="unrecognised"):
            entries_from_report({"mystery": True})

    def test_committed_baseline_ledger_parses(self):
        led = Ledger.load(REPO_ROOT / "PERF_LEDGER.json")
        assert len(led) > 0
        assert set(led.benchmarks()) == {
            "bench_obs",
            "bench_backends",
            "bench_gradients",
            "bench_parallel",
        }


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
def _ledger_from_metrics(metrics: dict[str, float]) -> Ledger:
    return Ledger([LedgerEntry("bench_t", {"case": 1}, dict(metrics))])


_metric_names = st.sampled_from(
    ["wall_s", "per_op_s", "probe_ns", "overhead_ratio", "speedup", "fork.t_s"]
)
_metric_values = st.floats(
    min_value=1e-9, max_value=1e9, allow_nan=False, allow_infinity=False
)


class TestCompare:
    @given(metrics=st.dictionaries(_metric_names, _metric_values, min_size=1))
    @settings(max_examples=80, deadline=None)
    def test_identical_ledgers_never_regress(self, metrics):
        led = _ledger_from_metrics(metrics)
        regressions, deltas = compare(led, _ledger_from_metrics(metrics))
        assert regressions == []
        assert all(d.worsening == pytest.approx(0.0) for d in deltas)

    @given(
        metrics=st.dictionaries(
            st.sampled_from(["wall_s", "per_op_s", "probe_ns"]),
            st.floats(
                min_value=1e-6, max_value=1e6,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=1,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_doubling_every_duration_is_flagged(self, metrics):
        baseline = _ledger_from_metrics(metrics)
        current = _ledger_from_metrics({k: v * 2 for k, v in metrics.items()})
        regressions, deltas = compare(baseline, current, DEFAULT_THRESHOLD)
        assert len(deltas) == len(metrics)
        assert len(regressions) == len(metrics)
        assert all(d.worsening == pytest.approx(1.0) for d in regressions)

    def test_speedup_direction_is_inverted(self):
        base = _ledger_from_metrics({"speedup": 4.0})
        worse = _ledger_from_metrics({"speedup": 2.0})
        better = _ledger_from_metrics({"speedup": 8.0})
        regressions, _ = compare(base, worse)
        assert len(regressions) == 1 and regressions[0].worsening == pytest.approx(1.0)
        regressions, deltas = compare(base, better)
        assert regressions == []
        assert deltas[0].worsening == pytest.approx(-0.5)

    def test_disjoint_keys_and_nonpositive_values_are_skipped(self):
        base = Ledger([LedgerEntry("a", {"n": 1}, {"wall_s": 1.0, "zero_s": 0.0})])
        cur = Ledger(
            [
                LedgerEntry("a", {"n": 1}, {"wall_s": 1.05, "zero_s": 5.0}),
                LedgerEntry("b", {"n": 9}, {"wall_s": 99.0}),  # no baseline
            ]
        )
        regressions, deltas = compare(base, cur)
        assert [d.metric for d in deltas] == ["wall_s"]  # zero baseline skipped
        assert regressions == []

    def test_render_names_the_regressed_metric(self):
        base = _ledger_from_metrics({"wall_s": 1.0})
        cur = _ledger_from_metrics({"wall_s": 3.0})
        regressions, deltas = compare(base, cur)
        text = render_compare(regressions, deltas, DEFAULT_THRESHOLD)
        assert "REGRESSED" in text and "wall_s" in text and "+200.0%" in text


# ----------------------------------------------------------------------
# CLI contract
# ----------------------------------------------------------------------
class TestBenchCli:
    def _write_ledgers(self, tmp_path, factor):
        baseline = Ledger([LedgerEntry("bench_t", {"case": 1}, {"wall_s": 1.0})])
        current = Ledger(
            [LedgerEntry("bench_t", {"case": 1}, {"wall_s": 1.0 * factor})]
        )
        b = baseline.save(tmp_path / "baseline.json")
        c = current.save(tmp_path / "current.json")
        return b, c

    def test_compare_exits_nonzero_on_synthetic_regression(self, tmp_path, capsys):
        from repro.cli import main

        b, c = self._write_ledgers(tmp_path, factor=2.0)
        rc = main(["bench", "--compare", str(b), "--current", str(c)])
        assert rc == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_compare_identical_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        b, c = self._write_ledgers(tmp_path, factor=1.0)
        rc = main(["bench", "--compare", str(b), "--current", str(c)])
        assert rc == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_report_only_downgrades_regressions_to_advisory(self, tmp_path):
        from repro.cli import main

        b, c = self._write_ledgers(tmp_path, factor=2.0)
        rc = main(
            ["bench", "--compare", str(b), "--current", str(c), "--report-only"]
        )
        assert rc == 0

    def test_import_builds_a_ledger_from_legacy_reports(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "ledger.json"
        rc = main(
            [
                "bench",
                "--import",
                *[str(p) for p in LEGACY_REPORTS],
                "--ledger",
                str(out),
            ]
        )
        assert rc == 0
        led = Ledger.load(out)
        assert len(led.benchmarks()) == 4

    def test_list_and_unknown_suite(self, capsys):
        from repro.cli import main

        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for suite in ("obs", "backends", "gradients", "parallel"):
            assert suite in out
        assert main(["bench", "nonexistent-suite"]) == 2
