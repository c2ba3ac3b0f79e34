"""Tests for platform specs, cost model, traces, and energy model."""

import json

import numpy as np
import pytest

from repro.perf import (
    BASELINE,
    CostModel,
    DEFAULT_TRACE,
    KernelTrace,
    NVIDIA_K20,
    PAPER_FIGURE3,
    TABLE1_PLATFORMS,
    XEON_E5_2630_2S,
    XEON_E5_2680_2S,
    XEON_PHI_5110P_1S,
    XEON_PHI_5110P_2S,
    energy_wh,
    figure3_residuals,
    measure_kernel_cycles,
    relative_energy_savings,
)
from repro.perf.costmodel import KERNELS


class TestPlatformSpecs:
    def test_table1_values_match_paper(self):
        """Spot-check Table I transcription."""
        assert XEON_E5_2680_2S.peak_dp_gflops == 346
        assert XEON_E5_2680_2S.cores == 16
        assert XEON_E5_2680_2S.memory_bw_gbs == pytest.approx(102.4)
        assert XEON_PHI_5110P_1S.peak_dp_gflops == 1074
        assert XEON_PHI_5110P_1S.cores == 60
        assert XEON_PHI_5110P_1S.memory_gb == 8
        assert XEON_PHI_5110P_2S.max_tdp_w == 450

    def test_baseline_is_e5_2680(self):
        assert BASELINE is XEON_E5_2680_2S

    def test_derived_flops_per_cycle(self):
        # 8 DP flops/cycle for AVX Sandy Bridge (4 lanes x mul+add)
        assert XEON_E5_2680_2S.flops_per_cycle_per_core == pytest.approx(8.0, rel=0.01)
        # 16 DP flops/cycle for MIC (8 lanes x FMA)
        assert XEON_PHI_5110P_1S.flops_per_cycle_per_core == pytest.approx(17.0, rel=0.02)

    def test_k20_is_reference_only(self):
        assert NVIDIA_K20.isa is None
        from repro.mic.device import Device

        with pytest.raises(ValueError, match="reference-only"):
            Device(NVIDIA_K20).make_vm()

    def test_all_rows_present(self):
        assert len(TABLE1_PLATFORMS) == 5


class TestKernelMeasurement:
    def test_measurement_cached(self):
        a = measure_kernel_cycles("mic512")
        b = measure_kernel_cycles("mic512")
        assert a is b

    def test_all_kernels_measured(self):
        meas = measure_kernel_cycles("avx256")
        assert set(meas) == set(KERNELS)
        for m in meas.values():
            assert m.issue_cycles_per_site > 0
            assert m.dram_bytes_per_site > 0

    def test_derivative_sum_traffic_is_three_blocks(self):
        """2 reads + 1 NT write of 128B per site on the MIC."""
        m = measure_kernel_cycles("mic512")["derivative_sum"]
        assert m.dram_bytes_per_site == pytest.approx(384, rel=0.1)


class TestCostModel:
    def test_kernel_time_scales_with_sites(self):
        cm = CostModel(XEON_E5_2680_2S)
        t1 = cm.kernel_time("newview", 10_000)
        t2 = cm.kernel_time("newview", 1_000_000)
        assert 50 < t2 / t1 < 150

    def test_serial_overhead_floor(self):
        cm = CostModel(XEON_PHI_5110P_1S)
        tiny = cm.kernel_time("newview", 1)
        assert tiny >= cm.serial_overhead_s("newview")

    def test_unknown_kernel_rejected(self):
        cm = CostModel(XEON_E5_2680_2S)
        with pytest.raises(KeyError):
            cm.kernel_time("bogus", 100)

    def test_figure3_calibration_within_5_percent(self):
        for report in figure3_residuals():
            assert abs(report.relative_error) < 0.05, report

    def test_derivative_sum_best_speedup(self):
        """Figure 3's headline: the streaming kernel speeds up most."""
        cpu = CostModel(XEON_E5_2680_2S)
        mic = CostModel(XEON_PHI_5110P_1S)
        speedups = {
            k: mic.kernel_speedup_vs(cpu, k, 1_000_000) for k in KERNELS
        }
        assert max(speedups, key=speedups.get) == "derivative_sum"
        assert speedups["derivative_sum"] > 2.5
        for k in ("newview", "evaluate", "derivative_core"):
            assert speedups[k] <= 2.1


class TestTrace:
    def test_default_trace_valid(self):
        assert DEFAULT_TRACE.n_taxa == 15
        assert DEFAULT_TRACE.total_calls > 10_000
        assert DEFAULT_TRACE.reductions > 0

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "trace.json"
        DEFAULT_TRACE.save(path)
        loaded = KernelTrace.load(path)
        assert loaded == DEFAULT_TRACE

    def test_saved_trace_with_retired_keys_loads(self):
        """Saved traces are outside input: keys older versions wrote
        (per-kernel bytes, a wave summary) are ignored, not refused."""
        payload = json.loads(DEFAULT_TRACE.to_json())
        payload["measured_seconds"] = {k: 0.5 for k in DEFAULT_TRACE.calls}
        payload["measured_bytes"] = {k: 1024 for k in DEFAULT_TRACE.calls}
        payload["wave_summary"] = {"plans": 1, "waves": 3, "ops": 6}
        loaded = KernelTrace.from_json(json.dumps(payload))
        assert loaded.calls == DEFAULT_TRACE.calls
        assert loaded.measured_seconds == payload["measured_seconds"]

    def test_missing_kernel_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            KernelTrace(15, 100, {"newview": 1}, 1)

    def test_negative_counts_rejected(self):
        calls = dict(DEFAULT_TRACE.calls)
        calls["evaluate"] = -1
        with pytest.raises(ValueError, match="negative"):
            KernelTrace(15, 100, calls, 1)


class TestEnergy:
    def test_paper_formula(self):
        # E[Wh] = TDP * t / 3600
        assert energy_wh(XEON_E5_2680_2S, 3600.0) == pytest.approx(260.0)

    def test_relative_savings_identity(self):
        assert relative_energy_savings(
            XEON_E5_2680_2S, 100.0, 100.0
        ) == pytest.approx(1.0)

    def test_paper_figure5_extremes(self):
        """From the paper's own Table III numbers: 1 MIC saves ~2.3x at 4M."""
        savings = relative_energy_savings(XEON_PHI_5110P_1S, 1228.0, 2494.0)
        assert savings == pytest.approx(2.35, abs=0.1)

    def test_negative_runtime_rejected(self):
        with pytest.raises(ValueError):
            energy_wh(XEON_E5_2680_2S, -1.0)
