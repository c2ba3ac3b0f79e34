"""Per-kernel analytic cost model (roofline + overheads).

Converts VM-level kernel measurements into platform-level times:

* **per-site cycles** for each PLF kernel on each ISA come from running
  the vectorized kernel generators on a small site window in the
  cycle-accounting VM (:func:`measure_kernel_cycles`, cached per
  process) — so the analytic model and the simulator can never drift
  apart;
* a per-kernel **pipeline efficiency** factor captures what the simple
  in-order VM model cannot: measured KNC efficiency on mixed-arithmetic
  kernels (register pressure, bank conflicts, partial prefetch
  coverage).  Factors are calibrated once against the paper's Figure 3
  and recorded in :data:`PIPELINE_EFFICIENCY`; the calibration residuals
  are reported by :mod:`repro.perf.calibration`;
* a per-call **serial overhead** models the non-parallel work of every
  kernel invocation (transition-matrix construction, traversal
  bookkeeping) which runs on *one* thread — cheap on a Xeon core,
  expensive on a 1 GHz in-order MIC core.  This term is what makes the
  MIC lose on small alignments (Table III's 10K column) long before
  communication is counted.

``kernel_time(kernel, sites_per_worker, platform)`` returns seconds of
wall time for the data-parallel part of one invocation on one platform.
Synchronisation and communication are layered on top by
:mod:`repro.parallel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .platforms import PlatformSpec

__all__ = [
    "KernelCycles",
    "measure_kernel_cycles",
    "PIPELINE_EFFICIENCY",
    "SERIAL_OVERHEAD_CYCLES",
    "CostModel",
]

KERNELS = ("newview", "evaluate", "derivative_sum", "derivative_core")


@dataclass(frozen=True)
class KernelCycles:
    """VM measurement: per-site compute cycles, DRAM traffic, and flops."""

    kernel: str
    isa_name: str
    issue_cycles_per_site: float
    dram_bytes_per_site: float
    flops_per_site: float = 0.0

    @property
    def arithmetic_intensity(self) -> float:
        """Flops per DRAM byte — the roofline x-axis."""
        return self.flops_per_site / self.dram_bytes_per_site

    def roofline_cycles_per_site(
        self, bytes_per_cycle: float, efficiency: float
    ) -> float:
        """max(compute / efficiency, bandwidth floor) per site."""
        return max(
            self.issue_cycles_per_site / efficiency,
            self.dram_bytes_per_site / bytes_per_cycle,
        )


@lru_cache(maxsize=None)
def measure_kernel_cycles(isa_name: str, window_sites: int = 128) -> dict[str, KernelCycles]:
    """Run every PLF kernel on the VM and extract per-site resources.

    Results are cached per ISA for the lifetime of the process; the
    window is large enough that per-call constants (loading the matrix
    registers) amortise below 1%.
    """
    from ..core import kernels as ref
    from ..core.vectorized import (
        emit_derivative_core,
        emit_derivative_sum,
        emit_evaluate,
        emit_newview_inner_inner,
        prepare_derivative_consts,
        prepare_evaluate_consts,
        prepare_newview_consts,
        setup_buffers,
    )
    from ..mic.device import Device
    from .platforms import TABLE1_PLATFORMS

    spec = next(
        p for p in TABLE1_PLATFORMS if p.isa is not None and p.isa.name == isa_name
    )
    device = Device(spec)
    from ..phylo.models import gtr
    from ..phylo.rates import GammaRates

    rng = np.random.default_rng(12345)
    model = gtr(
        np.array([1.2, 3.1, 0.9, 1.1, 3.4, 1.0]),
        np.array([0.3, 0.2, 0.2, 0.3]),
    )
    eigen = model.eigen()
    gamma = GammaRates(0.8, 4)
    z_left = rng.uniform(0.1, 1.0, size=(window_sites, 4, 4))
    z_right = rng.uniform(0.1, 1.0, size=(window_sites, 4, 4))
    weights = np.ones(window_sites)

    out: dict[str, KernelCycles] = {}

    def record(name: str, stats) -> None:
        out[name] = KernelCycles(
            kernel=name,
            isa_name=isa_name,
            issue_cycles_per_site=(stats.issue_cycles + stats.stall_cycles)
            / window_sites,
            dram_bytes_per_site=stats.memory.dram_bytes / window_sites,
            flops_per_site=stats.flops / window_sites,
        )

    vm = device.make_vm()
    bufs = setup_buffers(vm, z_left, z_right, weights=weights)
    record("derivative_sum", vm.run(emit_derivative_sum(vm.isa, bufs)))
    prepare_evaluate_consts(vm, bufs, eigen, gamma.rates, gamma.weights, 0.3)
    record("evaluate", vm.run(emit_evaluate(vm.isa, bufs)))
    prepare_newview_consts(vm, bufs, eigen, gamma.rates, 0.2, 0.4)
    record("newview", vm.run(emit_newview_inner_inner(vm.isa, bufs)))

    sumbuf = ref.derivative_sum(z_left, z_right)
    vm2 = device.make_vm()
    bufs2 = setup_buffers(vm2, sumbuf, z_right, weights=weights)
    prepare_derivative_consts(vm2, bufs2, eigen, gamma.rates, gamma.weights, 0.3)
    record(
        "derivative_core",
        vm2.run(emit_derivative_core(vm2.isa, bufs2, site_block=vm2.isa.width)),
    )
    return out


#: Fraction of the VM's idealised issue rate each kernel sustains on each
#: ISA.  Out-of-order Xeon cores run the streams at the modelled rate
#: (1.0).  On KNC the mixed-arithmetic kernels lose ground to in-order
#: hazards the VM's simple penalty model does not capture (register
#: pressure, vector-unit/thread scheduling, partial prefetch coverage);
#: factors calibrated against the paper's published Figure 3 speedups
#: (derivativeSum 2.8x, newview ~2.0x, evaluate ~1.9x,
#: derivativeCore ~2.0x) — see repro.perf.calibration for residuals.
PIPELINE_EFFICIENCY: dict[tuple[str, str], float] = {
    ("mic512", "newview"): 0.715,
    ("mic512", "evaluate"): 0.89,
    ("mic512", "derivative_sum"): 1.0,  # bandwidth-bound, issue rate moot
    ("mic512", "derivative_core"): 1.07,  # VM's dependency penalty overshoots
    ("avx256", "newview"): 1.0,
    ("avx256", "evaluate"): 1.0,
    ("avx256", "derivative_sum"): 1.0,
    ("avx256", "derivative_core"): 1.0,
}

#: Serial (single-thread) work per kernel invocation: transition-matrix
#: construction (16 exps + a 4x4x4 rearrangement), traversal/bookkeeping,
#: Newton-iteration control flow.  Charged per call at the platform's
#: *scalar* execution rate.
SERIAL_OVERHEAD_CYCLES: dict[str, float] = {
    "newview": 14_000.0,  # two P-matrix setups + descriptor handling
    "evaluate": 8_000.0,
    "derivative_sum": 6_000.0,
    "derivative_core": 3_000.0,  # exp table only (reused across NR iters)
}

#: Scalar-pipeline slowdown relative to the modelled clock: big Xeon
#: cores execute the scalar bookkeeping at ~2 ops/cycle; the in-order
#: KNC core at ~0.2 (no out-of-order window, 2-cycle decode per thread,
#: no branch prediction to speak of) — KNC scalar code is widely
#: reported an order of magnitude slower per clock than Sandy Bridge.
#: Value calibrated against Table III (see repro.perf.calibration).
SCALAR_IPC: dict[str, float] = {"avx256": 2.0, "mic512": 0.2}


@dataclass(frozen=True)
class CostModel:
    """Kernel timing for one platform (one card / one CPU system)."""

    platform: PlatformSpec

    def _isa_name(self) -> str:
        if self.platform.isa is None:
            raise ValueError(f"{self.platform.name} has no executable ISA")
        return self.platform.isa.name

    def cycles_per_site(self, kernel: str) -> float:
        """Roofline cycles per site per core for one kernel."""
        isa = self._isa_name()
        meas = measure_kernel_cycles(isa)[kernel]
        eff = PIPELINE_EFFICIENCY[(isa, kernel)]
        return meas.roofline_cycles_per_site(
            self.platform.bytes_per_cycle_per_core, eff
        )

    def serial_overhead_s(self, kernel: str) -> float:
        """Per-invocation serial time (P-matrices, bookkeeping)."""
        isa = self._isa_name()
        cycles = SERIAL_OVERHEAD_CYCLES[kernel] / SCALAR_IPC[isa]
        return cycles / (self.platform.clock_ghz * 1e9)

    def kernel_time(
        self, kernel: str, sites: float, n_workers: int | None = None
    ) -> float:
        """Wall seconds for one invocation over ``sites`` patterns.

        ``n_workers`` is the number of cores the data-parallel loop is
        spread over (default: every core of the platform); the serial
        overhead is charged once regardless.
        """
        if kernel not in KERNELS:
            raise KeyError(f"unknown kernel {kernel!r}")
        if sites < 0:
            raise ValueError("negative site count")
        n_workers = n_workers or self.platform.cores
        sites_per_core = np.ceil(sites / n_workers)
        cyc = self.cycles_per_site(kernel) * sites_per_core
        return cyc / (self.platform.clock_ghz * 1e9) + self.serial_overhead_s(kernel)

    def kernel_speedup_vs(self, other: "CostModel", kernel: str, sites: float) -> float:
        """Whole-platform speedup of ``self`` over ``other`` for a kernel."""
        return other.kernel_time(kernel, sites) / self.kernel_time(kernel, sites)
