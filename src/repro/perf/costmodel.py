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
    "KIND_PRICING",
    "CostModel",
    "MeasuredKernelCost",
    "measured_costs",
    "wave_schedule_costs",
    "MeasuredSyncCost",
    "measured_sync_cost",
    "calibrate_forkjoin",
]

KERNELS = ("newview", "evaluate", "derivative_sum", "derivative_core")

#: How each scheduled kernel *kind* is priced in terms of the paper's
#: four measured kernels.  Pre-order partial ops run the same
#: arithmetic as ``newview`` (same FMA streams, different operand
#: roles), so they are priced identically; an ``edge_gradient`` op is
#: one ``derivative_sum`` (element-wise product of the pre-order and
#: post-order CLAs) followed by one ``derivative_core`` evaluation.
KIND_PRICING: dict[str, tuple[str, ...]] = {
    "newview_tip_tip": ("newview",),
    "newview_tip_inner": ("newview",),
    "newview_inner_inner": ("newview",),
    "preorder_tip_tip": ("newview",),
    "preorder_tip_inner": ("newview",),
    "preorder_inner_inner": ("newview",),
    "evaluate": ("evaluate",),
    "derivative_sum": ("derivative_sum",),
    "derivative_core": ("derivative_core",),
    "edge_gradient": ("derivative_sum", "derivative_core"),
}


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

    def wave_time(
        self,
        kernel: str,
        sites: float,
        width: int,
        n_workers: int | None = None,
        batched: bool = True,
    ) -> float:
        """Wall seconds for one *wave* of ``width`` independent calls.

        The data-parallel part scales with the wave width (every op
        sweeps its sites); the per-call serial overhead (P-matrix
        construction, bookkeeping) is charged **once per wave** under
        stacked dispatch (``batched=True``) but **once per op** on the
        per-op fallback path — the asymmetry the execution-plan IR
        exploits, and the term that dominates on the in-order MIC core.
        """
        if width < 0:
            raise ValueError("negative wave width")
        if width == 0:
            return 0.0
        if kernel not in KERNELS:
            raise KeyError(f"unknown kernel {kernel!r}")
        n_workers = n_workers or self.platform.cores
        sites_per_core = np.ceil(sites / n_workers)
        cyc = self.cycles_per_site(kernel) * sites_per_core * width
        compute = cyc / (self.platform.clock_ghz * 1e9)
        n_overheads = 1 if batched else width
        return compute + n_overheads * self.serial_overhead_s(kernel)


def wave_schedule_costs(
    model: CostModel, wave_summary, sites: float, n_workers: int | None = None
) -> dict[str, float]:
    """Serial-depth vs parallel-width decomposition of a wave schedule.

    ``wave_summary`` is a :class:`repro.core.schedule.WaveStats` (or its
    ``to_dict()`` payload as attached to a
    :class:`repro.perf.trace.KernelTrace`).  Each scheduled kernel kind
    in the summary's ``kernel_mix`` is priced via :data:`KIND_PRICING`
    (pre-order partials as ``newview``, ``edge_gradient`` as a
    ``derivative_sum`` + ``derivative_core`` pair); ops not covered by
    the mix — summaries predating the bidirectional IR carry none —
    fall back to ``newview`` pricing, the historical behaviour.

    Returns a dict with

    * ``serial_depth_s`` — per-wave serial overhead (one P-matrix/setup
      charge per wave: the irreducible critical-path cost),
    * ``parallel_width_s`` — data-parallel compute summed over every op
      (spreadable over ``n_workers``),
    * ``per_op_serial_s`` — serial overhead the per-op path would pay
      (one charge per op),
    * ``batch_saving_s`` — overhead eliminated by stacked dispatch
      (``per_op_serial_s - serial_depth_s``),
    * ``batched_total_s`` / ``per_op_total_s`` — modelled wall time of
      the two dispatch modes.
    """
    if hasattr(wave_summary, "to_dict"):
        wave_summary = wave_summary.to_dict()
    waves = int(wave_summary.get("waves", 0))
    ops = int(wave_summary.get("ops", 0))
    n_workers = n_workers or model.platform.cores
    sites_per_core = float(np.ceil(sites / n_workers))
    clock_hz = model.platform.clock_ghz * 1e9

    def op_compute(kernel: str) -> float:
        return model.cycles_per_site(kernel) * sites_per_core / clock_hz

    mix = {
        str(k): int(n)
        for k, n in (wave_summary.get("kernel_mix") or {}).items()
        if str(k) in KIND_PRICING
    }
    plain = max(ops - sum(mix.values()), 0)  # kinds unknown to the summary
    parallel_width_s = plain * op_compute("newview")
    per_op_serial_s = plain * model.serial_overhead_s("newview")
    for kind, n in mix.items():
        for kernel in KIND_PRICING[kind]:
            parallel_width_s += n * op_compute(kernel)
            per_op_serial_s += n * model.serial_overhead_s(kernel)
    # one setup charge per wave at the schedule's op-weighted mean rate
    serial_depth_s = waves * (per_op_serial_s / ops) if ops else 0.0
    return {
        "waves": float(waves),
        "ops": float(ops),
        "serial_depth_s": serial_depth_s,
        "parallel_width_s": parallel_width_s,
        "per_op_serial_s": per_op_serial_s,
        "batch_saving_s": per_op_serial_s - serial_depth_s,
        "batched_total_s": serial_depth_s + parallel_width_s,
        "per_op_total_s": per_op_serial_s + parallel_width_s,
    }


# ----------------------------------------------------------------------
# measured costs (backend profiles -> calibration input)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MeasuredKernelCost:
    """Empirical per-kernel cost from a profiling backend.

    The analytic side of this module predicts per-site times from VM
    constants; this is its measured counterpart, built from the wall
    times and traffic a :class:`repro.core.backends.KernelProfile`
    records on the machine actually running the kernels.  Comparing the
    two (predicted vs. ``seconds_per_site``) is how backend pipeline
    efficiencies are calibrated.
    """

    kernel: str
    calls: int
    site_units: float
    seconds: float
    bytes_moved: int

    @property
    def seconds_per_site(self) -> float | None:
        """Measured wall seconds per (pattern x call) work unit.

        ``None`` for kernels the profile never observed — an untimed
        kernel has no measured cost, and returning ``0.0`` would let
        cost-model consumers price it as *free*.  Callers must skip
        ``None`` entries.
        """
        return self.seconds / self.site_units if self.site_units else None

    @property
    def bytes_per_site(self) -> float:
        """Measured traffic (lower bound) per work unit."""
        return self.bytes_moved / self.site_units if self.site_units else 0.0

    @property
    def effective_bandwidth_gbs(self) -> float:
        """Bytes moved over wall time, in GB/s (0 when untimed)."""
        return self.bytes_moved / self.seconds / 1e9 if self.seconds else 0.0


def measured_costs(source) -> dict[str, MeasuredKernelCost]:
    """Extract per-kernel measured costs from a profile or trace.

    ``source`` may be

    * a :class:`repro.core.backends.KernelProfile` (any profiling
      backend's ``profile`` attribute), or
    * a :class:`repro.perf.trace.KernelTrace` whose ``measured_seconds``
      field is populated (i.e. recorded through a profiling backend).

    Returns a dict over the paper's four kernels.  Raises ``ValueError``
    for a trace with no measurements — analytic replay needs no
    calibration input, so asking for one is a caller bug.
    """
    if hasattr(source, "merged_seconds") and hasattr(source, "merged_site_units"):
        calls = source.merged()
        units = source.merged_site_units()
        seconds = source.merged_seconds()
        nbytes = source.merged_bytes()
    elif hasattr(source, "calls") and hasattr(source, "traced_sites"):
        if source.measured_seconds is None:
            raise ValueError(
                "trace carries no measurements; record it through a "
                "profiling backend (see repro.perf.trace.trace_from_profile)"
            )
        calls = dict(source.calls)
        units = {k: n * source.traced_sites for k, n in calls.items()}
        seconds = dict(source.measured_seconds)
        nbytes = dict(source.measured_bytes or {k: 0 for k in calls})
    else:
        raise TypeError(
            f"expected a KernelProfile or measured KernelTrace, got {type(source)!r}"
        )
    return {
        k: MeasuredKernelCost(
            kernel=k,
            calls=int(calls.get(k, 0)),
            site_units=float(units.get(k, 0)),
            seconds=float(seconds.get(k, 0.0)),
            bytes_moved=int(nbytes.get(k, 0)),
        )
        for k in KERNELS
    }


# ----------------------------------------------------------------------
# measured synchronisation costs (real fork-join regions -> calibration)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MeasuredSyncCost:
    """Empirical fork-join region cost from a real parallel engine.

    The PThreads/OpenMP side of the model predicts the two-barrier
    region overhead from published microbenchmark constants; this is the
    measured counterpart, built from the
    :class:`repro.parallel.pool.BarrierStats` a real
    :class:`~repro.parallel.pool.WorkerPool` (or threaded fork-join
    engine) records while running: regions observed, mean wall time per
    region, mean announcement + barrier + straggler overhead (region
    wall time minus the slowest worker's compute), and the fraction of
    region time lost to synchronisation.
    """

    regions: int
    mean_region_s: float
    mean_overhead_s: float
    mean_compute_s: float
    overhead_fraction: float


def measured_sync_cost(stats) -> MeasuredSyncCost:
    """Summarise one engine's measured barrier statistics.

    ``stats`` is a :class:`repro.parallel.pool.BarrierStats` instance or
    its ``to_dict()`` payload (what benchmark JSON artefacts store).
    """
    if hasattr(stats, "to_dict"):
        stats = stats.to_dict()
    regions = int(stats.get("regions", 0))
    region_s = float(stats.get("region_seconds", 0.0))
    overhead_s = float(stats.get("overhead_seconds", 0.0))
    compute_s = float(stats.get("compute_seconds", 0.0))
    return MeasuredSyncCost(
        regions=regions,
        mean_region_s=region_s / regions if regions else 0.0,
        mean_overhead_s=overhead_s / regions if regions else 0.0,
        mean_compute_s=compute_s / regions if regions else 0.0,
        overhead_fraction=overhead_s / region_s if region_s else 0.0,
    )


def calibrate_forkjoin(samples: dict, name: str = "measured-forkjoin"):
    """Fit a :class:`~repro.parallel.pthreads.ForkJoinModel` to measured
    barriers.

    ``samples`` maps worker count -> ``BarrierStats`` (or its dict
    payload).  The fork-join region overhead is modelled as two barriers
    of ``a + b * n`` seconds each, so the mean measured region overhead
    at each worker count gives one point of ``2 * (a + b * n)``; the
    constants are recovered by least squares (clamped non-negative).  A
    single sample pins only the constant term (``b = 0``) — measure at
    two or more worker counts to separate the per-thread slope, exactly
    how the modelled constants were calibrated from EPCC-style
    microbenchmarks.
    """
    from ..parallel.openmp import OpenMPModel
    from ..parallel.pthreads import ForkJoinModel

    points = [
        (int(n), measured_sync_cost(stats).mean_overhead_s)
        for n, stats in samples.items()
        if measured_sync_cost(stats).regions > 0
    ]
    if not points:
        raise ValueError("no measured regions to calibrate from")
    if len(points) == 1:
        a = max(points[0][1] / 2.0, 0.0)
        b = 0.0
    else:
        arr = np.array(points, dtype=np.float64)
        design = np.column_stack([np.ones(arr.shape[0]), arr[:, 0]])
        coef, *_ = np.linalg.lstsq(design, arr[:, 1] / 2.0, rcond=None)
        a, b = max(float(coef[0]), 0.0), max(float(coef[1]), 0.0)
    return ForkJoinModel(
        name=name,
        barrier=OpenMPModel(
            name=f"{name}-barrier", fork_base_s=a, barrier_per_thread_s=b
        ),
    )
