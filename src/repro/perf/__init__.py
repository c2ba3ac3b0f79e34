"""Performance and energy modelling.

Table I platform data, the VM-backed roofline cost model, scalable
kernel traces, calibration bookkeeping, and the paper's energy
estimator.  Everything here *models* the paper's platforms; the one
measured input is a backend's kernel profile, carried into a
:class:`KernelTrace` by :func:`trace_from_profile`.  Measured wall-clock
of this implementation otherwise comes from ``repro.obs`` (spans,
metrics) and the end-to-end harness in ``benchmarks/e2e``.
"""

from .calibration import PAPER_FIGURE3, CalibrationReport, figure3_residuals
from .costmodel import (
    PIPELINE_EFFICIENCY,
    SERIAL_OVERHEAD_CYCLES,
    CostModel,
    KernelCycles,
    measure_kernel_cycles,
)
from .energy import energy_wh, relative_energy_savings
from .platforms import (
    BASELINE,
    NVIDIA_K20,
    TABLE1_PLATFORMS,
    PlatformSpec,
    XEON_E5_2630_2S,
    XEON_E5_2680_2S,
    XEON_PHI_5110P_1S,
    XEON_PHI_5110P_2S,
)
from .trace import (
    DEFAULT_TRACE,
    KernelTrace,
    trace_from_profile,
    trace_from_search,
)

__all__ = [
    "PAPER_FIGURE3",
    "CalibrationReport",
    "figure3_residuals",
    "PIPELINE_EFFICIENCY",
    "SERIAL_OVERHEAD_CYCLES",
    "CostModel",
    "KernelCycles",
    "measure_kernel_cycles",
    "energy_wh",
    "relative_energy_savings",
    "BASELINE",
    "NVIDIA_K20",
    "TABLE1_PLATFORMS",
    "PlatformSpec",
    "XEON_E5_2630_2S",
    "XEON_E5_2680_2S",
    "XEON_PHI_5110P_1S",
    "XEON_PHI_5110P_2S",
    "DEFAULT_TRACE",
    "KernelTrace",
    "trace_from_profile",
    "trace_from_search",
]
