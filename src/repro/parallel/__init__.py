"""Simulated parallel runtimes: MPI, OpenMP, PThreads, and ExaML's scheme.

Cost models for collectives and fork-join synchronisation (calibrated to
the paper's measured latencies), the canonical run configurations of the
evaluation (flat MPI, hybrid MPI x OpenMP, PThreads fork-join), the
trace-driven end-to-end run model behind Table III, and a functional
distributed engine demonstrating ExaML's communicate-only-at-reductions
scheme with bit-level agreement against the serial engine, and the
partitioned (multi-gene) engine: the same sliced PLF, one slice per
partition.
"""

from .distribute import (
    SiteDistribution,
    distribute_block,
    slice_cat,
    slice_patterns,
)
from .distributed import DistributedEngine
from .examl import ExaMLModel, RunPrediction
from .forkjoin import EXECUTION_MODES, ForkJoinEngine
from .pool import (
    BarrierStats,
    SumBufferHandle,
    WorkerFailure,
    WorkerPool,
    WorkerRestart,
)
from .shm import ArenaLayout, SharedArena, active_arena_segments
from .sliced import PartitionedEngine
from .hybrid import (
    MIC_ONCARD_MPI,
    ParallelConfig,
    examl_cpu,
    examl_mic_flat,
    examl_mic_hybrid,
    raxml_light_pthreads,
)
from .openmp import CPU_OPENMP, MIC_OPENMP, OpenMPModel
from .pthreads import CPU_PTHREADS, MIC_PTHREADS, ForkJoinModel
from .simmpi import (
    INFINIBAND_QLOGIC,
    PCIE_MIC_MIC,
    PCIE_MIC_MIC_OLD_MPI,
    SHARED_MEMORY,
    Interconnect,
    SimMPI,
    allreduce_time,
)

__all__ = [
    "SiteDistribution",
    "distribute_block",
    "DistributedEngine",
    "ExaMLModel",
    "EXECUTION_MODES",
    "ForkJoinEngine",
    "PartitionedEngine",
    "BarrierStats",
    "SumBufferHandle",
    "WorkerFailure",
    "WorkerPool",
    "WorkerRestart",
    "slice_cat",
    "slice_patterns",
    "ArenaLayout",
    "SharedArena",
    "active_arena_segments",
    "RunPrediction",
    "MIC_ONCARD_MPI",
    "ParallelConfig",
    "examl_cpu",
    "examl_mic_flat",
    "examl_mic_hybrid",
    "raxml_light_pthreads",
    "CPU_OPENMP",
    "MIC_OPENMP",
    "OpenMPModel",
    "CPU_PTHREADS",
    "MIC_PTHREADS",
    "ForkJoinModel",
    "INFINIBAND_QLOGIC",
    "PCIE_MIC_MIC",
    "PCIE_MIC_MIC_OLD_MPI",
    "SHARED_MEMORY",
    "Interconnect",
    "SimMPI",
    "allreduce_time",
]
