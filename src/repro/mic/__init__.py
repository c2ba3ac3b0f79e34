"""Simulated Intel MIC substrate.

A cycle-accounting vector virtual machine (``vm``), the ISAs it executes
(``isa``: MIC-512, AVX-256, SSE-128), a per-core cache + DRAM model
(``cache``, ``memory``), the pragma-driven auto-vectorizer and
intrinsics builder of Figure 2 (``compiler``), platform device wrappers
(``device``), and the offload-vs-native execution-mode cost models of
Section V-C (``offload``).
"""

from .cache import CacheLevel, MemoryHierarchy, MemoryStats
from .compiler import ArrayRef, Intrinsics, Loop, auto_vectorize, can_vectorize
from .device import Device, xeon_e5_device, xeon_phi_device
from .isa import AVX256, MIC512, SSE128, Instruction, Op, VectorISA
from .memory import CACHE_LINE, DramModel, MIC_GDDR5, SNB_DDR3
from .offload import NativeRuntime, OffloadRuntime, TransferModel
from .peephole import (
    PeepholeResult,
    eliminate_dead_stores,
    eliminate_redundant_loads,
    optimize_program,
)
from .vm import RunStats, VectorMachine, VectorProgram

__all__ = [
    "CacheLevel",
    "MemoryHierarchy",
    "MemoryStats",
    "ArrayRef",
    "Intrinsics",
    "Loop",
    "auto_vectorize",
    "can_vectorize",
    "Device",
    "xeon_e5_device",
    "xeon_phi_device",
    "AVX256",
    "MIC512",
    "SSE128",
    "Instruction",
    "Op",
    "VectorISA",
    "CACHE_LINE",
    "DramModel",
    "MIC_GDDR5",
    "SNB_DDR3",
    "NativeRuntime",
    "OffloadRuntime",
    "PeepholeResult",
    "eliminate_dead_stores",
    "eliminate_redundant_loads",
    "optimize_program",
    "TransferModel",
    "RunStats",
    "VectorMachine",
    "VectorProgram",
]
