"""The paper's core contribution: the PLF kernels and likelihood engine.

``kernels`` holds the NumPy reference implementations of ``newview``,
``evaluate``, ``derivativeSum`` and ``derivativeCore``; ``engine`` wires
them to trees and alignments with structural CLA validity tracking,
through a rate model (``ratemodel``, ``cat``, ``invariant``) and a CLA
store (``memsave``);
``traversal`` levelizes planned ``newview`` ops into dependency waves;
``vectorized`` re-expresses the kernels as vector programs for the
simulated MIC (:mod:`repro.mic`); ``layouts`` implements the
interleaved memory layout of Sec. V-B3.
"""

from .backends import (
    BackendInfo,
    BackendMismatchError,
    KernelBackend,
    KernelProfile,
    ReferenceBackend,
    ShadowBackend,
    available_backends,
    get_backend,
    make_engine,
    register_backend,
)
from .cat import CatModel
from .engine import LikelihoodEngine
from .invariant import InvariantMixture
from .layouts import InterleavedLayout
from .memsave import ClaStore
from .partitioned import Partition, partition_workers
from .ratemodel import GammaModel, RateModel
from .traversal import (
    ExecutionPlan,
    KernelCounters,
    KernelKind,
    NewviewOp,
    Wave,
    levelize,
)

__all__ = [
    "BackendInfo",
    "BackendMismatchError",
    "KernelBackend",
    "KernelProfile",
    "ReferenceBackend",
    "ShadowBackend",
    "available_backends",
    "get_backend",
    "make_engine",
    "register_backend",
    "LikelihoodEngine",
    "RateModel",
    "GammaModel",
    "CatModel",
    "InvariantMixture",
    "ClaStore",
    "InterleavedLayout",
    "Partition",
    "partition_workers",
    "ExecutionPlan",
    "KernelCounters",
    "KernelKind",
    "NewviewOp",
    "Wave",
    "levelize",
]
