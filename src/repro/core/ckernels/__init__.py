"""Compiled C kernel backend (codegen + build cache + extension modules).

See :mod:`repro.core.ckernels.codegen` for the numerical contract and
the entry points, :mod:`repro.core.ckernels.build` for the toolchain,
cache and extension import, and :mod:`repro.core.ckernels.backend` for
the :class:`CompiledBackend` that registers as ``backend="compiled"``.
"""

from .backend import CompiledBackend
from .build import (
    CACHE_ENV,
    CompilerUnavailable,
    ProbeStatus,
    default_cache_dir,
    probe_status,
    probe_toolchain,
)
from .codegen import render_source, source_digest

__all__ = [
    "CompiledBackend",
    "CACHE_ENV",
    "CompilerUnavailable",
    "ProbeStatus",
    "default_cache_dir",
    "probe_status",
    "probe_toolchain",
    "render_source",
    "source_digest",
]
