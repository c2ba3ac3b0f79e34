"""Compile-and-cache layer for the generated PLF kernels.

Turns the C source from :mod:`repro.core.ckernels.codegen` into an
importable CPython extension module using only the standard library and
the system compiler — no build-system or packaging dependency, no
network:

* the compiler comes from ``$CC`` when set, else the first of ``cc``,
  ``gcc``, ``clang`` found on ``PATH``;
* base flags are ``-O3 -fPIC -shared -ffp-contract=off`` (the contract
  flag is load-bearing: GCC's default FMA contraction would change
  results at the last ulp and break the parity contract in
  ``codegen``); ``-march=native`` is added when a one-shot probe
  compile accepts it; the probe source includes ``Python.h``, so a host
  without Python headers is refused like one without a compiler; the
  resolved :class:`BuildSpec` is persisted in the cache directory
  (``toolchain.json``, keyed by the compiler's path, size and mtime and
  the include directories), so only its first process pays the probe;
* extension objects land in the same cache directory
  (``$REPRO_CKERNEL_CACHE``, default ``~/.cache/repro/ckernels``) keyed
  by source-hash x compiler x flags x NumPy version x ``EXT_SUFFIX``,
  compiled to a temporary name and published with an atomic
  ``os.replace`` so concurrent processes never import a half-written
  object;
* every failure mode (no compiler, no ``Python.h``, compile error,
  unimportable object) raises :class:`CompilerUnavailable` with a reason
  the backend turns into its one-time fallback warning and ``repro
  backends`` displays verbatim.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import json
import os
import shutil
import subprocess
import sysconfig
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType

import numpy as np

from ...util import atomic_write_text
from .codegen import module_name, render_source, source_digest

__all__ = [
    "CACHE_ENV",
    "CompilerUnavailable",
    "BuildSpec",
    "ProbeStatus",
    "default_cache_dir",
    "find_compiler",
    "probe_toolchain",
    "probe_status",
    "object_path",
    "load_kernels",
]

#: Environment variable overriding the shared-object cache directory.
CACHE_ENV = "REPRO_CKERNEL_CACHE"

_BASE_FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")

_PROBE_SOURCE = "#include <Python.h>\nint repro_probe(void) { return 42; }\n"

#: Where ``Python.h`` is looked for, and the file-name suffix (also part
#: of the cache key) of extension objects for this interpreter.
PYTHON_INCLUDE_DIRS = tuple(
    dict.fromkeys(sysconfig.get_path(k) for k in ("include", "platinclude"))
)
EXT_SUFFIX = sysconfig.get_config_var("EXT_SUFFIX") or ".so"


class CompilerUnavailable(RuntimeError):
    """No usable C toolchain (missing compiler, failed compile, ...)."""


def default_cache_dir() -> Path:
    """Cache directory for compiled kernels (honours :data:`CACHE_ENV`)."""
    override = os.environ.get(CACHE_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "ckernels"


def find_compiler() -> str:
    """The C compiler command, or raise :class:`CompilerUnavailable`.

    ``$CC`` wins when set — including when it points at a nonexistent
    path, which is how CI exercises the fallback (``CC=/nonexistent``):
    an explicit-but-broken setting must *not* silently fall through to
    a working system compiler.
    """
    cc = os.environ.get("CC")
    if cc:
        resolved = shutil.which(cc)
        if resolved is None:
            raise CompilerUnavailable(
                f"$CC={cc!r} is not an executable compiler"
            )
        return resolved
    for cand in ("cc", "gcc", "clang"):
        resolved = shutil.which(cand)
        if resolved is not None:
            return resolved
    raise CompilerUnavailable(
        "no C compiler found (tried $CC, cc, gcc, clang)"
    )


@dataclass(frozen=True)
class BuildSpec:
    """Resolved toolchain: compiler plus the final flag set."""

    compiler: str
    flags: tuple[str, ...]

    def cache_key_extra(self) -> str:
        """Non-source part of the shared-object cache key."""
        return "|".join(
            (self.compiler, *self.flags, "numpy=" + np.__version__, EXT_SUFFIX)
        )


@dataclass
class ProbeStatus:
    """What ``repro backends`` reports about the compiled toolchain."""

    available: bool
    compiler: str | None = None
    flags: tuple[str, ...] = ()
    cache_dir: str = ""
    cached_objects: list[str] = field(default_factory=list)
    reason: str | None = None  # fallback reason when unavailable


def _try_compile(
    compiler: str, flags: tuple[str, ...], source: str, out_path: Path
) -> tuple[bool, str]:
    """Compile ``source`` to ``out_path``; return (ok, stderr)."""
    with tempfile.TemporaryDirectory(prefix="repro-cc-") as tmp:
        src = Path(tmp) / "kernel.c"
        src.write_text(source)
        includes = [f"-I{d}" for d in PYTHON_INCLUDE_DIRS]
        cmd = [
            compiler, *flags, *includes, str(src), "-o", str(out_path), "-lm"
        ]
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=120
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            return False, str(exc)
        if proc.returncode != 0:
            return False, proc.stderr.strip() or f"exit {proc.returncode}"
        return True, ""


_spec_cache: BuildSpec | None = None


def _read_spec(path: Path, identity: list) -> BuildSpec | None:
    """The persisted spec; ``None`` if absent, corrupt or another compiler's."""
    try:
        data = json.loads(path.read_text())
        if data["identity"] != identity:
            return None
        return BuildSpec(identity[0], tuple(map(str, data["flags"])))
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _write_spec(path: Path, identity: list, spec: BuildSpec) -> None:
    """Publish atomically; an unwritable cache only costs the next probe."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            path, json.dumps({"identity": identity, "flags": spec.flags})
        )
    except OSError:
        pass


def probe_toolchain(refresh: bool = False) -> BuildSpec:
    """Resolve compiler + flags, probing ``-march=native`` support once.

    The result is memoised per process and persisted per cache directory
    (a probe costs two tiny compiles): a process that finds the spec of
    the same compiler binary there spawns no subprocess.  ``refresh=True``
    probes regardless, e.g. after changing ``$CC`` mid-process (tests).
    """
    global _spec_cache
    if _spec_cache is not None and not refresh:
        return _spec_cache
    compiler = find_compiler()
    st = os.stat(compiler)
    identity = [compiler, st.st_size, st.st_mtime_ns, *PYTHON_INCLUDE_DIRS]
    spec_path = default_cache_dir() / "toolchain.json"
    _spec_cache = None if refresh else _read_spec(spec_path, identity)
    if _spec_cache is not None:
        return _spec_cache
    flags = _BASE_FLAGS
    with tempfile.TemporaryDirectory(prefix="repro-cc-") as tmp:
        probe_so = Path(tmp) / "probe.so"
        ok, err = _try_compile(compiler, flags, _PROBE_SOURCE, probe_so)
        if not ok:
            raise CompilerUnavailable(
                f"compiler {compiler!r} failed a probe compile of "
                f"#include <Python.h> (include dirs "
                f"{', '.join(PYTHON_INCLUDE_DIRS)}): {err}"
            )
        native = (*flags, "-march=native")
        ok, _ = _try_compile(compiler, native, _PROBE_SOURCE, probe_so)
        if ok:
            flags = native
    _spec_cache = BuildSpec(compiler=compiler, flags=flags)
    _write_spec(spec_path, identity, _spec_cache)
    return _spec_cache


def object_path(
    states: int, rates: int, spec: BuildSpec, cache_dir: Path
) -> Path:
    """Where the extension object for one pair lives in ``cache_dir``."""
    source = render_source(states, rates)
    digest = source_digest(source, spec.cache_key_extra())
    return cache_dir / f"{module_name(states, rates)}_{digest}{EXT_SUFFIX}"


def load_kernels(
    states: int,
    rates: int,
    spec: BuildSpec | None = None,
    cache_dir: Path | None = None,
) -> ModuleType:
    """Compile (or reuse) and import the kernels for one (states, rates).

    Cache hits skip the compiler entirely; misses compile into the cache
    under a temporary name and publish atomically, so parallel workers
    racing on a cold cache each produce a valid object and the last
    rename wins (the contents are identical by construction).
    """
    if spec is None:
        spec = probe_toolchain()
    if cache_dir is None:
        cache_dir = default_cache_dir()
    so_path = object_path(states, rates, spec, cache_dir)
    if not so_path.exists():
        cache_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(cache_dir), prefix=so_path.stem + ".", suffix=".tmp"
        )
        os.close(fd)
        tmp_path = Path(tmp_name)
        try:
            source = render_source(states, rates)
            ok, err = _try_compile(spec.compiler, spec.flags, source, tmp_path)
            if not ok:
                raise CompilerUnavailable(
                    f"compiling PLF kernels ({states} states, {rates} rates) "
                    f"failed: {err}"
                )
            os.replace(tmp_path, so_path)
        finally:
            if tmp_path.exists():
                tmp_path.unlink()
    name = module_name(states, rates)
    loader = importlib.machinery.ExtensionFileLoader(name, str(so_path))
    try:
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_loader(name, loader)
        )
    except ImportError as exc:
        raise CompilerUnavailable(
            f"cached kernel object {so_path} failed to import: {exc}"
        ) from exc
    return module


def probe_status() -> ProbeStatus:
    """Availability report for ``repro backends`` (never raises)."""
    cache_dir = default_cache_dir()
    cached = (
        sorted(p.name for p in cache_dir.glob("plf_*.so"))
        if cache_dir.is_dir()
        else []
    )
    try:
        spec = probe_toolchain()
    except CompilerUnavailable as exc:
        return ProbeStatus(
            available=False,
            cache_dir=str(cache_dir),
            cached_objects=cached,
            reason=str(exc),
        )
    return ProbeStatus(
        available=True,
        compiler=spec.compiler,
        flags=spec.flags,
        cache_dir=str(cache_dir),
        cached_objects=cached,
    )

