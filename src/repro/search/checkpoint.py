"""Search checkpointing (ExaML's restart capability).

ExaML writes binary checkpoints so multi-day supercomputer runs survive
job-queue limits; the reproduction provides the same capability as a
JSON snapshot of the search-relevant state — topology with branch
lengths, substitution-model parameters, the Gamma shape, the likelihood
trajectory position, and (format 2) the search-driver progress marker
(step / stage / SPR round + radius index) needed to *continue* a run
rather than repeat it.

The checkpoint contains no CLAs (they are derived data and rebuild
lazily on the first evaluation), which is also why ExaML checkpoints
stay small next to its memory footprint.

Crash safety: every write goes through
:func:`repro.util.atomic_write_text` (tmp file + fsync + ``os.replace``)
so a process killed mid-write leaves the previous snapshot intact, and
:class:`CheckpointWriter` keeps a rotation of the last *K* snapshots
(``ck.json``, ``ck.json.1``, …) so even a snapshot corrupted *after*
landing (disk fault) still leaves an older restartable state.
:func:`load_latest_checkpoint` walks that rotation newest-first.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core.backends import KernelBackend, make_engine
from ..core.engine import LikelihoodEngine
from ..faults.plan import FaultPlan, InjectedCrash
from ..obs import metrics as _obs_metrics
from ..obs import server as _obs_server
from ..obs import spans as _obs
from ..phylo.alignment import PatternAlignment
from ..phylo.models import SubstitutionModel
from ..phylo.rates import GammaRates
from ..phylo.tree import Tree
from ..util import atomic_write_text

__all__ = [
    "Checkpoint",
    "CheckpointWriter",
    "save_checkpoint",
    "load_checkpoint",
    "load_latest_checkpoint",
    "rotation_slots",
    "resume_engine",
]

FORMAT_VERSION = 2

#: Format versions this build can read (v1 lacks the progress marker;
#: its fields default to "start of search").
READABLE_VERSIONS = (1, 2)


@dataclass(frozen=True)
class Checkpoint:
    """Restorable search state.

    ``lnl``/``stage`` locate the snapshot on the likelihood trajectory;
    ``step`` is the search driver's monotonic step counter and
    ``spr_round``/``spr_radius_idx`` pin the SPR schedule position so a
    resumed search continues the hill climb exactly where the dead
    process left it (rather than restarting rounds from the smallest
    radius).
    """

    newick: str
    model_name: str
    exchangeabilities: tuple[float, ...]
    frequencies: tuple[float, ...]
    alpha: float
    n_rate_categories: int
    lnl: float | None = None
    stage: str = ""
    step: int = 0
    spr_round: int = 0
    spr_radius_idx: int = 0
    tree_state: dict | None = None
    #: Full-tree smoothing method the run was using; a resumed search
    #: keeps it (the checkpoint wins over the resuming config) so the
    #: trajectory continues with the same optimiser.
    branch_opt_method: str = "newton"

    def to_json(self) -> str:
        return json.dumps(
            {
                "format_version": FORMAT_VERSION,
                "newick": self.newick,
                "model_name": self.model_name,
                "exchangeabilities": list(self.exchangeabilities),
                "frequencies": list(self.frequencies),
                "alpha": self.alpha,
                "n_rate_categories": self.n_rate_categories,
                "lnl": self.lnl,
                "stage": self.stage,
                "step": self.step,
                "spr_round": self.spr_round,
                "spr_radius_idx": self.spr_radius_idx,
                "tree_state": self.tree_state,
                "branch_opt_method": self.branch_opt_method,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "Checkpoint":
        """Parse a checkpoint document.

        Truncated, non-JSON, or field-incomplete documents raise a
        single clear ``ValueError("corrupt checkpoint: ...")`` — never a
        raw ``KeyError``/``JSONDecodeError`` — so callers (and the
        rotation fallback in :func:`load_latest_checkpoint`) can treat
        "corrupt" uniformly.  An honest version mismatch keeps its own
        message.
        """
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"corrupt checkpoint: not valid JSON ({exc})") from exc
        if not isinstance(d, dict):
            raise ValueError(
                "corrupt checkpoint: expected a JSON object, got "
                + type(d).__name__
            )
        version = d.get("format_version")
        if version not in READABLE_VERSIONS:
            raise ValueError(
                f"unsupported checkpoint format {version!r} "
                f"(this build reads {READABLE_VERSIONS})"
            )
        try:
            return cls(
                newick=d["newick"],
                model_name=d["model_name"],
                exchangeabilities=tuple(float(x) for x in d["exchangeabilities"]),
                frequencies=tuple(float(x) for x in d["frequencies"]),
                alpha=float(d["alpha"]),
                n_rate_categories=int(d["n_rate_categories"]),
                lnl=None if d.get("lnl") is None else float(d["lnl"]),
                stage=str(d.get("stage", "")),
                step=int(d.get("step", 0)),
                spr_round=int(d.get("spr_round", 0)),
                spr_radius_idx=int(d.get("spr_radius_idx", 0)),
                tree_state=d.get("tree_state"),
                branch_opt_method=str(d.get("branch_opt_method", "newton")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            detail = (
                f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
            )
            raise ValueError(f"corrupt checkpoint: {detail}") from exc


def _snapshot(
    engine: LikelihoodEngine,
    lnl: float | None,
    stage: str,
    step: int = 0,
    spr_round: int = 0,
    spr_radius_idx: int = 0,
    branch_opt_method: str = "newton",
) -> Checkpoint:
    # ``tree_state`` is the authoritative restore payload: an exact
    # structural dump (node/edge ids, adjacency order, id counters) so a
    # resumed search replays the identical floating-point trajectory —
    # a newick round-trip renumbers nodes and reorders enumeration,
    # which perturbs CLA/branch-opt evaluation order and drifts lnl by
    # ~1e-6, blowing the 1e-8 resume-parity gate.  The newick (17
    # significant digits, bit-exact branch lengths) stays for human
    # inspection and v1 readers.
    return Checkpoint(
        newick=engine.tree.to_newick(precision=17),
        model_name=engine.model.name,
        exchangeabilities=tuple(float(x) for x in engine.model.exchangeabilities),
        frequencies=tuple(float(x) for x in engine.model.frequencies),
        alpha=float(engine.rates_model.alpha),
        n_rate_categories=int(engine.rates_model.n_categories),
        lnl=lnl,
        stage=stage,
        step=step,
        spr_round=spr_round,
        spr_radius_idx=spr_radius_idx,
        tree_state=engine.tree.to_state(),
        branch_opt_method=branch_opt_method,
    )


def save_checkpoint(
    engine: LikelihoodEngine,
    path: str | Path,
    lnl: float | None = None,
    stage: str = "",
    step: int = 0,
    spr_round: int = 0,
    spr_radius_idx: int = 0,
    branch_opt_method: str = "newton",
) -> Checkpoint:
    """Snapshot an engine's search state to a JSON file, atomically.

    The write is crash-safe (tmp + fsync + ``os.replace``): a kill at
    any instant leaves either the previous snapshot or the new one on
    disk, never a truncated hybrid.
    """
    ckpt = _snapshot(
        engine, lnl, stage, step, spr_round, spr_radius_idx, branch_opt_method
    )
    atomic_write_text(path, ckpt.to_json())
    return ckpt


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint file; errors name the offending path."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValueError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        return Checkpoint.from_json(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def rotation_slots(path: str | Path, keep: int = 3) -> list[Path]:
    """The rotation file names, newest first: ``p``, ``p.1``, …"""
    path = Path(path)
    return [path] + [
        path.with_name(f"{path.name}.{k}") for k in range(1, max(keep, 1))
    ]


def load_latest_checkpoint(
    path: str | Path, keep: int = 3
) -> tuple[Checkpoint, Path]:
    """The newest loadable snapshot in a rotation; ``(checkpoint, path)``.

    Tries ``path``, then ``path.1``, …  — a snapshot corrupted by a
    crash or disk fault silently falls through to the next-older slot.
    Raises ``ValueError`` describing every slot when none loads.
    """
    failures: list[str] = []
    for slot in rotation_slots(path, keep):
        if not slot.exists():
            failures.append(f"{slot}: missing")
            continue
        try:
            return load_checkpoint(slot), slot
        except ValueError as exc:
            failures.append(str(exc))
    raise ValueError(
        "no loadable checkpoint in rotation:\n  " + "\n  ".join(failures)
    )


class CheckpointWriter:
    """Periodic crash-safe snapshots with last-``keep`` rotation.

    ``every`` is the step period (``maybe_write`` fires when
    ``step % every == 0``); :meth:`write` always fires.  Before a new
    snapshot lands, existing slots shift ``p`` → ``p.1`` → … →
    ``p.(keep-1)`` via atomic renames.

    Fault hook: a ``crash-in-write`` fault from ``fault_plan`` raises
    :class:`~repro.faults.InjectedCrash` *between* the tmp file's fsync
    and the final rename — the strongest kill-mid-write simulation: the
    payload is fully on disk, yet the rotation still shows only complete
    older snapshots.
    """

    def __init__(
        self,
        path: str | Path,
        every: int = 1,
        keep: int = 3,
        fault_plan: FaultPlan | None = None,
        branch_opt_method: str = "newton",
    ) -> None:
        if every < 0:
            raise ValueError("checkpoint period must be >= 0")
        if keep < 1:
            raise ValueError("need at least one rotation slot")
        self.path = Path(path)
        self.every = every
        self.keep = keep
        self.fault_plan = fault_plan
        self.branch_opt_method = branch_opt_method
        self.writes = 0
        self.seconds_writing = 0.0
        self.last_checkpoint: Checkpoint | None = None

    def _rotate(self) -> None:
        import os

        slots = rotation_slots(self.path, self.keep)
        for older, newer in zip(reversed(slots[1:]), reversed(slots[:-1])):
            if newer.exists():
                os.replace(newer, older)

    def write(
        self,
        engine: LikelihoodEngine,
        lnl: float | None,
        stage: str,
        step: int,
        spr_round: int = 0,
        spr_radius_idx: int = 0,
    ) -> Checkpoint:
        """Rotate and atomically write one snapshot (unconditional)."""
        t0 = time.perf_counter()
        ckpt = _snapshot(
            engine, lnl, stage, step, spr_round, spr_radius_idx,
            self.branch_opt_method,
        )
        self._rotate()

        hook = None
        if self.fault_plan is not None:
            plan = self.fault_plan

            def hook(tmp_path: Path) -> None:
                if plan.crash_in_write(str(self.path)):
                    raise InjectedCrash(step, where="checkpoint-write")

        atomic_write_text(self.path, ckpt.to_json(), pre_replace_hook=hook)
        self.writes += 1
        self.last_checkpoint = ckpt
        dt = time.perf_counter() - t0
        self.seconds_writing += dt
        if _obs.ENABLED:
            _obs.add_complete(
                "checkpoint.write", t0, t0 + dt,
                args={"stage": stage, "step": step, "path": str(self.path)},
            )
            reg = _obs_metrics.get_registry()
            reg.counter(
                "repro_checkpoint_writes_total", "checkpoint snapshots written"
            ).inc()
            reg.histogram(
                "repro_checkpoint_write_seconds",
                "wall time of one rotated atomic checkpoint write",
            ).observe(dt)
        if _obs_server.ENABLED:
            _obs_server.checkpoint_written(str(self.path), step)
        return ckpt

    def maybe_write(
        self,
        engine: LikelihoodEngine,
        lnl: float | None,
        stage: str,
        step: int,
        spr_round: int = 0,
        spr_radius_idx: int = 0,
    ) -> Checkpoint | None:
        """Periodic entry point: write when ``step`` hits the period."""
        if self.every == 0 or step % self.every != 0:
            return None
        return self.write(engine, lnl, stage, step, spr_round, spr_radius_idx)


def resume_engine(
    patterns: PatternAlignment,
    checkpoint: Checkpoint,
    backend: str | KernelBackend | None = None,
    workers: int = 1,
    execution: str = "simulated",
) -> LikelihoodEngine:
    """Rebuild an engine from a checkpoint over the original alignment.

    The alignment itself is not stored in the checkpoint (it is the
    immutable input, exactly as in ExaML, whose restarts re-read the
    original PHYLIP file); taxon-set agreement is verified.  ``backend``
    picks the kernel implementation of the resumed engine — a restart
    may switch backends freely because the checkpoint stores no CLAs.

    Only the *engine* state is restored here; the driver-level progress
    (``lnl``/``stage``/``step``/SPR position) is threaded back into the
    search by :func:`repro.search.ml_search`'s ``resume_from`` so a
    resumed run continues its likelihood trajectory instead of
    repeating completed phases.
    """
    if checkpoint.tree_state is not None:
        # Exact structural restore (same node/edge ids and adjacency
        # order as the checkpointed process) so the resumed search
        # replays an identical floating-point trajectory.
        tree = Tree.from_state(checkpoint.tree_state)
    else:  # v1 checkpoints carry only the newick
        tree = Tree.from_newick(checkpoint.newick)
    if set(tree.leaf_names()) != set(patterns.taxa):
        raise ValueError(
            "checkpoint tree taxa do not match the supplied alignment"
        )
    model = SubstitutionModel(
        name=checkpoint.model_name,
        exchangeabilities=np.asarray(checkpoint.exchangeabilities),
        frequencies=np.asarray(checkpoint.frequencies),
    )
    gamma = GammaRates(
        alpha=checkpoint.alpha, n_categories=checkpoint.n_rate_categories
    )
    return make_engine(
        patterns,
        tree,
        model,
        gamma,
        backend=backend,
        workers=workers,
        execution=execution,
    )
