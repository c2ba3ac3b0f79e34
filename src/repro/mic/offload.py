"""Offload vs. native execution modes (Section V-C).

The paper's key negative result: offloading individual PLF kernels to
the coprocessor is hopeless, because every offloaded invocation pays a
fixed runtime + PCIe latency that rivals the kernel's own compute time —
ML inference makes thousands of kernel calls per second, so offload
latency becomes *the* bottleneck, even with CLAs resident on the card.
Native mode (the whole program on the card) makes kernel invocation a
plain function call.

We model both modes as cost adapters around a kernel-time function:
:class:`OffloadRuntime` adds the per-invocation latency and any explicit
data transfers; :class:`NativeRuntime` adds nothing.  The offload
latency default (~10 us) reflects the published measurements for KNC
offload dispatch (Newburn et al., ref. [27] of the paper).

Fault tolerance: a real PCIe link to a KNC card is *flaky* — transfers
time out, checksums fail, and the card occasionally drops off the bus
(the LRZ MIC experience report's taxonomy).  :class:`OffloadRuntime`
therefore accepts a :class:`~repro.faults.FaultPlan`; each invocation
becomes a bounded retry loop with exponential backoff + seeded jitter
(:class:`~repro.faults.RetryPolicy`).  Failed attempts and backoff
delays are charged as *modelled* seconds (nothing sleeps), retries are
counted, and an exhausted budget raises
:class:`~repro.faults.OffloadGaveUp` so callers can checkpoint and
abort instead of silently wedging.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..faults.plan import (
    DeviceReset,
    FaultPlan,
    OffloadGaveUp,
    TransferCorruption,
    TransferTimeout,
)
from ..faults.retry import RetryPolicy
from ..obs import metrics as _obs_metrics
from ..obs import spans as _obs

__all__ = ["TransferModel", "OffloadRuntime", "NativeRuntime"]


@dataclass(frozen=True)
class TransferModel:
    """PCIe gen2 x16-ish transfer cost: latency + size/bandwidth."""

    latency_s: float = 20e-6
    bandwidth_bs: float = 6e9  # ~6 GB/s effective

    def transfer_time(self, n_bytes: float) -> float:
        if n_bytes < 0:
            raise ValueError("negative transfer size")
        if n_bytes == 0:
            return 0.0
        return self.latency_s + n_bytes / self.bandwidth_bs


@dataclass
class OffloadRuntime:
    """Host-driven offload: per-call dispatch latency + optional transfers.

    ``invocation_latency_s`` is the fixed cost of the offload runtime
    (marshalling, pinning, signalling the card, waiting for completion
    notification through the COI daemon) even when *no* data moves — the
    paper found it "comparable to and partially exceeding the time
    required for the actual computation", and Newburn et al. (the
    paper's ref. [27]) report empty-offload dispatch in the
    hundred-microsecond range on KNC.

    With a ``fault_plan`` each invocation is a bounded retry loop: a
    timed-out transfer costs ``timeout_s`` (deadline detection), a
    corrupted one costs the full (wasted) transfer, and a device reset
    costs ``reset_cost_s`` (re-initialise the card, re-upload resident
    CLAs); every retry then waits a modelled exponential-backoff delay
    before the next attempt.  Exhausting ``retry.max_attempts`` raises
    :class:`~repro.faults.OffloadGaveUp`.  Without a plan the behaviour
    (and modelled cost) is byte-for-byte the fault-free original.
    """

    invocation_latency_s: float = 200e-6
    transfer: TransferModel = field(default_factory=TransferModel)
    calls: int = 0
    seconds_in_latency: float = 0.0
    seconds_in_transfer: float = 0.0
    fault_plan: FaultPlan | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    retry_seed: int = 0
    timeout_s: float = 1e-3
    reset_cost_s: float = 5e-3
    retries: int = 0
    faults_seen: int = 0
    device_resets: int = 0
    giveups: int = 0
    seconds_in_backoff: float = 0.0
    seconds_in_faults: float = 0.0

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.retry_seed)

    def _inject(self) -> None:
        """Consult the plan for one attempt.

        Raises the matching retryable :class:`~repro.faults.FaultError`
        when the plan schedules a fault for this attempt; returns
        normally when the attempt succeeds.
        """
        plan = self.fault_plan
        if plan is None:
            return
        if plan.consult("device-reset", call=self.calls) is not None:
            self.device_resets += 1
            raise DeviceReset(f"device reset during call {self.calls}")
        if plan.consult("transfer-timeout", call=self.calls) is not None:
            raise TransferTimeout(f"transfer deadline missed, call {self.calls}")
        if plan.consult("transfer-corruption", call=self.calls) is not None:
            raise TransferCorruption(f"checksum mismatch, call {self.calls}")

    def invoke(
        self,
        kernel_seconds: float,
        bytes_to_card: float = 0.0,
        bytes_from_card: float = 0.0,
    ) -> float:
        """Total wall time of one offloaded kernel invocation.

        Includes the wasted time of any faulted attempts and the
        backoff delays between retries (all modelled, nothing sleeps).
        """
        t_transfer = self.transfer.transfer_time(bytes_to_card) + (
            self.transfer.transfer_time(bytes_from_card)
        )
        self.calls += 1
        wasted = 0.0
        for attempt in range(1, self.retry.max_attempts + 1):
            try:
                self._inject()
            except (DeviceReset, TransferTimeout, TransferCorruption) as fault:
                self.faults_seen += 1
                if isinstance(fault, DeviceReset):
                    cost = self.reset_cost_s
                elif isinstance(fault, TransferTimeout):
                    cost = self.timeout_s
                else:  # corruption: the full transfer happened, then failed
                    cost = t_transfer
                wasted += cost
                self.seconds_in_faults += cost
                if attempt >= self.retry.max_attempts:
                    self.giveups += 1
                    if _obs.ENABLED:
                        _obs.instant(
                            "offload.gave_up", call=self.calls, attempts=attempt
                        )
                        _obs_metrics.get_registry().counter(
                            "repro_offload_giveups_total",
                            "offload invocations that exhausted retries",
                        ).inc()
                    raise OffloadGaveUp(
                        f"offload call {self.calls} failed "
                        f"{attempt} attempts (last: {fault})"
                    ) from fault
                delay = self.retry.backoff_s(attempt, self._rng)
                wasted += delay
                self.seconds_in_backoff += delay
                self.retries += 1
                if _obs.ENABLED:
                    _obs.instant(
                        "offload.retry",
                        call=self.calls,
                        attempt=attempt,
                        kind=type(fault).__name__,
                        backoff_us=delay * 1e6,
                    )
                    _obs_metrics.get_registry().counter(
                        "repro_offload_retries_total",
                        "offload attempts retried after an injected fault",
                    ).inc()
                continue
            self.seconds_in_latency += self.invocation_latency_s
            self.seconds_in_transfer += t_transfer
            return (
                wasted + self.invocation_latency_s + t_transfer + kernel_seconds
            )
        raise AssertionError("unreachable")  # pragma: no cover

    @property
    def overhead_seconds(self) -> float:
        return (
            self.seconds_in_latency
            + self.seconds_in_transfer
            + self.seconds_in_faults
            + self.seconds_in_backoff
        )


@dataclass
class NativeRuntime:
    """Native mode: kernels are plain function calls (negligible latency)."""

    calls: int = 0

    def invoke(self, kernel_seconds: float) -> float:
        self.calls += 1
        return kernel_seconds

    @property
    def overhead_seconds(self) -> float:
        return 0.0
