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
latency default (200 us) reflects the published measurements for KNC
offload dispatch (Newburn et al., ref. [27] of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """

    invocation_latency_s: float = 200e-6
    transfer: TransferModel = field(default_factory=TransferModel)
    calls: int = 0
    seconds_in_latency: float = 0.0
    seconds_in_transfer: float = 0.0

    def invoke(
        self,
        kernel_seconds: float,
        bytes_to_card: float = 0.0,
        bytes_from_card: float = 0.0,
    ) -> float:
        """Total wall time of one offloaded kernel invocation."""
        t_transfer = self.transfer.transfer_time(bytes_to_card) + (
            self.transfer.transfer_time(bytes_from_card)
        )
        self.calls += 1
        self.seconds_in_latency += self.invocation_latency_s
        self.seconds_in_transfer += t_transfer
        return self.invocation_latency_s + t_transfer + kernel_seconds

    @property
    def overhead_seconds(self) -> float:
        return self.seconds_in_latency + self.seconds_in_transfer


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
