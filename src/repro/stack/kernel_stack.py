"""The Linux-kernel-flavoured stack.

Cost shape (calibrated in :mod:`repro.cpu.cost_model`): cheap TX, expensive
interrupt-driven RX, a heavy per-connection setup/teardown path, and
accept-queue contention across cores unless SO_REUSEPORT-style partitioning
is in effect.
"""

from __future__ import annotations

from repro.stack.base import NetworkStack


class KernelStack(NetworkStack):
    """Models the in-kernel TCP stack (the paper's default NSM and the
    Baseline guest stack)."""

    name = "kernel"

    def _segment_tx_cycles(self, payload_bytes: int) -> float:
        cost = self.cost
        if payload_bytes == 0:
            return cost.ktcp_tx_fixed * 0.3  # pure ACK
        return cost.ktcp_tx_fixed + payload_bytes * cost.ktcp_tx_per_byte

    def _segment_rx_cycles(self, payload_bytes: int) -> float:
        cost = self.cost
        if payload_bytes == 0:
            return cost.ktcp_rx_fixed * 0.1  # pure ACK processed in softirq
        return cost.ktcp_rx_fixed + payload_bytes * cost.ktcp_rx_per_byte

    def _conn_setup_cycles(self) -> float:
        # Roughly a third of the full short-connection cost is socket
        # allocation + handshake bookkeeping; segments carry the rest.
        return self.cost.ktcp_request_cycles * 0.35

    def _conn_teardown_cycles(self) -> float:
        return self.cost.ktcp_request_cycles * 0.25
