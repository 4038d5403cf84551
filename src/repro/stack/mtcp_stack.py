"""The mTCP-flavoured userspace stack (§6.3, Fig. 20).

mTCP's defining properties, reflected here:

* kernel-bypass packet I/O — much lower fixed per-packet/per-request cost;
* per-core partitioning (two-thread model, per-core accept queues) — near
  linear multicore scaling with no shared accept-queue contention;
* non-blocking batched event loop — ServiceLib buffers send operations per
  core and polls ``mtcp_epoll_wait`` with a 1 ms timeout (§5), which shows
  up as tight, low-variance latency (Table 5).
"""

from __future__ import annotations

from repro.stack.base import NetworkStack


class MtcpStack(NetworkStack):
    """Models mTCP over DPDK as ported in the paper's implementation."""

    name = "mtcp"

    #: The paper could only run mTCP stably at 1, 2, 4, or 8 vCPUs
    #: ("Using other numbers of vCPUs for mTCP causes stability problems",
    #: §7.4 fn. 4); we enforce the same envelope for fidelity.
    SUPPORTED_CORE_COUNTS = (1, 2, 4, 8)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if len(self.cores) not in self.SUPPORTED_CORE_COUNTS:
            raise ValueError(
                f"mTCP NSM supports {self.SUPPORTED_CORE_COUNTS} vCPUs, "
                f"got {len(self.cores)}")

    def _segment_tx_cycles(self, payload_bytes: int) -> float:
        cost = self.cost
        if payload_bytes == 0:
            return 60.0  # batched pure ACK
        return 200.0 + payload_bytes * cost.mtcp_tx_per_byte

    def _segment_rx_cycles(self, payload_bytes: int) -> float:
        cost = self.cost
        if payload_bytes == 0:
            return 60.0
        return 300.0 + payload_bytes * cost.mtcp_rx_per_byte

    def _conn_setup_cycles(self) -> float:
        return self.cost.mtcp_request_cycles * 0.35

    def _conn_teardown_cycles(self) -> float:
        return self.cost.mtcp_request_cycles * 0.25
