"""The calibrated cost model.

Every constant that maps an operation to CPU cycles lives here, together
with the derivation from the paper's own measurements.  The same model
drives both the functional discrete-event simulation and the analytic
steady-state solver in :mod:`repro.model`, so the two agree by
construction.

Calibration sources (paper section / figure):

* **Fig. 11** — CoreEngine switches 8.0 M NQEs/s unbatched on one 2.3 GHz
  core → 2.3e9 / 8.0e6 ≈ 287 cycles per unbatched switch.  The batch curve
  saturates at 198.5 M NQEs/s at batch 256 → ≈ 11.6 cycles/NQE marginal.
  We model cycles(batch b) = ce_switch_fixed + b * ce_switch_per_nqe with
  ce_switch_fixed ≈ 277 and ce_switch_per_nqe ≈ 10.5.
* **Fig. 12** — hugepage copy path (user copy + NQE prep + switch + pointer
  hand-off) moves 4.9 Gbps at 64 B and 144.2 Gbps at 8 KiB on one core:
  cycles/msg = 240 at 64 B and 1046 at 8 KiB → per-byte ≈ 0.099, fixed ≈ 234.
* **Figs. 13–16** — kernel stack TX tops at 30.9 Gbps (1 stream) and
  55.2 Gbps (8 streams) per core; RX tops at 13.6 / 17.4 Gbps.  RX is far
  costlier than TX (interrupt-driven softirq processing), which fixes the
  per-byte TX/RX costs below.
* **Fig. 17 / Fig. 20 / Table 3** — short-connection capacity: kernel stack
  ≈ 70 K rps/core (≈ 32.9 K cycles per request), mTCP ≈ 190 K rps/core
  (≈ 12.1 K cycles).  nginx application logic ≈ 23.4 K cycles per request
  (98.1 K rps/core bound in Table 3's mTCP rows).
* **Fig. 18–20 / Table 4** — multicore scaling factors (lock/accept-queue
  contention) are fitted as Amdahl-style coefficients: rate(n) =
  n / (1 + alpha (n-1)) * rate(1).
* **Tables 6–7** — NetKernel's extra hugepage→NSM copy costs grow with
  aggregate throughput (cache-resident at low rates, DRAM-bound at high
  rates); modelled as a per-byte cost linear in offered load, fitted to the
  1.14×→1.70× overhead ramp.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import PAPER_CORE_HZ


@dataclass(frozen=True)
class CostModel:
    """Cycle costs for every operation in the system.

    All ``*_fixed`` fields are cycles per operation; all ``*_per_byte``
    fields are cycles per byte.  Instances are frozen so a simulation's
    calibration cannot drift mid-run; ``dataclasses.replace`` derives a
    variant.
    """

    core_hz: float = PAPER_CORE_HZ

    # -- CoreEngine NQE switching (Fig. 11) --------------------------------
    ce_switch_fixed: float = 277.0
    ce_switch_per_nqe: float = 10.5
    #: Cycles burned probing an empty queue set while polling.
    ce_poll_empty: float = 60.0
    #: Cycles to (de)register an NK device (control plane, §5).
    ce_device_setup: float = 12_000.0

    # -- GuestLib / NK device (Figs. 4, 12; §4.6) --------------------------
    #: Translate one socket call to an NQE and enqueue it.
    guestlib_nqe_prep: float = 120.0
    #: Parse one response NQE and wake the blocked call.
    guestlib_nqe_complete: float = 110.0
    #: Copy user payload into (or out of) the hugepage region.
    hugepage_copy_fixed: float = 234.0
    hugepage_copy_per_byte: float = 0.099
    #: Interrupt-driven polling (§4.6): busy-poll window before sleeping.
    nk_poll_window_sec: float = 20e-6
    #: Cost of arming/handling one interrupt-based wakeup.
    nk_interrupt_cycles: float = 900.0

    # -- ServiceLib (§4.5) --------------------------------------------------
    #: Parse an NQE and invoke the stack API.
    servicelib_nqe_dispatch: float = 150.0
    #: Prepare a result/receive-event NQE.
    servicelib_nqe_prep: float = 110.0
    #: NSM-side per-message fixed cost of driving the stack through the
    #: exported kernel API (buffer setup, per-message bookkeeping) — what
    #: keeps NetKernel at parity with Baseline for small messages
    #: (Figs. 13-16 show overlap at every size).
    nsm_send_fixed: float = 380.0
    nsm_recv_fixed: float = 380.0
    #: NSM-side copy between hugepages and the stack's buffers, at low load
    #: (cache-resident).  See membw_contention_per_byte for the load term.
    nsm_copy_per_byte: float = 0.02
    #: Additional per-byte copy cost per Gbps of aggregate throughput
    #: (memory-bandwidth contention; calibrated to Table 6's 1.14→1.70 ramp).
    membw_contention_per_byte_per_gbps: float = 0.0015

    # -- Kernel TCP stack (Figs. 13-17) -------------------------------------
    #: Per-message send-path cost inside the stack (tcp_sendmsg + qdisc +
    #: driver TX), excluding the user copy.
    ktcp_tx_fixed: float = 600.0
    ktcp_tx_per_byte: float = 0.411
    #: Multi-stream TX benefits from TSO/qdisc batching (Fig. 15 vs 13);
    #: applied to the whole stack TX component, fitted to 55.2 Gbps.
    ktcp_tx_multistream_discount: float = 0.417
    #: Per-message receive-path cost (softirq, IRQ, skb handling).
    ktcp_rx_fixed: float = 1_600.0
    ktcp_rx_per_byte: float = 1.14
    #: Multi-stream RX benefits from interrupt coalescing (Fig. 16 vs 14);
    #: applied to the whole stack RX component, fitted to 17.4 Gbps.
    ktcp_rx_multistream_discount: float = 0.735
    #: Full short-connection request cost (accept+recv+send+close) in the
    #: kernel stack, small messages (Fig. 17: ~70K rps/core).
    ktcp_request_cycles: float = 30_400.0
    #: Added cycles per payload byte for request/response traffic.
    ktcp_request_per_byte: float = 0.9

    # -- mTCP stack (Fig. 20, Table 3) ---------------------------------------
    mtcp_request_cycles: float = 10_500.0
    mtcp_request_per_byte: float = 0.45
    mtcp_tx_per_byte: float = 0.23
    mtcp_rx_per_byte: float = 0.40

    # -- Multicore contention coefficients (Amdahl-style alphas) ------------
    #: Kernel stack, short connections, SO_REUSEPORT set (Fig. 20).
    alpha_ktcp_reuseport: float = 0.0573
    #: Kernel stack, short connections, single shared accept queue (Table 3).
    alpha_ktcp_shared_accept: float = 0.12
    #: Kernel stack bulk TX across cores (Fig. 18 / Table 4: 85.1G at 2).
    alpha_ktcp_tx: float = 0.15
    #: Kernel stack bulk RX across cores (Fig. 19: 91G at 8).
    alpha_ktcp_rx: float = 0.054
    #: mTCP short connections (per-core partitioned; Fig. 20).
    alpha_mtcp: float = 0.053
    #: nginx application logic across worker cores (Table 3 mTCP rows).
    alpha_nginx: float = 0.03

    # -- Applications --------------------------------------------------------
    #: epoll server application work per request (excluding stack).
    epoll_app_request_cycles: float = 2_500.0
    #: Baseline epoll server per-request app work (no NQE machinery).
    baseline_app_request_cycles: float = 2_500.0
    #: nginx application work per request (Table 3's mTCP rows bound at
    #: 98.1 K rps/core on the VM side).
    nginx_app_request_cycles: float = 22_000.0
    #: Application-gateway request costs (§6.1).  An AG proxies: each
    #: tenant request crosses two connections (front + back), so its
    #: stack share is ~2x a plain server's while its app logic fits one
    #: core at peak — which is exactly what lets NetKernel run each AG as
    #: a 1-core VM in Fig. 8.
    ag_app_request_cycles: float = 13_000.0
    ag_stack_request_cycles: float = 39_400.0
    #: VM-side send/recv fixed cost per message under NetKernel: the
    #: redirected call skips the guest TCP entry entirely, so it is far
    #: cheaper than a baseline syscall.  Calibrated (with the hugepage
    #: copy) to Table 4's VM-side ceilings: 94.2 Gbps send and 91 Gbps
    #: receive from a 1-vCPU VM with 8 KiB messages.
    vm_send_fixed: float = 330.0
    vm_recv_fixed: float = 380.0
    #: VM-side per-byte cost of the NetKernel send/recv paths (the
    #: hugepage copy dominates).
    vm_send_path_per_byte: float = 0.099
    vm_recv_path_per_byte: float = 0.099

    # -- Shared-memory NSM (Fig. 10) -----------------------------------------
    shm_nsm_fixed: float = 300.0
    shm_nsm_per_byte: float = 0.20
    #: Effective cap on cross-VM copy bandwidth (DRAM limit), bits/sec.
    mem_bw_cap_bps: float = 101e9

    # -- Baseline (stack in guest) -------------------------------------------
    #: User→skb copy inside the guest (baseline's single copy).
    baseline_copy_per_byte: float = 0.099
    baseline_syscall_fixed: float = 780.0
    #: vSwitch per-packet cost on the baseline colocated-VM path.
    vswitch_per_packet: float = 250.0

    # -- derived helpers -----------------------------------------------------

    def ce_batch_cycles(self, batch: int) -> float:
        """Cycles for CoreEngine to switch one batch of ``batch`` NQEs."""
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        return self.ce_switch_fixed + batch * self.ce_switch_per_nqe

    def ce_nqe_rate(self, batch: int, cores: int = 1) -> float:
        """NQEs/second CoreEngine sustains at a given batch size (Fig. 11)."""
        return cores * self.core_hz * batch / self.ce_batch_cycles(batch)

    def hugepage_copy_cycles(self, size: int) -> float:
        """VM-side cycles to stage one ``size``-byte message via hugepages."""
        return self.hugepage_copy_fixed + size * self.hugepage_copy_per_byte

    def nsm_copy_cycles(self, size: int, aggregate_gbps: float = 0.0) -> float:
        """NSM-side hugepage→stack copy, with memory-bandwidth contention."""
        per_byte = (self.nsm_copy_per_byte
                    + self.membw_contention_per_byte_per_gbps * aggregate_gbps)
        return size * per_byte

    @staticmethod
    def amdahl_speedup(cores: int, alpha: float) -> float:
        """Effective speedup of ``cores`` with contention ``alpha``."""
        if cores < 1:
            raise ValueError(f"cores must be >= 1, got {cores}")
        return cores / (1.0 + alpha * (cores - 1))


#: The model used everywhere unless an experiment overrides it.
DEFAULT_COST_MODEL = CostModel()
