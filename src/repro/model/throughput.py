"""Closed-form capacity models for the paper's steady-state experiments.

Every function evaluates the calibrated :class:`~repro.cpu.cost_model.
CostModel` through the bottleneck law.  Where NetKernel's extra
hugepage→NSM copy cost depends on the achieved throughput (memory
bandwidth contention, §7.8), the model iterates to a fixed point.

Terminology: ``arch`` is "baseline" (stack in guest, Fig. 1a) or
"netkernel"; ``direction`` is "send" or "recv"; sizes are app-level
message bytes; results are application-level Gbps or requests/second.
"""

from __future__ import annotations

from typing import Optional

from repro.cpu.cost_model import CostModel, DEFAULT_COST_MODEL

#: Application-level line rate of the 100G NIC.
LINE_RATE_GBPS = 100.0
#: Effective receive-side ceiling: the paper's RX path tops out at 91 Gbps
#: even with 8 vCPUs (Fig. 19 / Table 4) — IRQ/DMA overheads keep the RX
#: direction below nominal line rate.
RECV_LINE_RATE_GBPS = 91.0
#: Colocated (same-host) traffic crosses the software vSwitch twice and
#: loses NIC offloads, inflating RX stack cycles by this factor (Fig. 10).
COLOCATED_STACK_FACTOR = 1.25
#: NQEs per short-connection request (accept, attach, data, send, result,
#: close) — the VM/NSM fixed overhead multiplier for RPS workloads.
NQES_PER_REQUEST = 6


def _speedup(cores: int, alpha: float) -> float:
    return CostModel.amdahl_speedup(cores, alpha)


# ---------------------------------------------------------------------------
# Component cycle costs
# ---------------------------------------------------------------------------


def kernel_tx_stack_cycles(size: int, streams: int,
                           cost: CostModel = DEFAULT_COST_MODEL) -> float:
    """Kernel-stack send-path cycles per message (TSO batching with >1
    stream, Fig. 15 vs Fig. 13)."""
    stack = cost.ktcp_tx_fixed + size * cost.ktcp_tx_per_byte
    if streams > 1:
        stack *= cost.ktcp_tx_multistream_discount
    return stack


def kernel_rx_stack_cycles(size: int, streams: int,
                           cost: CostModel = DEFAULT_COST_MODEL) -> float:
    """Kernel-stack receive-path cycles per message (interrupt coalescing
    with >1 stream, Fig. 16 vs Fig. 14)."""
    stack = cost.ktcp_rx_fixed + size * cost.ktcp_rx_per_byte
    if streams > 1:
        stack *= cost.ktcp_rx_multistream_discount
    return stack


def baseline_send_cycles(size: int, streams: int = 1,
                         cost: CostModel = DEFAULT_COST_MODEL) -> float:
    """Baseline guest: syscall + user→skb copy + stack TX, on one pool."""
    return (cost.baseline_syscall_fixed + size * cost.baseline_copy_per_byte
            + kernel_tx_stack_cycles(size, streams, cost))


def baseline_recv_cycles(size: int, streams: int = 1,
                         cost: CostModel = DEFAULT_COST_MODEL) -> float:
    """Baseline guest: syscall + skb copy + stack RX, on one pool."""
    return (cost.baseline_syscall_fixed + size * cost.baseline_copy_per_byte
            + kernel_rx_stack_cycles(size, streams, cost))


def nk_vm_send_cycles(size: int,
                      cost: CostModel = DEFAULT_COST_MODEL) -> float:
    """NetKernel guest side of send(): syscall + hugepage copy + NQE."""
    return (cost.vm_send_fixed + cost.hugepage_copy_fixed
            + cost.guestlib_nqe_prep + cost.guestlib_nqe_complete
            + size * cost.vm_send_path_per_byte)


def nk_vm_recv_cycles(size: int,
                      cost: CostModel = DEFAULT_COST_MODEL) -> float:
    """NetKernel guest side of recv(): copy-out + NQE + credit."""
    return (cost.vm_recv_fixed + cost.hugepage_copy_fixed
            + cost.guestlib_nqe_prep + cost.guestlib_nqe_complete
            + size * cost.vm_recv_path_per_byte)


def nk_nsm_cycles(size: int, streams: int, direction: str,
                  aggregate_gbps: float,
                  cost: CostModel = DEFAULT_COST_MODEL) -> float:
    """NSM side: ServiceLib dispatch + stack + hugepage↔stack copy."""
    svc = cost.servicelib_nqe_dispatch + cost.servicelib_nqe_prep
    if direction == "send":
        svc += cost.nsm_send_fixed
        stack = kernel_tx_stack_cycles(size, streams, cost)
    else:
        svc += cost.nsm_recv_fixed
        stack = kernel_rx_stack_cycles(size, streams, cost)
    # The memory-bandwidth contention term is a send-side effect (the
    # hugepage read competes with the stack's own copies; Table 6 is a
    # send measurement).  The RX copy overlaps softirq processing.
    copy = cost.nsm_copy_cycles(size,
                                aggregate_gbps if direction == "send" else 0.0)
    return svc + stack + copy


# ---------------------------------------------------------------------------
# Bulk-stream throughput (Figs. 13-16, 18, 19; Table 4)
# ---------------------------------------------------------------------------


def stream_throughput_gbps(arch: str, direction: str, msg_size: int,
                           streams: int = 1, vm_vcpus: int = 1,
                           nsm_vcpus: int = 1, nsm_count: int = 1,
                           line_rate_gbps: float = LINE_RATE_GBPS,
                           cost: CostModel = DEFAULT_COST_MODEL) -> float:
    """Application goodput for bulk TCP streams.

    ``nsm_count`` > 1 models Table 4 (multiple independent NSMs serving
    one VM); the NSMs scale linearly with each NSM's internal contention
    applied per NSM.
    """
    if direction not in ("send", "recv"):
        raise ValueError(f"unknown direction {direction!r}")
    if direction == "recv":
        line_rate_gbps = min(line_rate_gbps, RECV_LINE_RATE_GBPS)
    alpha = (cost.alpha_ktcp_tx if direction == "send"
             else cost.alpha_ktcp_rx)
    hz = cost.core_hz

    if arch == "baseline":
        cycles = (baseline_send_cycles(msg_size, streams, cost)
                  if direction == "send"
                  else baseline_recv_cycles(msg_size, streams, cost))
        rate = hz * _speedup(vm_vcpus, alpha) / cycles
        return min(rate * msg_size * 8 / 1e9, line_rate_gbps)

    if arch != "netkernel":
        raise ValueError(f"unknown arch {arch!r}")

    vm_cycles = (nk_vm_send_cycles(msg_size, cost) if direction == "send"
                 else nk_vm_recv_cycles(msg_size, cost))
    vm_rate = hz * vm_vcpus / vm_cycles  # GuestLib path scales linearly

    # Fixed point: NSM copy cost depends on the achieved throughput.
    gbps = 10.0
    for _ in range(20):
        nsm_cycles = nk_nsm_cycles(msg_size, streams, direction, gbps, cost)
        nsm_rate = (hz * _speedup(nsm_vcpus, alpha) / nsm_cycles) * nsm_count
        rate = min(vm_rate, nsm_rate)
        new_gbps = min(rate * msg_size * 8 / 1e9, line_rate_gbps)
        if abs(new_gbps - gbps) < 1e-6:
            break
        gbps = new_gbps
    return gbps


# ---------------------------------------------------------------------------
# Hugepage memory copy microbenchmark (Fig. 12)
# ---------------------------------------------------------------------------


def memcopy_throughput_gbps(msg_size: int,
                            cost: CostModel = DEFAULT_COST_MODEL) -> float:
    """Fig. 12: the VM-side copy + NQE path alone, one core, no stack."""
    cycles = cost.hugepage_copy_cycles(msg_size)
    rate = cost.core_hz / cycles
    return rate * msg_size * 8 / 1e9


def nqe_switch_rate(batch: int, cores: int = 1,
                    cost: CostModel = DEFAULT_COST_MODEL) -> float:
    """Fig. 11: CoreEngine switching throughput, NQEs/second."""
    return cost.ce_nqe_rate(batch, cores)


# ---------------------------------------------------------------------------
# Short connections / RPS (Fig. 17, Fig. 20, Tables 3-4)
# ---------------------------------------------------------------------------


def _stack_request_cycles(stack: str, msg_size: int,
                          cost: CostModel) -> float:
    if stack == "kernel":
        return cost.ktcp_request_cycles + msg_size * cost.ktcp_request_per_byte
    if stack == "mtcp":
        return cost.mtcp_request_cycles + msg_size * cost.mtcp_request_per_byte
    raise ValueError(f"unknown stack {stack!r}")


def _stack_alpha(stack: str, reuseport: bool, cost: CostModel) -> float:
    if stack == "mtcp":
        return cost.alpha_mtcp  # per-core partitioned by design
    return (cost.alpha_ktcp_reuseport if reuseport
            else cost.alpha_ktcp_shared_accept)


def _app_request_cycles(app: str, cost: CostModel) -> float:
    if app == "epoll":
        return cost.epoll_app_request_cycles
    if app == "nginx":
        return cost.nginx_app_request_cycles
    raise ValueError(f"unknown app {app!r}")


def _app_alpha(app: str, cost: CostModel) -> float:
    return cost.alpha_nginx if app == "nginx" else 0.01


def requests_per_second(arch: str, stack: str = "kernel", vcpus: int = 1,
                        msg_size: int = 64, app: str = "epoll",
                        reuseport: bool = True,
                        vm_vcpus: Optional[int] = None, nsm_count: int = 1,
                        cost: CostModel = DEFAULT_COST_MODEL) -> float:
    """Short-connection request rate.

    ``vcpus`` is the stack's core count (guest cores for baseline, NSM
    cores under NetKernel); ``vm_vcpus`` defaults to ``vcpus`` for
    NetKernel's guest side.
    """
    hz = cost.core_hz
    app_cycles = _app_request_cycles(app, cost)
    stack_cycles = _stack_request_cycles(stack, msg_size, cost)
    copy_cycles = 2 * (cost.hugepage_copy_fixed
                       + msg_size * cost.hugepage_copy_per_byte)

    if arch == "baseline":
        total = (cost.baseline_app_request_cycles
                 if app == "epoll" else app_cycles)
        total += stack_cycles + 2 * msg_size * cost.baseline_copy_per_byte
        alpha = _stack_alpha(stack, reuseport, cost)
        return hz * _speedup(vcpus, alpha) / total

    if arch != "netkernel":
        raise ValueError(f"unknown arch {arch!r}")

    vm_vcpus = vm_vcpus if vm_vcpus is not None else vcpus
    nqe_vm = NQES_PER_REQUEST * (cost.guestlib_nqe_prep
                                 + cost.guestlib_nqe_complete)
    vm_cycles = app_cycles + nqe_vm + copy_cycles
    vm_rate = hz * _speedup(vm_vcpus, _app_alpha(app, cost)) / vm_cycles

    nqe_nsm = NQES_PER_REQUEST * (cost.servicelib_nqe_dispatch
                                  + cost.servicelib_nqe_prep)
    nsm_cycles = stack_cycles + nqe_nsm
    alpha = _stack_alpha(stack, reuseport, cost)
    nsm_rate = (hz * _speedup(vcpus, alpha) / nsm_cycles) * nsm_count
    return min(vm_rate, nsm_rate)


def short_conn_goodput_gbps(rps: float, msg_size: int) -> float:
    """The throughput companion series of Fig. 17."""
    return rps * msg_size * 8 / 1e9


# ---------------------------------------------------------------------------
# Shared-memory NSM vs baseline colocated TCP (Fig. 10)
# ---------------------------------------------------------------------------


def shm_throughput_gbps(msg_size: int, vm_vcpus: int = 2, nsm_vcpus: int = 2,
                        cost: CostModel = DEFAULT_COST_MODEL) -> float:
    """NetKernel with the shared-memory NSM between colocated VMs."""
    hz = cost.core_hz
    send_rate = hz * vm_vcpus / nk_vm_send_cycles(msg_size, cost)
    recv_rate = hz * vm_vcpus / nk_vm_recv_cycles(msg_size, cost)
    nsm_cycles = cost.shm_nsm_fixed + msg_size * cost.shm_nsm_per_byte
    nsm_rate = hz * nsm_vcpus / nsm_cycles
    rate = min(send_rate, recv_rate, nsm_rate)
    gbps = rate * msg_size * 8 / 1e9
    return min(gbps, cost.mem_bw_cap_bps / 1e9)


def baseline_colocated_gbps(msg_size: int, send_vcpus: int = 2,
                            recv_vcpus: int = 5, streams: int = 8,
                            cost: CostModel = DEFAULT_COST_MODEL) -> float:
    """Baseline colocated VMs: full TCP through the vSwitch (Fig. 10)."""
    hz = cost.core_hz
    send_cycles = baseline_send_cycles(msg_size, streams, cost)
    recv_stack = kernel_rx_stack_cycles(msg_size, streams, cost)
    recv_cycles = (cost.baseline_syscall_fixed
                   + msg_size * cost.baseline_copy_per_byte
                   + recv_stack * COLOCATED_STACK_FACTOR)
    send_rate = hz * _speedup(send_vcpus, cost.alpha_ktcp_tx) / send_cycles
    recv_rate = hz * _speedup(recv_vcpus, cost.alpha_ktcp_rx) / recv_cycles
    rate = min(send_rate, recv_rate)
    return min(rate * msg_size * 8 / 1e9, LINE_RATE_GBPS)


# ---------------------------------------------------------------------------
# Paper reference series (for harness comparison printouts)
# ---------------------------------------------------------------------------

PAPER = {
    "fig11_nqe_rate_millions": {1: 8.0, 2: 14.4, 4: 22.3, 8: 41.4, 16: 65.9,
                                32: 100.2, 64: 119.6, 128: 178.2, 256: 198.5},
    "fig12_memcopy_gbps": {64: 4.9, 128: 8.3, 256: 14.7, 512: 25.8,
                           1024: 45.9, 2048: 80.3, 4096: 118.0, 8192: 144.2},
    "fig13_single_send_top_gbps": 30.9,
    "fig14_single_recv_top_gbps": 13.6,
    "fig15_multi_send_top_gbps": 55.2,
    "fig16_multi_recv_top_gbps": 17.4,
    "fig17_rps_64b": 70_000.0,
    "fig18_line_rate_vcpus": 3,
    "fig19_recv_8vcpu_gbps": 91.0,
    "fig20_kernel_rps": {1: 70_000, 8: 400_000},
    "fig20_mtcp_rps": {1: 190_000, 2: 366_000, 4: 652_000, 8: 1_100_000},
    "table3_kernel_rps": {1: 71_900, 2: 133_600, 4: 200_100},
    "table3_mtcp_rps": {1: 98_100, 2: 183_600, 4: 379_200},
    "table4_send_gbps": {1: 85.1, 2: 94.0, 3: 94.1, 4: 94.2},
    "table4_recv_gbps": {1: 33.6, 2: 61.2, 3: 91.0, 4: 91.0},
    "table4_rps": {1: 131_600, 2: 260_400, 3: 399_100, 4: 520_100},
}
