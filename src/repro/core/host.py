"""NetKernelHost: assembles CoreEngine, NSMs, and tenant VMs on one
physical machine (Fig. 2).

The host's CoreEngine is a :class:`~repro.core.sharding.ShardedCoreEngine`
of ``ce_shards`` switching shards, one core each: ``{name}.ce`` for the
paper's single CoreEngine, ``{name}.ce0``, ``{name}.ce1``, ... when
sharded.

Typical wiring::

    host = NetKernelHost(sim, network)
    nsm = host.add_nsm("nsm0", vcpus=2, stack="kernel")
    vm = host.add_vm("vm1", vcpus=1, nsm=nsm)
    api = host.socket_api(vm)          # the VM's GuestLib: BSD sockets
    vm.spawn(my_app(api))

The NSM's stack is the host's network endpoint: traffic addressed to the
NSM's name reaches every VM it serves (port-demultiplexed), exactly as in
the paper where the guest has no vNIC of its own.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.guestlib import GuestLib
from repro.core.nsm import NetworkStackModule
from repro.core.servicelib import ServiceLib
from repro.core.sharding import ShardedCoreEngine
from repro.core.vm import GuestVM
from repro.cpu.core import Core
from repro.cpu.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.errors import ConfigurationError
from repro.mem.hugepages import HugepageRegion
from repro.net.fabric import Network
from repro.stack.kernel_stack import KernelStack
from repro.stack.mtcp_stack import MtcpStack
from repro.stack.shared_memory_stack import SharedMemoryStack


class NetKernelHost:
    """One physical host running the NetKernel architecture."""

    STACK_FLAVOURS = ("kernel", "mtcp", "shm")

    def __init__(self, sim, network: Optional[Network] = None,
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 ce_batch_size: int = 4, name: str = "host",
                 ce_shards: int = 1):
        if ce_shards < 1:
            raise ConfigurationError(
                f"ce_shards must be >=1: {ce_shards}")
        self.sim = sim
        self.name = name
        self.cost = cost_model
        self.network = network if network is not None else Network(sim)
        core_names = ([f"{name}.ce"] if ce_shards == 1
                      else [f"{name}.ce{i}" for i in range(ce_shards)])
        self.ce_cores = [Core(sim, name=core_name, hz=cost_model.core_hz)
                         for core_name in core_names]
        self.coreengine = ShardedCoreEngine(sim, self.ce_cores, cost_model,
                                            batch_size=ce_batch_size)
        self.vms: Dict[str, GuestVM] = {}
        self.nsms: Dict[str, NetworkStackModule] = {}
        #: Observability (repro.obs); None = tracing disabled (default).
        self.obs = None
        #: NSM autoscaler (repro.core.autoscaler); None until enabled.
        self.autoscaler = None

    def enable_observability(self):
        """Switch on the repro.obs per-hop NQE tracer and return it.

        Idempotent; components added later are traced too.  The report
        reads every other number (counters, rings, hugepages, token
        buckets, cycles) from the host's components at report time.
        """
        if self.obs is None:
            from repro.obs import Observability

            Observability(self)
        return self.obs

    # -- NSMs -------------------------------------------------------------------

    def add_nsm(self, name: str, vcpus: int = 1, stack: str = "kernel",
                cc_factory: Optional[Callable] = None,
                nic_rate_bps: Optional[float] = None,
                stack_kwargs: Optional[dict] = None,
                shard: Optional[int] = None) -> NetworkStackModule:
        """Boot an NSM running the given stack flavour.

        ``nic_rate_bps`` caps the NSM's fabric links (an SR-IOV VF rate,
        as in Fig. 21's 10G NSM).  ``shard`` pins the NSM's NK device to
        one switching shard (the autoscaler uses it to spawn onto the
        emptiest shard).
        """
        if name in self.nsms:
            raise ConfigurationError(f"NSM {name} already exists")
        nsm = NetworkStackModule(self.sim, name, vcpus, self.cost)
        stack_kwargs = dict(stack_kwargs or {})
        if stack == "kernel":
            nsm.stack = KernelStack(self.sim, self._scoped_network(name, nic_rate_bps),
                                    name, nsm.cores, self.cost,
                                    cc_factory=cc_factory, **stack_kwargs)
        elif stack == "mtcp":
            nsm.stack = MtcpStack(self.sim, self._scoped_network(name, nic_rate_bps),
                                  name, nsm.cores, self.cost,
                                  cc_factory=cc_factory, **stack_kwargs)
        elif stack == "shm":
            nsm.stack = SharedMemoryStack(self.sim, nsm.cores, self.cost,
                                          host_id=name, **stack_kwargs)
        else:
            raise ConfigurationError(
                f"unknown stack {stack!r}; choose from {self.STACK_FLAVOURS}")
        nsm_id, device = self.coreengine.register_nsm(
            name, queue_sets=vcpus, shard=shard)
        nsm.nsm_id = nsm_id
        nsm.servicelib = ServiceLib(self.sim, nsm_id, device, nsm.stack,
                                    nsm.cores, self.cost)
        self.nsms[name] = nsm
        if self.obs is not None:
            self.obs.attach_nsm(nsm)
        return nsm

    def _scoped_network(self, endpoint: str, nic_rate_bps: Optional[float]):
        """The fabric the NSM's stack registers on, with optional VF cap."""
        if nic_rate_bps is None:
            return self.network
        from repro.net.link import Link

        network = self.network

        class _CappedFabric:
            """Registers the endpoint with rate-capped access links."""

            def add_endpoint(self, host_id, handler):
                network.add_endpoint(
                    host_id, handler,
                    uplink=Link(network.sim, nic_rate_bps,
                                network.default_delay_sec,
                                name=f"{host_id}.vf-up"),
                    downlink=Link(network.sim, nic_rate_bps,
                                  network.default_delay_sec,
                                  name=f"{host_id}.vf-down"))

            def send(self, packet):
                return network.send(packet)

        return _CappedFabric()

    # -- VMs ---------------------------------------------------------------------

    def add_vm(self, name: str, vcpus: int = 1,
               nsm: Optional[NetworkStackModule] = None,
               user: str = "tenant",
               poll_window_sec: Optional[float] = None,
               op_timeout: Optional[float] = None,
               max_op_retries: int = 3,
               backoff_seed: int = 0,
               shard: Optional[int] = None) -> GuestVM:
        """Boot a tenant VM and connect it to its serving NSM.

        With ``nsm=None`` CoreEngine load-balances the VM onto the
        least-loaded registered NSM (§4.3 fn. 1) — on a sharded host
        preferring an NSM homed on the VM's own shard, so auto-placed
        traffic stays shard-local.  ``op_timeout`` / ``max_op_retries``
        arm GuestLib's per-op deadlines (§8); ``backoff_seed`` seeds its
        retry/backoff jitter stream.  ``shard`` pins the VM's NK device
        to one switching shard.
        """
        if name in self.vms:
            raise ConfigurationError(f"VM {name} already exists")
        vm = GuestVM(self.sim, name, vcpus, user=user, cost_model=self.cost)
        region = HugepageRegion(name=f"{name}.hp")
        vm_id, device = self.coreengine.register_vm(
            name, queue_sets=vcpus, hugepages=region,
            poll_window_sec=poll_window_sec, shard=shard)
        vm.vm_id = vm_id
        vm.guestlib = GuestLib(self.sim, vm_id, device, vm.cores, self.cost,
                               op_timeout=op_timeout,
                               max_op_retries=max_op_retries,
                               backoff_seed=backoff_seed)
        if nsm is None:
            # Dynamic load balancing by CoreEngine (§4.3 fn. 1).
            nsm_id = self.coreengine.assign_vm_auto(vm_id)
            nsm = next(n for n in self.nsms.values() if n.nsm_id == nsm_id)
        else:
            self.coreengine.assign_vm(vm_id, nsm.nsm_id)
        nsm.servicelib.attach_vm_region(vm_id, region)
        self.vms[name] = vm
        if self.obs is not None:
            self.obs.attach_vm(vm)
        return vm

    def migrate_vm(self, vm: GuestVM, target_nsm: NetworkStackModule,
                   **kwargs):
        """Live-migrate a VM's connections to ``target_nsm`` (zero-reset
        stack upgrade).  Returns CoreEngine's migration generator — run
        it with ``sim.process(...)`` or ``yield from`` it; it yields the
        migration record on completion.  ``kwargs`` pass through to
        :meth:`ShardedCoreEngine.migrate_vm` (blackout tuning)."""
        source_nsm_id = self.coreengine.vm_to_nsm.get(vm.vm_id)
        source = next((n for n in self.nsms.values()
                       if n.nsm_id == source_nsm_id), None)
        if source is None:
            raise ConfigurationError(
                f"VM {vm.name} has no live serving NSM to migrate from")
        return self.coreengine.migrate_vm(
            vm.vm_id, target_nsm.nsm_id, source.servicelib,
            target_nsm.servicelib, **kwargs)

    # -- failure detection & failover (§8) ---------------------------------------

    def enable_failover(self, heartbeat_interval: float = 1e-3,
                        detection_timeout: float = 5e-3) -> None:
        """Arm NSM failure detection plus automatic VM re-assignment.

        CoreEngine heartbeats every NSM; one that stays silent past
        ``detection_timeout`` is quarantined, its in-flight work fails
        fast with ECONNRESET, and its VMs are rebound to the least-loaded
        surviving NSM.  The listener registered here completes the
        host-level half of that rebinding: attaching each moved VM's
        hugepage region to the standby's ServiceLib (the same wiring
        ``switch_nsm`` does for planned moves).
        """
        self.coreengine.enable_health_monitor(
            heartbeat_interval=heartbeat_interval,
            detection_timeout=detection_timeout)

        def attach_region(vm_id: int, dead_nsm_id: int,
                          standby_id: int) -> None:
            standby = next((n for n in self.nsms.values()
                            if n.nsm_id == standby_id), None)
            if standby is None:
                return
            region = self.coreengine.vm_device(vm_id).hugepages
            standby.servicelib.attach_vm_region(vm_id, region)

        self.coreengine.failover_listeners.append(attach_region)

    def remove_vm(self, vm: GuestVM) -> None:
        """Tear down a VM: deregister its NK device (§4.4)."""
        self.coreengine.deregister(vm.vm_id)
        self.vms.pop(vm.name, None)

    def remove_nsm(self, nsm: NetworkStackModule) -> None:
        """Retire an NSM: deregister its NK device and drop it from the
        host registry (the autoscaler's scale-down path).  VMs still
        assigned to it are orphaned or failed over by CoreEngine's
        deregister logic; callers should drain first (migrate_vm)."""
        self.coreengine.deregister(nsm.nsm_id)
        self.nsms.pop(nsm.name, None)

    def enable_autoscaler(self, load_signal, **kwargs):
        """Attach an NSM autoscaler driven by ``load_signal`` (an AG
        aggregate per-minute series, or any callable(tick)->float).
        ``kwargs`` pass through to :class:`NsmAutoscaler`."""
        from repro.core.autoscaler import NsmAutoscaler

        if self.autoscaler is not None:
            raise ConfigurationError("autoscaler already enabled")
        self.autoscaler = NsmAutoscaler(self.sim, self, load_signal,
                                        **kwargs)
        return self.autoscaler

    def socket_api(self, vm: GuestVM):
        """The BSD socket surface applications in ``vm`` program against:
        its GuestLib (:mod:`repro.core.sockets` documents the calls)."""
        return vm.guestlib

    # -- accounting -----------------------------------------------------------------

    def cycles_by_role(self) -> Dict[str, float]:
        """Total busy cycles per role, the §7.8 accounting breakdown."""
        return {
            "vms": sum(vm.total_cycles() for vm in self.vms.values()),
            "nsms": sum(nsm.total_cycles() for nsm in self.nsms.values()),
            "coreengine": sum(core.busy_cycles for core in self.ce_cores),
        }
