"""The benchmark's four workloads, driven through the public host API.

Every workload is a closed loop over ``NetKernelHost``, ``socket_api``
and (for bulk) ``apps.iperf``.  The seed sets only each client's start
offset and GuestLib's ``backoff_seed``; everything else is fixed here.

A workload builds a *world* (simulator, host, VMs, bound listeners),
advances it to a fixed simulated checkpoint where the fingerprint is
taken, keeps advancing in fixed simulated steps while the caller's wall
budget lasts, and finally drains it to quiescence so the output checks
(exact response bytes, byte balance, NQE pool balance) can run.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List, Optional

from repro import NetKernelHost, Simulator
from repro.apps.iperf import StreamReceiver, StreamSender
from repro.core.nqe import NQE_POOL
from repro.errors import SocketError

MSG_BYTES = 64
ECHO_PORT = 7
BULK_PORT = 5001


def _message(cid: int, seq: int) -> bytes:
    """A 64 B request unique to (client, sequence number)."""
    return (b"%06d:%012d:" % (cid, seq)).ljust(MSG_BYTES, b"~")


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


class Ledger:
    """Per-op records of one world: wall and simulated latency."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.attempted = 0
        self.completed = 0
        self.failed = 0
        self.bytes = 0
        self.wall: List[float] = []
        #: Wall seconds the harness spent outside the program (timing its
        #: reference loop); left out of every op's wall latency.
        self.paused = 0.0
        #: (completion sim time, simulated latency) per completed op.
        self.sim_done: List[float] = []
        self.sim_lat: List[float] = []
        self.errors: List[str] = []

    def begin(self):
        self.attempted += 1
        return time.perf_counter() - self.paused, self.sim._now

    def end(self, started, nbytes: int = 0) -> None:
        wall0, sim0 = started
        now = self.sim._now
        self.wall.append(time.perf_counter() - self.paused - wall0)
        self.sim_done.append(now)
        self.sim_lat.append(now - sim0)
        self.completed += 1
        self.bytes += nbytes

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def window(self, start: float, end: float) -> Dict[str, float]:
        """Simulated-time metrics over ops completed in [start, end]."""
        lats = sorted(lat for done, lat in zip(self.sim_done, self.sim_lat)
                      if start <= done <= end)
        span = end - start
        return {
            "ops": len(lats),
            "sim_ops_per_s": len(lats) / span,
            "sim_latency_us_p50": _percentile(lats, 0.50) * 1e6,
            "sim_latency_us_p99": _percentile(lats, 0.99) * 1e6,
        }


class World:
    """One built host plus everything a workload needs to drive it."""

    def __init__(self, seed: int, on_sim: Optional[Callable] = None):
        self.rng = random.Random(seed)
        self.sim = Simulator()
        if on_sim is not None:
            on_sim(self.sim)  # the tracer wraps the simulator before use
        self.ledger = Ledger(self.sim)
        self.host: Optional[NetKernelHost] = None
        self.stopping = False
        self.t0 = 0.0  # simulated time at which setup finished
        self.pool_before = NQE_POOL.outstanding
        self.vm_count = 0
        self.state: dict = {}

    def run_until(self, when: float) -> None:
        if when > self.sim.now:
            self.sim.run(until=when)


class Workload:
    """Base class; subclasses fill in build/advance/checks."""

    name = ""
    why = ""
    #: Setups per run (median reported as ``setup_s``).
    setup_reps = 5
    #: Simulated seconds after setup: warm-up, then the fingerprint window.
    warmup = 200e-6
    fp_window = 5e-3
    #: Simulated seconds per step of the wall-bounded measured phase.
    step = 1e-3
    #: Simulated seconds allowed for draining to quiescence.
    drain_limit = 0.2
    #: NSM TCP send-buffer bytes; None keeps the stack default (4 MiB).
    #: Every connection zero-fills this slab on each side, and a closed
    #: one stays reachable until its pending retransmission timer fires;
    #: at 4 MiB, 3 s of short connections already peaked at 3.4 GB RSS.
    #: Workloads that open many connections size it down to bound RSS.
    send_buf: Optional[int] = None

    def build(self, seed: int, on_sim: Optional[Callable] = None) -> World:
        raise NotImplementedError

    def _add_nsm(self, host: NetKernelHost, name: str, **kwargs):
        stack_kwargs = ({} if self.send_buf is None
                        else {"send_buf_bytes": self.send_buf})
        return host.add_nsm(name, vcpus=1, stack="kernel",
                            stack_kwargs=stack_kwargs, **kwargs)

    def checkpoint(self, world: World) -> float:
        return world.t0 + self.warmup + self.fp_window

    def advance_to_checkpoint(self, world: World) -> None:
        world.run_until(self.checkpoint(world))

    def advance(self, world: World) -> None:
        world.run_until(world.sim.now + self.step)

    def sim_metrics(self, world: World) -> Dict[str, float]:
        start = world.t0 + self.warmup
        end = self.checkpoint(world)
        out = world.ledger.window(start, end)
        out["sim_goodput_gbps"] = (
            MSG_BYTES * out["ops"] * 8.0 / (end - start) / 1e9)
        return out

    def drain(self, world: World) -> None:
        """Stop the clients and run until every one has closed and every
        NQE is back in the pool."""
        world.stopping = True
        limit = world.sim.now + self.drain_limit
        while world.sim.now < limit and not (
                self._quiescent(world) and _pool_delta(world) == 0):
            world.run_until(world.sim.now + 1e-3)

    def _quiescent(self, world: World) -> bool:
        return world.state["clients_done"] == world.state["clients"]

    def checks(self, world: World) -> List[str]:
        """Output checks after drain; each string is one failed check."""
        failures = list(world.ledger.errors)
        if not self._quiescent(world):
            failures.append("clients did not finish within the drain limit")
        leaked = _pool_delta(world)
        if leaked:
            failures.append(f"NQE pool unbalanced at quiescence: {leaked}")
        if world.ledger.completed == 0:
            failures.append("no op completed")
        return failures


def _pool_delta(world: World) -> int:
    return NQE_POOL.outstanding - world.pool_before


# -- shared app coroutines ----------------------------------------------------


def _listen(world: World, api, port: int):
    listener = yield from api.socket()
    yield from api.bind(listener, port)
    yield from api.listen(listener, 128)
    world.state["listening"] += 1
    return listener


def _echo_server(world: World, vm, api, port: int):
    """Accept forever; echo every byte back on each connection."""
    listener = yield from _listen(world, api, port)
    while True:
        conn = yield from api.accept(listener)
        vm.spawn(_echo_handler(api, conn))


def _echo_handler(api, conn):
    while True:
        data = yield from api.recv(conn, 4096)
        if not data:
            break
        yield from api.send(conn, data)
    yield from api.close(conn)


def _recv_exact(api, sock, n: int):
    got = b""
    while len(got) < n:
        data = yield from api.recv(sock, n - len(got))
        if not data:
            break
        got += data
    return got


def _echo_once(world: World, api, sock, cid: int, seq: int):
    """One 64 B request/response; the response must match exactly."""
    ledger = world.ledger
    msg = _message(cid, seq)
    started = ledger.begin()
    yield from api.send(sock, msg)
    got = yield from _recv_exact(api, sock, MSG_BYTES)
    if got != msg:
        ledger.fail(f"client {cid} op {seq}: response {got!r} != request")
        return False
    ledger.end(started, len(got))
    return True


def _boot(world: World, servers: int) -> None:
    """Run until every server listener is bound."""
    world.state["listening"] = 0
    sim = world.sim
    while world.state["listening"] < servers:
        sim.step()
    world.t0 = sim.now


# -- echo_64b ------------------------------------------------------------------


class Echo(Workload):
    """8 keep-alive 64 B echo connections from 2 client VMs (Fig. 20)."""

    name = "echo_64b"
    why = ("per-message cost: 8 keep-alive 64 B echo connections through "
           "every NQE-path layer (Fig. 20, Table 7)")
    setup_reps = 31
    fp_window = 5e-3

    def __init__(self, client_vms: int = 2, conns_per_vm: int = 4):
        self.client_vms = client_vms
        self.conns_per_vm = conns_per_vm

    def build(self, seed: int, on_sim: Optional[Callable] = None) -> World:
        world = World(seed, on_sim)
        host = world.host = NetKernelHost(world.sim)
        nsm = self._add_nsm(host, "nsm0")
        server = host.add_vm("server", nsm=nsm, backoff_seed=seed)
        clients = [host.add_vm(f"client{i}", nsm=nsm, backoff_seed=seed)
                   for i in range(self.client_vms)]
        world.vm_count = 1 + len(clients)
        server.spawn(_echo_server(world, server, host.socket_api(server),
                                  ECHO_PORT))
        _boot(world, 1)
        world.state.update(clients=len(clients) * self.conns_per_vm,
                           clients_done=0)
        cid = 0
        for vm in clients:
            api = host.socket_api(vm)
            for _ in range(self.conns_per_vm):
                offset = world.rng.uniform(0.0, 20e-6)
                vm.spawn(self._client(world, api, cid, offset))
                cid += 1
        return world

    @staticmethod
    def _client(world: World, api, cid: int, offset: float):
        sim = world.sim
        yield sim.timeout(offset)
        try:
            sock = yield from api.socket()
            yield from api.connect(sock, ("nsm0", ECHO_PORT))
            seq = 0
            while not world.stopping:
                ok = yield from _echo_once(world, api, sock, cid, seq)
                if not ok:
                    break
                seq += 1
            yield from api.close(sock)
        except SocketError as exc:
            world.ledger.fail(f"client {cid}: {exc!r}")
        world.state["clients_done"] += 1


# -- short_conn_64b ------------------------------------------------------------


class ShortConn(Workload):
    """Non-keepalive clients: socket, connect, 64 B echo, close (Fig. 17).

    A closed connection stays reachable until its SYN retransmission
    timer (200 ms simulated) fires.  A 2 ms think time between a client's
    connections lets a run span well over 200 ms of simulated time, so the
    retained set (about 700 connections) is reached within the first
    seconds and peak RSS no longer grows with run length or speed.
    """

    name = "short_conn_64b"
    why = ("per-connection cost: socket/connect/64 B echo/close loops "
           "(Fig. 17) stress TCB setup, the connection table and contexts")
    setup_reps = 31
    think = 2e-3
    warmup = 1e-3
    fp_window = 10e-3
    step = 2e-3
    send_buf = 64 * 1024

    def __init__(self, clients: int = 8):
        self.clients = clients

    def build(self, seed: int, on_sim: Optional[Callable] = None) -> World:
        world = World(seed, on_sim)
        host = world.host = NetKernelHost(world.sim)
        nsm = self._add_nsm(host, "nsm0")
        server = host.add_vm("server", nsm=nsm, backoff_seed=seed)
        client = host.add_vm("client", nsm=nsm, backoff_seed=seed)
        world.vm_count = 2
        server.spawn(_echo_server(world, server, host.socket_api(server),
                                  ECHO_PORT))
        _boot(world, 1)
        world.state.update(clients=self.clients, clients_done=0)
        api = host.socket_api(client)
        for cid in range(self.clients):
            # Staggered evenly over the think time, with seeded jitter.
            offset = (cid * self.think / self.clients
                      + world.rng.uniform(0.0, 20e-6))
            client.spawn(self._client(world, api, cid, offset))
        return world

    def _client(self, world: World, api, cid: int, offset: float):
        sim = world.sim
        ledger = world.ledger
        yield sim.timeout(offset)
        seq = 0
        while not world.stopping:
            msg = _message(cid, seq)
            seq += 1
            started = ledger.begin()
            try:
                sock = yield from api.socket()
                yield from api.connect(sock, ("nsm0", ECHO_PORT))
                yield from api.send(sock, msg)
                got = yield from _recv_exact(api, sock, MSG_BYTES)
                yield from api.close(sock)
            except SocketError as exc:
                ledger.fail(f"client {cid} conn {seq}: {exc!r}")
                break
            if got != msg:
                ledger.fail(f"client {cid} conn {seq}: response mismatch")
                break
            ledger.end(started, len(got))
            yield sim.timeout(self.think)
        world.state["clients_done"] += 1


# -- bulk_8x64k ------------------------------------------------------------------


class _ProbeApi:
    """Socket-API proxy: times each ``send`` as one op and counts the
    bytes ``recv`` hands back; every other call passes straight through."""

    def __init__(self, api, world: World):
        self._api = api
        self._world = world

    def __getattr__(self, name):
        return getattr(self._api, name)

    def listen(self, sock, backlog: int = 128, vcpu: int = 0):
        result = yield from self._api.listen(sock, backlog, vcpu)
        self._world.state["listening"] += 1
        return result

    def send(self, sock, data, vcpu: int = 0):
        ledger = self._world.ledger
        started = ledger.begin()
        sent = yield from self._api.send(sock, data, vcpu)
        ledger.end(started)
        return sent

    def recv(self, sock, max_bytes: int, vcpu: int = 0):
        data = yield from self._api.recv(sock, max_bytes, vcpu)
        self._world.ledger.bytes += len(data)
        return data


class Bulk(Workload):
    """8 streams of 64 KiB messages, one client VM to one server VM,
    in episodes of a fixed simulated window (Figs. 13-16)."""

    name = "bulk_8x64k"
    why = ("per-byte cost: 8 streams of 64 KiB messages (Figs. 13-16); few "
           "NQEs carry many bytes, the control for NQE-path changes")
    setup_reps = 31
    message = 64 * 1024
    episode = 4e-3
    send_buf = 64 * 1024

    def __init__(self, streams: int = 8, episode: Optional[float] = None):
        self.streams = streams
        if episode is not None:
            self.episode = episode

    def build(self, seed: int, on_sim: Optional[Callable] = None) -> World:
        world = World(seed, on_sim)
        host = world.host = NetKernelHost(world.sim)
        nsm = self._add_nsm(host, "nsm0")
        server = host.add_vm("server", nsm=nsm, backoff_seed=seed)
        client = host.add_vm("client", nsm=nsm, backoff_seed=seed)
        world.vm_count = 2
        world.state["listening"] = 0
        receiver = StreamReceiver(
            world.sim, _ProbeApi(host.socket_api(server), world), BULK_PORT,
            read_size=self.message)
        receiver.start(server)
        _boot(world, 1)
        world.state.update(
            receiver=receiver, client=client,
            api=_ProbeApi(host.socket_api(client), world),
            episodes=0, sent=0, errors=0, first=None)
        return world

    def _episode(self, world: World) -> None:
        """One fixed simulated window of 8 streams, run to quiescence."""
        state = world.state
        sim = world.sim
        client = state["client"]
        # Fresh start offsets every episode: which sends find the buffer
        # full depends on them, so one draw per run would fix that share
        # (and so the send-latency p50) per seed.
        offsets = [world.rng.uniform(0.0, 20e-6) for _ in range(self.streams)]
        senders = [StreamSender(sim, state["api"], ("nsm0", BULK_PORT),
                                message_size=self.message,
                                duration=self.episode)
                   for _ in offsets]
        start = sim.now
        launchers = [client.spawn(self._launch(sim, client, sender, offset))
                     for sender, offset in zip(senders, offsets)]
        receiver = state["receiver"]
        limit = start + self.episode + self.drain_limit
        sent = 0
        while sim.now < limit:
            world.run_until(sim.now + 1e-3)
            sent = sum(sender.stats.bytes for sender in senders)
            if (all(not p.is_alive for p in launchers)
                    and receiver.stats.bytes == state["sent"] + sent):
                break
        state["sent"] += sent
        state["errors"] += sum(sender.stats.errors for sender in senders)
        state["episodes"] += 1
        if state["first"] is None:
            state["first"] = (start, sim.now, sent)
        if any(p.is_alive for p in launchers):
            world.ledger.fail(f"episode {state['episodes']} did not finish")

    @staticmethod
    def _launch(sim, vm, sender, offset: float):
        """Start one stream after its seeded offset; end when it ends."""
        yield sim.timeout(offset)
        yield sim.all_of(sender.start(vm))

    def advance_to_checkpoint(self, world: World) -> None:
        self._episode(world)

    def advance(self, world: World) -> None:
        self._episode(world)

    def sim_metrics(self, world: World) -> Dict[str, float]:
        start, end, nbytes = world.state["first"]
        out = world.ledger.window(start, end)
        # Ops per simulated second and goodput over the senders' window.
        out["sim_ops_per_s"] = out["ops"] / self.episode
        out["sim_goodput_gbps"] = nbytes * 8.0 / self.episode / 1e9
        return out

    def _quiescent(self, world: World) -> bool:
        return True

    def checks(self, world: World) -> List[str]:
        failures = super().checks(world)
        state = world.state
        receiver = state["receiver"]
        if receiver.stats.bytes != state["sent"]:
            failures.append(f"received {receiver.stats.bytes} B != sent "
                            f"{state['sent']} B")
        if state["errors"] or receiver.stats.errors:
            failures.append(f"stream errors: sender {state['errors']}, "
                            f"receiver {receiver.stats.errors}")
        return failures


# -- fleet_10k -------------------------------------------------------------------


class Fleet(Workload):
    """10k auto-placed VMs on a 4-shard CoreEngine; 1% run paced echoes
    against a server VM on their own shard (Fig. 8 at fleet scale)."""

    name = "fleet_10k"
    why = ("per-VM cost: 10,000 auto-placed VMs on 4 CoreEngine shards, 1% "
           "running paced 64 B echoes, stress boot, memory and sharding")
    setup_reps = 3
    shards = 4
    period = 1e-3
    warmup = 2e-3
    send_buf = 64 * 1024
    fp_window = 10e-3
    step = 2e-3

    def __init__(self, vms: int = 10_000):
        self.vms = vms
        self.active = max(self.shards, vms // 100)  # 1% of the VMs

    def build(self, seed: int, on_sim: Optional[Callable] = None) -> World:
        world = World(seed, on_sim)
        host = world.host = NetKernelHost(world.sim, ce_shards=self.shards)
        for shard in range(self.shards):
            self._add_nsm(host, f"nsm{shard}", shard=shard)
        # Round-robin placement homes VM i on shard i % shards; the first
        # ``shards`` VMs are the per-shard servers.
        vms = [host.add_vm(f"vm{i}", backoff_seed=seed)
               for i in range(self.vms)]
        world.vm_count = len(vms)
        servers = vms[:self.shards]
        for vm in servers:
            vm.spawn(_echo_server(world, vm, host.socket_api(vm), ECHO_PORT))
        _boot(world, self.shards)
        # Active clients are spread evenly over the boot order and shards.
        stride = (self.vms - self.shards) // self.active
        if stride % self.shards == 0:  # keep it co-prime with the shards
            stride -= 1
        active = [vms[self.shards + k * stride] for k in range(self.active)]
        engine = host.coreengine
        world.state.update(clients=len(active), clients_done=0,
                           per_client=[0] * len(active), vms=vms)
        for cid, vm in enumerate(active):
            nsm_id = engine.vm_to_nsm[vm.vm_id]
            shard = engine.shard_of_nsm(nsm_id)
            offset = world.rng.uniform(0.0, self.period)
            vm.spawn(self._client(world, host.socket_api(vm), cid,
                                  f"nsm{shard}", offset))
        return world

    def _client(self, world: World, api, cid: int, nsm: str, offset: float):
        sim = world.sim
        yield sim.timeout(offset)
        start = sim.now
        try:
            sock = yield from api.socket()
            yield from api.connect(sock, (nsm, ECHO_PORT))
            seq = 0
            while not world.stopping:
                due = start + (seq + 1) * self.period
                if due > sim.now:
                    yield sim.timeout(due - sim.now)
                ok = yield from _echo_once(world, api, sock, cid, seq)
                if not ok:
                    break
                seq += 1
                world.state["per_client"][cid] += 1
            yield from api.close(sock)
        except SocketError as exc:
            world.ledger.fail(f"client {cid}: {exc!r}")
        world.state["clients_done"] += 1

    def checks(self, world: World) -> List[str]:
        failures = super().checks(world)
        engine = world.host.coreengine
        misplaced = sum(
            1 for vm in world.state["vms"]
            if engine.shard_of_vm(vm.vm_id)
            != engine.shard_of_nsm(engine.vm_to_nsm[vm.vm_id]))
        if misplaced:
            failures.append(f"{misplaced} VMs placed off their home shard")
        if engine.handoffs_in:
            failures.append(f"{engine.handoffs_in} cross-shard handoffs")
        idle = sum(1 for n in world.state["per_client"] if n == 0)
        if idle:
            failures.append(f"{idle} active VMs completed no op")
        return failures


WORKLOADS = {w.name: w for w in (Echo, Bulk, ShortConn, Fleet)}
