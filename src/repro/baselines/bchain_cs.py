"""BChain running on Chain Selection — the integration of Section X.

The paper's conclusion asks "how best to integrate Quorum Selection in
different BFT algorithms or other special cases of Quorum Selection,
e.g. when processes are communicating along a chain".  This module does
both at once: the BChain-style normal case (CHAIN down, ACK up) keeps
running, but re-configuration is taken away from the head's blame
heuristics and given to the decentralized
:class:`~repro.core.chain_selection.ChainSelectionModule`:

- after forwarding a slot, a member *expects* the ACK from its successor
  through the shared failure detector (per-link omission/timing coverage
  for exactly the links the chain uses);
- a timed-out expectation becomes a ``SUSPECTED`` event, gossips through
  the suspicion matrix, and Chain Selection re-selects the
  lexicographically-first conflict-free chain — no external standby pool,
  no trust in a head's accusations, and agreement on the new chain comes
  from the eventually consistent matrix rather than a RECHAIN broadcast;
- chain identity travels inside every message (the chain tuple itself),
  so stale traffic from an old configuration is simply ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.chain_selection import ChainSelectionModule
from repro.crypto.authenticator import SignedMessage
from repro.fd.detector import FailureDetector
from repro.fd.heartbeat import HeartbeatModule
from repro.fd.timers import TimeoutPolicy
from repro.host import Host, Module
from repro.sim.runtime import Simulation, SimulationConfig
from repro.util.errors import ConfigurationError
from repro.util.ids import ProcessId
from repro.xpaxos.messages import ClientRequest
from repro.xpaxos.state_machine import KeyValueStore
from repro.baselines.bchain import BChainClient, KIND_BC_REPLY, BcReplyPayload

KIND_CS_CHAIN = "bcs.chain"
KIND_CS_ACK = "bcs.ack"
KIND_CS_REQUEST = "bcs.request"

FD_GROUP = "bchain-cs"


@dataclass(frozen=True)
class CsChainPayload:
    """A request travelling down a specific chain configuration."""

    chain: Tuple[int, ...]
    slot: int
    request: ClientRequest

    def canonical(self):
        return ("bcs-chain", self.chain, self.slot, self.request.canonical())


@dataclass(frozen=True)
class CsAckPayload:
    chain: Tuple[int, ...]
    slot: int

    def canonical(self):
        return ("bcs-ack", self.chain, self.slot)


class BChainCsReplica(Module):
    """BChain normal case re-configured by Chain Selection."""

    def __init__(
        self,
        host: Host,
        n: int,
        f: int,
        chain_module: ChainSelectionModule,
    ) -> None:
        super().__init__(host)
        if n <= 2 * f:
            raise ConfigurationError(f"need n > 2f, got n={n}, f={f}")
        self.n = n
        self.f = f
        self.cs = chain_module
        self.next_slot = 0
        self.kv = KeyValueStore()
        self.executed: List[ClientRequest] = []
        self._executed_ids: Set[Tuple[int, int]] = set()
        self._inflight: Dict[Tuple[Tuple[int, ...], int], ClientRequest] = {}
        self._acked: Set[Tuple[Tuple[int, ...], int]] = set()
        self.reconfigurations = 0

    # ---------------------------------------------------------------- wiring

    def start(self) -> None:
        self.host.subscribe(KIND_CS_REQUEST, self._on_request)
        self.host.subscribe(KIND_CS_CHAIN, self._on_chain)
        self.host.subscribe(KIND_CS_ACK, self._on_ack)
        self.cs.add_quorum_listener(self._on_new_chain)

    @property
    def chain(self) -> Tuple[int, ...]:
        return self.cs.chain

    @property
    def is_head(self) -> bool:
        return self.chain and self.chain[0] == self.pid

    def _successor(self, chain: Tuple[int, ...]) -> Optional[ProcessId]:
        if self.pid not in chain or self.pid == chain[-1]:
            return None
        return chain[chain.index(self.pid) + 1]

    def _predecessor(self, chain: Tuple[int, ...]) -> Optional[ProcessId]:
        if self.pid not in chain or self.pid == chain[0]:
            return None
        return chain[chain.index(self.pid) - 1]

    # ----------------------------------------------------------- reconfiguring

    def _on_new_chain(self, event: Any) -> None:
        """Chain Selection issued a new chain: drop the old configuration."""
        self.reconfigurations += 1
        self._inflight.clear()
        if self.host.fd is not None:
            self.host.fd.cancel(group=FD_GROUP)
        self.host.log.append(
            self.host.now, self.pid, "bcs.reconfigure", chain=self.cs.chain
        )

    # ------------------------------------------------------------ normal case

    def _on_request(self, kind: str, payload: Any, src: ProcessId) -> None:
        if not isinstance(payload, SignedMessage):
            return
        if self.host.fd is None and not self.host.authenticator.verify(payload):
            return
        request = payload.payload
        if not isinstance(request, ClientRequest) or payload.signer != request.client:
            return
        chain = self.chain
        if not self.is_head:
            if chain:
                self.host.send(chain[0], KIND_CS_REQUEST, payload)
            return
        if request.request_id() in self._executed_ids:
            self._reply(request, None)
            return
        slot = self.next_slot
        self.next_slot += 1
        body = CsChainPayload(chain=chain, slot=slot, request=request)
        self._inflight[(chain, slot)] = request
        self._forward(body)

    def _forward(self, body: CsChainPayload) -> None:
        successor = self._successor(body.chain)
        if successor is None:
            self._deliver_slot(body)
            return
        signed = self.host.authenticator.sign(body)
        self.host.send(successor, KIND_CS_CHAIN, signed)
        self._expect_ack(body.chain, body.slot, successor)

    def _expect_ack(
        self, chain: Tuple[int, ...], slot: int, successor: ProcessId
    ) -> None:
        """Per-link liveness through the shared failure detector."""
        if self.host.fd is None:
            return

        def match(kind: str, payload: Any) -> bool:
            return (
                kind == KIND_CS_ACK
                and isinstance(payload, SignedMessage)
                and payload.signer == successor
                and isinstance(payload.payload, CsAckPayload)
                and payload.payload.chain == chain
                and payload.payload.slot == slot
            )

        self.host.fd.expect(
            source=successor,
            predicate=match,
            group=FD_GROUP,
            label=f"bcs-ack<-p{successor}s{slot}",
        )

    def _on_chain(self, kind: str, payload: Any, src: ProcessId) -> None:
        if not isinstance(payload, SignedMessage):
            return
        if self.host.fd is None and not self.host.authenticator.verify(payload):
            return
        body = payload.payload
        if not isinstance(body, CsChainPayload):
            return
        if body.chain != self.chain:
            return  # stale configuration
        if payload.signer != self._predecessor(body.chain):
            return
        self._inflight[(body.chain, body.slot)] = body.request
        if self.pid == body.chain[-1]:
            self._deliver_slot(body)
            predecessor = self._predecessor(body.chain)
            if predecessor is not None:
                ack = self.host.authenticator.sign(
                    CsAckPayload(chain=body.chain, slot=body.slot)
                )
                self.host.send(predecessor, KIND_CS_ACK, ack)
        else:
            self._forward(body)

    def _on_ack(self, kind: str, payload: Any, src: ProcessId) -> None:
        if not isinstance(payload, SignedMessage):
            return
        if self.host.fd is None and not self.host.authenticator.verify(payload):
            return
        body = payload.payload
        if not isinstance(body, CsAckPayload) or body.chain != self.chain:
            return
        key = (body.chain, body.slot)
        if key in self._acked:
            return
        self._acked.add(key)
        request = self._inflight.get(key)
        if request is not None:
            self._execute(request)
        predecessor = self._predecessor(body.chain)
        if predecessor is not None:
            self.host.send(
                predecessor,
                KIND_CS_ACK,
                self.host.authenticator.sign(body),
            )

    def _deliver_slot(self, body: CsChainPayload) -> None:
        self._acked.add((body.chain, body.slot))
        self._execute(body.request)

    def _execute(self, request: ClientRequest) -> None:
        rid = request.request_id()
        if rid in self._executed_ids:
            return
        result = self.kv.apply(request.op)
        self.executed.append(request)
        self._executed_ids.add(rid)
        self._reply(request, result)

    def _reply(self, request: ClientRequest, result: Any) -> None:
        reply = self.host.authenticator.sign(
            BcReplyPayload(
                client=request.client, sequence=request.sequence,
                result=result, replica=self.pid,
            )
        )
        self.host.send(request.client, KIND_BC_REPLY, reply)


class BChainCsClient(BChainClient):
    """BChain client speaking the Chain-Selection-integrated dialect."""

    def _send(self, broadcast: bool) -> None:
        if self.current is None:
            return
        signed = self.host.authenticator.sign(self.current)
        targets = range(1, self.n + 1) if broadcast else (1,)
        for replica in targets:
            self.host.send(replica, KIND_CS_REQUEST, signed)


@dataclass
class BChainCsCluster:
    sim: Simulation
    n: int
    f: int
    replicas: Dict[int, BChainCsReplica]
    chain_modules: Dict[int, ChainSelectionModule]
    clients: Dict[int, BChainCsClient]

    def run(self, until: float) -> None:
        self.sim.run_until(until)

    def total_completed(self) -> int:
        return sum(len(client.completed) for client in self.clients.values())

    def total_reconfigurations(self) -> int:
        return max(
            (replica.reconfigurations for replica in self.replicas.values()), default=0
        )

    def current_chain(self) -> Tuple[int, ...]:
        """The chain agreed on by the *live* replicas.

        Crashed hosts keep whatever configuration they died with, so they
        are excluded — agreement is only promised among correct processes.
        """
        chains = {
            module.chain
            for module in self.chain_modules.values()
            if module.host.running
        }
        if len(chains) != 1:
            raise ConfigurationError(f"chain disagreement: {chains}")
        return chains.pop()


def build_bchain_cs_cluster(
    n: int,
    f: int,
    clients: int = 1,
    requests_per_client: int = 20,
    seed: int = 1,
    delta: float = 1.0,
    fd_base_timeout: float = 8.0,
    heartbeat_period: float = 4.0,
) -> BChainCsCluster:
    """Assemble BChain-on-Chain-Selection (no standby pool needed)."""
    sim = Simulation(SimulationConfig(n=n + clients, seed=seed, gst=0.0, delta=delta))
    replicas: Dict[int, BChainCsReplica] = {}
    chain_modules: Dict[int, ChainSelectionModule] = {}
    for pid in range(1, n + 1):
        host = sim.host(pid)
        FailureDetector(host, TimeoutPolicy(base_timeout=fd_base_timeout))
        host.add_module(HeartbeatModule(host, n=n, period=heartbeat_period))
        chain_modules[pid] = host.add_module(ChainSelectionModule(host, n=n, f=f))
        replicas[pid] = host.add_module(
            BChainCsReplica(host, n=n, f=f, chain_module=chain_modules[pid])
        )
    client_modules: Dict[int, BChainCsClient] = {}
    for index in range(clients):
        pid = n + 1 + index
        host = sim.host(pid)
        ops = [("put", f"k{index}-{i}", i) for i in range(requests_per_client)]
        client_modules[pid] = host.add_module(
            BChainCsClient(host, n=n, f=f, ops=ops)
        )
    return BChainCsCluster(
        sim=sim, n=n, f=f, replicas=replicas,
        chain_modules=chain_modules, clients=client_modules,
    )
