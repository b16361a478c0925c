"""BChain-style chain replication with re-chaining (comparison baseline).

BChain (Duan et al., OPODIS'14) runs normal-case agreement along a
*chain* of active replicas — each request flows head -> tail and an ACK
flows back — which is the other prior system the paper credits with a
form of Quorum Selection.  Its weakness, per the paper: re-configuration
"relies on replacing potentially faulty processes with new, external
processes that are assumed to be correct".

This lite implementation keeps those essentials:

- ``n = 3f + 1`` replicas; the chain holds ``2f + 1`` of them, the rest
  form the standby pool;
- CHAIN messages carry the request down (each hop re-signs its
  forwarding envelope), the tail emits an ACK that travels back up; a
  chain member executes and replies to the client when the ACK passes it;
- each member, after forwarding, *expects* the ACK within a timeout
  (via the shared failure-detector machinery); a timeout makes the head
  re-chain: the suspected member is swapped with the next standby and
  demoted to the pool — the "assumed correct" external replacement.

State transfer on re-chaining is omitted (requests in flight are simply
retried by the client), which suffices for the E12 comparison of
reconfiguration behaviour and message counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.crypto.authenticator import SignedMessage
from repro.host import Host, Module
from repro.sim.runtime import Simulation, SimulationConfig
from repro.util.errors import ConfigurationError
from repro.util.ids import ProcessId
from repro.xpaxos.messages import ClientRequest
from repro.xpaxos.state_machine import KeyValueStore

KIND_BC_REQUEST = "bc.request"
KIND_BC_CHAIN = "bc.chain"
KIND_BC_ACK = "bc.ack"
KIND_BC_SUSPECT = "bc.suspect"
KIND_BC_RECHAIN = "bc.rechain"
KIND_BC_REPLY = "bc.reply"

INTER_REPLICA_KINDS = (KIND_BC_CHAIN, KIND_BC_ACK, KIND_BC_SUSPECT, KIND_BC_RECHAIN)


@dataclass(frozen=True)
class ChainPayload:
    epoch: int
    slot: int
    request: ClientRequest

    def canonical(self):
        return ("bc-chain", self.epoch, self.slot, self.request.canonical())


@dataclass(frozen=True)
class AckPayload:
    epoch: int
    slot: int

    def canonical(self):
        return ("bc-ack", self.epoch, self.slot)


@dataclass(frozen=True)
class SuspectPayload:
    """A chain member blaming its successor for a missing ACK."""

    epoch: int
    target: int

    def canonical(self):
        return ("bc-suspect", self.epoch, self.target)


@dataclass(frozen=True)
class RechainPayload:
    epoch: int
    chain: Tuple[int, ...]

    def canonical(self):
        return ("bc-rechain", self.epoch, self.chain)


@dataclass(frozen=True)
class BcReplyPayload:
    client: int
    sequence: int
    result: Any
    replica: int

    def canonical(self):
        return ("bc-reply", self.client, self.sequence, self.result, self.replica)


class BChainReplica(Module):
    """One BChain replica; chain order is shared state updated by RECHAIN."""

    def __init__(self, host: Host, n: int, f: int, ack_timeout: float = 8.0) -> None:
        super().__init__(host)
        if n < 3 * f + 1:
            raise ConfigurationError(f"BChain needs n >= 3f + 1; got n={n}, f={f}")
        self.n = n
        self.f = f
        self.ack_timeout = ack_timeout
        self.epoch = 0
        self.chain: Tuple[int, ...] = tuple(range(1, 2 * f + 2))
        self.next_slot = 0
        self.kv = KeyValueStore()
        self.executed: List[ClientRequest] = []
        self._executed_ids: Set[Tuple[int, int]] = set()
        self._inflight: Dict[Tuple[int, int], ClientRequest] = {}
        self._acked: Set[Tuple[int, int]] = set()
        self._suspect_candidate: Optional[Tuple[int, int]] = None
        self._blame_counts: Dict[int, int] = {}
        self.rechains = 0

    # ---------------------------------------------------------------- wiring

    def start(self) -> None:
        self.host.subscribe(KIND_BC_REQUEST, self._on_request)
        self.host.subscribe(KIND_BC_CHAIN, self._on_chain)
        self.host.subscribe(KIND_BC_ACK, self._on_ack)
        self.host.subscribe(KIND_BC_SUSPECT, self._on_suspect)
        self.host.subscribe(KIND_BC_RECHAIN, self._on_rechain)

    @property
    def head(self) -> ProcessId:
        return self.chain[0]

    @property
    def tail(self) -> ProcessId:
        return self.chain[-1]

    def _successor(self) -> Optional[ProcessId]:
        if self.pid not in self.chain or self.pid == self.tail:
            return None
        return self.chain[self.chain.index(self.pid) + 1]

    def _predecessor(self) -> Optional[ProcessId]:
        if self.pid not in self.chain or self.pid == self.head:
            return None
        return self.chain[self.chain.index(self.pid) - 1]

    def _standbys(self) -> List[int]:
        return [pid for pid in range(1, self.n + 1) if pid not in self.chain]

    # ------------------------------------------------------------ normal case

    def _on_request(self, kind: str, payload: Any, src: ProcessId) -> None:
        if not isinstance(payload, SignedMessage) or not self.host.authenticator.verify(payload):
            return
        request = payload.payload
        if not isinstance(request, ClientRequest) or payload.signer != request.client:
            return
        if self.pid != self.head:
            self.host.send(self.head, KIND_BC_REQUEST, payload)
            return
        if request.request_id() in self._executed_ids:
            self._reply(request, None)
            return
        slot = self.next_slot
        self.next_slot += 1
        body = ChainPayload(epoch=self.epoch, slot=slot, request=request)
        self._inflight[(self.epoch, slot)] = request
        self._forward(body)

    def _forward(self, body: ChainPayload) -> None:
        successor = self._successor()
        if successor is None:  # single-node chain degenerate case
            self._deliver_slot(body)
            return
        self.host.send(successor, KIND_BC_CHAIN, self.host.authenticator.sign(body))
        self._arm_ack_watch(body.epoch, body.slot, successor)

    def _arm_ack_watch(self, epoch: int, slot: int, successor: ProcessId) -> None:
        def check() -> None:
            if (epoch, slot) in self._acked or epoch != self.epoch:
                return
            # ACK missing: blame the successor.  The blame is most accurate
            # at the link where forwarding actually stopped, so every
            # watcher reports to the head, and the head prefers the most
            # downstream report it has seen this epoch.
            self.host.log.append(
                self.host.now, self.pid, "bc.blame", target=successor, slot=slot
            )
            if self.pid == self.head:
                self._note_suspect(self.pid, successor)
            else:
                report = self.host.authenticator.sign(
                    SuspectPayload(epoch=epoch, target=successor)
                )
                self.host.send(self.head, KIND_BC_SUSPECT, report)

        self.host.set_timer(self.ack_timeout, check, label=f"bc-ack@p{self.pid}s{slot}")

    def _on_suspect(self, kind: str, payload: Any, src: ProcessId) -> None:
        if not isinstance(payload, SignedMessage) or not self.host.authenticator.verify(payload):
            return
        body = payload.payload
        if not isinstance(body, SuspectPayload) or body.epoch != self.epoch:
            return
        if self.pid != self.head or payload.signer not in self.chain:
            return
        # Only trust a member blaming its *own* successor.
        index = self.chain.index(payload.signer)
        if index + 1 >= len(self.chain) or self.chain[index + 1] != body.target:
            return
        self._note_suspect(payload.signer, body.target)

    def _note_suspect(self, reporter: ProcessId, target: ProcessId) -> None:
        """Head-side blame aggregation (BChain's suspicious-link logic).

        A blamed link ``(reporter, target)`` only proves *one of the two*
        is faulty — a mute forwarder blames its innocent successor.  As in
        BChain, the pair is separated over successive re-chainings: both
        endpoints accumulate blame and the endpoint blamed most often is
        ejected, so a culprit that keeps breaking its outgoing link is out
        after at most two reconfigurations.  Reports arriving within half
        an ack-timeout are aggregated and the most downstream link wins.
        """
        if target not in self.chain or reporter not in self.chain:
            return
        epoch = self.epoch
        current = self._suspect_candidate
        link = (reporter, target)
        if current is None or self.chain.index(target) > self.chain.index(current[1]):
            self._suspect_candidate = link
        if current is None:
            def act() -> None:
                if self.epoch != epoch or self._suspect_candidate is None:
                    return
                blamer, blamed = self._suspect_candidate
                self._suspect_candidate = None
                self._blame_counts[blamer] = self._blame_counts.get(blamer, 0) + 1
                self._blame_counts[blamed] = self._blame_counts.get(blamed, 0) + 1
                eject = (
                    blamer
                    if self._blame_counts[blamer] > self._blame_counts[blamed]
                    else blamed
                )
                self._rechain(eject)

            self.host.set_timer(self.ack_timeout / 2, act, label="bc-rechain-grace")

    def _on_chain(self, kind: str, payload: Any, src: ProcessId) -> None:
        if not isinstance(payload, SignedMessage) or not self.host.authenticator.verify(payload):
            return
        body = payload.payload
        if not isinstance(body, ChainPayload) or body.epoch != self.epoch:
            return
        if payload.signer != self._predecessor():
            return
        self._inflight[(body.epoch, body.slot)] = body.request
        if self.pid == self.tail:
            ack = self.host.authenticator.sign(AckPayload(epoch=body.epoch, slot=body.slot))
            self._deliver_slot(body)
            predecessor = self._predecessor()
            if predecessor is not None:
                self.host.send(predecessor, KIND_BC_ACK, ack)
        else:
            self._forward(body)

    def _on_ack(self, kind: str, payload: Any, src: ProcessId) -> None:
        if not isinstance(payload, SignedMessage) or not self.host.authenticator.verify(payload):
            return
        body = payload.payload
        if not isinstance(body, AckPayload) or body.epoch != self.epoch:
            return
        key = (body.epoch, body.slot)
        if key in self._acked:
            return
        self._acked.add(key)
        request = self._inflight.get(key)
        if request is not None:
            self._execute(request)
        predecessor = self._predecessor()
        if predecessor is not None:
            self.host.send(predecessor, KIND_BC_ACK, self.host.authenticator.sign(body))

    def _deliver_slot(self, body: ChainPayload) -> None:
        self._acked.add((body.epoch, body.slot))
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

    # ------------------------------------------------------------- re-chaining

    def _rechain(self, suspected: ProcessId) -> None:
        standbys = self._standbys()
        if suspected not in self.chain or not standbys:
            return
        replacement = standbys[0]
        new_chain = tuple(replacement if pid == suspected else pid for pid in self.chain)
        self.epoch += 1
        self.chain = new_chain
        self.rechains += 1
        self._inflight.clear()
        self._suspect_candidate = None
        self.host.log.append(
            self.host.now, self.pid, "bc.rechain",
            epoch=self.epoch, out=suspected, into=replacement, chain=new_chain,
        )
        body = RechainPayload(epoch=self.epoch, chain=new_chain)
        signed = self.host.authenticator.sign(body)
        for pid in range(1, self.n + 1):
            if pid != self.pid:
                self.host.send(pid, KIND_BC_RECHAIN, signed)

    def _on_rechain(self, kind: str, payload: Any, src: ProcessId) -> None:
        if not isinstance(payload, SignedMessage) or not self.host.authenticator.verify(payload):
            return
        body = payload.payload
        if not isinstance(body, RechainPayload) or body.epoch <= self.epoch:
            return
        if payload.signer != self.head:  # only the head may re-chain
            return
        self.epoch = body.epoch
        self.chain = tuple(body.chain)
        self._inflight.clear()


class BChainClient(Module):
    """Closed-loop client with retransmission (needed across re-chaining)."""

    def __init__(
        self,
        host: Host,
        n: int,
        f: int,
        ops: Sequence[Tuple[Any, ...]],
        retry_timeout: float = 25.0,
    ) -> None:
        super().__init__(host)
        self.n = n
        self.f = f
        self.ops = list(ops)
        self.retry_timeout = retry_timeout
        self.next_sequence = 0
        self.current: Optional[ClientRequest] = None
        self._votes: Dict[Any, Set[int]] = {}
        self._sent_at = 0.0
        self.completed: List[Tuple[int, Tuple[Any, ...], Any, float, float]] = []

    def start(self) -> None:
        self.host.subscribe(KIND_BC_REPLY, self._on_reply)
        self._next_request()

    @property
    def done(self) -> bool:
        return self.current is None and not self.ops

    def _next_request(self) -> None:
        if not self.ops:
            self.current = None
            return
        self.current = ClientRequest(
            client=self.pid, sequence=self.next_sequence, op=self.ops.pop(0)
        )
        self.next_sequence += 1
        self._votes = {}
        self._sent_at = self.host.now
        self._send(broadcast=False)
        self._arm_retry(self.current.sequence)

    def _send(self, broadcast: bool) -> None:
        if self.current is None:
            return
        signed = self.host.authenticator.sign(self.current)
        targets = range(1, self.n + 1) if broadcast else (1,)
        for replica in targets:
            self.host.send(replica, KIND_BC_REQUEST, signed)

    def _arm_retry(self, sequence: int) -> None:
        def retry() -> None:
            if self.current is not None and self.current.sequence == sequence:
                self._send(broadcast=True)
                self._arm_retry(sequence)

        self.host.set_timer(self.retry_timeout, retry, label=f"bc-retry@p{self.pid}")

    def _on_reply(self, kind: str, payload: Any, src: ProcessId) -> None:
        if not isinstance(payload, SignedMessage) or not self.host.authenticator.verify(payload):
            return
        reply = payload.payload
        if not isinstance(reply, BcReplyPayload) or reply.client != self.pid:
            return
        if self.current is None or reply.sequence != self.current.sequence:
            return
        votes = self._votes.setdefault(reply.result, set())
        votes.add(reply.replica)
        if len(votes) >= self.f + 1:
            self.completed.append(
                (self.current.sequence, self.current.op, reply.result,
                 self.host.now - self._sent_at, self.host.now)
            )
            self.current = None
            self._next_request()


@dataclass
class BChainCluster:
    sim: Simulation
    n: int
    f: int
    replicas: Dict[int, BChainReplica]
    clients: Dict[int, BChainClient]

    def run(self, until: float) -> None:
        self.sim.run_until(until)

    def total_completed(self) -> int:
        return sum(len(client.completed) for client in self.clients.values())

    def total_rechains(self) -> int:
        return max((replica.rechains for replica in self.replicas.values()), default=0)

    def inter_replica_messages(self) -> int:
        return self.sim.stats.total_sent(INTER_REPLICA_KINDS)


def build_bchain_cluster(
    n: int,
    f: int,
    clients: int = 1,
    requests_per_client: int = 20,
    seed: int = 1,
    delta: float = 1.0,
    ack_timeout: float = 8.0,
) -> BChainCluster:
    sim = Simulation(SimulationConfig(n=n + clients, seed=seed, gst=0.0, delta=delta))
    replicas = {
        pid: sim.host(pid).add_module(
            BChainReplica(sim.host(pid), n=n, f=f, ack_timeout=ack_timeout)
        )
        for pid in range(1, n + 1)
    }
    client_modules = {}
    for index in range(clients):
        pid = n + 1 + index
        ops = [("put", f"k{index}-{i}", i) for i in range(requests_per_client)]
        client_modules[pid] = sim.host(pid).add_module(
            BChainClient(sim.host(pid), n=n, f=f, ops=ops)
        )
    return BChainCluster(sim=sim, n=n, f=f, replicas=replicas, clients=client_modules)
