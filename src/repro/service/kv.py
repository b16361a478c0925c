"""The replicated key-value service state machine.

Extends the plain :class:`~repro.xpaxos.state_machine.KeyValueStore`
vocabulary with compare-and-swap and — the part that makes it a
*service* — per-client **at-most-once** execution.  Clients stamp every
request with ``(client_id, sequence)`` and submit one request at a time,
so a replica can dedup with a compact per-client last-applied table
instead of an ever-growing set of request ids: a re-proposed retry of
the last request returns the cached result; anything older is refused as
stale.  The table is part of the state (it feeds ``state_digest`` and
``snapshot_items``), so it survives checkpoint/state-transfer along with
the data — a replica that catches up via snapshot still refuses the
duplicates the snapshot already covers.

Replicas call :meth:`ServiceKVStore.apply_request` when they know the
request id (see ``XPaxosReplica._execute_one``); bare :meth:`apply`
remains for anonymous operations (view-change noop filler).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.crypto.digests import digest
from repro.xpaxos.state_machine import StateMachine

#: Result tag for a request older than the client's last applied one.
STALE = "stale"


class ServiceKVStore(StateMachine):
    """Deterministic KV service state machine with at-most-once dedup.

    Operations (tuples, so they canonically encode):

    - ``("get", key)`` -> value or ``None``
    - ``("put", key, value)`` -> previous value or ``None``
    - ``("del", key)`` -> deleted value or ``None``
    - ``("cas", key, expected, new)`` -> ``("ok", previous)`` when the
      current value equals ``expected`` (``None`` matches an absent
      key), else ``("fail", current)`` and no write
    - ``("noop",)`` -> ``None``

    Unknown operations return ``("rejected", name)`` and mutate nothing
    but the history.
    """

    def __init__(self) -> None:
        self._data: Dict[Any, Any] = {}
        self.history: List[Tuple[Any, ...]] = []
        #: client id -> (last applied sequence, its result).
        self._last_applied: Dict[int, Tuple[int, Any]] = {}
        #: Retries refused by the dedup table (cached or stale replies).
        self.duplicates_refused = 0
        #: Client-stamped operations actually executed (not refused).
        self.applied_requests = 0

    # ------------------------------------------------------------- execution

    def apply(self, op: Tuple[Any, ...]) -> Any:
        """Execute one anonymous operation (no request id, no dedup)."""
        return self._execute(op)

    def apply_request(self, client: int, sequence: int, op: Tuple[Any, ...]) -> Any:
        """Execute one client-stamped operation at most once.

        Clients submit one request at a time with consecutive sequence
        numbers, and the log is executed in slot order — so one
        last-applied entry per client suffices: equal sequence means a
        retry of the completed request (return the cached result), lower
        means a stale straggler (refuse), higher is the client's next
        request (execute and advance the entry).
        """
        last = self._last_applied.get(client)
        if last is not None:
            last_sequence, last_result = last
            if sequence == last_sequence:
                self.duplicates_refused += 1
                return last_result
            if sequence < last_sequence:
                self.duplicates_refused += 1
                return (STALE, sequence, last_sequence)
        result = self._execute(op)
        self._last_applied[client] = (sequence, result)
        self.applied_requests += 1
        return result

    def _execute(self, op: Tuple[Any, ...]) -> Any:
        self.history.append(tuple(op))
        if not op:
            return None
        name = op[0]
        if name == "get" and len(op) == 2:
            return self._data.get(op[1])
        if name == "put" and len(op) == 3:
            previous = self._data.get(op[1])
            self._data[op[1]] = op[2]
            return previous
        if name == "del" and len(op) == 2:
            return self._data.pop(op[1], None)
        if name == "cas" and len(op) == 4:
            _, key, expected, new = op
            current = self._data.get(key)
            if current == expected:
                self._data[key] = new
                return ("ok", current)
            return ("fail", current)
        if name == "noop":
            return None
        return ("rejected", name)

    # ------------------------------------------------------------- inspection

    def get(self, key: Any) -> Any:
        return self._data.get(key)

    def __len__(self) -> int:
        return len(self._data)

    @property
    def executed_count(self) -> int:
        return len(self.history)

    def last_applied(self, client: int) -> Tuple[int, Any]:
        """The dedup entry for ``client`` (``(-1, None)`` when unseen)."""
        return self._last_applied.get(client, (-1, None))

    @property
    def known_clients(self) -> int:
        return len(self._last_applied)

    def at_most_once_intact(self) -> bool:
        """Each client sequence executed exactly once.

        Clients issue sequences 0,1,2,... one at a time, so the executed
        count must equal ``sum(last_seq + 1)`` over the table.  A request
        applied twice (or a sequence skipped) breaks the equation.
        """
        expected = sum(entry[0] + 1 for entry in self._last_applied.values())
        return self.applied_requests == expected

    def summary(self) -> Dict[str, Any]:
        """What the service verdicts read off this replica's store."""
        return {
            "applied_requests": self.applied_requests,
            "duplicates_refused": self.duplicates_refused,
            "known_clients": self.known_clients,
            "at_most_once": self.at_most_once_intact(),
            "state_digest": self.state_digest(),
        }

    # ------------------------------------------------------------ checkpoints

    def state_digest(self) -> str:
        """Digest over data and the dedup table.

        The table must be under the digest: two replicas that agree on
        the data but disagree on which retries they would refuse are
        *not* in the same state.  The op history is deliberately *not*
        digested — checkpoints in service mode are compact (a replica
        that caught up via state transfer has no flat history), and the
        dedup table already pins every client's position.
        """
        return digest(
            (
                "svc-kv-state",
                tuple(sorted(self._data.items())),
                tuple(sorted(self._last_applied.items())),
            )
        )

    def snapshot_items(self) -> Tuple:
        """Data plus dedup table — both checkpointed with the log."""
        return (
            "svc-kv",
            tuple(sorted(self._data.items())),
            tuple(sorted(self._last_applied.items())),
        )

    def restore(self, items, history) -> None:
        """Rebuild data and dedup table from a checkpoint snapshot."""
        tag, data, dedup = items
        if tag != "svc-kv":
            raise ValueError(f"not a service snapshot: {tag!r}")
        self._data = dict(data)
        self._last_applied = {
            client: (entry[0], entry[1]) for client, entry in dedup
        }
        self.history = [tuple(op) for op in history]
        # Re-baseline the executed counter so ``at_most_once_intact``
        # stays exact for replicas that caught up via snapshot.
        self.applied_requests = sum(
            entry[0] + 1 for entry in self._last_applied.values()
        )
