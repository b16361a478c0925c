"""Unit tests for the service client library (request ids, retry, redirect).

A fake host records sends and timers so the client's wire behaviour is
checked without a simulator: retry backoff doubling, the single live
retry timer, the f+1 matching-vote rule, and redirect-to-leader learned
from reply views.
"""

from repro.crypto.authenticator import Authenticator
from repro.crypto.keys import KeyRegistry
from repro.protocol.enumeration import leader_of_view
from repro.service.client import ServiceClient
from repro.xpaxos.messages import KIND_REPLY, KIND_REQUEST, ReplyPayload

N, F = 4, 1
CLIENT_PID = 6
REGISTRY = KeyRegistry(8)


class FakeTimer:
    def __init__(self, delay, fn, label):
        self.delay = delay
        self.fn = fn
        self.label = label
        self.cancelled = False

    def cancel(self):
        self.cancelled = True

    def fire(self):
        if not self.cancelled:
            self.fn()


class FakeLog:
    def append(self, *args, **kwargs):
        pass


class FakeHost:
    def __init__(self, pid=CLIENT_PID):
        self.pid = pid
        self.now = 0.0
        self.sent = []
        self.timers = []
        self.log = FakeLog()
        self.authenticator = Authenticator(REGISTRY, pid)

    def set_timer(self, delay, fn, label=None):
        timer = FakeTimer(delay, fn, label)
        self.timers.append(timer)
        return timer

    def send(self, dst, kind, payload):
        self.sent.append((dst, kind, payload))

    def subscribe(self, kind, fn):
        pass

    def live_timers(self):
        return [t for t in self.timers if not t.cancelled]


def make_client(host, **kwargs):
    kwargs.setdefault("retry_timeout", 1.0)
    client = ServiceClient(host, n=N, f=F, **kwargs)
    client.start()
    return client


def reply_from(replica, client, sequence, result, view=0, signer=None):
    body = ReplyPayload(
        client=client, sequence=sequence, result=result,
        replica=replica, view=view,
    )
    return Authenticator(REGISTRY, signer if signer is not None else replica).sign(body)


class TestDispatchAndRetry:
    def test_first_send_goes_to_believed_leader_only(self):
        host = FakeHost()
        client = make_client(host)
        client.submit(("put", "a", 1))
        leader = leader_of_view(0, N, N - F)
        assert [entry[0] for entry in host.sent] == [leader]
        assert host.sent[0][1] == KIND_REQUEST

    def test_retry_broadcasts_with_exponential_backoff(self):
        host = FakeHost()
        client = make_client(host, retry_timeout=1.0, backoff=2.0,
                             max_retry_timeout=3.0)
        client.submit(("put", "a", 1))
        host.sent.clear()

        (timer,) = host.live_timers()
        assert timer.delay == 1.0
        timer.fire()
        assert [entry[0] for entry in host.sent] == [1, 2, 3, 4]
        assert client.retries == 1

        # Backoff doubles, capped at max_retry_timeout.
        (timer,) = host.live_timers()
        assert timer.delay == 2.0
        timer.fire()
        (timer,) = host.live_timers()
        assert timer.delay == 3.0

    def test_exactly_one_live_retry_timer(self):
        # Regression: re-arming must cancel the previous timer, not
        # accumulate a chain of stale ones.
        host = FakeHost()
        client = make_client(host)
        client.submit(("put", "a", 1))
        for _ in range(4):
            (timer,) = host.live_timers()
            timer.fire()
        assert len(host.live_timers()) == 1

    def test_completion_cancels_the_retry_timer(self):
        host = FakeHost()
        client = make_client(host)
        client.submit(("put", "a", 1))
        for replica in (1, 2):
            client.on_reply(KIND_REPLY, reply_from(replica, CLIENT_PID, 0, None), replica)
        assert client.current is None
        assert host.live_timers() == []

    def test_first_retry_goes_leader_first_once_a_leader_is_learned(self):
        # A client that has seen real replies knows who leads; its first
        # retry re-targets that leader alone, and only the second retry
        # escalates to the full n-fold broadcast.
        host = FakeHost()
        client = make_client(host, retry_timeout=1.0)
        client.submit(("put", "a", 1))
        for replica in (1, 2):
            client.on_reply(
                KIND_REPLY, reply_from(replica, CLIENT_PID, 0, None, view=1), replica
            )
        assert client.believed_view == 1

        client.submit(("get", "a"))
        host.sent.clear()
        (timer,) = host.live_timers()
        timer.fire()
        leader = leader_of_view(1, N, N - F)
        assert [entry[0] for entry in host.sent] == [leader]

        host.sent.clear()
        (timer,) = host.live_timers()
        timer.fire()
        assert [entry[0] for entry in host.sent] == [1, 2, 3, 4]

    def test_completion_records_are_named(self):
        host = FakeHost()
        client = make_client(host)
        client.submit(("put", "a", 1))
        for replica in (1, 2):
            client.on_reply(KIND_REPLY, reply_from(replica, CLIENT_PID, 0, "ok"), replica)
        (entry,) = client.completed
        assert entry.sequence == 0
        assert entry.op == ("put", "a", 1)
        assert entry.result == "ok"
        assert entry.view == 0
        # Positional layout preserved for historical consumers.
        assert tuple(entry) == (
            entry.sequence, entry.op, entry.result,
            entry.latency, entry.completed_at, entry.view,
        )

    def test_stale_retry_closure_is_a_no_op(self):
        host = FakeHost()
        client = make_client(host)
        client.submit(("put", "a", 1))
        (stale,) = host.live_timers()
        for replica in (1, 2):
            client.on_reply(KIND_REPLY, reply_from(replica, CLIENT_PID, 0, None), replica)
        client.submit(("get", "a"))
        host.sent.clear()
        stale.cancelled = False  # even if it somehow fired anyway
        stale.fn()
        assert host.sent == []  # sequence mismatch: no spurious broadcast
        assert client.retries == 0


class TestVoting:
    def test_needs_f_plus_one_matching_votes(self):
        host = FakeHost()
        client = make_client(host)
        client.submit(("get", "a"))
        client.on_reply(KIND_REPLY, reply_from(1, CLIENT_PID, 0, "v"), 1)
        assert client.current is not None
        # A second vote for a *different* result does not pool.
        client.on_reply(KIND_REPLY, reply_from(2, CLIENT_PID, 0, "forged"), 2)
        assert client.current is not None
        client.on_reply(KIND_REPLY, reply_from(3, CLIENT_PID, 0, "v"), 3)
        assert client.current is None
        assert client.completed[0][2] == "v"

    def test_duplicate_votes_from_one_replica_do_not_count_twice(self):
        host = FakeHost()
        client = make_client(host)
        client.submit(("get", "a"))
        for _ in range(3):
            client.on_reply(KIND_REPLY, reply_from(1, CLIENT_PID, 0, "v"), 1)
        assert client.current is not None

    def test_reply_with_mismatched_signer_is_ignored(self):
        host = FakeHost()
        client = make_client(host)
        client.submit(("get", "a"))
        forged = reply_from(1, CLIENT_PID, 0, "v", signer=2)
        client.on_reply(KIND_REPLY, forged, 2)
        client.on_reply(KIND_REPLY, reply_from(3, CLIENT_PID, 0, "v"), 3)
        assert client.current is not None  # the forged vote did not pool

    def test_reply_for_old_sequence_is_ignored(self):
        host = FakeHost()
        client = make_client(host)
        client.submit(("put", "a", 1))
        for replica in (1, 2):
            client.on_reply(KIND_REPLY, reply_from(replica, CLIENT_PID, 0, None), replica)
        client.submit(("get", "a"))
        client.on_reply(KIND_REPLY, reply_from(3, CLIENT_PID, 0, None), 3)
        client.on_reply(KIND_REPLY, reply_from(4, CLIENT_PID, 0, None), 4)
        assert client.current is not None
        assert client.current.sequence == 1


class TestRedirect:
    def test_learns_view_from_replies_and_redirects(self):
        host = FakeHost()
        client = make_client(host)
        client.submit(("put", "a", 1))
        view = 2
        for replica in (1, 2):
            client.on_reply(
                KIND_REPLY, reply_from(replica, CLIENT_PID, 0, None, view=view), replica
            )
        assert client.believed_view == view
        host.sent.clear()
        client.submit(("get", "a"))
        assert [entry[0] for entry in host.sent] == [leader_of_view(view, N, N - F)]

    def test_view_never_goes_backwards(self):
        host = FakeHost()
        client = make_client(host)
        client.believed_view = 5
        client.submit(("get", "a"))
        for replica in (1, 2):
            client.on_reply(
                KIND_REPLY, reply_from(replica, CLIENT_PID, 0, None, view=1), replica
            )
        assert client.believed_view == 5


class TestQueueing:
    def test_callback_submitting_keeps_fifo_order(self):
        # Regression: the next request must dispatch *before* the
        # completion callback runs, so a callback that submits (the
        # closed-loop feeder) enqueues behind it instead of racing.
        host = FakeHost()
        client = make_client(host)
        order = []

        def feeder(op, result, latency):
            order.append(op)
            if len(order) < 3:
                client.submit(("put", "next", len(order)), callback=feeder)

        client.submit(("put", "first", 0), callback=feeder)
        client.submit(("put", "second", 0))
        for sequence in range(4):
            if client.current is None:
                break
            for replica in (1, 2):
                client.on_reply(
                    KIND_REPLY, reply_from(replica, CLIENT_PID, sequence, None), replica
                )
        sequences = [entry[0] for entry in client.completed]
        assert sequences == sorted(sequences)
        # "second" was queued before the feeder's follow-up.
        assert [entry[1][1] for entry in client.completed][:2] == ["first", "second"]

    def test_latency_stats_on_idle_client(self):
        host = FakeHost()
        client = make_client(host)
        assert client.mean_latency() == 0.0
        assert client.throughput() == 0.0
