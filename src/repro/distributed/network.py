"""A deterministic simulated network and the world clock's timers.

Message passing for the distributed substrate (architecture (b)):
every send is enqueued with a delivery time = now + one-way latency,
and the cluster advances simulated time step by step, delivering due
messages to registered node handlers.  Partitions drop messages in
either direction.  Everything is seeded and single-threaded, so Raft
elections and 2PC outcomes are reproducible bit-for-bit.

Timers are event-driven.  Each timer owner (a Raft node) registers once
and gets an order index; whenever its next deadline moves earlier it
pushes a ``(due_us, order)`` entry onto one world-wide deadline heap.
After every delivery hop the network pops the entries that are due and
calls ``tick()`` on exactly those owners, in registration order, so a
timer fires at the first hop at or after its deadline without polling
the nodes that have nothing to do.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable

from ..common.cost import CostModel
from ..obs import Histogram, get_registry

Handler = Callable[[str, Any], None]
"""(source node id, message) -> None."""


class SimNetwork:
    """Priority-queue message bus over the shared simulated clock,
    plus the world's deadline heap for node timers."""

    #: A single simulated-time hop larger than this means the *whole
    #: world* was suspended (a long local computation advanced the cost
    #: clock), not that a leader went silent — timers are re-armed
    #: instead of firing, like clock-jump guards in real systems.
    _SUSPEND_GUARD_US = 1_000.0

    def __init__(self, cost: CostModel | None = None):
        self._cost = cost or CostModel()
        self._handlers: dict[str, Handler] = {}
        # (deliver_at_us, seq, src, dst, message, sent_at_us); seq is
        # unique, so heap comparisons never reach the payload.
        self._queue: list[tuple[float, int, str, str, Any, float]] = []
        self._seq = itertools.count()
        self._cut: set[frozenset[str]] = set()
        self._down: set[str] = set()
        # Timers, indexed by registration order: the owner (None once
        # retired), when it registered, and its earliest heap entry.
        self._timers: list[tuple[float, int]] = []
        self._timer_owners: list[Any] = []
        self._timer_born_us: list[float] = []
        self._armed_at: list[float] = []
        self._last_hop_us = self._cost.now_us()
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        registry = get_registry()
        self._m_sent = registry.counter("network.sent")
        self._m_delivered = registry.counter("network.delivered")
        self._m_dropped = registry.counter("network.dropped")
        self._link_hists: dict[tuple[str, str], Histogram] = {}

    # ------------------------------------------------------------- timers

    def add_timer(self, owner: Any) -> int:
        """Register a timer owner; returns its order index.  Owners
        that are due at the same hop fire in registration order.

        An owner provides ``next_due_us()`` (``math.inf`` for never),
        ``tick()`` (fire if due, else a no-op) and ``suspend_rearm(now)``,
        and calls :meth:`arm` whenever its next due time changes.
        """
        self._timer_owners.append(owner)
        self._timer_born_us.append(self._cost.now_us())
        self._armed_at.append(math.inf)
        order = len(self._timer_owners) - 1
        self.arm(order, owner.next_due_us())
        return order

    def arm(self, order: int, due_us: float) -> None:
        """Timer ``order`` is next due at ``due_us``.  Pushes an entry
        only when that is earlier than the one it already has; a later
        deadline is picked up when the earlier entry pops."""
        if due_us < self._armed_at[order]:
            self._armed_at[order] = due_us
            heapq.heappush(self._timers, (due_us, order))

    def retire_timer(self, order: int) -> None:
        """Forget a timer owner for good: it never fires again.
        Idempotent; its leftover heap entries are dropped as they pop."""
        self._timer_owners[order] = None

    def _fire_timers(self) -> None:
        """One hop of the world clock: fire every due timer once.

        If the clock jumped more than :attr:`_SUSPEND_GUARD_US` since
        an owner last saw it (the previous hop, or its registration if
        that came later), the owner is re-armed instead and does not
        fire on this hop.
        """
        now = self._cost.now_us()
        since = self._last_hop_us
        self._last_hop_us = now
        timers = self._timers
        suspended = now - since > self._SUSPEND_GUARD_US
        if not suspended and (not timers or timers[0][0] > now):
            return
        armed_at = self._armed_at
        owners = self._timer_owners
        popped: set[int] = set()
        while timers and timers[0][0] <= now:
            at, order = heapq.heappop(timers)
            if at == armed_at[order]:
                armed_at[order] = math.inf
            popped.add(order)
        rearmed: set[int] = set()
        if suspended:
            guard = self._SUSPEND_GUARD_US
            born_us = self._timer_born_us
            for order, owner in enumerate(owners):
                if owner is not None and now - max(born_us[order], since) > guard:
                    owner.suspend_rearm(now)
                    rearmed.add(order)
        for order in sorted(popped):
            owner = owners[order]
            if owner is None:
                continue
            if order not in rearmed and owner.next_due_us() <= now:
                owner.tick()
            self.arm(order, owner.next_due_us())

    # ------------------------------------------------------------- topology

    def register(self, node_id: str, handler: Handler) -> None:
        if node_id in self._handlers:
            raise ValueError(f"node {node_id!r} already registered")
        self._handlers[node_id] = handler

    def unregister(self, node_id: str) -> None:
        """Remove a node entirely (a merged-away shard's replicas).
        In-flight messages to it are dropped at delivery time."""
        self._handlers.pop(node_id, None)
        self._down.discard(node_id)

    def node_ids(self) -> list[str]:
        return list(self._handlers)

    def partition(self, a: str, b: str) -> None:
        """Cut the link between ``a`` and ``b`` (both directions)."""
        self._cut.add(frozenset((a, b)))

    def heal(self, a: str, b: str) -> None:
        self._cut.discard(frozenset((a, b)))

    def heal_all(self) -> None:
        """Restore every cut link.  Crashed nodes stay down — bringing
        them back is a different fault-injection action
        (:meth:`restart` / :meth:`restart_all`)."""
        self._cut.clear()

    def crash(self, node_id: str) -> None:
        """Silence a node: nothing is delivered to or from it."""
        self._down.add(node_id)

    def restart(self, node_id: str) -> None:
        self._down.discard(node_id)

    def restart_all(self) -> None:
        """Bring every crashed node back up (links are untouched)."""
        self._down.clear()

    def _link_ok(self, src: str, dst: str) -> bool:
        if src in self._down or dst in self._down:
            return False
        return frozenset((src, dst)) not in self._cut

    # ------------------------------------------------------------- transport

    def send(self, src: str, dst: str, message: Any) -> None:
        """Queue a message; latency/drops are decided at delivery time."""
        self.sent += 1
        self._m_sent.inc()
        now = self._cost.now_us()
        heapq.heappush(
            self._queue,
            (now + self._cost.network_oneway_us, next(self._seq), src, dst, message, now),
        )

    def broadcast(self, src: str, dsts: list[str], message: Any) -> None:
        for dst in dsts:
            self.send(src, dst, message)

    # ------------------------------------------------------------- simulation

    def pending(self) -> int:
        return len(self._queue)

    def next_delivery_us(self) -> float | None:
        return self._queue[0][0] if self._queue else None

    def deliver_due(self) -> int:
        """Deliver every message whose time has come; returns the count."""
        count = 0
        queue = self._queue
        now_us = self._cost.clock.now_us
        now = now_us()
        while queue and queue[0][0] <= now:
            _at, _seq, src, dst, message, sent_at_us = heapq.heappop(queue)
            if (self._down or self._cut) and not self._link_ok(src, dst):
                self.dropped += 1
                self._m_dropped.inc()
                continue
            handler = self._handlers.get(dst)
            if handler is None:
                self.dropped += 1
                self._m_dropped.inc()
                continue
            handler(src, message)
            self.delivered += 1
            self._m_delivered.inc()
            # Handlers may charge the clock (learner replay does), so
            # the latency is read after each one.
            self._link_latency(src, dst).observe(now_us() - sent_at_us)
            count += 1
        return count

    def _link_latency(self, src: str, dst: str) -> Histogram:
        hist = self._link_hists.get((src, dst))
        if hist is None:
            hist = get_registry().histogram(
                "network.latency_us", link=f"{src}->{dst}"
            )
            self._link_hists[(src, dst)] = hist
        return hist

    def advance(self, delta_us: float) -> int:
        """Advance simulated time by ``delta_us``, delivering en route.

        Time moves in hops to each delivery instant so that handlers
        observing ``now_us()`` see causally consistent clocks; due
        timers fire after each hop's deliveries.
        """
        clock = self._cost.clock
        target = clock.now_us() + delta_us
        delivered = 0
        queue = self._queue
        while queue and queue[0][0] <= target:
            clock.advance(max(0.0, queue[0][0] - clock.now_us()))
            delivered += self.deliver_due()
            self._fire_timers()
        remaining = target - clock.now_us()
        if remaining > 0:
            clock.advance(remaining)
        self._fire_timers()
        return delivered

    def run_until_quiet(self, max_us: float = 10_000_000.0) -> None:
        """Advance until no messages remain (bounded by ``max_us``)."""
        spent = 0.0
        while self._queue and spent < max_us:
            nxt = self.next_delivery_us()
            assert nxt is not None
            hop = max(0.0, nxt - self._cost.now_us())
            self.advance(hop or 1.0)
            spent += hop or 1.0
