"""The simulated cluster's world clock: timers and the delivery timeline.

The golden digests pin the exact simulated timeline of seven fixed-seed
scenarios: every delivery ``(now_us, src, dst, message type, term)`` in
order, plus each node's final ``(role, term, commit_index,
last_applied)`` and the network's counters.  They were recorded on the
poll-every-node-per-hop clock, so any change to how timers are driven
must reproduce the old timeline bit for bit.
"""

import hashlib

import pytest

from repro.common import CostModel
from repro.distributed import RaftGroup, Role, SimNetwork


class _World:
    """One network + clock with a delivery recorder on every handler."""

    def __init__(self):
        self.cost = CostModel()
        self.net = SimNetwork(self.cost)
        self.groups: list[RaftGroup] = []
        self.trace: list[tuple] = []
        #: Called with the receiving node id after every delivery.
        self.after_delivery = None
        register = self.net.register

        def recording_register(node_id, handler):
            def recorded(src, message):
                self.trace.append(
                    (self.cost.now_us(), src, node_id, type(message).__name__, message.term)
                )
                handler(src, message)
                if self.after_delivery is not None:
                    self.after_delivery(node_id)

            register(node_id, recorded)

        self.net.register = recording_register

    def group(self, name, voters, learners, seed, preferred=None, charge_learner_us=0.0):
        voter_ids = [f"{name}.v{i}" for i in range(voters)]
        learner_ids = [f"{name}.l{i}" for i in range(learners)]
        apply_fns = {}
        if charge_learner_us:
            # Learner replay charges the shared clock mid-delivery, as the
            # cluster's columnar replicas do.
            for lid in learner_ids:
                apply_fns[lid] = lambda _i, _c: self.cost.charge(charge_learner_us)
        group = RaftGroup(
            name,
            voter_ids,
            learner_ids,
            self.net,
            self.cost,
            apply_fns=apply_fns,
            seed=seed,
            preferred_leader=preferred,
        )
        self.groups.append(group)
        return group

    def digest(self) -> str:
        nodes = [
            (n.node_id, n.role.value, n.current_term, n.commit_index, n.last_applied)
            for g in self.groups
            for n in g.nodes.values()
        ]
        summary = (
            self.cost.now_us(),
            self.net.sent,
            self.net.delivered,
            self.net.dropped,
            self.net.pending(),
        )
        blob = repr((self.trace, nodes, summary)).encode()
        return hashlib.sha256(blob).hexdigest()


def _one_group(w: _World) -> None:
    g = w.group("g", 3, 1, seed=7)
    g.elect_leader()
    for i in range(20):
        g.propose_and_wait(("put", i))
    g.propose_batch_and_wait([("batch", i) for i in range(5)])
    g.run_for(5_000)


def _three_groups(w: _World) -> None:
    groups = [
        w.group(f"r{k}", 3, 1, seed=11 + k, preferred=f"r{k}.v{k}", charge_learner_us=30.0)
        for k in range(3)
    ]
    for g in groups:
        g.elect_leader()
    for i in range(15):
        groups[i % 3].propose_and_wait(("put", i))
    groups[0].propose_batch_and_wait([("batch", i) for i in range(4)])
    w.net.run_until_quiet(max_us=3_000.0)
    groups[1].run_for(3_000)


def _partition_heal(w: _World) -> None:
    g = w.group("p", 5, 1, seed=5)
    leader = g.elect_leader()
    for i in range(3):
        g.propose_and_wait(("before", i))
    for node_id in g.nodes:
        if node_id != leader.node_id:
            w.net.partition(leader.node_id, node_id)
    leader.client_propose(("orphan", 0))
    g.run_for(12_000)
    g.propose_and_wait(("during", 0))
    w.net.heal_all()
    g.run_for(6_000)
    g.propose_and_wait(("after", 0))
    g.run_for(2_000)


def _churn(w: _World) -> None:
    """Many elections: leaders crash in turn, and a stale leader learns
    of the newer term from its followers' replies alone."""
    g = w.group("e", 5, 1, seed=31)
    for round_ in range(4):
        leader = g.elect_leader()
        g.propose_and_wait(("churn", round_))
        w.net.crash(leader.node_id)
        g.run_for(4_000)
        w.net.restart(leader.node_id)
    stale = g.elect_leader()
    for node_id in g.nodes:
        if node_id != stale.node_id:
            w.net.partition(stale.node_id, node_id)
    g.run_for(8_000)
    successor = g.elect_leader()
    w.net.crash(successor.node_id)
    w.net.heal_all()
    g.run_for(8_000)
    w.net.restart_all()
    g.propose_and_wait(("settled", 0))
    # One-sided cuts: each cut-off follower campaigns among peers that
    # still hear the leader.
    for round_ in range(3):
        leader = g.elect_leader()
        voters = [n for n in g.nodes if n.startswith("e.v") and n != leader.node_id]
        w.net.partition(leader.node_id, voters[round_])
        g.run_for(6_000)
        w.net.heal_all()
        g.propose_and_wait(("healed", round_))
    g.run_for(2_000)


def _crash_restart(w: _World) -> None:
    g = w.group("c", 3, 1, seed=9, preferred="c.v1")
    leader = g.elect_leader()
    g.propose_and_wait(("a", 1))
    w.net.crash(leader.node_id)
    g.run_for(15_000)
    g.propose_and_wait(("b", 2))
    w.net.restart(leader.node_id)
    g.run_for(8_000)
    g.propose_and_wait(("c", 3))
    w.net.restart_all()
    g.run_for(1_000)


def _suspend_guard(w: _World) -> None:
    g1 = w.group("s", 3, 1, seed=13)
    g2 = w.group("t", 3, 0, seed=14, preferred="t.v2")
    for i in range(16):
        g1.propose_and_wait(("x", i))
        # A long local computation: the whole world was suspended.
        w.cost.charge(1_200.0 + 250.0 * i)
        g2.propose_and_wait(("y", i))
        w.cost.charge(900.0)  # just under the guard
    g1.run_for(4_000)


def _mid_run_group(w: _World) -> None:
    g1 = w.group("m", 3, 1, seed=21, preferred="m.v0")
    for i in range(4):
        g1.propose_and_wait(("m", i))
    w.cost.charge(2_000.0)
    # Built after a long suspension: the old group re-arms at the next
    # hop, the newborn one must not.
    g2 = w.group("n", 3, 1, seed=22, preferred="n.v1")
    g2.elect_leader()
    for i in range(4):
        g1.propose_and_wait(("m2", i))
        g2.propose_and_wait(("n", i))
    g1.shutdown()
    g2.run_for(6_000)
    w.cost.charge(5_000.0)
    g3 = w.group("o", 1, 1, seed=23)
    g3.propose_and_wait(("o", 0))
    g2.propose_and_wait(("n", 99))
    g2.run_for(3_000)


SCENARIOS = {
    "one_group": (
        _one_group,
        "8b59dde0b986243775e8f6bfbde7325447912fe4aba5fbbc70d89d20f99d4597",
    ),
    "three_groups": (
        _three_groups,
        "fc342524a45d09471baa945623ed38ea14ecf57d24e02190d1056eaa4c58cfdc",
    ),
    "partition_heal": (
        _partition_heal,
        "400d1b1e80cc591338e7f8c0209892cbb2f4741c25d079c8fa150988969ae7a4",
    ),
    "churn": (
        _churn,
        "7bb6c9357d40ac62ff4be2429709ce4f122cd02df92669d1afa054fad3cf3b1b",
    ),
    "crash_restart": (
        _crash_restart,
        "d20f2cd5ccad426c663c3ed63702383ed44c10632d39668794e2147c9deb7b45",
    ),
    "suspend_guard": (
        _suspend_guard,
        "6dad9c57422f1ce38a3f2d9f1893b8279a1f0a8e29ed3eff4bbfa64a47b90f43",
    ),
    "mid_run_group": (
        _mid_run_group,
        "c7f8416412ffc4ba886a4f10e58935a4084486be5b3f37f797c207544dafcf5c",
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_timeline_matches_golden_digest(name):
    scenario, expected = SCENARIOS[name]
    world = _World()
    scenario(world)
    assert world.digest() == expected


@pytest.mark.parametrize("name", ["churn", "mid_run_group", "partition_heal", "suspend_guard"])
def test_every_deadline_change_is_armed(name):
    """After every delivery the receiving node's earliest heap entry is
    no later than its real deadline, so no due timer can be missed."""
    world = _World()
    checked = []

    def check(node_id):
        node = next(g.nodes[node_id] for g in world.groups if node_id in g.nodes)
        assert world.net._armed_at[node._timer] <= node.next_due_us(), node_id
        checked.append(node_id)

    world.after_delivery = check
    SCENARIOS[name][0](world)
    assert len(checked) == len(world.trace)


def _sends_by_node(net):
    sent = []
    send = net.send

    def recording_send(src, dst, message):
        sent.append(src)
        send(src, dst, message)

    net.send = recording_send
    return sent


def test_shut_down_group_never_fires_or_sends():
    w = _World()
    old = w.group("old", 3, 1, seed=3, preferred="old.v0")
    live = w.group("live", 3, 1, seed=4)
    old.propose_and_wait(("x", 1))
    live.propose_and_wait(("y", 1))
    old.shutdown()
    fired = []
    for node in old.nodes.values():
        node.tick = lambda node_id=node.node_id: fired.append(node_id)
    states = [(n.role, n.current_term, n.commit_index) for n in old.nodes.values()]
    sent = _sends_by_node(w.net)
    live.run_for(10_000)
    w.cost.charge(5_000.0)  # a suspension re-arms every live timer
    live.propose_and_wait(("y", 2))
    live.run_for(10_000)
    assert fired == []
    assert not [src for src in sent if src.startswith("old.")]
    assert [src for src in sent if src.startswith("live.")]
    assert [(n.role, n.current_term, n.commit_index) for n in old.nodes.values()] == states
    old.shutdown()  # idempotent


def test_learner_tick_is_a_noop():
    w = _World()
    g = w.group("g", 3, 1, seed=5)
    g.propose_and_wait(("x", 1))
    learner = g.nodes["g.l0"]
    assert learner.role is Role.LEARNER
    assert learner.next_due_us() == float("inf")
    learner._election_deadline_us = 0.0  # long overdue, were it a timer
    rng_state = learner._rng.getstate()
    sent = _sends_by_node(w.net)
    for _ in range(3):
        learner.tick()
    assert sent == []
    assert learner.role is Role.LEARNER
    assert learner._rng.getstate() == rng_state
    # Replication still reaches it; it still never campaigns.
    g.propose_and_wait(("x", 2))
    g.run_for(20_000)
    assert learner.role is Role.LEARNER
    assert learner.commit_index == g.elect_leader().commit_index
    assert learner._rng.getstate() == rng_state


def test_tick_before_the_deadline_is_a_noop():
    w = _World()
    g = w.group("g", 3, 0, seed=6)
    leader = g.elect_leader()
    sent = _sends_by_node(w.net)
    term = leader.current_term
    for node in g.nodes.values():
        assert node.next_due_us() > w.cost.now_us()
        node.tick()
    assert sent == []
    assert leader.is_leader() and leader.current_term == term
