"""The benchmark's three workloads.

Each workload class builds one complete system from a seed in its
constructor (that is the timed set-up), then runs fixed *blocks* of
work, each the same shape, through :class:`OpLog`, which times every
operation on both clocks.  The first ``SIM_BLOCKS`` blocks after
:meth:`begin` form the *simulated window*: the simulated metrics come
from it alone, so they depend only on the seed and never on how many
blocks the wall-clock budget allowed.  ``check()`` compares the
system's outputs against an independent oracle and returns a list of
failures (empty when every output is right).
"""

from __future__ import annotations

import hashlib
import resource
import time
from typing import Any, Callable

from repro import make_engine
from repro.bench.chbenchmark import CH_QUERIES
from repro.bench.cluster_scaleout import (
    ClusterScaleoutConfig,
    ClusterScaleoutDriver,
    SkewedWriteMix,
)
from repro.bench.frontdoor import (
    PREPARED_STATEMENTS,
    FrontDoorBenchConfig,
    FrontDoorBenchDriver,
)
from repro.bench.tpcc import TpccLoader, TpccScale, TpccWorkload, tpcc_schemas
from repro.common.errors import ReproError
from repro.common.rng import make_rng
from repro.common.types import columns_to_rows
from repro.distributed.cluster import WriteKind
from repro.session.admission import AdmissionDecision

from hostspeed import HostSpeed
from oracle import SqliteOracle, compare, scan_rows

_SCHEMAS = {s.table_name: s for s in tpcc_schemas()}

#: Fixed parameters per prepared shape.  Set-up primes the plan cache
#: with them, so the plan each shape caches (the planner bind-peeks the
#: first call's values) is the same for every seed; the front-door
#: output check runs each shape with them.
CHECK_PARAMS = {
    "customer_profile": (1, 2, 7),
    "order_status": (1, 3, 5),
    "customer_orders": (1, 1, 3),
    "order_lines_join": (1, 2, 4),
    "order_line_item": (1, 4, 2, 1),
    "item_price": (17,),
    "stock_pressure": (1, 20),
    "order_priority": (1, 120),
    "district_pricing": (1, 2, 3),
}


def _prime_plan_cache(engine) -> None:
    for name, _weight, sql, _params in PREPARED_STATEMENTS:
        engine.execute_prepared(sql, CHECK_PARAMS[name])


class Deck:
    """Deals from shuffled copies of a fixed deck, so every full deck
    has the mix's exact proportions (TPC-C's deck-of-cards selection).
    A few expensive shapes then weigh the same in every run instead of
    swinging the tails and the busiest node's load with the seed."""

    def __init__(self, cards: list, rng) -> None:
        self.cards = list(cards)
        self.rng = rng
        self._hand: list = []

    def deal(self):
        if not self._hand:
            self._hand = list(self.cards)
            self.rng.shuffle(self._hand)
        return self._hand.pop()


#: TPC-C's minimum mix (at least 43% Payment and 4% each of
#: Order-Status, Delivery and Stock-Level, New-Order the rest) as a
#: 120-card deck.  Delivery and Stock-Level each take 12-20x a New-Order
#: in wall time; drawn independently, their share of a run moved by
#: half from seed to seed and the transaction throughput with it.
TPCC_CARDS = (
    ["new_order"] * 53 + ["payment"] * 52
    + ["order_status"] * 5 + ["delivery"] * 5 + ["stock_level"] * 5
)
#: Seed offset of the TPC-C decks: every engine of a workload deals the
#: same sequence.
TPCC_DECK_SEED = 0xDEC


#: The CH read shapes, expanded by weight (18 cards).
READ_CARDS = [
    (sql, make_params)
    for _name, weight, sql, make_params in PREPARED_STATEMENTS
    for _ in range(weight)
]


class OpLog:
    """Per-operation timings on both clocks, for one measured system.

    ``kind`` is ``"txn"`` or ``"query"``.  Wall time is the time spent
    inside the operation's call; simulated latency runs from the
    operation's submission (``due_us``) to its completion, so queue
    wait in the front door counts.
    """

    KINDS = ("txn", "query")

    def __init__(
        self,
        on_request: Callable[[int], None] | None = None,
        host: HostSpeed | None = None,
    ) -> None:
        self.on_request = on_request
        #: Takes the host-speed reference samples between operations.
        self.host = host
        self.request = 0
        self.wall = {k: [] for k in self.KINDS}
        #: Wall start of each completed operation, parallel to ``wall``.
        self.wall_at = {k: [] for k in self.KINDS}
        #: Wall start and duration of every operation, failed ones too.
        self.busy_at = {k: [] for k in self.KINDS}
        self.busy_wall = {k: [] for k in self.KINDS}
        self.sim = {k: [] for k in self.KINDS}
        #: What each completed operation was (TPC-C transaction name,
        #: (engine, CH query id), ...), parallel to ``wall`` and ``sim``.
        self.label = {k: [] for k in self.KINDS}
        self.done = {k: 0 for k in self.KINDS}
        self.failed = {k: 0 for k in self.KINDS}
        self.queue_wait_us = 0.0
        self.freshness: list[float] = []
        self.digest = hashlib.blake2b(digest_size=16)

    @property
    def attempted(self) -> int:
        return sum(self.done.values()) + sum(self.failed.values())

    @property
    def failures(self) -> int:
        return sum(self.failed.values())

    def run(
        self,
        kind: str,
        cost,
        fn: Callable[[], Any],
        due_us: float | None = None,
        label: Any = None,
    ):
        """Run one operation; a ``repro`` error counts as a failure."""
        self.request += 1
        if self.on_request is not None:
            self.on_request(self.request)
        if self.host is not None:
            self.host.maybe_sample()
        start_us = cost.now_us()
        if due_us is not None:
            self.queue_wait_us += start_us - due_us
        t0 = time.perf_counter()
        try:
            out = fn()
        except ReproError as exc:
            self._busy(kind, t0, time.perf_counter() - t0)
            self.failed[kind] += 1
            self.digest.update(f"failed {type(exc).__name__}".encode())
            return None
        elapsed = time.perf_counter() - t0
        self.wall[kind].append(elapsed)
        self.wall_at[kind].append(t0)
        self._busy(kind, t0, elapsed)
        self.sim[kind].append(cost.now_us() - (start_us if due_us is None else due_us))
        self.label[kind].append(out if label is None else label)
        self.done[kind] += 1
        return out

    def _busy(self, kind: str, t0: float, elapsed: float) -> None:
        self.busy_at[kind].append(t0)
        self.busy_wall[kind].append(elapsed)

    def tpcc(
        self, engine, workload: TpccWorkload, name: str, due_us: float | None = None
    ) -> None:
        """One TPC-C transaction, ``name``; an abort other than the
        spec's intended new-order rollback is a failure."""
        aborts = workload.counters.aborts

        def txn() -> str:
            workload.run_named(name)
            if workload.counters.aborts != aborts:
                raise _Aborted(name)
            return name

        name = self.run("txn", engine.cost, txn, due_us)
        self.digest.update(f"txn {name}".encode())

    def query(
        self, engine, fn: Callable[[], Any], due_us: float | None = None, label: Any = ""
    ) -> None:
        """One analytical operation; samples the columnar image's
        staleness as the operation starts."""
        self.freshness.append(float(engine.image_freshness_lag()))
        result = self.run("query", engine.cost, fn, due_us, label)
        if result is not None:
            self.digest.update(repr(result.rows).encode())

    def shed(self, kind: str) -> None:
        self.failed[kind] += 1
        self.digest.update(f"shed {kind}".encode())


class _Aborted(ReproError):
    """A TPC-C transaction the workload caught as aborted."""


def _max_busy(ledger, nodes: list[str]) -> float:
    busy = ledger.snapshot()
    return max((busy.get(n, 0.0) for n in nodes), default=0.0)


class SimWindow:
    """The simulated metrics of the first blocks after ``begin``, and the
    process's peak resident set by their end: a fixed amount of work,
    where the whole run's peak would grow with the blocks a faster host
    fits into the wall-clock budget."""

    def __init__(self, log: OpLog, tp_busy_us: float, ap_busy_us: float) -> None:
        self.txns = log.done["txn"]
        self.queries = log.done["query"]
        self.sim = {k: list(v) for k, v in log.sim.items()}
        self.label = {k: list(v) for k, v in log.label.items()}
        self.freshness = list(log.freshness)
        self.tp_busy_us = tp_busy_us
        self.ap_busy_us = ap_busy_us
        self.attempted = log.attempted
        self.failed = log.failures
        self.digest = log.digest.hexdigest()
        self.rss_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------- chbench_mixed


class ChbenchMixed:
    """CH-benCHmark over architectures (a), (c) and (d), one closed-loop
    client each, identical work on every engine."""

    name = "chbench_mixed"
    SCALE = TpccScale(districts=10, customers=300, items=2000, initial_orders=300)
    CATEGORIES = ("a", "c", "d")
    #: One whole deck of TPC-C transactions per engine per block.
    TXNS_PER_BLOCK = len(TPCC_CARDS)
    #: One CH query after every 10th transaction: the 12 queries once
    #: per block, in order, so each block is the same balanced mix.
    QUERY_EVERY = 10
    SYNC_EVERY = 40
    SIM_BLOCKS = 1
    #: Enough blocks that each fixed tail percentile has ten samples
    #: beyond it (108 queries, about 480 new orders).
    MIN_BLOCKS = 3
    TAIL = {"txn": 95.0, "query": 90.0}
    #: Transaction latency percentiles are over New-Order, TPC-C's
    #: headline transaction.  The pooled mix is bimodal (payments, 43%
    #: of it, are much cheaper than new orders), so its median sits on
    #: the gap and jumps with the seed's exact mix.
    TXN_LATENCY = frozenset({"new_order"})
    #: The 12 queries differ ~300x in cost, so a pooled median sits
    #: between query groups; ``query_p50_ms`` is instead the geometric
    #: mean over (engine, query) pairs of each pair's median (the TPC-H
    #: power-metric convention).  The pooled tail stays: it falls inside
    #: the heavy join group.
    QUERY_P50_BY_LABEL = True
    CH_TABLES = ("order_line", "customer", "orders", "stock", "supplier", "nation", "region", "item")

    def __init__(self, seed: int) -> None:
        self.arms = []
        for category in self.CATEGORIES:
            engine = make_engine(category)
            TpccLoader(self.SCALE, seed=seed).load(engine)
            engine.sync()
            workload = TpccWorkload(engine, self.SCALE, seed=seed ^ 0x7C3)
            deck = Deck(TPCC_CARDS, make_rng(seed ^ TPCC_DECK_SEED))
            self.arms.append((engine, workload, deck))
        # Warm-up: lazy planner/executor construction and a first sync
        # cycle, outside the timed phase.
        warm = OpLog()
        for engine, workload, _deck in self.arms:
            # A deck of its own, so each measured block deals one whole
            # deck of the measured one.
            warm_deck = Deck(TPCC_CARDS, make_rng(seed ^ TPCC_DECK_SEED ^ 1))
            for _ in range(self.SYNC_EVERY):
                warm.tpcc(engine, workload, warm_deck.deal())
            engine.sync()
            warm.query(engine, lambda e=engine: e.query(CH_QUERIES[-1].sql))

    def engines(self):
        return [engine for engine, _, _ in self.arms]

    def begin(self, log: OpLog) -> None:
        for engine in self.engines():
            engine.ledger.reset()

    def block(self, log: OpLog) -> None:
        for engine, workload, deck in self.arms:
            for i in range(1, self.TXNS_PER_BLOCK + 1):
                log.tpcc(engine, workload, deck.deal())
                if i % self.QUERY_EVERY == 0:
                    ch = CH_QUERIES[i // self.QUERY_EVERY - 1]
                    log.query(
                        engine,
                        lambda e=engine, q=ch.sql: e.query(q),
                        label=(engine.info.category, ch.query_id),
                    )
                if i % self.SYNC_EVERY == 0:
                    engine.sync()

    def ledger_busy(self) -> tuple[float, float]:
        tp = sum(_max_busy(e.ledger, e.tp_nodes()) for e in self.engines())
        ap = sum(_max_busy(e.ledger, e.ap_nodes()) for e in self.engines())
        return tp, ap

    def check(self) -> list[str]:
        """All 12 CH queries equal sqlite3 over the same engine's rows."""
        failures = []
        for engine in self.engines():
            oracle = SqliteOracle(
                (_SCHEMAS[t] for t in self.CH_TABLES),
                lambda table, e=engine: scan_rows(e, table),
            )
            try:
                for q in CH_QUERIES:
                    got = [tuple(r) for r in engine.query(q.sql).rows]
                    problem = compare(
                        f"{engine.info.category}/{q.query_id}", q.sql, got, oracle.query(q.sql)
                    )
                    if problem:
                        failures.append(problem)
            finally:
                oracle.close()
        return failures


# ---------------------------------------------------------------- frontdoor_point


class FrontdoorPoint:
    """Hundreds of sessions behind the front door on architecture (a):
    every 32nd a TPC-C writer, the rest prepared point reads."""

    name = "frontdoor_point"
    SESSIONS = 256
    ROUNDS_PER_BLOCK = 4
    #: Simulated budget per slot per round: large enough that every
    #: round drains its queues, so nothing is shed during a run.
    ROUND_SLOT_US = 50_000.0
    #: The writers append to ``orders``/``order_line`` and the scan-based
    #: shapes' simulated cost grows with them; at FrontDoorBenchDriver's default
    #: 20 initial orders per district it doubled within ten seconds.
    #: 500 keeps the growth over a run to a small share.
    SCALE = TpccScale(initial_orders=500)
    SIM_BLOCKS = 12
    MIN_BLOCKS = 20
    WARM_ROUNDS = 4
    TAIL = {"txn": 95.0, "query": 98.0}
    TXN_LATENCY = frozenset({"new_order"})
    QUERY_P50_BY_LABEL = False

    def __init__(self, seed: int) -> None:
        engine = make_engine("a")
        self.driver = FrontDoorBenchDriver(
            engine,
            FrontDoorBenchConfig(
                n_sessions=self.SESSIONS,
                rounds=0,
                round_slot_us=self.ROUND_SLOT_US,
                seed=seed,
                scale=self.SCALE,
            ),
        )
        self.engine = engine
        self.frontdoor = self.driver.frontdoor
        self.reads = Deck(READ_CARDS, self.driver.rng)
        self.txns = Deck(TPCC_CARDS, make_rng(seed ^ TPCC_DECK_SEED))
        _prime_plan_cache(engine)
        warm = OpLog()
        for _ in range(self.WARM_ROUNDS):
            self._round(warm)

    def begin(self, log: OpLog) -> None:
        self.engine.ledger.reset()

    def _round(self, log: OpLog) -> None:
        """One submission per session, then one scheduling round."""
        engine, driver = self.engine, self.driver
        for session in driver.sessions:
            due = engine.cost.now_us()
            if session.workload_class == "oltp":
                kind = "txn"
                decision = session.submit(
                    lambda n=self.txns.deal(), d=due: log.tpcc(engine, driver.workload, n, d)
                )
            else:
                kind = "query"
                sql, make_params = self.reads.deal()
                handle = session.prepare(sql)
                params = make_params(driver.rng, driver.config.scale)
                decision = session.submit(
                    lambda h=handle, p=params, d=due: log.query(
                        engine, lambda: h.execute(p), d
                    ),
                    "olap",
                )
            if decision is AdmissionDecision.SHED:
                log.shed(kind)
        self.frontdoor.run_round()

    def block(self, log: OpLog) -> None:
        for _ in range(self.ROUNDS_PER_BLOCK):
            self._round(log)

    def ledger_busy(self) -> tuple[float, float]:
        e = self.engine
        return _max_busy(e.ledger, e.tp_nodes()), _max_busy(e.ledger, e.ap_nodes())

    def check(self) -> list[str]:
        """Every prepared shape, fixed parameters, equals sqlite3."""
        self.frontdoor.drain_all()
        engine = self.engine
        engine.force_sync()
        engine.read_fresh = True
        oracle = SqliteOracle(
            _SCHEMAS.values(), lambda table: scan_rows(engine, table)
        )
        failures = []
        try:
            for name, _weight, sql, _params in PREPARED_STATEMENTS:
                params = CHECK_PARAMS[name]
                got = [tuple(r) for r in engine.execute_prepared(sql, params).rows]
                problem = compare(name, sql, got, oracle.query(sql, params))
                if problem:
                    failures.append(problem)
        finally:
            oracle.close()
        return failures


# ---------------------------------------------------------------- cluster_oltp


class _AckedWriteMix(SkewedWriteMix):
    """The skewed write mix, remembering every acknowledged write."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.acked: list = []

    def _commit(self, writes) -> None:
        super()._commit(writes)
        self.acked.extend(writes)


class ClusterOltp:
    """The 16-node, 16-shard cluster arm with co-location on: the
    skewed write mix beside CH prepared reads, each block drained."""

    name = "cluster_oltp"
    NODES = 16
    #: ClusterScaleoutConfig's scale with 200 initial orders per
    #: district (not 20), for the same reason as the front door's.
    SCALE = TpccScale(districts=8, customers=120, initial_orders=200)
    #: Per block, 14 shuffled decks of the write mix (7 balance, 2
    #: payment, 1 order entry) and 2 of the 18 weighted CH read shapes:
    #: exact proportions in every block (TPC-C's deck-of-cards rule), so
    #: the few expensive scan shapes do not swing the busiest node's
    #: simulated load from seed to seed.
    WRITE_DECKS = 14
    READ_DECKS = 2
    SIM_BLOCKS = 4
    #: 14 blocks leave ten queries beyond the p98 (14 x 36 reads).
    MIN_BLOCKS = 14
    #: The query p90 fell on a ramp just below the jump to the few
    #: expensive scan shapes (about 6% of the reads, 10-35 ms against
    #: 2 ms); p98 sits on their plateau.
    TAIL = {"txn": 95.0, "query": 98.0}
    TXN_LATENCY = None
    QUERY_P50_BY_LABEL = False
    TABLES = ("customer", "history", "orders", "order_line")

    def __init__(self, seed: int) -> None:
        self.config = ClusterScaleoutConfig(
            node_counts=(self.NODES,), seed=seed, scale=self.SCALE
        )
        driver = ClusterScaleoutDriver(self.config)
        self.engine, self.frontdoor = driver._build(self.NODES)
        self.cluster = self.engine.cluster
        # Row-path state before any workload write: the model the
        # output check replays acknowledged writes onto.
        self.initial = {t: self.cluster.row_scan(t) for t in self.TABLES}
        self.mix = _AckedWriteMix(
            self.cluster, self.frontdoor.router, self.config.scale, seed=seed
        )
        self.oltp, self.olap = driver._sessions(self.frontdoor, self.config)
        self.rng = make_rng(seed ^ 0xC105)
        mix = self.mix
        self.writes = Deck(
            [mix.txn_balance] * 7 + [mix.txn_payment] * 2 + [mix.txn_order_entry], self.rng
        )
        self.reads = Deck(READ_CARDS, self.rng)
        _prime_plan_cache(self.engine)
        self.block(OpLog(), write_decks=1, read_decks=1)

    def begin(self, log: OpLog) -> None:
        self.engine.ledger.reset()

    def block(self, log: OpLog, write_decks: int | None = None, read_decks: int | None = None) -> None:
        engine, cfg = self.engine, self.config
        writes = [self.writes.deal() for _ in range(10 * (write_decks or self.WRITE_DECKS))]
        reads = [self.reads.deal() for _ in range(18 * (read_decks or self.READ_DECKS))]
        while writes or reads:
            for session in self.oltp:
                if writes:
                    txn = writes.pop()
                    due = engine.cost.now_us()
                    decision = session.submit(
                        lambda t=txn, d=due: log.run("txn", engine.cost, t, d, t.__name__)
                    )
                    if decision is AdmissionDecision.SHED:
                        log.shed("txn")
            for session in self.olap:
                if reads:
                    sql, make_params = reads.pop()
                    handle = session.prepare(sql)
                    params = make_params(self.rng, cfg.scale)
                    due = engine.cost.now_us()
                    decision = session.submit(
                        lambda h=handle, p=params, d=due: log.query(
                            engine, lambda: h.execute(p), d
                        ),
                        "olap",
                    )
                    if decision is AdmissionDecision.SHED:
                        log.shed("query")
            self.frontdoor.run_round()
        self.frontdoor.drain_all()

    def ledger_busy(self) -> tuple[float, float]:
        e = self.engine
        return _max_busy(e.ledger, e.tp_nodes()), _max_busy(e.ledger, e.ap_nodes())

    def check(self) -> list[str]:
        """Every acknowledged write is present exactly once, with its
        acknowledged value, on the row path and on the columnar replica
        after a forced sync."""
        expected: dict[str, dict] = {}
        for table in self.TABLES:
            key_of = _SCHEMAS[table].key_of
            expected[table] = {key_of(row): row for row in self.initial[table]}
        for op in self.mix.acked:
            if op.kind is WriteKind.DELETE:
                expected[op.table].pop(op.key, None)
            else:
                expected[op.table][_SCHEMAS[op.table].key_of(op.row)] = tuple(op.row)
        self.engine.force_sync()
        failures = []
        for table in self.TABLES:
            schema = _SCHEMAS[table]
            columnar = self.cluster.analytic_scan(table, schema.column_names)
            for path, rows in (
                ("row", self.cluster.row_scan(table)),
                ("columnar", columns_to_rows(schema, columnar.arrays)),
            ):
                failures.extend(_exactly_once(f"{table}/{path}", schema, rows, expected[table]))
        return failures


def _exactly_once(label: str, schema, rows, expected: dict) -> list[str]:
    seen: dict = {}
    duplicates = 0
    for row in rows:
        key = schema.key_of(row)
        if key in seen:
            duplicates += 1
        seen[key] = tuple(row)
    lost = [k for k in expected if k not in seen]
    extra = [k for k in seen if k not in expected]
    wrong = [k for k, row in expected.items() if k in seen and seen[k] != row]
    if duplicates or lost or extra or wrong:
        return [
            f"{label}: {duplicates} duplicated, {len(lost)} lost, {len(extra)} "
            f"unexpected, {len(wrong)} with a value other than acknowledged "
            f"(first lost {lost[:1]!r}, first wrong {wrong[:1]!r})"
        ]
    return []


WORKLOADS = {w.name: w for w in (ChbenchMixed, FrontdoorPoint, ClusterOltp)}
