"""Per-layer metrics of a traced run: span-derived call counts and self
times from :mod:`tracing`, counts the program already keeps in
``repro.obs`` (read as deltas of ``get_registry()`` counter totals over
the traced blocks), and ledger busy time from the cost model."""

from __future__ import annotations

from repro.obs import get_registry

from tracing import CLIENT

#: Registry counters read as before/after deltas around the traced blocks.
COUNTERS = (
    "engine.tp_aborts",
    "engine.tp_commits",
    "plan_cache.hits",
    "plan_cache.misses",
    "scan_cache.hits",
    "scan_cache.misses",
    "scan_cache.invalidations",
    "scan.segments_pruned",
    "scan.segments_scanned",
    "wal.appends",
    "wal.fsyncs",
    "router.stale_retries",
    "commit.single_shard",
    "commit.piggybacked",
    "commit.two_phase",
    "network.sent",
    "network.delivered",
    "session.admitted",
    "session.delayed",
    "session.shed",
)


def registry_counters() -> dict[str, float]:
    registry = get_registry()
    return {name: registry.counter_total(name) for name in COUNTERS}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer, system, log, before, after, traced_s, untraced_s) -> dict:
    times = tracer.reduce()
    d = {name: after[name] - before[name] for name in COUNTERS}
    m: dict[str, tuple[float, str]] = {}

    def layer(name: str) -> None:
        m[f"{name}.calls"] = (times.spans[name], "count")
        m[f"{name}.self_s"] = (times.self_s[name], "s")

    layer("session")
    submitted = d["session.admitted"] + d["session.delayed"] + d["session.shed"]
    m["session.queue_wait_us"] = (_ratio(log.queue_wait_us, log.attempted), "us")
    m["session.shed_frac"] = (_ratio(d["session.shed"], submitted), "ratio")

    lookups = d["plan_cache.hits"] + d["plan_cache.misses"]
    m["plan_cache.lookups"] = (lookups, "count")
    m["plan_cache.hit_ratio"] = (_ratio(d["plan_cache.hits"], lookups), "ratio")
    m["plan_cache.self_s"] = (times.self_s["plan_cache"], "s")

    layer("parser")
    layer("optimizer")
    layer("executor")
    m["executor.rows_out"] = (tracer.result_counts.get("executor:Executor.execute", 0), "count")

    scans = d["scan_cache.hits"] + d["scan_cache.misses"]
    m["scan_cache.lookups"] = (scans, "count")
    m["scan_cache.hit_ratio"] = (_ratio(d["scan_cache.hits"], scans), "ratio")
    m["scan_cache.invalidations"] = (d["scan_cache.invalidations"], "count")
    m["scan_cache.invalidate_s"] = (times.name_self_s.get("scan_cache:ScanCache.invalidate", 0.0), "s")

    layer("storage")
    segments = d["scan.segments_pruned"] + d["scan.segments_scanned"]
    m["storage.segments_pruned_ratio"] = (_ratio(d["scan.segments_pruned"], segments), "ratio")

    layer("schema")
    layer("txn")
    finished = d["engine.tp_commits"] + d["engine.tp_aborts"]
    m["txn.abort_ratio"] = (_ratio(d["engine.tp_aborts"], finished), "ratio")

    m["wal.appends"] = (d["wal.appends"], "count")
    m["wal.fsyncs"] = (d["wal.fsyncs"], "count")
    m["wal.self_s"] = (times.self_s["wal"], "s")
    m["wal.records_per_fsync"] = (_ratio(d["wal.appends"], d["wal.fsyncs"]), "ratio")

    layer("sync")
    layer("router")
    m["router.stale_retries"] = (d["router.stale_retries"], "count")
    layer("cluster")
    paths = d["commit.single_shard"] + d["commit.piggybacked"] + d["commit.two_phase"]
    m["cluster.single_shard_ratio"] = (_ratio(d["commit.single_shard"], paths), "ratio")

    ticks = tracer.calls_of("raft:RaftNode.tick")
    m["raft.ticks"] = (ticks, "count")
    m["raft.proposals"] = (
        tracer.calls_of("raft:RaftNode.client_propose", "raft:RaftNode.client_propose_batch"),
        "count",
    )
    m["raft.self_s"] = (times.self_s["raft"], "s")
    m["raft.ticks_per_commit"] = (_ratio(ticks, paths), "ratio")

    m["network.sends"] = (d["network.sent"], "count")
    m["network.deliveries"] = (d["network.delivered"], "count")
    m["network.self_s"] = (times.self_s["network"], "s")

    m["replica.applies"] = (
        tracer.calls_of(
            "replica:ColumnarReplica.learner_apply",
            "replica:ColumnarReplica.learner_apply_batch",
        ),
        "count",
    )
    m["replica.self_s"] = (times.self_s["replica"], "s")
    layer("scheduler")

    tp_busy, ap_busy = system.ledger_busy()
    m["ledger.tp_busy_us"] = (tp_busy, "us")
    m["ledger.ap_busy_us"] = (ap_busy, "us")

    m["trace.overhead_ratio"] = (_ratio(traced_s, untraced_s), "ratio")
    in_layers = times.top_level_s - times.self_s[CLIENT]
    m["trace.unattributed_frac"] = (1.0 - _ratio(in_layers, traced_s), "ratio")
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in m.items()}
