"""The repository benchmark: one command, three workloads, both clocks.

Usage (from the repository root)::

    python3 perfbench/run.py --workload chbench_mixed --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the same work twice, untraced and then with the
layer wrappers of ``tracing.py`` installed, and reports the per-layer
metrics plus the tracing overhead; its spans are written to
``.perfbench_out/``.  Every run checks the program's outputs against
an independent oracle.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it is a JSON report with the seed, the host, the sample
count and percentile behind every latency, and any check failure.

See ``perfbench/README.md`` for the workloads, metrics and the layer
interactions they are meant to expose.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(".perfbench_out")

#: Fresh systems built per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Share of ``--seconds`` the traced run spends on its untraced pass.
TRACE_SHARE = 0.25


def _parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _host() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _build(workload_cls, seed: int):
    """A fresh system, its set-up wall time, and that time in reference
    seconds (``hostspeed``: reference samples every 0.2 s of it, from an
    interval timer, their own time left out of both).

    The set-up's objects are then frozen out of the cyclic collector
    (``gc.freeze``), so a full collection in the measured phase does not
    rescan the loaded database: a pause that grows with the data, not
    with the work measured, and lands inside whichever operation is
    running.  Collections of what the measured phase allocates still
    count.
    """
    from hostspeed import HostSpeed

    # Collect whatever earlier systems left behind, frozen or not.
    gc.unfreeze()
    gc.collect()
    host = HostSpeed()
    host.sample()
    with host.sampling_timer():
        system = workload_cls(seed)
    host.sample()
    gc.freeze()
    elapsed, reference = host.between_samples()
    return system, elapsed, reference


def _run_blocks(system, log, min_blocks: int, seconds: float | None, max_blocks: int | None = None):
    """Run blocks until at least ``min_blocks`` (and the simulated window)
    ran and ``seconds`` of wall time passed, or exactly ``max_blocks``;
    returns (blocks, wall_s, simulated window).  A log that carries a
    :class:`HostSpeed` gets a reference sample at each end."""
    from workloads import SimWindow

    system.begin(log)
    if log.host is not None:
        log.host.sample()
    window = None
    blocks = 0
    t0 = time.perf_counter()
    while True:
        system.block(log)
        blocks += 1
        if blocks == system.SIM_BLOCKS:
            window = SimWindow(log, *system.ledger_busy())
        if max_blocks is not None:
            if blocks >= max_blocks:
                break
        elif blocks >= max(min_blocks, system.SIM_BLOCKS) and time.perf_counter() - t0 >= seconds:
            break
    wall_s = time.perf_counter() - t0
    if log.host is not None:
        log.host.sample()
    return blocks, wall_s, window


def _sim_metrics(workload_cls, w) -> tuple[dict, dict]:
    from stats import select, summarize

    txn = summarize(
        select(w.sim["txn"], w.label["txn"], workload_cls.TXN_LATENCY),
        workload_cls.TAIL["txn"],
    )
    query = summarize(w.sim["query"], workload_cls.TAIL["query"])
    metrics = {
        "sim_tp_per_s": _metric(w.txns / (w.tp_busy_us / 1e6), "1/s"),
        "sim_ap_per_s": _metric(w.queries / (w.ap_busy_us / 1e6), "1/s"),
        "sim_txn_tail_us": _metric(txn["tail"], "us"),
        "sim_query_tail_us": _metric(query["tail"], "us"),
        "sim_freshness_lag": _metric(sum(w.freshness) / len(w.freshness), "ts"),
    }
    samples = {
        "sim_txn_tail_us": {"pct": txn["tail_pct"], "n": txn["n"]},
        "sim_query_tail_us": {"pct": query["tail_pct"], "n": query["n"]},
    }
    return metrics, samples


def _wall_figures(workload_cls, log, phase_s: float, wall: dict, busy_s: dict) -> tuple[dict, dict]:
    """Throughputs and latency percentiles from per-operation times
    (``wall``, parallel to ``log.label``), the summed time inside the
    operations (``busy_s``) and the measured phase's length."""
    from stats import geomean_of_label_medians, select, summarize

    txn_ms = [s * 1e3 for s in select(wall["txn"], log.label["txn"], workload_cls.TXN_LATENCY)]
    query_ms = [s * 1e3 for s in wall["query"]]
    txn = summarize(txn_ms, workload_cls.TAIL["txn"])
    query = summarize(query_ms, workload_cls.TAIL["query"])
    query_p50 = {"pct": 50.0, "n": query["n"]}
    if workload_cls.QUERY_P50_BY_LABEL:
        query["p50"] = geomean_of_label_medians(query_ms, log.label["query"])
        query_p50["of"] = "geometric mean of per-(engine, query) medians"
    figures = {
        "ops_per_s": (log.done["txn"] + log.done["query"]) / phase_s,
        "txn_per_s": log.done["txn"] / busy_s["txn"],
        "query_per_s": log.done["query"] / busy_s["query"],
        "txn_p50_ms": txn["p50"],
        "txn_tail_ms": txn["tail"],
        "query_p50_ms": query["p50"],
        "query_tail_ms": query["tail"],
    }
    percentiles = {
        "txn_latency_of": sorted(workload_cls.TXN_LATENCY or ["all"]),
        "txn_p50_ms": {"pct": 50.0, "n": txn["n"]},
        "txn_tail_ms": {"pct": txn["tail_pct"], "n": txn["n"]},
        "query_p50_ms": query_p50,
        "query_tail_ms": {"pct": query["tail_pct"], "n": query["n"]},
    }
    return figures, percentiles


def untraced_run(workload_cls, seed: int, seconds: float) -> tuple[dict, dict, bool]:
    import numpy as np

    from hostspeed import REF_S, HostSpeed
    from workloads import OpLog

    setup_raw_s, setup_s = [], []
    for _ in range(SETUP_REPS - 2):
        system, elapsed, reference = _build(workload_cls, seed)
        setup_raw_s.append(elapsed)
        setup_s.append(reference)
        del system
    # Determinism self-check: a second fresh system from the same seed
    # must reproduce the simulated window bit for bit.
    replica, elapsed, reference = _build(workload_cls, seed)
    setup_raw_s.append(elapsed)
    setup_s.append(reference)
    replica_log = OpLog()
    _, _, replica_window = _run_blocks(
        replica, replica_log, 0, None, max_blocks=workload_cls.SIM_BLOCKS
    )
    del replica, replica_log

    system, elapsed, reference = _build(workload_cls, seed)
    setup_raw_s.append(elapsed)
    setup_s.append(reference)
    host = HostSpeed()
    log = OpLog(host=host)
    blocks, wall_s, window = _run_blocks(system, log, workload_cls.MIN_BLOCKS, seconds)
    failures = system.check()

    sim, sim_samples = _sim_metrics(workload_cls, window)
    replica_sim, _ = _sim_metrics(workload_cls, replica_window)
    determinism = {
        "sim_equal": sim == replica_sim,
        "failed_equal": (window.attempted, window.failed)
        == (replica_window.attempted, replica_window.failed),
        "outputs_equal": window.digest == replica_window.digest,
    }
    if not all(determinism.values()):
        failures.append(f"determinism: same-seed simulated windows differ {determinism}")

    # Raw wall figures, and the same in reference seconds (hostspeed.py).
    phase_wall_s, phase_reference_s = host.between_samples()
    raw_busy = {k: sum(log.busy_wall[k]) for k in log.KINDS}
    raw, percentiles = _wall_figures(workload_cls, log, phase_wall_s, log.wall, raw_busy)
    reference_wall = {
        k: list(np.asarray(log.wall[k]) * host.scale_at(log.wall_at[k])) for k in log.KINDS
    }
    reference_busy = {
        k: host.reference_seconds(log.busy_at[k], log.busy_wall[k]) for k in log.KINDS
    }
    figures, _ = _wall_figures(workload_cls, log, phase_reference_s, reference_wall, reference_busy)
    units = {"ops_per_s": "1/s", "txn_per_s": "1/s", "query_per_s": "1/s"}
    metrics = {name: _metric(value, units.get(name, "ms")) for name, value in figures.items()}
    metrics.update(
        {
            "setup_s": _metric(statistics.median(setup_s), "s"),
            "rss_peak_mb": _metric(window.rss_peak_mb, "MB"),
            **sim,
        }
    )
    raw["setup_s"] = statistics.median(setup_raw_s)
    report = {
        "blocks": blocks,
        "measured_s": wall_s,
        "setup_samples_s": setup_s,
        "raw_wall": raw,
        "host_speed": {
            "reference_s": REF_S,
            "samples": len(host.durations),
            "median_sample_s": statistics.median(host.durations),
            "sampling_share": sum(host.durations) / wall_s,
        },
        "attempted": log.attempted,
        "failed": log.failures,
        "error_rate": log.failures / log.attempted,
        "percentiles": {**percentiles, **sim_samples},
        "sim_window": {
            "blocks": workload_cls.SIM_BLOCKS,
            "attempted": window.attempted,
            "failed": window.failed,
            "error_rate": window.failed / window.attempted,
        },
        "determinism": determinism,
        "check_failures": failures,
    }
    return metrics, report, not failures


def traced_run(workload_cls, seed: int, seconds: float) -> tuple[dict, dict, bool]:
    from layers import per_layer_metrics, registry_counters
    from tracing import LayerTracer
    from workloads import OpLog

    # Untraced pass: the reference wall time for the same blocks.
    system, _, _ = _build(workload_cls, seed)
    blocks, untraced_s, _ = _run_blocks(
        system, OpLog(), workload_cls.SIM_BLOCKS, seconds * TRACE_SHARE
    )
    del system

    tracer = LayerTracer()
    tracer.install()
    try:
        system, _, _ = _build(workload_cls, seed)
        log = OpLog(on_request=tracer.set_request)
        before = registry_counters()
        tracer.armed = True
        _, traced_s, _ = _run_blocks(system, log, 0, None, max_blocks=blocks)
        tracer.armed = False
        after = registry_counters()
    finally:
        tracer.uninstall()
    failures = system.check()
    metrics = per_layer_metrics(tracer, system, log, before, after, traced_s, untraced_s)
    spans_path = OUT_DIR / f"spans-{workload_cls.name}-seed{seed}.npz"
    tracer.write(spans_path)
    report = {
        "blocks": blocks,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": len(tracer.span_start),
        "spans_file": str(spans_path),
        "attempted": log.attempted,
        "failed": log.failures,
        "error_rate": log.failures / log.attempted,
        "check_failures": failures,
    }
    return metrics, report, not failures


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload_cls = WORKLOADS.get(args.workload)
    if workload_cls is None:
        print(f"perfbench: unknown workload {args.workload!r} ({', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    run = traced_run if args.trace else untraced_run
    metrics, report, correct = run(workload_cls, args.seed, args.seconds)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": _host(),
        **report,
    }
    print(json.dumps(report, sort_keys=True))
    for failure in report["check_failures"]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": report["attempted"],
                "failed": report["failed"],
                # A failing check reports the failure instead of numbers.
                "metrics": metrics if correct else {},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
