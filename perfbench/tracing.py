"""Outside-in layer tracing: wrappers around each layer's public entry
points, installed from the benchmark's own files.

Nothing under ``src/`` knows about this module.  :class:`LayerTracer`
replaces the listed functions on their classes (and ``parse`` in every
``repro`` module that imported it) with recording wrappers, and
:meth:`LayerTracer.uninstall` puts the originals back.  Objects built
while the wrappers are installed may keep wrapped bound methods (e.g. a
Raft tick registered as a network callback); once the tracer is
disarmed those wrappers only pass calls through.

A span is recorded when control *enters* a layer: a call from a layer
into itself (a storage method calling another storage method) adds no
span, only a call count.  Each span stores its name, start, end (wall
``perf_counter`` seconds), parent span and the request id the
benchmark set when it issued the operation.  Spans stay in memory in
flat arrays and are written out once, at the end of the run.

A layer's *self* time is the time its spans cover minus the time their
child spans cover.  The wrapper's own bookkeeping falls outside the
child's interval, so tracing overhead lands in the caller's self time
(or, at the top level, in the unattributed share).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

CLIENT = "client"

#: Layer -> [(module, class name or None for a module function, methods)].
#: ``"*"`` wraps every public plain function the class itself defines.
LAYERS: dict[str, list[tuple[str, str | None, tuple[str, ...]]]] = {
    "session": [
        ("repro.session.frontdoor", "FrontDoor", ("submit", "run_round")),
        ("repro.session.admission", "AdmissionController", ("admit",)),
    ],
    "plan_cache": [("repro.query.plan_cache", "PlanCache", ("*",))],
    "parser": [("repro.query.parser", None, ("parse",))],
    "optimizer": [("repro.query.optimizer", "Planner", ("plan",))],
    "executor": [("repro.query.executor", "Executor", ("execute",))],
    "scan_cache": [("repro.query.scan_cache", "ScanCache", ("*",))],
    "storage": [
        ("repro.storage.row_store", "MVCCRowStore", ("*",)),
        ("repro.storage.disk_row_store", "DiskRowStore", ("*",)),
        ("repro.storage.column_store", "ColumnStore", ("*",)),
        ("repro.storage.imcu", "InMemoryColumnUnit", ("*",)),
        ("repro.storage.delta_store", "InMemoryDeltaStore", ("*",)),
    ],
    "schema": [("repro.common.types", "Schema", ("key_of", "validate_row"))],
    "txn": [
        ("repro.txn.transaction", "TransactionManager", ("*",)),
        ("repro.txn.transaction", "Transaction", ("*",)),
        # The per-architecture OLTP sessions (engines (c) and (d) commit
        # without a TransactionManager).
        ("repro.engines.row_imcs", "_RowImcsSession", ("*",)),
        ("repro.engines.disk_row_imcs", "_HeatwaveSession", ("*",)),
        ("repro.engines.column_delta", "_HanaSession", ("*",)),
    ],
    "wal": [("repro.txn.wal", "WriteAheadLog", ("*",))],
    "sync": [
        ("repro.engines.base", "HTAPEngine", ("sync",)),
        ("repro.engines.row_imcs", "RowIMCSEngine", ("force_sync",)),
        ("repro.engines.disk_row_imcs", "DiskRowIMCSEngine", ("force_sync",)),
        ("repro.engines.column_delta", "ColumnDeltaEngine", ("force_sync",)),
        ("repro.engines.distributed_replica", "DistributedReplicaEngine", ("force_sync",)),
    ],
    "router": [("repro.distributed.router", "Router", ("*",))],
    "cluster": [
        (
            "repro.distributed.cluster",
            "DistributedCluster",
            ("execute_transaction", "read", "row_scan", "analytic_scan"),
        ),
    ],
    "raft": [
        ("repro.distributed.raft", "RaftNode", ("tick", "client_propose", "client_propose_batch")),
        ("repro.distributed.raft", "RaftGroup", ("propose_and_wait", "propose_batch_and_wait")),
    ],
    "network": [
        ("repro.distributed.network", "SimNetwork", ("send", "broadcast", "deliver_due", "advance")),
    ],
    "replica": [
        (
            "repro.distributed.replica",
            "ColumnarReplica",
            ("learner_apply", "learner_apply_batch", "merge_deltas", "scan"),
        ),
    ],
    "scheduler": [("repro.scheduler.workload_driven", "WorkloadDrivenScheduler", ("allocate",))],
    # Not a program layer: the benchmark's per-operation bookkeeping and
    # the workload clients' own logic (a TPC-C transaction body between
    # its engine calls).  Its self time counts as unattributed, not as
    # the self time of the layer that called it (the front door runs
    # queued operations from inside ``run_round``).
    CLIENT: [("workloads", "OpLog", ("run", "tpcc", "query"))],
}

#: Span names whose results feed a per-layer count (name -> extractor).
RESULT_COUNTS: dict[str, Callable[[Any], int]] = {
    "executor:Executor.execute": lambda result: len(result.rows),
}


def _public_functions(cls: type) -> list[str]:
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_")
        and inspect.isfunction(value)
        and not inspect.isgeneratorfunction(value)
    ]


class LayerTracer:
    """Installs, arms and removes the layer wrappers; holds the spans."""

    def __init__(self) -> None:
        self.layers: list[str] = list(LAYERS)
        self.names: list[str] = []
        self.name_layer: list[int] = []
        #: Every wrapped call, re-entrant ones included, per span name.
        self.calls: list[int] = []
        self.result_counts: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_req = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.request = 0
        self.armed = False
        self._idx_stack = [-1]
        self._layer_stack = [-1]
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("layer tracer already installed")
        for lid, layer in enumerate(self.layers):
            for module_name, class_name, methods in LAYERS[layer]:
                module = importlib.import_module(module_name)
                if class_name is None:
                    for fn_name in methods:
                        self._patch_function(module, fn_name, layer, lid)
                    continue
                cls = getattr(module, class_name)
                names = _public_functions(cls) if methods == ("*",) else methods
                for method in names:
                    original = vars(cls)[method]
                    span = f"{layer}:{class_name}.{method}"
                    self._patch(cls, method, original, self._wrap(original, span, lid))

    def _patch_function(self, module, fn_name: str, layer: str, lid: int) -> None:
        """Wrap a module function everywhere ``repro`` bound it by name."""
        original = getattr(module, fn_name)
        wrapped = self._wrap(original, f"{layer}:{fn_name}", lid)
        for name, mod in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and getattr(
                mod, fn_name, None
            ) is original:
                self._patch(mod, fn_name, original, wrapped)

    def _patch(self, owner: Any, attr: str, original: Any, wrapped: Any) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        self.armed = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def set_request(self, request_id: int) -> None:
        self.request = request_id

    def _wrap(self, fn: Callable, span: str, lid: int) -> Callable:
        nid = len(self.names)
        self.names.append(span)
        self.name_layer.append(lid)
        self.calls.append(0)
        count_result = RESULT_COUNTS.get(span)
        perf = time.perf_counter
        calls = self.calls
        idx_stack = self._idx_stack
        layer_stack = self._layer_stack
        span_name, span_parent, span_req = self.span_name, self.span_parent, self.span_req
        span_start, span_end = self.span_start, self.span_end
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.armed:
                return fn(*args, **kwargs)
            calls[nid] += 1
            if layer_stack[-1] == lid:
                return fn(*args, **kwargs)
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(idx_stack[-1])
            span_req.append(tracer.request)
            span_start.append(0.0)
            span_end.append(0.0)
            idx_stack.append(idx)
            layer_stack.append(lid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                idx_stack.pop()
                layer_stack.pop()
                span_start[idx] = t0
                span_end[idx] = t1
            if count_result is not None:
                tracer.result_counts[span] = tracer.result_counts.get(span, 0) + count_result(result)
            return result

        return traced

    # ------------------------------------------------------------ reduce

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.span_parent, dtype=np.int64),
            "request": np.frombuffer(self.span_req, dtype=np.int64),
            "start": np.frombuffer(self.span_start, dtype=np.float64),
            "end": np.frombuffer(self.span_end, dtype=np.float64),
        }

    def reduce(self) -> "LayerTimes":
        """Per-layer span count, self time and covered time; per-name
        self time; the wall time covered by top-level spans."""
        a = self.arrays()
        n_layers = len(self.layers)
        name_layer = np.asarray(self.name_layer, dtype=np.int64)
        span_layer = name_layer[a["name"]] if len(a["name"]) else np.zeros(0, np.int64)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child_of = a["parent"][has_parent]
        # Self time per span: its duration minus its children's.
        self_time = dur.copy()
        np.subtract.at(self_time, child_of, dur[has_parent])
        spans = np.bincount(span_layer, minlength=n_layers)
        layer_self = np.bincount(span_layer, weights=self_time, minlength=n_layers)
        name_self = np.bincount(a["name"], weights=self_time, minlength=len(self.names))
        return LayerTimes(
            spans={layer: int(spans[i]) for i, layer in enumerate(self.layers)},
            self_s={layer: float(layer_self[i]) for i, layer in enumerate(self.layers)},
            name_self_s={name: float(name_self[i]) for i, name in enumerate(self.names)},
            top_level_s=float(dur[~has_parent].sum()),
        )

    def write(self, path: Path) -> None:
        """Write every span (plus the name and layer tables) as ``.npz``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.asarray(self.names),
            name_layer=np.asarray(self.name_layer, dtype=np.int32),
            layers=np.asarray(self.layers),
            **self.arrays(),
        )

    def calls_of(self, *span_names: str) -> int:
        index = {name: i for i, name in enumerate(self.names)}
        return sum(self.calls[index[name]] for name in span_names if name in index)


@dataclass
class LayerTimes:
    spans: dict[str, int]
    self_s: dict[str, float]
    name_self_s: dict[str, float]
    top_level_s: float
