"""Span tracer for the benchmark's traced run (``--trace 1``).

Every layer is timed from outside: a wrapper goes on each public entry
point a layer exposes, patched where its caller looks the name up (a
``from x import f`` binding in the caller's module, or a class
attribute), and :meth:`Tracer.restore` puts every original back.  No
file under ``src/`` changes.

A span records its id, its parent's id, the layer name, start, end and
the id of the benchmark op it belongs to.  A layer's *self* time is its
spans' duration minus the part their child spans cover, so the self
times of all layers plus the time no wrapper saw (``unattributed``) add
up exactly to the phase's wall time.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict

#: (module, attribute, layer).  ``Class.method`` patches the class.  The
#: order fixes the order of the per-layer metrics.
PATCHES = [
    ("repro.frontend.lower", "parse", "frontend.parse"),
    ("repro.frontend.lower", "lower_program", "frontend.lower"),
    ("repro.analysis.manager", "AnalysisManager.depgraph",
     "analysis.depgraph"),
    ("repro.analysis.depgraph", "DependenceGraph.__init__",
     "analysis.depgraph"),
    ("repro.versioning.api", "VersioningFramework.infer_for_items",
     "versioning.infer"),
    ("repro.versioning.api", "VersioningFramework.infer_independence",
     "versioning.infer"),
    ("repro.versioning.api", "VersioningFramework.infer_schedulability",
     "versioning.infer"),
    ("repro.versioning.plans", "find_cut", "versioning.mincut"),
    ("repro.vectorizer.slp", "optimize_plan", "versioning.condopt"),
    ("repro.versioning.api", "optimize_plan", "versioning.condopt"),
    ("repro.versioning.materialize", "Materializer.materialize_plans",
     "versioning.materialize"),
    ("repro.pipeline.pipelines", "vectorize_function", "vectorizer.slp"),
    ("repro.pipeline.pipelines", "run_simplify", "opt.simplify"),
    ("repro.vectorizer.slp", "run_simplify", "opt.simplify"),
    ("repro.pipeline.pipelines", "run_gvn", "opt.gvn"),
    ("repro.pipeline.pipelines", "run_licm", "opt.licm"),
    ("repro.pipeline.pipelines", "run_dce", "opt.dce"),
    ("repro.vectorizer.slp", "run_dce", "opt.dce"),
    ("repro.rle.rle", "run_dce", "opt.dce"),
    ("repro.pipeline.pipelines", "run_rle", "rle.rle"),
    ("repro.pipeline.pipelines", "verify_module", "ir.verify"),
    ("repro.vectorizer.slp", "verify_function", "ir.verify"),
    ("repro.versioning.api", "verify_function", "ir.verify"),
    ("repro.rle.rle", "verify_function", "ir.verify"),
    ("repro.perf.measure", "optimize", "pipeline.optimize"),
    ("repro.fuzz.oracle", "optimize", "pipeline.optimize"),
    ("repro.service.workers", "optimize", "pipeline.optimize"),
    ("repro.interp.fuse", "fuse_function", "interp.fuse.translate"),
    ("repro.interp", "fuse_function", "interp.fuse.translate"),
    ("repro.interp.array", "array_function", "interp.array.translate"),
    ("repro.interp", "array_function", "interp.array.translate"),
    # ArrayExecutor inherits FusedExecutor.run: the layer follows the
    # executor's class
    ("repro.interp.fuse", "FusedExecutor.run", "interp.fuse.run"),
    ("repro.interp.compile", "CompiledExecutor.run", "interp.compiled.run"),
    ("repro.interp.interpreter", "Interpreter.run", "interp.reference.run"),
    ("repro.perf.measure", "execute", "perf.execute_harness"),
    ("repro.fuzz.oracle", "execute", "perf.execute_harness"),
    ("repro.service.workers", "execute", "perf.execute_harness"),
    ("repro.perf.diskcache", "load", "perf.diskcache.load"),
    ("repro.perf.diskcache", "store", "perf.diskcache.store"),
    ("repro.service.store", "ShardedStore.get", "service.store.get"),
    ("repro.service.store", "ShardedStore.put", "service.store.put"),
    ("repro.service.workers", "handle_task", "service.worker"),
    ("repro.fuzz.campaign", "generate_kernel", "fuzz.generate"),
    ("repro.fuzz.campaign", "mutate_kernel", "fuzz.generate"),
    ("repro.fuzz.campaign", "reference_run", "fuzz.reference"),
    ("repro.fuzz.oracle", "reference_run", "fuzz.reference"),
    ("repro.fuzz.campaign", "screen_kernel", "fuzz.screen"),
    ("repro.fuzz.campaign", "check_kernel", "fuzz.full"),
    ("repro.fuzz.shard", "CampaignStore.record", "fuzz.state"),
    ("repro.fuzz.shard", "CampaignStore.checkpoint", "fuzz.state"),
]

LAYERS = list(dict.fromkeys(layer for _, _, layer in PATCHES)) + [
    "interp.array.run",
]


def _resolve(module: str, attr: str):
    """``(owner, name, original)`` for one patch target."""
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


def _count_plans(tr: "Tracer", res, args) -> None:
    if res is not None and not res.is_empty():
        tr.counts["versioning.plans_inferred"] += 1


def _count_materialized(tr: "Tracer", res, args) -> None:
    tr.counts["versioning.plans_materialized"] += len(args[1])


def _count_slp(tr: "Tracer", res, args) -> None:
    tr.counts["vectorizer.trees"] += res.trees
    tr.counts["vectorizer.rejected"] += (res.rejected_infeasible
                                         + res.rejected_cost
                                         + res.rejected_schedule)


def _count_depgraph_request(tr: "Tracer", res, args) -> None:
    tr.counts["analysis.depgraph_calls"] += 1


def _count_depgraph_build(tr: "Tracer", res, args) -> None:
    tr.counts["analysis.depgraph_builds"] += 1


def _count_load(tr: "Tracer", res, args) -> None:
    tr.counts["perf.diskcache.loads"] += 1
    tr.counts["perf.diskcache.hits"] += res is not None


def _count_store(tr: "Tracer", res, args) -> None:
    # diskcache.store swallows pickling/IO errors and returns None, the
    # same answer it gives when the cache is off: tell the two apart
    from repro.perf import diskcache

    if res is None and diskcache.cache_dir() is not None:
        tr.counts["perf.diskcache.store_failed"] += 1


_AFTER = {
    ("repro.analysis.manager", "AnalysisManager.depgraph"):
        _count_depgraph_request,
    ("repro.analysis.depgraph", "DependenceGraph.__init__"):
        _count_depgraph_build,
    ("repro.versioning.api", "VersioningFramework.infer_for_items"):
        _count_plans,
    ("repro.versioning.api", "VersioningFramework.infer_independence"):
        _count_plans,
    ("repro.versioning.api", "VersioningFramework.infer_schedulability"):
        _count_plans,
    ("repro.versioning.materialize", "Materializer.materialize_plans"):
        _count_materialized,
    ("repro.pipeline.pipelines", "vectorize_function"): _count_slp,
    ("repro.perf.diskcache", "load"): _count_load,
    ("repro.perf.diskcache", "store"): _count_store,
}


class Tracer:
    """In-memory spans plus per-layer self time, call and event counts."""

    def __init__(self, keep: int = 100_000):
        self.keep = keep
        self.spans: list = []  # (id, parent, name, t0, t1, op)
        self.dropped = 0
        self.self_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(float)
        self.ops = 0
        self.t_begin = self.t_end = None
        self._stack: list = []  # frames [id, parent, name, t0, child_s]
        self._next_id = 0
        self._op = None
        self._patches: list = []
        self.restored = None  # set by the caller from restore()

    # -- spans ----------------------------------------------------------------

    def _enter(self, name: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, parent, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        dur = t1 - frame[3]
        self.self_s[frame[2]] += dur - frame[4]
        self.calls[frame[2]] += 1
        if self._stack:
            self._stack[-1][4] += dur
        if len(self.spans) < self.keep:
            self.spans.append((frame[0], frame[1], frame[2], frame[3], t1,
                               self._op))
        else:
            self.dropped += 1

    @contextlib.contextmanager
    def op(self, op_id):
        """The root span of one benchmark op."""
        self._op = op_id
        frame = self._enter("op")
        try:
            yield
        finally:
            self._exit(frame)
            self._op = None
            self.ops += 1

    def begin(self) -> None:
        self.t_begin = time.perf_counter()

    def end(self) -> None:
        self.t_end = time.perf_counter()

    # -- patching -------------------------------------------------------------

    def patch(self, owner, attr: str, original, layer, after=None) -> None:
        tracer = self

        def wrapper(*args, **kwargs):
            name = layer(args) if callable(layer) else layer
            frame = tracer._enter(name)
            try:
                res = original(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(tracer, res, args)
            return res

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every entry point in :data:`PATCHES`."""
        from repro.interp.array import ArrayExecutor

        def executor_layer(args):
            return ("interp.array.run" if isinstance(args[0], ArrayExecutor)
                    else "interp.fuse.run")

        for module, attr, layer in PATCHES:
            owner, name, original = _resolve(module, attr)
            after = _AFTER.get((module, attr))
            if attr == "FusedExecutor.run":
                layer = executor_layer
            self.patch(owner, name, original, layer, after)

    def restore(self) -> bool:
        """Put every original back; True when each target holds it again."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        ok = all(
            (owner.__dict__[attr] if isinstance(owner, type)
             else getattr(owner, attr)) is original
            for owner, attr, original in self._patches
        )
        self._patches.clear()
        return ok

    # -- results --------------------------------------------------------------

    @property
    def wall_s(self) -> float:
        return self.t_end - self.t_begin

    def layer_ms(self) -> dict:
        """Self time per layer in ms, plus ``unattributed``: the phase's
        wall time no layer span covered (bench loop and op-root self)."""
        out = {layer: self.self_s.get(layer, 0.0) * 1e3 for layer in LAYERS}
        out["unattributed"] = self.wall_s * 1e3 - sum(out.values())
        return out

    def write_chrome_trace(self, path) -> None:
        """Chrome ``trace_event`` JSON (load in chrome://tracing or
        Perfetto); spans past ``keep`` are counted, not written."""
        events = [
            {"name": name, "ph": "X", "pid": 1, "tid": 1,
             "ts": (t0 - self.t_begin) * 1e6, "dur": (t1 - t0) * 1e6,
             "args": {"id": sid, "parent": parent, "op": op}}
            for sid, parent, name, t0, t1, op in self.spans
        ]
        with open(path, "w") as f:
            json.dump({"traceEvents": events,
                       "otherData": {"dropped_spans": self.dropped}}, f)
