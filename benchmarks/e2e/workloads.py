"""The four workloads of the end-to-end benchmark, one per process.

``run.py`` starts this file in a fresh interpreter for every set-up
sample and every measured run, with ``PYTHONPATH`` pointing at the
checkout's ``src`` and every ``REPRO_*`` variable removed from the
environment.  The process sets the workload up, runs a fixed number of
ops (``--seconds`` times the workload's rate on the box it was sized
on), checks the outputs against ``expected.json`` (O0
reference-interpreter checksums, independent of the optimizing
pipeline under test) and writes one result JSON for ``run.py``.

Workloads (``--workload``):

* ``cold-build``  -- build a corpus kernel at ``supervec+v`` without any
  cache, execute it on the fused backend (fresh module, so translation
  is paid) and check its checksum;
* ``exec-scaled`` -- one fused execute of a prebuilt polybench kernel at
  4x sizes (builds and translation happen in set-up);
* ``service-mix`` -- one request to a ``repro.service`` daemon: half
  ``run`` of a stored polybench kernel, half ``build`` of a unique
  corpus source shipped back as an artifact;
* ``campaign``    -- one task of a coverage-guided fuzz campaign.

The seed fixes the order of kernels and requests.  It does not pick the
campaign's fuzz seeds: one window's cost differs from another's by up to
1.7x, far more than any bound could absorb, so every run fuzzes the
same window.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from before the first repro import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

from repro.interp import fuse_function  # noqa: E402
from repro.perf import measure  # noqa: E402
from repro.perf.measure import AliasArg, ArrayArg  # noqa: E402
from repro.workloads import polybench, speclike, tsvc  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

LEVEL = "supervec+v"
#: ``verified_run``'s checksum tolerance
TOL = 1e-6
#: a p90 needs at least ten samples beyond it
MIN_OPS = 100
#: polybench scale factor of ``exec-scaled``
SCALE = 4
#: fuzz seeds whose kernels give the campaign's cycles and code size
QUALITY_SEEDS = 32
#: global arrays are fingerprinted over this many elements (TSVC's
#: largest global holds 144)
GLOBAL_PROBE = 256

SUITES = {"polybench": (polybench, ("N", "M", "L")),
          "tsvc": (tsvc, ("LEN", "LEN2")),
          "speclike": (speclike, ("N",))}


class Refused(Exception):
    """``expected.json`` does not describe the kernel about to run."""


# -- inputs and their expected outputs ---------------------------------------


def corpus() -> list:
    """``(suite, workload)`` for the 63 corpus kernels at paper sizes."""
    return [(suite, w) for suite, (mod, _) in SUITES.items()
            for w in mod.workloads()]


def describe(suite: str, w) -> dict:
    """What an ``expected.json`` entry is keyed by: the source, the full
    input data, and the suite's problem sizes."""
    h = hashlib.sha256()
    for a in w.args:
        if isinstance(a, ArrayArg):
            vals = [float(a.init(i)) for i in range(a.size)]
            h.update(repr(("array", a.name, a.size, a.check, vals)).encode())
        elif isinstance(a, AliasArg):
            h.update(repr(("alias", a.name, a.of, a.offset)).encode())
        else:
            h.update(repr(("scalar", a.name, a.value)).encode())
    for g in sorted(w.globals_init):
        init = w.globals_init[g]
        vals = [float(init(i)) for i in range(GLOBAL_PROBE)]
        h.update(repr(("global", g, vals)).encode())
    mod, size_names = SUITES[suite]
    return {
        "source_sha256": hashlib.sha256(w.source.encode()).hexdigest(),
        "input_sha256": h.hexdigest(),
        "sizes": {n: getattr(mod, n) for n in size_names},
    }


def entry_key(w, scale: int) -> str:
    return f"{w.name}@x{scale}"


class Expected:
    """Reference checksums; a kernel the file does not describe exactly
    is refused, never re-derived."""

    def __init__(self, path: Path = EXPECTED_PATH):
        with open(path) as f:
            self.entries = json.load(f)["kernels"]

    def checksum(self, suite: str, w, scale: int = 1) -> float:
        key = entry_key(w, scale)
        want = self.entries.get(key)
        if want is None:
            raise Refused(f"expected.json has no entry {key!r}")
        got = describe(suite, w)
        for field in ("source_sha256", "input_sha256", "sizes"):
            if want[field] != got[field]:
                raise Refused(
                    f"expected.json entry {key!r}: {field} is "
                    f"{got[field]!r}, the file records {want[field]!r}; "
                    "the kernel or its inputs changed, so its reference "
                    "checksum is unknown.  Rebuild the file with "
                    "`python3 benchmarks/e2e/run.py --regen-expected`.")
        return want["checksum"]


def regen_expected() -> None:
    """Rebuild ``expected.json``: every corpus kernel at paper sizes and
    every polybench kernel at ``SCALE``x, built at O0 and run on the
    reference interpreter."""
    entries = {}

    def add(suite, w, scale):
        module, stats = measure.build(w, "O0", use_cache=False)
        res = measure.execute(module, w, stats, backend="reference")
        entries[entry_key(w, scale)] = {**describe(suite, w),
                                        "checksum": res.checksum}
        print(f"  {entry_key(w, scale)}: {res.checksum!r}", file=sys.stderr,
              flush=True)

    for suite, w in corpus():
        add(suite, w, 1)
    with polybench.scaled(SCALE):
        for w in polybench.workloads():
            add("polybench", w, SCALE)
    doc = {"level": "O0", "backend": "reference", "tolerance": TOL,
           "kernels": dict(sorted(entries.items()))}
    with open(EXPECTED_PATH, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


# -- bookkeeping shared by the workloads ----------------------------------------


def percentile_metrics(lat_s: list, elapsed: float) -> dict:
    lat_ms = [x * 1e3 for x in lat_s]
    deciles = statistics.quantiles(lat_ms, n=10, method="inclusive")
    return {
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": deciles[8],
        "throughput_ops_per_s": len(lat_s) / elapsed,
    }


class Outcome:
    """Failed ops by kind and output-check errors of one process."""

    def __init__(self):
        self.failed: dict = {}
        self.errors: list = []
        self.n_errors = 0
        self.cycles: dict = {}
        self.checksums: dict = {}
        self.code_size: dict = {}

    def fail(self, kind: str, detail: str) -> None:
        """An op that raised or was refused: counted, not a wrong output."""
        self.failed[kind] = self.failed.get(kind, 0) + 1
        if len(self.errors) < 20:
            self.errors.append(f"failed op ({kind}): {detail}")

    def error(self, msg: str) -> None:
        """A wrong output: the run is not correct."""
        self.n_errors += 1
        if len(self.errors) < 20:
            self.errors.append(msg)

    def result(self, name: str, checksum: float, cycles, code_size: int,
               want: float) -> None:
        """Check one output: checksum against the reference, cycles
        against this kernel's earlier runs."""
        if not math.isclose(checksum, want, rel_tol=TOL, abs_tol=TOL):
            self.error(f"{name}: checksum {checksum!r} != reference {want!r}")
        prev = self.cycles.setdefault(name, cycles)
        if prev != cycles:
            self.error(f"{name}: cycles {cycles!r} != {prev!r} earlier")
        self.checksums.setdefault(name, checksum)
        self.code_size[name] = code_size

    def quality(self) -> dict:
        # kernel-name order: the run order depends on the seed, and a
        # float sum in another order can differ in its last bit
        return {"sim_cycles_geomean": measure.geomean(
                    [self.cycles[k] for k in sorted(self.cycles)]),
                "code_size_total": sum(self.code_size.values())}


def op_span(tracer, op_id):
    return tracer.op(op_id) if tracer is not None else contextlib.nullcontext()


# -- workloads ------------------------------------------------------------------


class Workload:
    name = ""
    #: ops per second on the 2-core box the benchmark was sized on.  A
    #: run's length is a fixed op count, ``--seconds`` times this rate:
    #: every uncached build leaves memory behind (see README), so a
    #: time-bounded run's heap, peak RSS and collector pauses would
    #: follow the machine's speed instead of the code's.
    rate = 1.0

    def __init__(self, args):
        self.seed = args.seed
        self.quick = args.quick
        self.work = Path(args.work)
        self.min_ops = 8 if args.quick else MIN_OPS
        self.out = Outcome()

    def length(self, seconds: float, floor: int | None = None) -> int:
        floor = self.min_ops if floor is None else floor
        return max(floor, math.ceil(seconds * self.rate))

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, n: int, tracer=None, tag: str = "m") -> dict:
        """One timed phase of at least ``n`` ops:
        ``{"lat", "elapsed", "attempted", ...}``."""
        raise NotImplementedError

    def trace(self, seconds: float, tracer) -> dict:
        """``{"untraced": [phase, ...], "traced": phase, "extra": {}}``;
        the throughput gap between the two is the tracing overhead."""
        raise NotImplementedError

    def quality(self) -> dict:
        return self.out.quality()

    def close(self) -> None:
        pass


def traced(tracer, phase):
    """Run ``phase()`` with every layer wrapper installed."""
    tracer.install()
    tracer.begin()
    try:
        return phase()
    finally:
        tracer.end()
        tracer.restored = tracer.restore()


class PassWorkload(Workload):
    """Whole seeded passes over a fixed kernel list, so every run
    measures the same mix of kernels; ``items`` are tuples that start
    with the workload and end with its reference checksum."""

    @staticmethod
    def op(item):
        raise NotImplementedError

    def measure(self, n, tracer=None, tag="m"):
        lat: list = []
        attempted = 0
        passes = math.ceil(n / len(self.items))
        t0 = time.perf_counter()
        for p in range(passes):
            order = list(self.items)
            random.Random(f"{self.seed}:{tag}:{p}").shuffle(order)
            for item in order:
                w, want = item[0], item[-1]
                attempted += 1
                a = time.perf_counter()
                try:
                    with op_span(tracer, attempted):
                        res = self.op(item)
                except Exception as e:  # counted per kind, run goes on
                    self.out.fail(type(e).__name__, f"{w.name}: {e}")
                    continue
                lat.append(time.perf_counter() - a)
                self.out.result(w.name, res.checksum, res.cycles,
                                res.code_size, want)
        return {"lat": lat, "elapsed": time.perf_counter() - t0,
                "attempted": attempted, "passes": passes}

    def trace(self, seconds, tracer):
        """A warm-up pass, then untraced / traced / untraced phases of a
        quarter, a half and a quarter of the run: a slow drift over the
        run (the heap keeps growing) weighs on both sides alike."""
        quarter = self.length(seconds / 4, floor=1)
        self.measure(1, tag="w")
        first = self.measure(quarter, tag="u1")
        phase = traced(tracer, lambda: self.measure(2 * quarter, tracer,
                                                    tag="t"))
        last = self.measure(quarter, tag="u2")
        return {"untraced": [first, last], "traced": phase, "extra": {}}


class ColdBuild(PassWorkload):
    name = "cold-build"
    rate = 63

    def setup(self):
        expected = Expected()
        kernels = corpus()
        if self.quick:
            kernels = kernels[::4]
        self.items = [(w, expected.checksum(suite, w)) for suite, w in kernels]

    @staticmethod
    def op(item):
        w, _ = item
        module, stats = measure.build(w, LEVEL, use_cache=False)
        return measure.execute(module, w, stats, backend="fused")


class ExecScaled(PassWorkload):
    name = "exec-scaled"
    rate = 5
    QUICK = ("atax", "bicg", "mvt", "gesummv", "jacobi-1d", "trisolv",
             "lu", "ludcmp")

    def setup(self):
        # kernel inputs read the scaled sizes when they run, so the
        # process stays inside the scaled context until it exits
        self._scaled = contextlib.ExitStack()
        self._scaled.enter_context(polybench.scaled(SCALE))
        expected = Expected()
        self.items = []
        for w in polybench.workloads():
            if self.quick and w.name not in self.QUICK:
                continue
            want = expected.checksum("polybench", w, SCALE)
            module, stats = measure.build(w, LEVEL, use_cache=False)
            for fn in module.functions.values():
                fuse_function(fn)
            self.items.append((w, module, stats, want))

    @staticmethod
    def op(item):
        w, module, stats, _ = item
        return measure.execute(module, w, stats, backend="fused")

    def close(self):
        self._scaled.close()


def _series(snap: dict, name: str) -> list:
    for fam in snap["metrics"]:
        if fam["name"] == name:
            return fam["series"]
    return []


def _delta(before: dict, after: dict, name: str, field: str = "value",
           **labels) -> float:
    def total(snap):
        return sum(s.get(field, 0) for s in _series(snap, name)
                   if all(s["labels"].get(k) == v for k, v in labels.items()))
    return total(after) - total(before)


class ServiceMix(Workload):
    name = "service-mix"
    rate = 57
    JOBS = 2

    def setup(self):
        from repro.service import client

        self.client = client
        self.proc = None
        self.sampled: list = []
        self.jobs = min(self.JOBS, _nproc())
        expected = Expected()
        kernels = [(suite, w, expected.checksum(suite, w))
                   for suite, w in corpus()]
        self.pool = [(w, want) for _, w, want in kernels]
        self.runs = [(w, want) for suite, w, want in kernels
                     if suite == "polybench"]
        self.proc = self._start_daemon()
        # one run per polybench kernel fills the store, so a timed `run`
        # is a store hit plus an execute
        for item in self.runs:
            resp = client.remote_run(self.addr, {"suite": "polybench",
                                                 "workload": item[0].name})
            self._check_run(item, resp)

    def _start_daemon(self):
        addr_file = self.work / "daemon.addr"
        with open(self.work / "daemon.log", "w") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.service", "serve",
                 "--port", "0", "--workers", str(self.jobs),
                 "--store", str(self.work / "store"), "--cap", "512",
                 "--addr-file", str(addr_file)],
                stdout=subprocess.DEVNULL, stderr=log)
        deadline = time.monotonic() + 60
        while not addr_file.exists():
            if proc.poll() is not None or time.monotonic() > deadline:
                proc.kill()
                proc.wait()
                raise RuntimeError("compile service did not start; see "
                                   f"{self.work / 'daemon.log'}")
            time.sleep(0.02)
        self.addr = addr_file.read_text().strip()
        return proc

    def close(self):
        if self.proc is None:
            return
        try:
            self.client.shutdown(self.addr, timeout=10)
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired, self.client.ServiceError):
            self.proc.kill()
            self.proc.wait()

    def stream(self, tag: str):
        """Blocks of one ``run`` per polybench kernel plus as many
        ``build`` ops over the corpus, in seeded order: half reads, half
        writes.  A ``build`` source carries a comment unique to ``tag``
        and op, so every one misses the store; every fourth one is kept
        for the output check."""
        rng = random.Random(f"{self.seed}:service")
        order: list = []
        i = builds_seen = 0
        while True:
            runs = list(self.runs)
            rng.shuffle(runs)
            builds = []
            for _ in runs:
                if not order:
                    order = list(self.pool)
                    rng.shuffle(order)
                builds.append(order.pop())
            block = [("run", r) for r in runs] + [("build", b) for b in builds]
            rng.shuffle(block)
            for kind, item in block:
                if kind == "build":
                    w = item[0]
                    source = (f"{w.source}\n// e2e seed {self.seed} {tag} "
                              f"op {i}\n")
                    yield i, kind, item, source, builds_seen % 4 == 0
                    builds_seen += 1
                else:
                    yield i, kind, item, None, False
                i += 1

    def _check_run(self, item, resp):
        w, want = item
        self.out.result(w.name, resp["checksum"], resp["cycles"],
                        resp["code_size"], want)

    def measure(self, n, tracer=None, tag="m", split=None):
        """Closed loop over ``jobs`` client threads, one request each in
        flight.  ``split`` collects the client-side time of each build
        spent outside the request itself (artifact decode + unpickle)."""
        client = self.client
        stream = self.stream(tag)
        lock = threading.Lock()
        lat: list = []
        state = {"attempted": 0, "end": None}
        t0 = time.perf_counter()

        def worker():
            while True:
                with lock:
                    if state["attempted"] >= n:
                        return
                    i, kind, item, source, keep = next(stream)
                    state["attempted"] += 1
                a = time.perf_counter()
                try:
                    if kind == "run":
                        resp = client.remote_run(
                            self.addr, {"suite": "polybench",
                                        "workload": item[0].name})
                    else:
                        resp = client.remote_build(
                            self.addr, source, entry=item[0].entry,
                            want_artifact=True)
                except client.ServiceError as e:
                    with lock:
                        self.out.fail(e.code, f"{kind} {item[0].name}: {e}")
                    continue
                except OSError as e:
                    with lock:
                        self.out.fail("transport", f"{kind}: {e}")
                    continue
                done = time.perf_counter()
                with lock:
                    lat.append(done - a)
                    state["end"] = done
                    if kind == "run":
                        self._check_run(item, resp)
                    else:
                        if split is not None:
                            split["unpickle_s"] += (done - a) - _CALL.s
                        if keep and len(self.sampled) < 64:
                            self.sampled.append(
                                (item, resp["module"], resp["stats"]))

        threads = [threading.Thread(target=worker) for _ in range(self.jobs)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        end = state["end"] or time.perf_counter()
        return {"lat": lat, "elapsed": end - t0,
                "attempted": state["attempted"]}

    def check_sample(self) -> None:
        """Execute a seeded sample of the shipped artifacts here and check
        them against the reference checksums."""
        need = 1 if self.quick else 32
        if len(self.sampled) < need:
            self.out.error(f"only {len(self.sampled)} build artifacts "
                           f"sampled, need {need}")
        for (w, want), module, stats in self.sampled:
            res = measure.execute(module, w, stats, backend="fused")
            if not math.isclose(res.checksum, want, rel_tol=TOL, abs_tol=TOL):
                self.out.error(f"shipped artifact of {w.name}: checksum "
                               f"{res.checksum!r} != reference {want!r}")
        self.sampled = []

    def replay(self, n, tracer=None, tag="r"):
        """The same op stream, in process, through the worker's task
        body: what the daemon's workers do, with no wire in between."""
        from repro.service.workers import handle_task

        stream = self.stream(tag)
        lat: list = []
        t0 = time.perf_counter()
        for attempted in range(1, n + 1):
            i, kind, item, source, _ = next(stream)
            if kind == "run":
                task = {"op": "run", "params": {"suite": "polybench",
                                                "workload": item[0].name}}
            else:
                task = {"op": "build", "params": {
                    "source": source, "entry": item[0].entry,
                    "want_artifact": True}}
            a = time.perf_counter()
            with op_span(tracer, attempted):
                resp, _ = handle_task({"id": i, **task})
            if not resp.get("ok"):
                self.out.fail(resp["error"]["code"], f"{kind} "
                              f"{item[0].name}: {resp['error']['message']}")
                continue
            lat.append(time.perf_counter() - a)
            if kind == "run":
                self._check_run(item, resp)
        return {"lat": lat, "elapsed": time.perf_counter() - t0,
                "attempted": n}

    def trace(self, seconds, tracer):
        """A daemon phase splits the client's latency into server, wire
        and unpickle time; in-process replays of one op sequence
        (untraced, then traced) attribute the worker's time to layers."""
        from repro.service import client, workers

        quarter = self.length(seconds / 4, floor=1)
        before = client.fetch_metrics(self.addr)
        split = {"unpickle_s": 0.0}
        original = client._call
        client._call = _CALL.wrap(original)
        try:
            daemon = self.measure(2 * quarter, tag="d", split=split)
        finally:
            client._call = original
        after = client.fetch_metrics(self.addr)
        self.check_sample()

        workers.init_worker(str(self.work / "replay-store"), 8, 512)
        for item in self.runs:
            resp, _ = workers.handle_task({"id": 0, "op": "run", "params": {
                "suite": "polybench", "workload": item[0].name}})
            self._check_run(item, resp)
        first = self.replay(quarter, tag="u")
        phase = traced(tracer, lambda: self.replay(quarter, tracer, tag="t"))

        client_s = sum(daemon["lat"])
        server_s = sum(_delta(before, after, "repro_service_request_seconds",
                              "sum", op=op) for op in ("build", "run"))
        hits = _delta(before, after, "repro_service_store_requests_total",
                      outcome="hit")
        lookups = hits + _delta(before, after,
                                "repro_service_store_requests_total",
                                outcome="miss")
        batches = _delta(before, after, "repro_service_batch_size", "count")
        extra = {
            "service.server_pct": 100 * server_s / client_s,
            "service.client_unpickle_pct":
                100 * split["unpickle_s"] / client_s,
            "service.wire_pct":
                100 * (client_s - server_s - split["unpickle_s"]) / client_s,
            "service.batch_size_mean": _ratio(
                _delta(before, after, "repro_service_batch_size", "sum"),
                batches),
            "service.store_hit_ratio": _ratio(hits, lookups),
        }
        return {"untraced": [first], "traced": phase, "extra": extra}


class _CallTimer(threading.local):
    """Per-thread duration of the last ``client._call``."""

    s = 0.0

    def wrap(self, original):
        def timed(*args, **kwargs):
            t = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.s = time.perf_counter() - t
        return timed


_CALL = _CallTimer()


class _StopCampaign(Exception):
    def __init__(self, camp):
        self.camp = camp


class Campaign(Workload):
    name = "campaign"
    rate = 11.5
    JOBS = 2

    def setup(self):
        from repro.fuzz import campaign as fc

        self.fc = fc
        self.jobs = min(self.JOBS, _nproc())
        self.config = dict(seeds=1_000_000, start=0, mutate=True)
        if self.quick:
            self.config.update(batch=2, round_batches=2)
        self.rounds: dict = {}
        self._quality = None

    def measure(self, n, tracer=None, tag="m", jobs=None):
        """Drive a fresh campaign until the round in which its ``n``-th
        task commits ends.

        A task's time is taken in the worker that runs it (the wrapped
        task body is inherited by the forked pool) and travels home in
        its result row."""
        from repro.fuzz.oracle import clear_reference_memo

        fc = self.fc
        lat: list = []
        rounds: list = []
        run_task = fc._run_task
        commit_row = fc.Campaign._commit_row
        op_ids = iter(range(1, 1 << 62))

        def timed_task(task_d, spec=None):
            a = time.perf_counter()
            with op_span(tracer, next(op_ids)):
                row = run_task(task_d, spec)
            row["_e2e_s"] = time.perf_counter() - a
            return row

        def timed_commit(camp, task_d, row):
            lat.append(row.pop("_e2e_s"))
            return commit_row(camp, task_d, row)

        def progress(camp):
            s = camp.summary
            rounds.append((s.tasks, s.configs, s.dups, s.ok, s.failed))
            if len(lat) >= n:
                raise _StopCampaign(camp)

        # the O0 reference memo outlives a campaign in this process; a
        # second campaign over the same tasks must not start warm
        clear_reference_memo()
        fc._run_task = timed_task
        fc.Campaign._commit_row = timed_commit
        t0 = time.perf_counter()
        try:
            fc.run_campaign(self.work / f"campaign-{tag}",
                            fc.CampaignConfig(**self.config),
                            jobs=jobs or self.jobs, progress=progress)
            raise RuntimeError("campaign drained its seed window")
        except _StopCampaign as stop:
            summary = stop.camp.summary
        finally:
            fc._run_task = run_task
            fc.Campaign._commit_row = commit_row
        elapsed = time.perf_counter() - t0
        if summary.failed or summary.findings or summary.escalated.get(
                "failure"):
            self.out.error(f"campaign {tag}: {summary.failed} failed tasks, "
                           f"findings {summary.findings}")
        self.rounds[tag] = rounds
        return {"lat": lat, "elapsed": elapsed, "attempted": len(lat),
                "summary": summary.to_json()}

    def quality(self):
        """Cycles and code size of the first fuzz seeds' kernels at the
        screening config (the same for every run)."""
        if self._quality is None:
            from repro.fuzz.generator import generate_kernel
            from repro.fuzz.oracle import KernelSpec, _workload

            out = Outcome()
            for seed in range(4 if self.quick else QUALITY_SEEDS):
                k = generate_kernel(seed, name=f"fz{seed:06d}")
                w = _workload(KernelSpec(k.name, k.source, k.bindings))
                module, stats = measure.build(w, LEVEL, use_cache=False)
                res = measure.execute(module, w, stats, backend="fused")
                out.cycles[w.name] = res.cycles
                out.code_size[w.name] = res.code_size
            self._quality = out.quality()
        return self._quality

    def trace(self, seconds, tracer):
        """Two fresh campaigns over the same tasks on one in-process
        worker, untraced then traced (one worker runs at about half the
        rate, so each covers a quarter of a run's tasks)."""
        n = self.length(seconds / 4, floor=1)
        first = self.measure(n, tag="u", jobs=1)
        phase = traced(tracer, lambda: self.measure(n, tracer, tag="t",
                                                    jobs=1))
        s = phase["summary"]
        screened = max(s["seeds"] + s["mutants"] - s["dups"], 1)
        extra = {
            "fuzz.escalation_ratio": sum(s["escalated"].values()) / screened,
            "fuzz.configs_per_task": _ratio(
                s["configs_screen"] + s["configs_full"], len(phase["lat"])),
        }
        return {"untraced": [first], "traced": phase, "extra": extra}


WORKLOADS = {cls.name: cls for cls in (ColdBuild, ExecScaled, ServiceMix,
                                        Campaign)}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# -- per-layer metrics ----------------------------------------------------------


def layer_metrics(tracer, untraced: list, traced: dict, extra: dict) -> dict:
    """Self time of each layer as a share of the traced phase, the
    tracing overhead, and per-op counts measured at the layer
    boundaries."""
    ms = tracer.layer_ms()
    total = tracer.wall_s * 1e3
    ops = max(tracer.ops, 1)
    c = tracer.counts
    m = {f"{layer}_pct": 100 * v / total for layer, v in ms.items()}
    m["op_ms"] = total / ops
    thr_u = (sum(len(p["lat"]) for p in untraced)
             / sum(p["elapsed"] for p in untraced))
    thr_t = len(traced["lat"]) / traced["elapsed"]
    m["trace_overhead_pct"] = 100 * (1 - thr_t / thr_u)
    m.update({
        "analysis.depgraph_calls": c["analysis.depgraph_calls"] / ops,
        "analysis.depgraph_builds": c["analysis.depgraph_builds"] / ops,
        "versioning.plans_inferred": c["versioning.plans_inferred"] / ops,
        "versioning.plans_materialized_per_inferred": _ratio(
            c["versioning.plans_materialized"],
            c["versioning.plans_inferred"]),
        "vectorizer.trees": c["vectorizer.trees"] / ops,
        "vectorizer.rejected": c["vectorizer.rejected"] / ops,
        "perf.diskcache.hit_ratio": _ratio(c["perf.diskcache.hits"],
                                           c["perf.diskcache.loads"]),
        "perf.diskcache.store_failed": c["perf.diskcache.store_failed"],
        "service.server_pct": 0.0,
        "service.wire_pct": 0.0,
        "service.client_unpickle_pct": 0.0,
        "service.batch_size_mean": 0.0,
        "service.store_hit_ratio": 0.0,
        "fuzz.escalation_ratio": 0.0,
        "fuzz.configs_per_task": 0.0,
    })
    m.update(extra)
    return m


# -- process entry ----------------------------------------------------------------


def run(wl: Workload, args) -> dict:
    """An untraced run: the end-to-end metrics (``run.py`` adds set-up
    time and peak memory)."""
    phase = wl.measure(wl.length(args.seconds))
    if isinstance(wl, ServiceMix):
        wl.check_sample()
    metrics = percentile_metrics(phase["lat"], phase["elapsed"])
    metrics.update(wl.quality())
    return {"metrics": metrics, "attempted": phase["attempted"],
            "samples": len(phase["lat"]), "elapsed_s": phase["elapsed"],
            "passes": phase.get("passes")}


def run_traced(wl: Workload, args) -> dict:
    tracer = tracing.Tracer()
    res = wl.trace(args.seconds, tracer)
    metrics = layer_metrics(tracer, res["untraced"], res["traced"],
                            res["extra"])
    trace_dir = Path(args.trace_dir)
    trace_dir.mkdir(parents=True, exist_ok=True)
    stem = trace_dir / f"{wl.name}-seed{args.seed}"
    tracer.write_chrome_trace(f"{stem}.trace.json")
    layers = {"wall_ms": tracer.wall_s * 1e3, "ops": tracer.ops,
              "self_ms": tracer.layer_ms(), "calls": dict(tracer.calls),
              "dropped_spans": tracer.dropped}
    with open(f"{stem}.layers.json", "w") as f:
        json.dump(layers, f, indent=1, sort_keys=True)
    if not tracer.restored:
        wl.out.error("a traced entry point was not restored")
    if isinstance(wl, Campaign) and wl.rounds["u"] != wl.rounds["t"]:
        wl.out.error(f"campaign round counts differ traced vs untraced: "
                     f"{wl.rounds['u']} != {wl.rounds['t']}")
    phases = [*res["untraced"], res["traced"]]
    return {"metrics": metrics,
            "attempted": sum(p["attempted"] for p in phases),
            "samples": sum(len(p["lat"]) for p in phases),
            "layers": layers, "trace_files": [f"{stem}.trace.json",
                                              f"{stem}.layers.json"],
            "restored": tracer.restored}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--work", default=".")
    ap.add_argument("--trace-dir", default=".")
    ap.add_argument("--result")
    ap.add_argument("--regen-expected", action="store_true")
    args = ap.parse_args(argv)
    if args.regen_expected:
        regen_expected()
        return 0
    wl = WORKLOADS[args.workload](args)
    try:
        wl.setup()
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            out: dict = {}
        elif args.trace:
            out = run_traced(wl, args)
        else:
            out = run(wl, args)
    except Refused as e:
        print(f"refused: {e}", file=sys.stderr)
        return 3
    finally:
        wl.close()
    o = wl.out
    out.update({
        "workload": wl.name, "setup_s": setup_s,
        "correct": o.n_errors == 0,
        "failed": sum(o.failed.values()), "failed_by_kind": o.failed,
        "errors": o.errors, "n_errors": o.n_errors,
        "checks": {"cycles": o.cycles, "checksums": o.checksums,
                   "code_size": o.code_size,
                   "campaign_rounds": getattr(wl, "rounds", None)},
    })
    with open(args.result, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
