"""End-to-end benchmark of the versioning stack: one command, four workloads.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--out FILE] [--quick]
    python3 benchmarks/e2e/run.py compare A.json... -- B.json...
    python3 benchmarks/e2e/run.py --regen-expected

Every set-up sample and every measured run is a fresh child process
(``workloads.py``) whose environment has each ``REPRO_*`` variable
removed, so no disk cache, service address, backend or diagnostics
switch leaks in.  The child checks the workload's outputs; this parent
then prints every metric as ``workload metric value unit`` and, as the
last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` (the default) reports the end-to-end
metrics of ``BENCHMARK.json``, ``--trace 1`` the per-layer ones.

``--out`` also writes the full result with its provenance (revision,
host, seed, run lengths, ``BENCHMARK.json`` hash); ``compare`` reads
such files.  All scratch files live under ``.bench_e2e/`` in the
checkout; traced runs leave their Chrome trace and layer table in
``.bench_e2e/trace/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_e2e"
#: set-up runs per measured run; ``setup_s`` is their median
SETUP_SAMPLES = 3
#: a run must end within 180 s; children are killed past this
DEADLINE_S = 170.0


def load_spec() -> dict:
    with open(BENCHMARK) as f:
        return json.load(f)


# -- provenance -----------------------------------------------------------------


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def host() -> dict:
    """Facts that change the numbers; their hash is the host identity
    ``compare`` insists on."""
    facts = {
        "machine": platform.machine(),
        "system": platform.system(),
        "kernel": platform.release(),
        "nproc": nproc(),
        "mem_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "python": platform.python_version(),
    }
    blob = json.dumps(facts, sort_keys=True).encode()
    return {"fingerprint": hashlib.sha256(blob).hexdigest()[:16], **facts}


def provenance(args, lengths: dict) -> dict:
    src = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        src.update(p.relative_to(ROOT).as_posix().encode() + b"\0")
        src.update(p.read_bytes())
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_rev": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_sha256": src.hexdigest(),
        "host": host(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "lengths": lengths,
        "benchmark_json_sha256": _sha256_file(BENCHMARK),
    }


# -- child processes ------------------------------------------------------------


def child_env(tmp: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp)
    return env


def run_child(argv: list, env: dict, deadline: float) -> tuple[int, int]:
    """Run ``workloads.py`` to completion; ``(exit code, peak RSS in
    KiB)``.  The RSS is the largest of the child and every descendant it
    reaped (the compile daemon, pool workers).  Past ``deadline`` the
    child's whole process group is killed."""
    proc = subprocess.Popen([sys.executable, str(HERE / "workloads.py"), *argv],
                            env=env, cwd=ROOT, stdout=sys.stderr,
                            start_new_session=True)
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            print(f"error: {argv[:2]} killed at the {DEADLINE_S:.0f} s "
                  "deadline", file=sys.stderr)
            return -signal.SIGKILL, usage.ru_maxrss
        time.sleep(0.05)


def run_workload(name: str, args, env: dict, run_dir: Path) -> dict | None:
    """Set-up samples, then the measured run, of one workload."""
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--trace-dir", str(WORK / "trace")]
    if args.quick:
        base.append("--quick")
    extra_setups = 0 if (args.quick or args.trace) else SETUP_SAMPLES - 1
    setups = []
    peak_kib = 0
    for k in range(extra_setups + 1):
        work = run_dir / f"{name}-{k}"
        work.mkdir(parents=True)
        result = work / "result.json"
        argv = base + ["--work", str(work), "--result", str(result)]
        if k < extra_setups:
            argv.append("--setup-only")
        code, kib = run_child(argv, env, deadline)
        if code != 0:
            print(f"error: {name}: workload process exited with {code}",
                  file=sys.stderr)
            return None
        with open(result) as f:
            out = json.load(f)
        shutil.rmtree(work)
        setups.append(out["setup_s"])
        peak_kib = max(peak_kib, kib)
    if not args.trace:
        out["metrics"]["setup_s"] = statistics.median(setups)
        out["metrics"]["peak_rss_mb"] = peak_kib / 1024
    out["setup_samples_s"] = setups
    return out


def with_units(name: str, out: dict, declared: list) -> bool:
    """Attach the declared unit to every metric; False if one is
    missing."""
    values = out["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: {name} did not report {missing}", file=sys.stderr)
        return False
    out["metrics"] = {m["name"]: {"value": values[m["name"]],
                                  "unit": m["unit"]} for m in declared}
    return True


# -- compare ---------------------------------------------------------------------


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _spread(q: tuple) -> float:
    q1, med, q3 = q
    if med == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(med)


def compare(argv: list) -> int:
    """Median and quartiles per side, the win fraction over alternating
    pairs, and a verdict per workload x metric against its bound."""
    if "--" not in argv:
        print("usage: run.py compare A.json... -- B.json...", file=sys.stderr)
        return 2
    cut = argv.index("--")
    sides = []
    for files in (argv[:cut], argv[cut + 1:]):
        if not files:
            print("error: each side needs at least one result file",
                  file=sys.stderr)
            return 2
        docs = []
        for path in files:
            with open(path) as f:
                docs.append(json.load(f))
        sides.append(docs)
    hosts = {d["provenance"]["host"]["fingerprint"] for s in sides for d in s}
    if len(hosts) > 1:
        print(f"refusing to compare results from different hosts: "
              f"{sorted(hosts)}", file=sys.stderr)
        return 2
    spec = load_spec()
    declared = spec["end_to_end"] + spec["per_layer"]
    regressed = 0
    print(f"{'workload':<12} {'metric':<44} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'delta':>8} {'B wins':>7}  verdict")
    for wl in [w["name"] for w in spec["workloads"]]:
        for m in declared:
            vals = []
            for docs in sides:
                vals.append([d["results"][wl]["metrics"][m["name"]]["value"]
                             for d in docs if wl in d["results"]
                             and m["name"] in d["results"][wl]["metrics"]])
            a, b = vals
            if not a or not b:
                continue
            qa, qb = _quartiles(a), _quartiles(b)
            lower = m["better"] == "lower"
            pairs = list(zip(a, b))
            wins = sum((y < x) if lower else (y > x) for x, y in pairs)
            base = abs(qa[1]) or 1.0
            worse = ((qb[1] - qa[1]) if lower else (qa[1] - qb[1])) / base
            bound = m.get("bound")
            if bound is None:
                verdict = "-"
            elif max(_spread(qa), _spread(qb)) > bound:
                all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
                verdict = "improved" if all_better else "unresolved"
            elif worse > bound:
                verdict = "REGRESSED"
                regressed += 1
            elif wins >= 0.9 * len(pairs) and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
                verdict = "improved"
            else:
                verdict = "unchanged"
            print(f"{wl:<12} {m['name']:<44} "
                  f"{qa[1]:>12.5g} [{qa[0]:.4g}, {qa[2]:.4g}] "
                  f"{qb[1]:>12.5g} [{qb[0]:.4g}, {qb[2]:.4g}] "
                  f"{-worse:>+8.2%} {wins:>3}/{len(pairs):<3}  {verdict}")
    return 1 if regressed else 0


# -- main --------------------------------------------------------------------------


def main(argv: list | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(
        description="End-to-end benchmark of the versioning stack.")
    ap.add_argument("--workload", choices=names,
                    help="one workload (default: all, one after another)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="report per-layer metrics")
    ap.add_argument("--out", help="write the full result JSON here")
    ap.add_argument("--quick", action="store_true",
                    help="small kernel subsets, one set-up sample "
                         "(harness tests)")
    ap.add_argument("--regen-expected", action="store_true",
                    help="rebuild expected.json (takes minutes)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}", file=sys.stderr)
        return 2
    run_dir = WORK / f"run-{os.getpid()}"
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True)
    env = child_env(tmp)
    try:
        if args.regen_expected:
            code, _ = run_child(["--regen-expected"], env, math.inf)
            return code
        results = {}
        for name in [args.workload] if args.workload else names:
            out = run_workload(name, args, env, run_dir)
            if out is None:
                return 1
            results[name] = out
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    for name, out in results.items():
        if not with_units(name, out, declared):
            return 1
        for err in out["errors"]:
            print(f"{name}: {err}", file=sys.stderr)
    for name, out in results.items():
        print(f"{name} attempted {out['attempted']} ops")
        print(f"{name} failed {out['failed']} ops")
        print(f"{name} samples {out['samples']} ops")
        for metric, mv in out["metrics"].items():
            print(f"{name} {metric} {mv['value']!r} {mv['unit']}")
    if args.out:
        lengths = {n: {"samples": o["samples"], "attempted": o["attempted"],
                       "elapsed_s": o.get("elapsed_s"),
                       "passes": o.get("passes")}
                   for n, o in results.items()}
        with open(args.out, "w") as f:
            json.dump({"provenance": provenance(args, lengths),
                       "results": results}, f, indent=1, sort_keys=True)
    if len(results) == 1:
        (out,) = results.values()
        metrics = out["metrics"]
    else:
        metrics = {f"{n}.{m}": v for n, o in results.items()
                   for m, v in o["metrics"].items()}
    print(json.dumps({
        "correct": all(o["correct"] for o in results.values()),
        "attempted": sum(o["attempted"] for o in results.values()),
        "failed": sum(o["failed"] for o in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
