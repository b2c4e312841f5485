"""Tests of the end-to-end benchmark harness.

    PYTHONPATH=src python -m pytest benchmarks/e2e

They drive ``run.py --quick`` (small kernel subsets, one set-up sample)
once untraced and once traced over all four workloads, which takes
about half a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/e2e/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def quick_run(out: Path, *args):
    proc = bench("--quick", "--seed", "3", "--seconds", "0.5",
                 "--out", str(out), *args)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return last, json.loads(out.read_text()), proc.stdout


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return quick_run(tmp_path_factory.mktemp("untraced") / "r.json")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return quick_run(tmp_path_factory.mktemp("traced") / "r.json",
                     "--trace", "1")


@pytest.mark.parametrize("mode,declared", [("untraced", "end_to_end"),
                                           ("traced", "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(
        mode, declared, request):
    last, doc, stdout = request.getfixturevalue(mode)
    for wl in WORKLOADS:
        res = doc["results"][wl]
        assert res["correct"] and res["failed"] == 0, (wl, res["errors"])
        assert set(res["metrics"]) == {m["name"] for m in SPEC[declared]}
        for m in SPEC[declared]:
            mv = res["metrics"][m["name"]]
            assert mv["unit"] == m["unit"]
            assert f"{wl} {m['name']} {mv['value']!r} {m['unit']}" in stdout
            if declared == "end_to_end":
                assert mv["value"] > 0


def test_result_carries_provenance(untraced):
    prov = untraced[1]["provenance"]
    for key in ("git_rev", "git_dirty", "src_sha256", "host", "seed",
                "lengths", "benchmark_json_sha256"):
        assert key in prov
    assert prov["host"]["nproc"] >= 1 and prov["host"]["python"]
    assert set(prov["lengths"]) == set(WORKLOADS)


def test_tracing_changes_no_result_and_restores_every_wrapper(
        untraced, traced):
    for wl in WORKLOADS:
        a = untraced[1]["results"][wl]["checks"]
        b = traced[1]["results"][wl]["checks"]
        for key in ("cycles", "checksums", "code_size"):
            assert a[key] == b[key], (wl, key)
        assert traced[1]["results"][wl]["restored"] is True
    rounds = traced[1]["results"]["campaign"]["checks"]["campaign_rounds"]
    untraced_rounds = (untraced[1]["results"]["campaign"]["checks"]
                       ["campaign_rounds"]["m"])
    assert rounds["u"] == rounds["t"]
    # two workers and one worker commit the same rounds
    n = min(len(untraced_rounds), len(rounds["t"]))
    assert untraced_rounds[:n] == rounds["t"][:n]


def test_layer_self_times_add_up_to_the_op_total(traced):
    for wl in WORKLOADS:
        res = traced[1]["results"][wl]
        layers = res["layers"]
        total = sum(layers["self_ms"].values())
        assert abs(total - layers["wall_ms"]) <= 0.01 * layers["wall_ms"]
        shares = sum(mv["value"] for name, mv in res["metrics"].items()
                     if name.endswith("_pct") and not name.startswith(
                         ("trace_overhead", "service.server",
                          "service.wire", "service.client")))
        assert shares == pytest.approx(100, abs=1)


def test_compare_refuses_results_from_another_host(untraced, tmp_path):
    doc = untraced[1]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(doc))
    other = json.loads(json.dumps(doc))
    other["provenance"]["host"]["fingerprint"] = "another-host"
    b.write_text(json.dumps(other))
    same = bench("compare", str(a), "--", str(a))
    assert same.returncode == 0, same.stderr
    assert "cold-build" in same.stdout and "unchanged" in same.stdout
    refused = bench("compare", str(a), "--", str(b))
    assert refused.returncode == 2
    assert "different hosts" in refused.stderr


def test_changed_kernel_is_refused_not_rederived(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    import workloads

    doc = json.loads(workloads.EXPECTED_PATH.read_text())
    doc["kernels"]["gemm@x1"]["source_sha256"] = "0" * 64
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(doc))
    expected = workloads.Expected(path)
    gemm = next(w for suite, w in workloads.corpus() if w.name == "gemm")
    with pytest.raises(workloads.Refused, match="source_sha256"):
        expected.checksum("polybench", gemm)


def test_fails_without_the_program(tmp_path):
    """A directory holding only the benchmark: no result, non-zero exit."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cold-build", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
