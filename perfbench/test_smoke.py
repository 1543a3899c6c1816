"""Smoke test of the benchmark at tiny size (n_train = 200, 2 epochs).

    python3 -m pytest perfbench/test_smoke.py -q

It runs every workload untraced and traced with all output checks, at the
reference seed and at one other seed, and checks that ``BENCHMARK.json``
names exactly the metrics the harness prints.  It lives outside the
package's ``tests/`` so the package's own test run does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402


def bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--size", "smoke", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("seed", [checks.REFERENCE_SEED, 5])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_passes_its_checks(trace, seed):
    res = last_json(bench("--workload", "all", "--seed", str(seed), "--seconds", "1",
                          "--trace", str(trace)))
    assert res["correct"], res
    assert res["failed"] == 0 and res["attempted"] >= 4
    table = run.PER_LAYER if trace else run.END_TO_END
    expected = {m[0]: m[1] for m in table}
    for name in run.workloads(run.SIZES["smoke"]):
        got = {k.split("/", 1)[1]: v["unit"] for k, v in res["metrics"].items()
               if k.startswith(name + "/")}
        assert got == expected, name
        if not trace:
            assert all(res["metrics"][f"{name}/{k}"]["value"] > 0 for k in expected)


def test_traced_run_attributes_the_work():
    res = last_json(bench("--workload", "train-d12", "--seconds", "1", "--trace", "1"))
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["train.epochs"] == 4 and m["train.retries"] == 0
    assert m["likelihood.forward_pass.calls"] == 2 * 4
    assert m["likelihood.log_likelihood_gradient.merge_points"] == 2 * 200
    assert m["likelihood.conditional_validation_ll.records"] == 2 * 2 * 250
    assert m["likelihood.log_likelihood_gradient.peak_mb"] > 0
    assert m["assess.tomography_mle.calls"] == 0


def test_reference_check_catches_a_changed_output():
    ref = checks.load_reference()["smoke"]["train-d12"]
    assert checks.reference_problems(ref, ref) == []
    moved = {"selection": {k: v + 1e-7 for k, v in ref["selection"].items()}}
    assert checks.reference_problems(ref, moved)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in run.workloads(run.SIZES["full"]).values()]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "train-d12", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
