"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

Smoke runs of every workload on a few jobs, a check that the oracle
counts a perturbed result or an unexpected outcome as failed, a check
that the printed metric names are those of BENCHMARK.json, and checks
of the tail latency and of the tracer's eigenpair counts.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import ionbridge  # noqa: E402
from ionbridge import cli  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, layer_metrics, rebind  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_benchmark(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_is_correct_and_prints_the_declared_metrics(workload, trace):
    result = _run_benchmark(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert [m["unit"] for m in result["metrics"].values()] == [m["unit"] for m in declared]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(worker.WORKLOADS)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """A work directory holding the reference config, with run.py's environment."""
    for name, value in run.child_env().items():
        monkeypatch.setenv(name, value)
    (tmp_path / "config.json").write_text(json.dumps(run.REFERENCE_DOCUMENT))
    return tmp_path


def _param_scan_with(workdir, replacement) -> dict:
    original = ionbridge.critical_separation
    rebind(original, replacement)
    try:
        return worker.run("param_scan", seed=1, seconds=0, trace=False, workdir=workdir, tiny=True)
    finally:
        rebind(replacement, original)


def test_perturbed_critical_separation_counts_as_failed(workdir):
    original = ionbridge.critical_separation

    def perturbed(config, *args, **kwargs):
        result = original(config, *args, **kwargs)
        return dataclasses.replace(result, critical_2z0=result.critical_2z0 * (1 + 1e-6))

    result = _param_scan_with(workdir, perturbed)
    level_jobs = result["attempted"] * 2 // 3      # tiny: two level jobs, one gauge job per pass
    assert result["failed"] == level_jobs > 0
    assert all("critical_2z0_um" in failure for failure in result["failures"])


def test_gg_pair_must_stay_not_bracketed(workdir):
    original = ionbridge.critical_separation

    def always_bracketed(config, *args, **kwargs):
        try:
            return original(config, *args, **kwargs)
        except ionbridge.NotBracketedError:
            return ionbridge.StabilityResult(critical_2z0=40e-6, limiting_branch="axial-com")

    result = _param_scan_with(workdir, always_bracketed)
    assert result["failed"] == result["attempted"] * 2 // 3 > 0
    assert all("critical.gg" in failure for failure in result["failures"])


def test_unperturbed_in_process_run_has_no_failures(workdir):
    result = worker.run("param_scan", seed=1, seconds=0, trace=False, workdir=workdir, tiny=True)
    assert result["attempted"] == 3 * worker.MIN_PASSES and result["failed"] == 0


def test_perturbed_table_counts_as_failed_and_changes_its_digest(workdir):
    out = workdir / "out"
    argv = ["density", "--config", str(workdir / "config.json"), "--out", str(out),
            "--separations-um", "24", "--n-max", "30"]
    assert cli.main(argv) == 0
    reference = json.loads(worker.REFERENCE.read_text())["density/24um/n30"]
    raw = {"code": 0, "stderr": ""}
    summary, _ = worker._table_outcome(raw, out, reference)
    assert oracle.compare(reference["summary"], summary) == []

    table = out / "density_24um.csv"
    text = table.read_text()
    row = next(line for line in text.splitlines() if line.startswith("# ground_energy_kHz = "))
    value = float(row.rpartition(" = ")[2])
    table.write_text(text.replace(row, f"# ground_energy_kHz = {value * (1 + 1e-7)!r}"))
    summary, digests = worker._table_outcome(raw, out, reference)
    mismatches = oracle.compare(reference["summary"], summary)
    assert any(m.startswith("tables.density_24um.csv.meta.ground_energy_kHz") for m in mismatches)
    assert digests["density_24um.csv"] != reference["tables"]["density_24um.csv"]


def test_tail_has_ten_samples_of_the_slowest_job_beyond_it():
    fast, slow = [0.01 * (1 + i / 100) for i in range(11)], [1.0 + i / 100 for i in range(11)]
    passes = [{"wall": 1.0, "latencies": {f"fast/{j}": fast[i] for j in range(3)} | {"slow": slow[i]}}
              for i in range(worker.MIN_PASSES)]
    result = {"setup": {"setup_s": [0.5]}, "untraced": {"passes": passes}, "peak_rss_kb": 1024}
    values, extra = run.end_to_end(result)
    assert values["job_tail_s"] == min(slow)
    assert values["job_p50_s"] < values["job_tail_s"]
    assert extra["job_samples"] == 4 * worker.MIN_PASSES


def test_eigenpairs_used_counts_one_pair_per_ground_state_solve():
    config = ionbridge.reference_config("rr")
    tracer = Tracer()
    tracer.install()
    try:
        state = ionbridge.basis_ground_state(config, 8e-6, n_max=4)
        ionbridge.gaussian_ground_state(config, 8e-6)
    finally:
        tracer.uninstall()
    layer = layer_metrics(tracer.snapshot())
    solves = [(state.n_max + 1) ** 2, (state.n_max + 5) ** 2]   # n_max and n_max + 4
    if layer["motion.basis_ground_state.ramps"]:
        solves = [(4 + 1) ** 2, (4 + 5) ** 2] + solves
    assert layer["motion.symmetric_eigensolve.calls"] == len(solves) + 1
    assert layer["motion.symmetric_eigensolve.pairs_computed"] == sum(solves) + 2
    assert layer["motion.symmetric_eigensolve.pairs_used"] == len(solves) + 2


def test_benchmark_refuses_to_run_without_the_library(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "perfbench" / "reference.json").write_bytes(worker.REFERENCE.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "param_scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
