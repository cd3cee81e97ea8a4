#!/usr/bin/env python3
"""ionbridge benchmark: end-to-end and per-layer metrics of two workloads.

Run from the repository root:

    python3 perfbench/run.py --workload param_scan --seed 1 --seconds 30 --trace 0

Every workload is a closed loop with one client: the next job starts
when the previous one has finished.  A pass runs each job of the
workload once, in an order shuffled from --seed (the library only sees
the generated job list), and the run repeats passes for --seconds and
at least eleven times (worker.MIN_PASSES).  Every job counts toward
"attempted" and "failed".

  ground_state  in-process `density` jobs at 2z0 = 12, 16, 24 um with
                n_max 30 and at 12 um with n_max 40: dense eigh,
                Hamiltonian assembly and 26k-row CSV tables.
  param_scan    in-process scans, no tables: for Rydberg n = 20..60
                under both C4 scalings, critical_separation for rr, rg
                and gg (gg must raise NotBracketedError), a 141-point
                mode_sweep, a 201-point axial_bo_curve and the
                characteristic scales; plus gauge jobs at max_n 1, 2, 3
                (connection records, hermiticity check, Berry phase of
                every mode on a 1 um square loop).  Scalar Python, no BLAS.

Both run on the reference config (30S-30S, z0 = 8 um).

Every job's output is compared with reference.json (see oracle.py); a
wrong value, an unexpected outcome or exception, a non-zero exit code
or a printed traceback counts the job as failed.

The last line of stdout is the result.  With --trace 0 it holds the
end-to-end metrics:

  setup_s      median time for a fresh interpreter to import ionbridge
               and load the workload's config; timed between passes,
               every few seconds (worker.SETUP_INTERVAL_S), so that the
               median spans the run
  wall_s       median wall time of a pass
  job_p50_s    median of the pooled latencies of every job of every
               untraced pass
  job_tail_s   latency of the pooled sample with exactly ten samples
               beyond it; its percentile and the sample count are in
               the record line.  With eleven passes or more, those ten
               can all belong to the slowest job: density at n_max 40
               on ground_state, the max_n 3 gauge job on param_scan
  peak_rss_mb  peak RSS of the process running the jobs, MiB

With --trace 1 it holds the per-layer metrics of BENCHMARK.json: half
of --seconds runs untraced, half with every function of tracer.TRACED
wrapped, and per-layer values are medians over traced passes of the
per-pass counts and self times.  Import times come from `-X importtime`
of the traced half's set-up runs: import.scipy_constants.s is the
cumulative import of scipy.constants, import.ionbridge.s the rest of
`import ionbridge`.  trace.overhead_frac is the median traced pass
over the median untraced one, minus 1.  failed_frac is failed over
attempted jobs, the same numbers as the result's "failed" and
"attempted".

The line before the result is an environment record: core count, BLAS,
the BLAS thread count set for every process, versions, commit and the
line count of src/ionbridge.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ground_state", "param_scan")
DEFAULT_SEED = 1
# One BLAS thread keeps runs steady on a shared machine; the count is
# recorded with every result.
BLAS_THREADS = 1
TIMEOUT_S = 170.0
REFERENCE_DOCUMENT = {"z0_um": 8.0, "states": ["30S", "30S"]}   # 30S-30S, z0 = 8 um


def child_env() -> dict[str, str]:
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "ionbridge").glob("*.py"))


def _wall(passes: list[dict]) -> float:
    """Median wall time of a pass.

    On a shared two-core host other processes slowed stretches of a few
    seconds to several minutes by up to 75%.  Over ten runs the median
    pass varied about half as much as the fastest one, which depends on
    a run catching a quiet stretch.
    """
    return statistics.median(p["wall"] for p in passes)


def _job_latencies(passes: list[dict]) -> list[float]:
    return [seconds for p in passes for seconds in p["latencies"].values()]


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, samples) of the sample with ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(result: dict) -> tuple[dict, dict]:
    latencies = _job_latencies(result["untraced"]["passes"])
    tail_s, percentile, samples = tail(latencies)
    values = {
        "setup_s": statistics.median(result["setup"]["setup_s"]),
        "wall_s": _wall(result["untraced"]["passes"]),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail_s,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    return values, {"job_tail_percentile": percentile, "job_samples": samples}


def per_layer(result: dict, names) -> dict:
    layers, setup = result["traced"]["layers"], result["setup"]
    values = {}
    for name in names:
        if name in setup:
            values[name] = statistics.median(setup[name])
        elif name == "trace.overhead_frac":
            values[name] = _wall(result["traced"]["passes"]) / _wall(result["untraced"]["passes"]) - 1.0
        elif name == "failed_frac":
            values[name] = result["failed"] / result["attempted"]
        else:
            values[name] = statistics.median(layer.get(name, 0.0) for layer in layers)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ionbridge benchmark (see module docstring)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few jobs per workload, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ionbridge" / "__init__.py").is_file():
        print(f"error: no ionbridge source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    env = child_env()
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_work"))
    try:
        (workdir / "config.json").write_text(json.dumps(REFERENCE_DOCUMENT))
        result_path = workdir / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(workdir), "--result", str(result_path)]
        if args.tiny:
            cmd.append("--tiny")
        # Its own process group, so that a timeout also stops a set-up
        # interpreter the worker may have running.
        proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr, start_new_session=True)
        try:
            proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            print(f"error: worker timed out after {TIMEOUT_S} s", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values, extra = per_layer(result, units), {}
    else:
        values, extra = end_to_end(result)
    missing = set(units) - set(values)
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    if not Path(result["environment"]["ionbridge_file"]).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported {result['environment']['ionbridge_file']}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 1
    for failure in result["failures"]:
        print(f"failed: {failure}", file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "default_seed": DEFAULT_SEED,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
        "commit": _commit(), "src_ionbridge_lines": _src_lines(),
        "passes": len(result["untraced"]["passes"]),
        "tables_written": result["tables_written"],
        "tables_identical": result["tables_identical"],
        "setups": len(result["setup"]["setup_s"]), **extra, **result["environment"],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
