"""Run one benchmark workload and write its raw measurements as JSON.

``run.py`` starts this script in a fresh process with PYTHONPATH and
the BLAS thread count already set; the workloads and metrics are
described there.  Each pass runs every job of the workload once, in an
order drawn from the seed; the jobs' outputs are checked against
``reference.json`` after the pass, outside the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import random
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import ionbridge
from ionbridge import cli

import oracle
from tracer import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
# job_tail_s is the pooled sample with ten samples beyond it.  Eleven
# passes give every job eleven samples, so those ten can all be samples
# of the slowest job, and the tail sits at or above the median.
MIN_PASSES = 11
SETUP_TIMEOUT_S = 60.0
SETUP_CODE = "import sys, ionbridge; ionbridge.load_config(sys.argv[1])"
SETUP_INTERVAL_S = 8.0
Z0 = 8e-6


class JobFailure(Exception):
    """A job's output or outcome differs from the reference."""


def _job_dir(workdir: Path, job: dict) -> Path:
    return workdir / "jobs" / job["id"].replace("/", "_")


def _table_outcome(raw: dict, out_dir: Path, reference: dict | None):
    """Summary and digests of an in-process CLI job that writes tables to ``out_dir``.

    A table whose sha256 is the one in ``reference`` holds the reference
    bytes, so it takes the reference summary instead of being parsed:
    parsing the four 26k-row density tables of a pass took 0.45 s.
    """
    if "error" in raw:
        raise JobFailure(raw["error"])
    if raw["code"] != 0:
        raise JobFailure(f"exit code {raw['code']}: {raw['stderr'][-500:]}")
    if "Traceback" in raw["stderr"]:
        raise JobFailure(f"traceback printed: {raw['stderr'][-500:]}")
    digests = {p.name: oracle.table_digest(p) for p in sorted(out_dir.iterdir())}
    known = reference["tables"] if reference else {}
    tables = {name: reference["summary"]["tables"][name] if known.get(name) == digest
              else oracle.read_table(out_dir / name) for name, digest in digests.items()}
    return {"exit": raw["code"], "tables": tables}, digests


def _import_times(stderr: str) -> dict[str, float]:
    """Cumulative import seconds by module from `-X importtime` output."""
    times = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            _, cumulative, name = line[len("import time:"):].split("|")
            if cumulative.strip().isdigit():
                times[name.strip()] = int(cumulative) * 1e-6
    return times


def time_setup(ctx: "Context", setup: dict[str, list[float]]) -> None:
    """One fresh-interpreter import of ionbridge plus config load.

    With tracing on, it runs under `-X importtime` and also records the
    cumulative import of scipy.constants and the rest of `import ionbridge`.
    """
    trace = ["-X", "importtime"] if ctx.tracer is not None else []
    cmd = [sys.executable, *trace, "-c", SETUP_CODE, str(ctx.config)]
    start = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    setup["setup_s"].append(perf_counter() - start)
    if trace:
        times = _import_times(proc.stderr)
        scipy_constants = times.get("scipy.constants", 0.0)
        setup["import.scipy_constants.s"].append(scipy_constants)
        setup["import.ionbridge.s"].append(times.get("ionbridge", 0.0) - scipy_constants)


def _in_process_cli(argv: list[str]) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except Exception:
        return {"error": traceback.format_exc()}
    return {"code": code, "stderr": stderr.getvalue()}


class GroundState:
    """In-process ``density`` jobs: dense eigh, Hamiltonian assembly, big tables."""

    name = "ground_state"
    JOBS = [(12, 30), (16, 30), (24, 30), (12, 40)]   # (2z0 in um, n_max)
    TINY = [(24, 30)]

    def jobs(self, tiny: bool) -> list[dict]:
        return [{"id": f"density/{sep}um/n{n_max}", "separation_um": sep, "n_max": n_max}
                for sep, n_max in (self.TINY if tiny else self.JOBS)]

    def run(self, job: dict, ctx: "Context") -> dict:
        return _in_process_cli([
            "density", "--config", str(ctx.config),
            "--out", str(_job_dir(ctx.workdir, job) / "out"),
            "--separations-um", str(job["separation_um"]), "--n-max", str(job["n_max"]),
        ])

    def observe(self, job: dict, raw: dict, ctx: "Context", reference: dict | None):
        return _table_outcome(raw, _job_dir(ctx.workdir, job) / "out", reference)


class ParamScan:
    """In-process scalar scans over Rydberg levels, plus gauge jobs; no tables."""

    name = "param_scan"
    LEVELS = range(20, 61)
    SCALINGS = ("bare_n", "quantum_defect")
    GAUGE_MAX_N = (1, 2, 3)
    SWEEP_GRID = np.linspace(10.0, 24.0, 141) * 1e-6
    BO_GRID = np.linspace(10.0, 30.0, 201) * 1e-6
    LOOP_SIDE = 1e-6
    TINY = ("level/bare_n/20", "level/bare_n/60", "gauge/1")

    def jobs(self, tiny: bool) -> list[dict]:
        jobs = [{"id": f"level/{scaling}/{n}", "n": n, "scaling": scaling}
                for scaling in self.SCALINGS for n in self.LEVELS]
        jobs += [{"id": f"gauge/{max_n}", "max_n": max_n} for max_n in self.GAUGE_MAX_N]
        return [job for job in jobs if not tiny or job["id"] in self.TINY]

    def run(self, job: dict, ctx: "Context") -> dict:
        try:
            if "max_n" in job:
                return self._gauge(job["max_n"])
            return self._level(job["n"], job["scaling"])
        except Exception:
            return {"error": traceback.format_exc()}

    def _level(self, n: int, scaling: str) -> dict:
        critical = {}
        for pair in ("rr", "rg", "gg"):
            config = ionbridge.reference_config(pair, n, Z0, scaling)
            try:
                critical[pair] = ionbridge.critical_separation(config)
            except ionbridge.NotBracketedError:
                critical[pair] = "NotBracketedError"
        config = ionbridge.reference_config("rr", n, Z0, scaling)
        return {
            "critical": critical,
            "mode_sweep": ionbridge.mode_sweep(config, self.SWEEP_GRID),
            "bo_curve": ionbridge.axial_bo_curve(self.BO_GRID, config.ion_mode, config),
            "scales": ionbridge.characteristic_scales(config),
        }

    def _gauge(self, max_n: int) -> dict:
        config = ionbridge.reference_config("rr")
        modes = ionbridge.cartesian_modes(max_n)
        geometry = ionbridge.AtomPairGeometry.at_trap_centers(config)
        records = ionbridge.connection_records(modes, geometry, config)
        hermiticity = ionbridge.gauge_hermiticity_check(modes, geometry, config)
        loop = ionbridge.square_loop(config, side=self.LOOP_SIDE)
        phases = [ionbridge.berry_phase(loop, mode, config) for mode in modes]
        return {"records": records, "hermiticity": hermiticity, "phases": phases}

    def observe(self, job: dict, raw: dict, ctx: "Context", reference: dict | None):
        if "error" in raw:
            raise JobFailure(raw["error"])
        if "max_n" in job:
            values = np.array([record.value for record in raw["records"]])
            size = float(np.max(np.abs(values)))
            return {
                "records": len(raw["records"]),
                "connection_im": oracle.summarize(values.imag.ravel()),
                "re_abs_max_rel": float(np.max(np.abs(values.real))) / size,
                "hermiticity_rel": raw["hermiticity"] / size,
                "berry_phase_rad": raw["phases"],
            }, {}
        critical = {
            pair: result if isinstance(result, str) else
            {"critical_2z0_um": result.critical_2z0 * 1e6, "limiting_branch": result.limiting_branch}
            for pair, result in raw["critical"].items()
        }
        return {
            "critical": critical,
            "mode_sweep": {key: oracle.summarize(column)
                           for key, column in raw["mode_sweep"].items() if key != "separation"},
            "bo_curve": {key: oracle.summarize(column)
                         for key, column in raw["bo_curve"].items() if key != "z"},
            "scales": dataclasses.asdict(raw["scales"]),
        }, {}


WORKLOADS = {w.name: w for w in (GroundState(), ParamScan())}


@dataclasses.dataclass
class Context:
    workdir: Path
    config: Path
    tracer: Tracer | None = None


@dataclasses.dataclass
class Tally:
    """Outcome counts over every timed job of a run."""

    reference: dict
    attempted: int = 0
    failed: int = 0
    tables_written: int = 0
    tables_identical: int = 0
    failures: list = dataclasses.field(default_factory=list)

    def check(self, workload, job: dict, raw: dict, ctx: Context) -> int:
        """Count one job; returns how many of its tables match the seed digests."""
        self.attempted += 1
        expected = self.reference[job["id"]]
        try:
            summary, digests = workload.observe(job, raw, ctx, expected)
            mismatches = oracle.compare(expected["summary"], summary)
        except (JobFailure, OSError, ValueError) as err:
            mismatches = [str(err)]
            digests = {}
        if mismatches:
            self.failed += 1
            self.failures.append(f"{job['id']}: {'; '.join(mismatches[:3])}")
        identical = sum(expected["tables"].get(name) == digest for name, digest in digests.items())
        self.tables_written += len(digests)
        self.tables_identical += identical
        return identical


def _prepare(jobs: list[dict], ctx: Context) -> None:
    for job in jobs:
        job_dir = _job_dir(ctx.workdir, job)
        shutil.rmtree(job_dir, ignore_errors=True)
        (job_dir / "out").mkdir(parents=True)


def measure(workload, jobs: list[dict], rng: random.Random, seconds: float,
            min_passes: int, ctx: Context, tally: Tally, setup: dict) -> dict:
    """Run whole passes for ``seconds`` and at least ``min_passes`` of them.

    Between passes, a set-up is timed into ``setup`` every SETUP_INTERVAL_S.
    """
    passes, layers = [], []
    start = last_setup = perf_counter()
    time_setup(ctx, setup)
    while perf_counter() - start < seconds or len(passes) < min_passes:
        if perf_counter() - last_setup >= SETUP_INTERVAL_S:
            last_setup = perf_counter()
            time_setup(ctx, setup)
        order = rng.sample(jobs, len(jobs))
        _prepare(order, ctx)
        if ctx.tracer is not None:
            ctx.tracer.reset()
        raws, latencies = [], {}
        pass_start = perf_counter()
        for job in order:
            job_start = perf_counter()
            raws.append(workload.run(job, ctx))
            latencies[job["id"]] = perf_counter() - job_start
        passes.append({"wall": perf_counter() - pass_start, "latencies": latencies})

        identical = sum(tally.check(workload, job, raw, ctx) for job, raw in zip(order, raws))
        if ctx.tracer is not None:
            layer = layer_metrics(ctx.tracer.snapshot())
            layer["csvio.tables_identical"] = identical
            layers.append(layer)
    return {"passes": passes, "layers": layers}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "ionbridge_file": ionbridge.__file__,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        tiny: bool = False) -> dict:
    """Warm up, measure untraced passes and, with ``trace``, traced ones.

    ``workdir`` holds the workload's config as config.json.
    """
    workload = WORKLOADS[workload_name]
    reference = json.loads(REFERENCE.read_text())
    ctx = Context(workdir, workdir / "config.json")
    jobs = workload.jobs(tiny)
    rng = random.Random(seed)

    # One untimed job first: a fresh process pays once for its first BLAS
    # calls (a first 121x121 eigh took 180-245 ms, later ones 2 ms) and
    # page faults.  setup_s times a fresh interpreter's start on its own.
    _prepare(jobs[:1], ctx)
    workload.run(jobs[0], ctx)

    tally = Tally(reference)
    setup = {"setup_s": [], "import.ionbridge.s": [], "import.scipy_constants.s": []}
    if trace:
        untraced = measure(workload, jobs, rng, seconds / 2, 1, ctx, tally, setup)
    else:
        untraced = measure(workload, jobs, rng, seconds, MIN_PASSES, ctx, tally, setup)
    traced = None
    if trace:
        ctx.tracer = Tracer()
        ctx.tracer.install()
        traced = measure(workload, jobs, rng, seconds / 2, 1, ctx, tally, setup)
        ctx.tracer.uninstall()

    return {
        "untraced": untraced,
        "traced": traced,
        "setup": setup,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures[:5],
        "tables_written": tally.tables_written,
        "tables_identical": tally.tables_identical,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "environment": environment(),
    }


def capture(workdir: Path) -> dict:
    """Summaries and table digests of every job, for reference.json."""
    ctx = Context(workdir, workdir / "config.json")
    reference = {}
    for workload in WORKLOADS.values():
        jobs = workload.jobs(tiny=False)
        _prepare(jobs, ctx)
        for job in jobs:
            summary, digests = workload.observe(job, workload.run(job, ctx), ctx, None)
            reference[job["id"]] = {"summary": summary, "tables": digests}
    return reference


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.workdir,
                 tiny=args.tiny)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
