"""Per-layer tracing from outside the library.

``Tracer.install`` wraps the public functions listed in ``TRACED`` in
every ``ionbridge`` module namespace that binds them, so calls the
library makes internally are counted as well as the benchmark's own.
Each wrapper is a span: it counts the call and adds its self time, its
duration minus the time spent in wrapped functions it called.  A few
hooks record the work done (matrix sizes, eigenpairs, bytes written).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

TRACED = [
    ("config", "load_config"),
    ("model", "validate"),
    ("potentials", "axial_bo_curve"),
    ("potentials", "bo_eigenvalue"),
    ("expansion", "effective_frequencies"),
    ("phonons", "phonon_spectrum"),
    ("phonons", "critical_separation"),
    ("phonons", "mode_sweep"),
    ("motion", "axial_hamiltonian_matrix"),
    ("motion", "symmetric_eigensolve"),
    ("motion", "basis_ground_state"),
    ("motion", "pair_density"),
    ("motion", "gaussian_ground_state"),
    ("gauge", "connection_records"),
    ("gauge", "connection_matrix"),
    ("gauge", "berry_phase"),
    ("gauge", "gauge_hermiticity_check"),
    ("csvio", "write_table"),
    ("csvio", "format_value"),
    ("cli", "main"),
]


def rebind(original, replacement) -> None:
    """Replace ``original`` by ``replacement`` in every loaded ionbridge module."""
    for name, module in list(sys.modules.items()):
        if name != "ionbridge" and not name.startswith("ionbridge."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Tracer:
    """Call counts, self times and work counters of the traced functions."""

    def __init__(self):
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []        # [name, time spent in child spans]
        self._installed: list[tuple] = []

    def reset(self) -> None:
        self.counters.clear()

    def snapshot(self) -> dict[str, float]:
        return dict(self.counters)

    def install(self) -> None:
        for module_name, function_name in TRACED:
            module = importlib.import_module(f"ionbridge.{module_name}")
            original = getattr(module, function_name)
            wrapper = self._wrap(f"{module_name}.{function_name}", original)
            rebind(original, wrapper)
            self._installed.append((original, wrapper))

    def uninstall(self) -> None:
        for original, wrapper in self._installed:
            rebind(wrapper, original)
        self._installed.clear()

    def _active(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def _wrap(self, name: str, function):
        hook = _HOOKS.get(name)
        signature = inspect.signature(function)
        counters, stack = self.counters, self._stack

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if name == "phonons.phonon_spectrum" and self._active("phonons.critical_separation"):
                counters["phonons.critical_separation.spectra"] += 1
            caller = stack[-1][0] if stack else None
            stack.append([name, 0.0])
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                _, child = stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                counters[name + ".calls"] += 1
                counters[name + ".s"] += elapsed - child
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(counters, bound.arguments, result, caller)
            return result

        return wrapper


# Eigenpairs that the traced caller reads from one symmetric_eigensolve:
# basis_ground_state the lowest pair (values[0], vectors[:, 0]) of each
# of its solves, gaussian_ground_state both pairs of its 2x2 mode
# matrix.  Any other caller is taken to read every pair.
PAIRS_READ = {"motion.basis_ground_state": 1, "motion.gaussian_ground_state": 2}


def _matrix_hook(counters, arguments, result, caller):
    key = "motion.axial_hamiltonian_matrix.dim_max"
    counters[key] = max(counters[key], result.shape[0])


def _eigensolve_hook(counters, arguments, result, caller):
    computed = len(result[0])
    counters["motion.symmetric_eigensolve.pairs_computed"] += computed
    counters["motion.symmetric_eigensolve.pairs_used"] += PAIRS_READ.get(caller, computed)


def _ground_state_hook(counters, arguments, result, caller):
    if result.n_max > arguments["n_max"]:
        counters["motion.basis_ground_state.ramps"] += 1


def _write_table_hook(counters, arguments, result, caller):
    counters["csvio.write_table.bytes"] += Path(result).stat().st_size


_HOOKS = {
    "motion.axial_hamiltonian_matrix": _matrix_hook,
    "motion.symmetric_eigensolve": _eigensolve_hook,
    "motion.basis_ground_state": _ground_state_hook,
    "csvio.write_table": _write_table_hook,
}


def layer_metrics(counters: dict[str, float]) -> dict[str, float]:
    """Raw counters of one pass plus the ratios derived from them."""
    out = defaultdict(float, counters)
    calls = out["phonons.critical_separation.calls"]
    out["phonons.critical_separation.spectra_per_call"] = (
        out["phonons.critical_separation.spectra"] / calls if calls else 0.0)
    computed = out["motion.symmetric_eigensolve.pairs_computed"]
    used = out["motion.symmetric_eigensolve.pairs_used"]
    out["motion.eigenpairs_used_ratio"] = used / computed if computed else 0.0
    return out
