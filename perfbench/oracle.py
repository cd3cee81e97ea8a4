"""Per-job output oracle: summaries of job outputs and their comparison.

A job's output is reduced to a JSON-able summary: scalars and strings
as they are, and every array or table column as its length, a strided
sample of at most ``SAMPLES + 1`` values, and the sum of the absolute
values of its numeric cells.  ``capture.py`` stores the summaries of
the seed commit in ``reference.json``; the benchmark compares each
job's summary against it with ``compare``.

Tolerance: a number passes when |observed - expected| <= RTOL |expected|
+ ATOL_REL * (largest |value| of the list it sits in) + the absolute
tolerance ``ABS_TOL`` names for its key.  Strings and booleans must be
equal.  ``ABS_TOL`` covers quantities whose reference value is zero by
construction: Berry phases, at the 1e-8 rad refinement gate of
``berry_phase``, and the gauge connection's real part and hermiticity
residual, relative to the connection's size.

Table metadata entries whose key contains "residual" report numerical
noise (an energy drift, a hermiticity residual) that moves with the
BLAS thread count; they are left out of the summary.  The sha256 of the
whole table still covers them.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

RTOL = 1e-9
ATOL_REL = 1e-12
SAMPLES = 12
ABS_TOL = {
    "berry_phase_rad": 1e-8,
    "hermiticity_rel": 1e-12,
    "re_abs_max_rel": 1e-12,
}


def _plain(value):
    """Python scalar for a numpy scalar, unchanged otherwise."""
    return value.item() if hasattr(value, "item") else value


def summarize(values) -> dict:
    """Length, strided sample and numeric absolute sum of a sequence."""
    values = [_plain(v) for v in values]
    stride = max(1, len(values) // SAMPLES)
    numbers = [v for v in values if _is_number(v)]
    return {"n": len(values), "sample": values[::stride],
            "abs_sum": math.fsum(abs(v) for v in numbers)}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def table_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_table(path) -> dict:
    """Summary of one CSV table written by ``ionbridge.csvio.write_table``."""
    meta, header, rows = {}, None, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            if "residual" not in key:
                meta[key] = _cell(value)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    header = header or []
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"{path}: a row does not match the header width")
    columns = {name: summarize(_cell(row[i]) for row in rows)
               for i, name in enumerate(header)}
    return {"meta": meta, "columns": columns}


def compare(expected, observed, path: str = "") -> list[str]:
    """Mismatches between a reference summary and an observed one."""
    key = path.rsplit(".", 1)[-1]
    if isinstance(expected, dict):
        if not isinstance(observed, dict) or set(expected) != set(observed):
            got = sorted(observed) if isinstance(observed, dict) else observed
            return [f"{path}: expected keys {sorted(expected)}, got {got}"]
        out = []
        for name in expected:
            out += compare(expected[name], observed[name], f"{path}.{name}" if path else name)
        return out
    if isinstance(expected, list):
        if not isinstance(observed, list) or len(observed) != len(expected):
            return [f"{path}: expected {len(expected)} values, got {observed!r:.80}"]
        scale = max((abs(v) for v in expected if _is_number(v)), default=0.0)
        out = []
        for i, (e, o) in enumerate(zip(expected, observed)):
            out += _compare_scalar(e, o, f"{path}[{i}]", key, scale)
        return out
    return _compare_scalar(expected, observed, path, key, abs(expected) if _is_number(expected) else 0.0)


def _compare_scalar(expected, observed, path: str, key: str, scale: float) -> list[str]:
    if _is_number(expected):
        if not _is_number(observed):
            return [f"{path}: expected {expected!r}, got {observed!r}"]
        tol = RTOL * abs(expected) + ATOL_REL * scale + ABS_TOL.get(key, 0.0)
        if not abs(observed - expected) <= tol:
            return [f"{path}: expected {expected!r}, got {observed!r} (tolerance {tol:.3g})"]
        return []
    if type(expected) is not type(observed) or expected != observed:
        return [f"{path}: expected {expected!r}, got {observed!r}"]
    return []
