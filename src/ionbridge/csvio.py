"""CSV output with '#' metadata preamble and atomic replace-on-write.

Layout of every table:

    # key = value          (one line per metadata entry, insertion order)
    col_a,col_b,...        (header row naming columns and units)
    1.5,2.25,...           (data rows, floats rendered with %.12g)

Floats go through a fixed format so repeated runs produce byte-identical
files.  ``write_table`` formats rows cell by cell through
``format_value``; ``write_grid_table`` gives the same bytes for the rows
of a value grid in one call, formatting each axis value once.
Writes land in a temporary file in the target directory and are moved
into place with os.replace, so a crashed run never leaves a truncated
table behind.  A metadata entry with a line break, or a path that
cannot be written, is a ``ConfigError``.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import ConfigError

__all__ = ["format_value", "write_grid_table", "write_table"]

_FLOAT_FORMAT = "%.12g"


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int,)):
        return str(value)
    if isinstance(value, float):
        return _FLOAT_FORMAT % value
    if isinstance(value, str):
        return value
    try:
        return _FLOAT_FORMAT % float(value)
    except (TypeError, ValueError):
        return str(value)


def write_table(path, metadata, header, rows, overwrite: bool = False) -> Path:
    """Write one CSV table; refuses to clobber unless overwrite is set."""
    body = []
    for row in rows:
        cells = [format_value(cell) for cell in row]
        if len(cells) != len(header):
            raise ValueError(f"row width {len(cells)} does not match header {len(header)}")
        body.append(",".join(cells))
    return _write(path, metadata, header, body, overwrite)


def write_grid_table(path, metadata, header, x, y, values, overwrite: bool = False) -> Path:
    """Write ``values[i, j]`` on the grid x (outer) by y as rows (x_i, y_j,
    value), the bytes ``write_table`` gives for those rows; each axis
    value is formatted once, not once per row."""
    x, y, values = (np.asarray(a, dtype=float) for a in (x, y, values))
    if len(header) != 3 or x.ndim != 1 or y.ndim != 1 or values.shape != (x.size, y.size):
        raise ValueError(f"values of shape {values.shape} on axes of {x.size} and {y.size} "
                         f"points do not match header {len(header)}")
    body = []
    if values.size:
        ends = [f",{_FLOAT_FORMAT % b},{_FLOAT_FORMAT}" for b in y.tolist()]
        starts = [_FLOAT_FORMAT % a for a in x.tolist()]
        template = "\n".join([a + ("\n" + a).join(ends) for a in starts])
        body.append(template % tuple(values.ravel().tolist()))
    return _write(path, metadata, header, body, overwrite)


def _write(path, metadata, header, body: list[str], overwrite: bool) -> Path:
    """Write the preamble and the formatted data lines to a temporary file
    beside ``path``, then move it into place."""
    path = Path(path)
    lines = [f"# {key} = {format_value(value)}" for key, value in dict(metadata).items()]
    for line in lines:
        if line.splitlines() != [line]:
            raise ConfigError(f"table metadata {line[2:]!r} holds a line break")
    lines.append(",".join(header))
    text = "\n".join(lines + body) + "\n"

    try:
        if path.exists() and not overwrite:
            raise ConfigError(f"output {path} already exists; pass --overwrite to replace it")
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            "w", dir=path.parent, prefix=path.name + ".", suffix=".tmp", delete=False
        )
        try:
            with handle:
                # NamedTemporaryFile creates mode 0600; give the table the mode
                # open() would, 0666 less the umask (read by setting it back).
                os.umask(umask := os.umask(0o077))
                os.fchmod(handle.fileno(), 0o666 & ~umask)
                handle.write(text)
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err}") from err
    return path
