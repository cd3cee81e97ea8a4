"""CSV output with '#' metadata preamble and atomic replace-on-write.

Layout of every table:

    # key = value          (one line per metadata entry, insertion order)
    col_a,col_b,...        (header row naming columns and units)
    1.5,2.25,...           (data rows, floats rendered with %.12g)

Floats go through a fixed format so repeated runs produce byte-identical
files.  A float array of rows is formatted in one call with that
format; any other rows go cell by cell through ``format_value``, which
gives the same bytes for a float.  Writes land in a temporary file in
the target directory and are moved into place with os.replace, so a
crashed run never leaves a truncated table behind.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import ConfigError

__all__ = ["format_value", "write_table"]

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
    path = Path(path)
    if path.exists() and not overwrite:
        raise ConfigError(f"output {path} already exists; pass --overwrite to replace it")
    path.parent.mkdir(parents=True, exist_ok=True)

    lines = [f"# {key} = {format_value(value)}" for key, value in dict(metadata).items()]
    lines.append(",".join(header))
    if isinstance(rows, np.ndarray) and rows.dtype.kind == "f":
        if rows.ndim != 2 or rows.shape[1] != len(header):
            raise ValueError(f"rows of shape {rows.shape} do not match header {len(header)}")
        if len(rows):
            row_format = ",".join([_FLOAT_FORMAT] * len(header))
            lines.append("\n".join([row_format] * len(rows)) % tuple(rows.ravel().tolist()))
    else:
        for row in rows:
            cells = [format_value(cell) for cell in row]
            if len(cells) != len(header):
                raise ValueError(f"row width {len(cells)} does not match header {len(header)}")
            lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"

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
    return path
