"""CSV output with '#' metadata preamble and atomic replace-on-write.

Layout of every table:

    # key = value          (one line per metadata entry, insertion order)
    col_a,col_b,...        (header row naming columns and units)
    1.5,2.25,...           (data rows, floats rendered with %.12g)

Floats go through a fixed format so repeated runs produce byte-identical
files.  ``write_table`` takes one column per header entry; the columns
broadcast to the table's shape and each element of it, row-major, is
one row, so a value grid passes its axes unexpanded.  A float64 array
of the whole shape goes through ``_format_values``, a kernel with
exactly the bytes of ``"%.12g" % v``; every other column (an axis,
bools, ints, strings, a list mixing floats and text) and the metadata
values go cell by cell through ``format_value``.  ``_join`` joins
NUL-padded cell blocks into rows, about _CHUNK_ROWS rows at a time.
Writes land in a temporary file in the target directory and are moved
into place with os.replace, so a crashed run never leaves a truncated
table behind.  A metadata entry with a line break, or a path that
cannot be written, is a ``ConfigError``.
"""

from __future__ import annotations

import functools
import math
import os
import tempfile
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from .errors import ConfigError

__all__ = ["format_value", "write_table"]

_FLOAT_FORMAT = "%.12g"


def format_value(value) -> str:
    """One metadata value or cell outside a float64 array: true or false,
    ``"%.12g"`` of a float, else str (ints and strings)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return _FLOAT_FORMAT % value if isinstance(value, float) else str(value)


def write_table(path, metadata, header, columns, overwrite: bool = False) -> Path:
    """Write one CSV table of ``columns``, one per header entry; refuses to
    clobber unless overwrite is set.  The columns broadcast to the table's
    shape, and each element of that shape, row-major, is one row: 1-D
    columns of one length give their rows, and ``(x[:, None], y, v)`` the
    rows (x_i, y_j, v_ij) of a grid.  A float64 array of the whole shape
    stays numeric until its block is formatted; every other column is
    formatted once, at its own shape, an array after ``tolist()``, so
    numpy bools print as bools."""
    shapes = [np.shape(column) for column in columns]
    shape = np.broadcast_shapes(*shapes)   # numpy's ValueError unless they broadcast
    if len(shapes) != len(header) or not shape:
        raise ValueError(f"columns of shapes {shapes} do not broadcast to the rows of "
                         f"header {list(header)}")
    cells = [column if isinstance(column, np.ndarray) and column.dtype == np.float64
             and column.shape == shape else _text_cells(column, shape) for column in columns]
    step = max(1, _CHUNK_ROWS // max(math.prod(shape[1:]), 1))

    def chunks():
        for first in range(0, shape[0], step):
            blocks = (cell[first:first + step] for cell in cells)
            yield _join([b if b.dtype == np.uint8 else
                         _format_values(b.ravel()).reshape(b.shape + (_WIDTH,))
                         for b in blocks])

    return _write(path, metadata, header, chunks(), overwrite)


def _text_cells(column, shape) -> np.ndarray:
    """``column`` cell by cell through ``format_value``, NUL padded and
    broadcast to ``shape``; a sequence is taken as objects, not parsed."""
    values = column if isinstance(column, np.ndarray) else np.array(column, dtype=object)
    cells = _padded([format_value(v) for v in values.ravel().tolist()])
    return np.broadcast_to(cells.reshape(values.shape + cells.shape[-1:]),
                           shape + cells.shape[-1:])


# Table rows per block of the writer.  A block's arrays take a few MB;
# blocks of 65,536 rows, one per 161 x 161 table, raised the peak RSS of the
# ground_state benchmark by 0.6 MB over formatting through "%" in one piece.
_CHUNK_ROWS = 1 << 14
_WIDTH = 40   # bytes per value in _format_values: ten 4-byte words


def _join(cells) -> str:
    """Rows of NUL-padded cell blocks, uint8 arrays whose last axis holds
    one cell and whose other axes broadcast to the rows: cells joined by
    commas, each row ended by a newline, the NULs dropped."""
    shape = np.broadcast_shapes(*(cell.shape[:-1] for cell in cells))
    lines = np.empty(shape + (sum(cell.shape[-1] + 1 for cell in cells),), dtype=np.uint8)
    end = 0
    for cell in cells:
        lines[..., end:end + cell.shape[-1]] = cell
        end += cell.shape[-1] + 1
        lines[..., end - 1] = ord(",")
    lines[..., -1] = ord("\n")
    return lines.tobytes().translate(None, b"\0").decode("ascii")


def _padded(strings, width: int | None = None) -> np.ndarray:
    """ASCII strings as the rows of a uint8 matrix, NUL padded to ``width``
    bytes or to the longest string."""
    array = np.array(strings, dtype=f"S{width or ''}")
    return array.view(np.uint8).reshape(array.size, array.dtype.itemsize)


@functools.cache
def _tables():
    """Lookup tables of ``_format_values``, built on first use.

    scales: the correctly rounded 10**(11 - e) for e in [-297, 308], at
    e + 297.
    quads: the four digits of 0..9999 as a word; trailing: their
    trailing zero count (4 for 0).  keep[k]: the three words that keep
    the first k of 12 bytes.  The signs, points and exponent parts follow
    ``_format_values``.
    """
    scales = np.array([float(f"1e{11 - e}") for e in range(-297, 309)])
    n = np.arange(10_000)
    quads = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1) + ord("0")
    quads = quads.astype(np.uint8).view(np.uint32).ravel()
    trailing = sum((n % place == 0).astype(np.int64) for place in (10, 100, 1000, 10_000))
    keep = ((np.arange(12) < np.arange(13)[:, None]) * 0xFF).astype(np.uint8).view(np.uint32)
    heads = _padded(["", "0", "-", "-0"], 4).view(np.uint32).ravel()
    points = _padded(["", ".", ".", ".0", ".00", ".000"], 4).view(np.uint32).ravel()
    exponents = _padded([f"e{e:+03d}" for e in range(-297, 309)] + [""], 8)
    exponents = exponents.view(np.uint64).ravel()
    return scales, quads, trailing, keep, heads, points, exponents


def _format_values(values: np.ndarray) -> np.ndarray:
    """``"%.12g" % v`` of each value as one row of _WIDTH bytes, NUL padded.

    The row is ten 4-byte words: sign and leading "0", the digits before
    the point, the point and any zeros after it, the digits after those,
    and the exponent.  A finite value with |v| > 1e-297 takes this
    vectorized path when its 12-digit mantissa m = |v| 10**(11 - e), e =
    floor(log10|v|), lies at least 1e-2 above 1e11, rounds below 1e12
    and lies at least 1e-3 from a rounding tie.  Computed with two
    roundings, m is then within 3e-4 of its exact value, so rounding it
    gives the digits of the correctly rounded decimal.  Every other value
    (zero, nan, +-inf, |v| <= 1e-297, and those near a tie or a power of
    ten) goes through ``"%.12g" % v`` itself.
    """
    scales, quads, trailing, keep, heads, points, exponents = _tables()
    size = np.abs(values)
    fast = np.isfinite(size) & (size > 1e-297)
    size = np.where(fast, size, 1.0)
    exp = np.maximum(np.floor(np.log10(size)), -297).astype(np.int64)
    scaled = size * scales[exp + 297]
    mantissa = np.rint(scaled)
    fast &= (scaled >= 1e11 + 1e-2) & (mantissa < 1e12) & (np.abs(scaled - mantissa) < 0.499)

    high, low = np.divmod(np.where(fast, mantissa, 1e11).astype(np.int64), 10_000)
    top, mid = np.divmod(high, 10_000)
    digits = quads[np.stack([top, mid, low], axis=1)]
    count = 12 - (trailing[low] + (low == 0) * (trailing[mid] + (mid == 0) * trailing[top]))

    # %.12g: fixed notation for -4 <= exp < 12, else d[.ddd]e+XX
    fixed = (exp >= -4) & (exp < 12)
    below_one = fixed & (exp < 0)
    split = np.where(fixed, np.maximum(exp + 1, 0), 1)    # digits before the point
    shown = np.maximum(count, split)                       # digits printed
    before = np.take(keep, split, axis=0)

    words = np.empty((values.size, _WIDTH // 4), dtype=np.uint32)
    words[:, 0] = heads[2 * (values < 0) + below_one]
    words[:, 1:4] = digits & before
    words[:, 4] = points[np.where(below_one, 1 - exp, shown > split)]
    words[:, 5:8] = digits & np.take(keep, shown, axis=0) & ~before
    words[:, 8:].view(np.uint64)[:, 0] = exponents[np.where(fixed, -1, exp + 297)]

    text = words.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text[slow] = _padded([_FLOAT_FORMAT % v for v in values[slow].tolist()], _WIDTH)
    return text


def _write(path, metadata, header, body: Iterable[str], overwrite: bool) -> Path:
    """Write the preamble and then each piece of ``body``, whole lines of
    text, to a temporary file beside ``path``; then move it into place."""
    path = Path(path)
    lines = [f"# {key} = {format_value(value)}" for key, value in dict(metadata).items()]
    for line in lines:
        if line.splitlines() != [line]:
            raise ConfigError(f"table metadata {line[2:]!r} holds a line break")
    lines.append(",".join(header))
    preamble = "\n".join(lines) + "\n"

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
                handle.write(preamble)
                for text in body:
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
