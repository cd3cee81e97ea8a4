"""Table writer: float arrays are formatted in one call with the per-cell bytes."""

import os

import numpy as np
import pytest

from ionbridge.csvio import format_value, write_table

SPECIAL = [
    0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, -1e300, 1e-300, 1.0 / 3.0, 123456789012.5, 1e16, 0.1,
    -2.5, 1e12, 999999999999.5,
]


def per_cell_text(metadata, header, rows):
    """The writer's former layout: every cell through format(v, ".12g")."""
    lines = [f"# {key} = {format_value(value)}" for key, value in metadata.items()]
    lines.append(",".join(header))
    lines.extend(",".join(format(float(cell), ".12g") for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def test_float_array_bytes_match_per_cell_format(tmp_path):
    rng = np.random.default_rng(3)
    random = rng.normal(size=(2000, 3)) * 10.0 ** rng.uniform(-300, 300, size=(2000, 3))
    special = np.array(SPECIAL).reshape(-1, 3)
    rows = np.vstack([special, -special, random])
    metadata = {"command": "test", "count": 3, "flag": True, "value": np.float64(0.1)}
    header = ["a", "b", "c"]

    path = write_table(tmp_path / "t.csv", metadata, header, rows)
    assert path.read_bytes() == per_cell_text(metadata, header, rows).encode()


@pytest.mark.parametrize("shape", [(0, 3), (0, 1), (5, 1), (1, 3), (1, 1)])
def test_small_float_arrays_match_per_cell_format(tmp_path, shape):
    rows = np.array(SPECIAL[:shape[0] * shape[1]]).reshape(shape)
    header = ["a", "b", "c"][:shape[1]]
    path = write_table(tmp_path / "t.csv", {"n": shape[0]}, header, rows)
    assert path.read_bytes() == per_cell_text({"n": shape[0]}, header, rows).encode()
    assert len(path.read_text().splitlines()) == 2 + shape[0]


def test_float_array_and_tuple_rows_agree(tmp_path):
    rows = np.array(SPECIAL).reshape(-1, 3)
    bulk = write_table(tmp_path / "bulk.csv", {}, ["a", "b", "c"], rows)
    cells = write_table(tmp_path / "cells.csv", {}, ["a", "b", "c"],
                        [tuple(np.float64(v) for v in row) for row in rows])
    assert bulk.read_bytes() == cells.read_bytes()


def test_float_array_width_must_match_header(tmp_path):
    with pytest.raises(ValueError):
        write_table(tmp_path / "t.csv", {}, ["a", "b"], np.zeros((4, 3)))


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_table_mode_follows_the_umask(tmp_path, umask, mode):
    previous = os.umask(umask)
    try:
        path = write_table(tmp_path / "t.csv", {}, ["a"], np.zeros((2, 1)))
        assert os.umask(umask) == umask  # the writer restores the umask
    finally:
        os.umask(previous)
    assert path.stat().st_mode & 0o777 == mode
