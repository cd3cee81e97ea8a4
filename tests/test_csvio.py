"""Table writer: value grids are formatted in one call with the bytes that
per-cell rows give."""

import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ionbridge import ConfigError, csvio
from ionbridge.csvio import format_value, write_grid_table, write_table

SPECIAL = [
    0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, -1e300, 1e-300, 1.0 / 3.0, 123456789012.5, 1e16, 0.1,
    -2.5, 1e12, 999999999999.5,
]


def per_cell_text(metadata, header, rows):
    """The table layout with every cell through format(v, ".12g")."""
    lines = [f"# {key} = {format_value(value)}" for key, value in metadata.items()]
    lines.append(",".join(header))
    lines.extend(",".join(format(float(cell), ".12g") for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def grid_rows(x, y, values):
    """The rows (x_i, y_j, values[i, j]) of a value grid, x outer."""
    grid_x, grid_y = np.meshgrid(x, y, indexing="ij")
    return np.column_stack([grid_x.ravel(), grid_y.ravel(), values.ravel()])


def test_float_array_bytes_match_per_cell_format(tmp_path):
    # +-0, +-inf, nan, subnormals, 1e+-300 and random values on the axes
    # and in the grid
    rng = np.random.default_rng(3)
    axis = np.concatenate([SPECIAL, [-v for v in SPECIAL]])
    x = np.concatenate([axis, rng.normal(size=14) * 10.0 ** rng.uniform(-300, 300, size=14)])
    y = axis[::-1].copy()
    shape = (x.size, y.size)
    values = rng.normal(size=shape) * 10.0 ** rng.uniform(-300, 300, size=shape)
    values.flat[:axis.size] = axis
    metadata = {"command": "test", "count": 3, "flag": True, "value": np.float64(0.1)}
    header = ["a", "b", "c"]

    path = write_grid_table(tmp_path / "t.csv", metadata, header, x, y, values)
    assert path.read_bytes() == per_cell_text(metadata, header, grid_rows(x, y, values)).encode()


@pytest.mark.parametrize("shape", [(0, 3), (0, 1), (5, 1), (1, 3), (1, 1)])
def test_small_float_arrays_match_per_cell_format(tmp_path, shape):
    rows = np.array(SPECIAL[:shape[0] * shape[1]]).reshape(shape)
    header = ["a", "b", "c"][:shape[1]]
    path = write_table(tmp_path / "t.csv", {"n": shape[0]}, header, rows)
    assert path.read_bytes() == per_cell_text({"n": shape[0]}, header, rows).encode()
    assert len(path.read_text().splitlines()) == 2 + shape[0]


def test_float_array_and_tuple_rows_agree(tmp_path):
    x, y = np.array(SPECIAL[:6]), np.array(SPECIAL[6:9])
    values = np.array(SPECIAL).reshape(6, 3)
    bulk = write_grid_table(tmp_path / "bulk.csv", {}, ["a", "b", "c"], x, y, values)
    cells = write_table(tmp_path / "cells.csv", {}, ["a", "b", "c"],
                        [(a, np.float64(b), float(v)) for a, b, v in grid_rows(x, y, values)])
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


@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 7), (7, 1), (161, 161)])
def test_grid_table_bytes_match_the_row_table(tmp_path, nx, ny):
    rng = np.random.default_rng(nx * 1000 + ny)
    x = np.sort(rng.normal(size=nx)) * 1e1
    y = np.sort(rng.normal(size=ny)) * 1e-3
    values = rng.normal(size=(nx, ny)) * 10.0 ** rng.uniform(-300, 5, size=(nx, ny))
    values.flat[:len(SPECIAL)] = SPECIAL[:values.size]
    rows = grid_rows(x, y, values)
    metadata = {"command": "density", "grid_points": nx}
    header = ["z1_um", "z2_um", "density_per_um2"]
    grid = write_grid_table(tmp_path / "grid.csv", metadata, header, x, y, values)
    table = write_table(tmp_path / "rows.csv", metadata, header, rows)
    assert grid.read_bytes() == table.read_bytes()


def test_grid_table_shape_must_match(tmp_path):
    with pytest.raises(ValueError):
        write_grid_table(tmp_path / "t.csv", {}, ["a", "b", "c"], np.zeros(3), np.zeros(4),
                         np.zeros((4, 3)))
    with pytest.raises(ValueError):
        write_grid_table(tmp_path / "t.csv", {}, ["a", "b"], np.zeros(3), np.zeros(4),
                         np.zeros((3, 4)))
    assert not (tmp_path / "t.csv").exists()


def test_grid_table_refuses_to_clobber(tmp_path):
    path = write_grid_table(tmp_path / "t.csv", {}, ["a", "b", "c"], [1.0], [2.0], [[3.0]])
    with pytest.raises(ConfigError, match="already exists"):
        write_grid_table(path, {}, ["a", "b", "c"], [1.0], [2.0], [[4.0]])
    write_grid_table(path, {}, ["a", "b", "c"], [1.0], [2.0], [[4.0]], overwrite=True)
    assert path.read_text() == "a,b,c\n1,2,4\n"


@pytest.mark.parametrize("value", ["30S-\n25S", "30S-\r25S", "a\r\nb", "a\x1cb", "end\n"])
def test_metadata_line_breaks_are_refused_before_anything_is_written(tmp_path, value):
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match="line break"):
        write_table(out / "t.csv", {"pairs": value}, ["a"], [(1.0,)])
    assert not out.exists()


HEADER = ["z1_um", "z2_um", "density_per_um2"]


def assert_grid_bytes_match_per_cell_format(x, y, values):
    """write_grid_table writes the table that per-cell %.12g gives."""
    with tempfile.TemporaryDirectory() as folder:
        path = write_grid_table(Path(folder) / "t.csv", {}, HEADER, x, y, values)
        assert path.read_bytes() == per_cell_text({}, HEADER, grid_rows(x, y, values)).encode()


def assert_values_match_per_cell_format(values):
    """The values, one per row, as write_grid_table writes them."""
    values = np.asarray(values, dtype=float).reshape(-1, 1)
    assert_grid_bytes_match_per_cell_format(np.arange(float(len(values))), np.array([0.5]),
                                            values)


@st.composite
def float_grids(draw):
    """Axes and a value grid of any float64: nan, +-inf, subnormals, +-0."""
    shape = draw(hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=12))
    floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    return (draw(hnp.arrays(np.float64, shape[0], elements=floats)),
            draw(hnp.arrays(np.float64, shape[1], elements=floats)),
            draw(hnp.arrays(np.float64, shape, elements=floats)))


@settings(max_examples=200, deadline=None)
@given(float_grids())
def test_any_float_grid_matches_per_cell_format(grid):
    assert_grid_bytes_match_per_cell_format(*grid)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(10**11, 10**12 - 1), st.integers(-335, 296),
                          st.sampled_from([-1.0, 1.0])), min_size=1, max_size=40))
def test_thirteen_digit_ties_match_per_cell_format(draws):
    # d.ddddddddddd5 x 10**k sits on, or one rounding away from, a
    # rounding tie of the twelfth digit
    ties = np.array([sign * float(f"{digits}5e{k}") for digits, k, sign in draws])
    assert_values_match_per_cell_format(
        np.concatenate([ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf)]))


def test_neighbours_of_powers_of_ten_match_per_cell_format():
    powers = np.array([float(f"1e{k}") for k in range(-310, 309)])
    near = [powers]
    for direction in (np.inf, -np.inf):
        step = powers
        for _ in range(3):
            step = np.nextafter(step, direction)
            near.append(step)
    near = np.concatenate(near)
    assert_values_match_per_cell_format(np.concatenate([near, -near]))


@pytest.mark.parametrize("shape", [(csvio._CHUNK_ROWS + 1, 1), (1, csvio._CHUNK_ROWS + 1)])
def test_grid_one_row_longer_than_a_block_matches_per_cell_format(shape):
    rng = np.random.default_rng(sum(shape))
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-30, 30, size=shape)
    values.flat[-len(SPECIAL):] = SPECIAL
    assert_grid_bytes_match_per_cell_format(rng.normal(size=shape[0]),
                                            rng.normal(size=shape[1]), values)


@pytest.mark.parametrize("chunk_rows", [3, 6, 12])   # blocks of 1, 2 and 4 rows
def test_blocks_end_between_grid_rows(monkeypatch, chunk_rows):
    monkeypatch.setattr(csvio, "_CHUNK_ROWS", chunk_rows)
    values = np.array(SPECIAL).reshape(6, 3)
    assert_grid_bytes_match_per_cell_format(np.arange(6.0), np.array([0.1, -2.5, 1e16]), values)
