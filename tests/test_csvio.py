"""The table writer: columns that broadcast to the table's shape, value
grids among them, give the bytes that per-cell formatting gives, floats
through %.12g."""

import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ionbridge import ConfigError, csvio
from ionbridge.csvio import format_value, write_table

SPECIAL = [
    0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, -1e300, 1e-300, 1.0 / 3.0, 123456789012.5, 1e16, 0.1,
    -2.5, 1e12, 999999999999.5,
]


def cell_text(value):
    """One cell: floats through format(v, ".12g"), bools as true/false."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return format(value, ".12g") if isinstance(value, float) else str(value)


def per_cell_text(metadata, header, columns):
    """The table layout with every cell through ``cell_text``."""
    lines = [f"# {key} = {format_value(value)}" for key, value in metadata.items()]
    lines.append(",".join(header))
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    lines.extend(",".join(map(cell_text, row)) for row in zip(*columns))
    return "\n".join(lines) + "\n"


def grid_columns(x, y, values):
    """The columns x_i, y_j and values[i, j] of a value grid's rows, x outer."""
    grid_x, grid_y = np.meshgrid(x, y, indexing="ij")
    return [grid_x.ravel(), grid_y.ravel(), values.ravel()]


def broadcast_columns(columns):
    """The 1-D columns of the rows that broadcast columns stand for, row-major."""
    return [column.ravel() for column in np.broadcast_arrays(*columns)]


@pytest.mark.parametrize("value, text", [
    (True, "true"), (False, "false"), (3, "3"), (-7, "-7"), (0.1, "0.1"),
    (np.float64(1.0 / 3.0), "0.333333333333"), (-0.0, "-0"), ("30S-25S", "30S-25S"),
])
def test_format_value_rules(value, text):
    assert format_value(value) == text


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

    path = write_table(tmp_path / "t.csv", metadata, header, [x[:, None], y, values])
    assert path.read_bytes() == per_cell_text(metadata, header, grid_columns(x, y, values)).encode()


@pytest.mark.parametrize("shape", [(0, 3), (0, 1), (5, 1), (1, 3), (1, 1)])
def test_small_float_arrays_match_per_cell_format(tmp_path, shape):
    columns = list(np.array(SPECIAL[:shape[0] * shape[1]]).reshape(shape).T)
    header = ["a", "b", "c"][:shape[1]]
    path = write_table(tmp_path / "t.csv", {"n": shape[0]}, header, columns)
    assert path.read_bytes() == per_cell_text({"n": shape[0]}, header, columns).encode()
    assert len(path.read_text().splitlines()) == 2 + shape[0]


def test_float_array_and_tuple_rows_agree(tmp_path):
    x, y = np.array(SPECIAL[:6]), np.array(SPECIAL[6:9])
    values = np.array(SPECIAL).reshape(6, 3)
    bulk = write_table(tmp_path / "bulk.csv", {}, ["a", "b", "c"], [x[:, None], y, values])
    a, b, v = grid_columns(x, y, values)
    # tuples of floats and numpy floats go cell by cell through format_value
    cells = write_table(tmp_path / "cells.csv", {}, ["a", "b", "c"],
                        [tuple(a.tolist()), tuple(np.float64(c) for c in b), tuple(v.tolist())])
    assert bulk.read_bytes() == cells.read_bytes()


def test_float_array_width_must_match_header(tmp_path):
    with pytest.raises(ValueError):
        write_table(tmp_path / "t.csv", {}, ["a", "b"], list(np.zeros((3, 4))))
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("columns", [
    [np.zeros(4), np.zeros(3)],                       # ragged float columns
    [np.zeros(4), [1, 2, 3]],                         # ragged mixed columns
    [["a", "b"], np.zeros(2), [True, False]],         # more columns than header entries
    [np.zeros(2)],                                    # fewer
    [np.zeros((2, 3)), np.zeros(2)],                  # shapes that do not broadcast
    [np.float64(1.0), np.zeros(())],                  # no rows: the shape is 0-d
])
def test_columns_that_do_not_form_the_table_are_refused_before_anything_is_written(
        tmp_path, columns):
    out = tmp_path / "out"
    with pytest.raises(ValueError):
        write_table(out / "t.csv", {}, ["a", "b"], columns)
    assert not out.exists()


def test_a_matrix_and_a_row_broadcast_to_one_row_per_element(tmp_path):
    # a (2, 2) column and a length-2 one form a 2 x 2 table of 4 rows
    columns = [np.array([[0.5, -0.0], [np.inf, 1e300]]), np.array([3.0, np.nan])]
    path = write_table(tmp_path / "t.csv", {}, ["a", "b"], columns)
    assert path.read_text().splitlines() == ["a,b", "0.5,3", "-0,nan", "inf,3", "1e+300,nan"]
    assert path.read_bytes() == per_cell_text({}, ["a", "b"],
                                              broadcast_columns(columns)).encode()


def test_mixed_float_and_text_list_column(tmp_path):
    # the critical table's critical_2z0_um column: a float per bracketed pair, else n/a
    columns = [["30S-30S", "g-g", "25S-25S"], [9.18866953906, "n/a", -0.0],
               np.array([True, False, True]), np.array([3, -1, 0])]
    path = write_table(tmp_path / "t.csv", {"pairs": "rr gg"}, ["a", "b", "c", "d"], columns)
    assert path.read_text().splitlines()[2:] == [
        "30S-30S,9.18866953906,true,3", "g-g,n/a,false,-1", "25S-25S,-0,true,0"]
    assert path.read_bytes() == per_cell_text({"pairs": "rr gg"}, ["a", "b", "c", "d"],
                                              columns).encode()


@st.composite
def mixed_columns(draw):
    """A table of float64 columns of any value (nan, +-inf, subnormals,
    +-0) mixed with bool, int and str columns."""
    rows = draw(st.integers(0, 12))
    floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    kinds = {
        "float": hnp.arrays(np.float64, rows, elements=floats),
        "bool": hnp.arrays(np.bool_, rows),
        "int": hnp.arrays(np.int64, rows),
        "str": st.lists(st.text("abcxyz-/_ ", max_size=8), min_size=rows, max_size=rows),
    }
    return [draw(kinds[kind]) for kind in
            draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=6))]


@settings(max_examples=200, deadline=None)
@given(mixed_columns())
def test_any_mixed_columns_match_per_cell_format(columns):
    header = [f"c{i}" for i in range(len(columns))]
    with tempfile.TemporaryDirectory() as folder:
        path = write_table(Path(folder) / "t.csv", {"rows": len(columns[0])}, header, columns)
        assert path.read_bytes() == per_cell_text({"rows": len(columns[0])}, header,
                                                  columns).encode()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_table_mode_follows_the_umask(tmp_path, umask, mode):
    previous = os.umask(umask)
    try:
        path = write_table(tmp_path / "t.csv", {}, ["a"], [np.zeros(2)])
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
    metadata = {"command": "density", "grid_points": nx}
    header = ["z1_um", "z2_um", "density_per_um2"]
    grid = write_table(tmp_path / "grid.csv", metadata, header, [x[:, None], y, values])
    table = write_table(tmp_path / "rows.csv", metadata, header, grid_columns(x, y, values))
    assert grid.read_bytes() == table.read_bytes()


def test_grid_table_shape_must_match(tmp_path):
    with pytest.raises(ValueError):
        write_table(tmp_path / "t.csv", {}, ["a", "b", "c"],
                    [np.zeros(3)[:, None], np.zeros(4), np.zeros((4, 3))])
    with pytest.raises(ValueError):
        write_table(tmp_path / "t.csv", {}, ["a", "b"],
                    [np.zeros(3)[:, None], np.zeros(4), np.zeros((3, 4))])
    assert not (tmp_path / "t.csv").exists()


def test_grid_table_refuses_to_clobber(tmp_path):
    def grid(value):
        return [np.array([[1.0]]), np.array([2.0]), np.array([[value]])]

    path = write_table(tmp_path / "t.csv", {}, ["a", "b", "c"], grid(3.0))
    with pytest.raises(ConfigError, match="already exists"):
        write_table(path, {}, ["a", "b", "c"], grid(4.0))
    write_table(path, {}, ["a", "b", "c"], grid(4.0), overwrite=True)
    assert path.read_text() == "a,b,c\n1,2,4\n"


@pytest.mark.parametrize("value", ["30S-\n25S", "30S-\r25S", "a\r\nb", "a\x1cb", "end\n"])
def test_metadata_line_breaks_are_refused_before_anything_is_written(tmp_path, value):
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match="line break"):
        write_table(out / "t.csv", {"pairs": value}, ["a"], [np.array([1.0])])
    assert not out.exists()


HEADER = ["z1_um", "z2_um", "density_per_um2"]


def assert_grid_bytes_match_per_cell_format(x, y, values):
    """The grid's columns (x[:, None], y, values) give the table that per-cell
    %.12g gives."""
    with tempfile.TemporaryDirectory() as folder:
        path = write_table(Path(folder) / "t.csv", {}, HEADER, [x[:, None], y, values])
        assert path.read_bytes() == per_cell_text({}, HEADER, grid_columns(x, y, values)).encode()


def assert_values_match_per_cell_format(values):
    """The values, one per row, as a grid of one column writes them."""
    values = np.asarray(values, dtype=float).reshape(-1, 1)
    assert_grid_bytes_match_per_cell_format(np.arange(float(len(values))), np.array([0.5]),
                                            values)


@st.composite
def float_grids(draw):
    """Axes and a value grid of any float64: nan, +-inf, subnormals, and
    +-0 (which the kernel writes itself) drawn as often as all the rest."""
    shape = draw(hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=12))
    floats = st.one_of(st.sampled_from([0.0, -0.0]),
                       st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
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


def test_signed_zeros_match_per_cell_format():
    # "0" and "-0", beside values of every other path of the kernel
    assert_values_match_per_cell_format([0.0, -0.0, 1.5, -0.0, -2e-5, 0.0, np.nan, -np.inf,
                                         5e-324, -1e300, 123456789012.5])


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


@pytest.mark.parametrize("chunk_rows", [5, 6, 12, 18])   # blocks of 1, 1, 2 and 3 planes
def test_blocks_end_between_rows_of_a_three_dimensional_table(tmp_path, monkeypatch,
                                                              chunk_rows):
    # the connection table's layout: index columns along each axis, the
    # values over the whole (3, 2, 3) shape
    monkeypatch.setattr(csvio, "_CHUNK_ROWS", chunk_rows)
    values = np.array(SPECIAL).reshape(3, 2, 3)
    columns = [np.array([1, 1, 2])[:, None, None], np.array([[True], [False]]),
               np.array(list("xyz")), values, np.array([0.1, -2.5, 1e16]), -values]
    header = ["a", "b", "c", "d", "e", "f"]
    path = write_table(tmp_path / "t.csv", {}, header, columns)
    assert path.read_bytes() == per_cell_text({}, header, broadcast_columns(columns)).encode()


@pytest.mark.parametrize("chunk_rows", [1, 5, len(SPECIAL) - 1, len(SPECIAL)])
def test_column_blocks_match_per_cell_format(tmp_path, monkeypatch, chunk_rows):
    monkeypatch.setattr(csvio, "_CHUNK_ROWS", chunk_rows)
    values = np.array(SPECIAL)
    columns = [values, np.arange(values.size) % 3 == 0, [f"r{i}" for i in range(values.size)],
               -values]
    path = write_table(tmp_path / "t.csv", {}, ["a", "b", "c", "d"], columns)
    assert path.read_bytes() == per_cell_text({}, ["a", "b", "c", "d"], columns).encode()


@st.composite
def broadcast_tables(draw):
    """Columns of 1 to 3 dims and sides 0 to 6 that broadcast to one shape:
    float64 arrays of any value mixed with bool, int and str arrays."""
    count = draw(st.integers(1, 6))
    shapes = draw(hnp.mutually_broadcastable_shapes(num_shapes=count, min_dims=1, max_dims=3,
                                                    min_side=0, max_side=6)).input_shapes
    floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    kinds = {
        "float": lambda shape: hnp.arrays(np.float64, shape, elements=floats),
        "bool": lambda shape: hnp.arrays(np.bool_, shape),
        "int": lambda shape: hnp.arrays(np.int64, shape),
        "str": lambda shape: hnp.arrays("U8", shape, elements=st.text("abcxyz-/_ ", max_size=8)),
    }
    return [draw(kinds[draw(st.sampled_from(sorted(kinds)))](shape)) for shape in shapes]


@settings(max_examples=200, deadline=None)
@given(broadcast_tables())
def test_any_broadcast_columns_match_per_cell_format_of_their_rows(columns):
    header = [f"c{i}" for i in range(len(columns))]
    with tempfile.TemporaryDirectory() as folder:
        path = write_table(Path(folder) / "t.csv", {}, header, columns)
        assert path.read_bytes() == per_cell_text({}, header,
                                                  broadcast_columns(columns)).encode()
