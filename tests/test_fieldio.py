"""Field-file round trips and CSV export."""

import numpy as np
import pytest

from minding_lab.fieldio import read_field, write_csv, write_field
from minding_lab.grid import Grid2D, GridError


@pytest.fixture
def grid():
    return Grid2D.from_bounds(0.0, 1.0, 1.0, 2.0, 5, 4)


def test_round_trip_bit_exact(tmp_path, grid):
    rng = np.random.default_rng(3)
    u = rng.standard_normal(grid.shape)
    u.flat[:6] = [np.nan, -0.0, 5e-324, 1e300, -1e300, 0.0]
    f = rng.standard_normal(grid.shape + (3,))
    path = tmp_path / "field.json"
    write_field(path, grid, {"u": u, "f": f})
    grid2, channels = read_field(path)
    assert grid2.matches(grid)
    assert sorted(channels) == ["f_0", "f_1", "f_2", "u"]
    # compare bit patterns: -0.0 == 0.0 and NaN != NaN under ==
    assert (channels["u"].view(np.int64) == u.view(np.int64)).all()
    for k in range(3):
        assert (channels[f"f_{k}"] == f[:, :, k]).all()


def test_nan_stored_as_null(tmp_path, grid):
    u = np.ones(grid.shape)
    u[0, 0] = np.nan
    path = tmp_path / "field.json"
    write_field(path, grid, {"u": u})
    assert "NaN" not in path.read_text()
    _, channels = read_field(path)
    assert np.isnan(channels["u"][0, 0])
    assert channels["u"][1, 1] == 1.0


def test_interleaved_node_major_layout(tmp_path, grid):
    import json

    a = np.arange(grid.ny * grid.nx, dtype=float).reshape(grid.shape)
    b = 100.0 + a
    path = tmp_path / "field.json"
    write_field(path, grid, {"a": a, "b": b})
    doc = json.loads(path.read_text())
    i, j = 2, 1
    base = (j * grid.nx + i) * 2
    assert doc["values"][base] == a[j, i]
    assert doc["values"][base + 1] == b[j, i]


def test_read_rejects_malformed(tmp_path):
    import json
    import re

    header = {"nx": 3, "ny": 3, "x0": 0, "y0": 0, "dx": 1, "dy": 1, "components": ["u"]}
    nine = [0.0] * 9
    path = tmp_path / "bad.json"
    for text in (
        "{not json",
        '{"nx": 3}',
        json.dumps([header]),
        "[" * 100_000 + "]" * 100_000,  # deeper than the JSON parser recurses
        b'{"nx": 3, "components": ["\xff"]}',  # not UTF-8
        # nested values: np.array accepts them, the reader must not; the
        # second list even holds the nine values the header asks for
        json.dumps({**header, "values": [[1.0, 2.0], [3.0, 4.0]]}),
        json.dumps({**header, "values": [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]}),
        # an integer no float can hold: float() raises OverflowError
        json.dumps({**header, "values": [10**400] + [0.0] * 8}),
        json.dumps({**header, "dx": 10**400, "values": nine}),
        # a boolean or a numeric string is not a number, though a float
        # cast would take both
        json.dumps({**header, "values": [True] + [0.0] * 8}),
        json.dumps({**header, "values": ["2.5"] + [0.0] * 8}),
        json.dumps({**header, "values": 9.0}),
        # node counts must be JSON integers
        json.dumps({**header, "nx": 3.0, "values": nine}),
        json.dumps({**header, "nx": 3.5, "values": nine}),
        json.dumps({**header, "nx": True, "ny": 9, "values": nine}),
        json.dumps({**header, "dy": "1", "values": nine}),
        # components must be a list of distinct strings
        json.dumps({**header, "components": [["u"]], "values": nine}),
        json.dumps({**header, "components": "u", "values": nine}),
        json.dumps({**header, "components": [1], "values": nine}),
        json.dumps({**header, "components": ["u", "u"], "values": nine * 2}),
        # no keys beyond the format's eight
        json.dumps({**header, "values": nine, "units": "m"}),
    ):
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        with pytest.raises(GridError, match=re.escape(str(path))):
            read_field(path)


def test_write_rejects_colliding_names(tmp_path, grid):
    # a vector channel "f" expands to f_0..f_2, which must not shadow "f_1"
    with pytest.raises(GridError, match="f_1"):
        write_field(tmp_path / "field.json", grid,
                    {"f": np.zeros(grid.shape + (3,)), "f_1": np.zeros(grid.shape)})


def test_read_rejects_wrong_length(tmp_path, grid):
    import json

    path = tmp_path / "field.json"
    write_field(path, grid, {"u": np.zeros(grid.shape)})
    doc = json.loads(path.read_text())
    doc["values"] = doc["values"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(GridError):
        read_field(path)


def test_csv_layout(tmp_path, grid):
    u = np.zeros(grid.shape)
    u[2, 3] = 7.5
    path = tmp_path / "field.csv"
    write_csv(path, grid, {"u": u})
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y,u"
    assert len(lines) == 1 + grid.nx * grid.ny
    row = lines[1 + 2 * grid.nx + 3].split(",")
    assert float(row[0]) == pytest.approx(grid.x()[3])
    assert float(row[1]) == pytest.approx(grid.y()[2])
    assert float(row[2]) == 7.5
