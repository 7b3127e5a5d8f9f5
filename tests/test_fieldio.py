"""Field-file round trips and CSV export."""

import base64
import csv
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from minding_lab import fieldio
from minding_lab.fieldio import _flatten, read_field, write_csv, write_field
from minding_lab.grid import Grid2D, GridError


def bits(value):
    """A float64 with the given IEEE bit pattern, NaN payloads intact."""
    return np.array([value], dtype=np.uint64).view(np.float64)[0]


def list_document(grid, names, flat):
    """A field document in the list form: numbers, NaN as null."""
    return {"nx": grid.nx, "ny": grid.ny, "x0": grid.x0, "y0": grid.y0,
            "dx": grid.dx, "dy": grid.dy, "components": names,
            "values": [None if v != v else v for v in np.asarray(flat).tolist()]}


@pytest.fixture
def grid():
    return Grid2D.from_bounds(0.0, 1.0, 1.0, 2.0, 5, 4)


def test_round_trip_bit_exact(tmp_path, grid):
    rng = np.random.default_rng(3)
    u = rng.standard_normal(grid.shape)
    u.flat[:9] = [np.nan, -0.0, 5e-324, 1e300, -1e300, 0.0, np.inf, -np.inf, 0.0]
    # NaNs with payload bits: quiet, negative, and a signalling pattern
    u.view(np.uint64).flat[8:11] = [0x7FF8_0000_DEAD_BEEF, 0xFFF8_0000_0000_0001,
                                    0x7FF0_0000_0000_0001]
    f = rng.standard_normal((3,) + grid.shape)
    f[:, 0, 0] = [bits(0x7FF4_0000_0000_0000), np.inf, -np.inf]
    path = tmp_path / "field.json"
    write_field(path, grid, {"u": u, **{f"f_{k}": f[k] for k in range(3)}})
    grid2, channels = read_field(path)
    assert grid2.matches(grid)
    assert sorted(channels) == ["f_0", "f_1", "f_2", "u"]
    # compare bit patterns: -0.0 == 0.0 and NaN != NaN under ==
    assert (channels["u"].view(np.int64) == u.view(np.int64)).all()
    for k in range(3):
        assert (channels[f"f_{k}"].view(np.int64) == f[k].view(np.int64)).all()
    for arr in channels.values():
        assert arr.dtype == np.float64 and arr.dtype.isnative
        assert arr.flags.writeable


def test_nan_kept_as_standard_json(tmp_path, grid):
    u = np.ones(grid.shape)
    u[0, 0] = np.nan
    u[0, 1] = np.inf
    path = tmp_path / "field.json"
    write_field(path, grid, {"u": u})

    def refuse(token):
        raise AssertionError(f"non-standard JSON constant {token}")

    json.loads(path.read_text(), parse_constant=refuse)
    _, channels = read_field(path)
    assert np.isnan(channels["u"][0, 0])
    assert channels["u"][0, 1] == np.inf
    assert channels["u"][1, 1] == 1.0
    # the list form stores NaN as null and cannot hold an infinity
    u[0, 1] = 1.0
    path.write_text(json.dumps(list_document(grid, ["u"], u.ravel()), allow_nan=False))
    _, channels = read_field(path)
    assert np.isnan(channels["u"][0, 0])
    assert channels["u"][1, 1] == 1.0


def test_interleaved_node_major_layout(tmp_path, grid):
    a = np.arange(grid.ny * grid.nx, dtype=float).reshape(grid.shape)
    b = 100.0 + a
    path = tmp_path / "field.json"
    write_field(path, grid, {"a": a, "b": b})
    doc = json.loads(path.read_text())
    flat = np.frombuffer(base64.b64decode(doc["values"]), dtype="<f8")
    i, j = 2, 1
    base = (j * grid.nx + i) * 2
    assert flat[base] == a[j, i]
    assert flat[base + 1] == b[j, i]
    # the list form takes the same order
    path.write_text(json.dumps(list_document(grid, ["a", "b"], flat)))
    _, channels = read_field(path)
    assert (channels["a"] == a).all() and (channels["b"] == b).all()


def test_read_rejects_malformed(tmp_path):
    import re

    header = {"nx": 3, "ny": 3, "x0": 0, "y0": 0, "dx": 1, "dy": 1, "components": ["u"]}
    nine = [0.0] * 9
    raw = np.arange(1.0, 10.0).astype("<f8").tobytes()  # the nine values, 72 bytes

    def payload(data):
        return base64.b64encode(data).decode("ascii")

    good = payload(raw)
    short = payload(raw[:-1])  # 71 bytes end in one "=" of padding
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
        # a payload: characters outside the alphabet, even where a lenient
        # decoder would skip them and find the right 72 bytes
        json.dumps({**header, "values": good[:40] + "*" + good[40:]}),
        json.dumps({**header, "values": good[:40] + "\n" + good[40:]}),
        json.dumps({**header, "values": good[:40] + "-" + good[40:]}),  # URL-safe alphabet
        # bad padding: missing, excess, or inside the payload
        json.dumps({**header, "values": short[:-1]}),
        json.dumps({**header, "values": short + "="}),
        json.dumps({**header, "values": short[:-4] + "=" + short[-4:-1]}),
        # the payload one byte short, 8 bytes short and 8 bytes long
        json.dumps({**header, "values": short}),
        json.dumps({**header, "values": payload(raw[:-8])}),
        json.dumps({**header, "values": payload(raw + raw[:8])}),
        # a non-ASCII character, as JSON escape and as raw UTF-8
        json.dumps({**header, "values": good[:40] + "\u00e9" + good[40:]}),
        json.dumps({**header, "values": good[:40] + "\u00e9" + good[40:]},
                   ensure_ascii=False).encode("utf-8"),
    ):
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        with pytest.raises(GridError, match=re.escape(str(path))):
            read_field(path)


def test_write_rejects_a_channel_that_is_not_a_plane(tmp_path, grid):
    # a field file holds (ny, nx) planes; a stack of them is refused, by name
    for write in (write_field, write_csv):
        with pytest.raises(GridError, match="channel 'f' has shape \\(4, 5, 3\\)"):
            write(tmp_path / "field", grid, {"u": np.zeros(grid.shape),
                                             "f": np.zeros(grid.shape + (3,))})
    assert not (tmp_path / "field").exists()


@pytest.mark.parametrize("write", [write_field, write_csv])
def test_write_rejects_no_channels(tmp_path, grid, write):
    # the reader takes an empty component list, but nothing writes one
    with pytest.raises(GridError, match="at least one channel"):
        write(tmp_path / "field", grid, {})
    assert not (tmp_path / "field").exists()


def test_read_rejects_wrong_length(tmp_path, grid):
    path = tmp_path / "field.json"
    write_field(path, grid, {"u": np.zeros(grid.shape)})
    doc = json.loads(path.read_text())
    raw = base64.b64decode(doc["values"])[:-8]  # one value short
    for values in (base64.b64encode(raw).decode("ascii"),
                   np.frombuffer(raw, dtype="<f8").tolist()):
        path.write_text(json.dumps({**doc, "values": values}))
        with pytest.raises(GridError):
            read_field(path)


def dumped_document(grid, channels):
    """A field file's bytes as one ``json.dumps`` of the whole document."""
    flat = np.stack(list(channels.values()), axis=-1).reshape(-1)
    doc = {"nx": grid.nx, "ny": grid.ny, "x0": grid.x0, "y0": grid.y0,
           "dx": grid.dx, "dy": grid.dy, "components": list(channels),
           "values": base64.b64encode(flat.astype("<f8").tobytes()).decode("ascii")}
    return (json.dumps(doc) + "\n").encode("ascii")


@pytest.mark.parametrize("chunk", [3, 9, None])
def test_write_is_one_dump_of_the_document(tmp_path, monkeypatch, chunk):
    # 101 x 131 nodes in two channels are 211696 payload bytes: more than
    # one default slice and not a multiple of 3, so the text ends padded
    if chunk is not None:
        monkeypatch.setattr(fieldio, "_CHUNK", chunk)
    big = Grid2D.from_bounds(-0.5, 0.25, 1.0, 3.0, 101, 131)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(big.shape)
    u.flat[:4] = [np.nan, -0.0, np.inf, 5e-324]
    for grid, channels in (
        (big, {"u": u, 'say "h\u00e9"': rng.standard_normal(big.shape)}),
        (Grid2D(0.0, 0.0, 3, 3, 0.1, 0.3), {"a": np.arange(9.0).reshape(3, 3)}),
    ):
        path = tmp_path / "field.json"
        write_field(path, grid, channels)
        assert path.read_bytes() == dumped_document(grid, channels)


def surface_sized_channels():
    """Seven channels on a 257 x 257 grid, the shape of ``surface.json``."""
    grid = Grid2D.from_bounds(-1.0, -0.25, -1.0, -0.25, 257, 257)
    rng = np.random.default_rng(11)
    return grid, {name: rng.standard_normal(grid.shape)
                  for name in ("fx", "fy", "fz", "Nx", "Ny", "Nz", "theta")}


def test_write_peak_memory(tmp_path):
    # measured 1.11x the payload's bytes; 6.34x with the payload encoded,
    # decoded and dumped whole
    grid, channels = surface_sized_channels()
    tracemalloc.start()
    try:
        write_field(tmp_path / "field.json", grid, channels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * grid.nx * grid.ny * len(channels)


def test_read_peak_memory(tmp_path):
    # measured 2.00x the file's bytes, its text and the payload string
    # that json builds from it; 2.75x with the payload decoded whole and
    # then copied while the document was alive
    grid, channels = surface_sized_channels()
    path = tmp_path / "field.json"
    write_field(path, grid, channels)
    del channels
    tracemalloc.start()
    try:
        read_field(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * path.stat().st_size


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


def csv_writer_reference(path, grid, channels):
    """The csv.writer loop ``write_csv`` replaced, kept as its reference."""
    names, flat = _flatten(grid, channels)
    cube = flat.reshape(grid.ny, grid.nx, len(names))
    rows = np.empty((grid.nx, 2 + len(names)))
    rows[:, 0] = grid.x()
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x", "y", *names])
        for y, plane in zip(grid.y(), cube):
            rows[:, 1] = y
            rows[:, 2:] = plane
            writer.writerows(rows.tolist())


SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, -1e300,
           0.30000000000000004, -1.2345678901234567e-7]
csv_values = st.one_of(st.floats(width=64), st.sampled_from(SPECIAL))


@st.composite
def csv_fields(draw):
    """A grid and one to four channels."""
    nx, ny = draw(st.integers(3, 6)), draw(st.integers(3, 6))
    grid = Grid2D(draw(csv_values.filter(np.isfinite)), draw(csv_values.filter(np.isfinite)),
                  nx, ny, draw(st.floats(1e-3, 1e3)), draw(st.floats(1e-3, 1e3)))
    count, size = draw(st.integers(1, 4)), nx * ny
    # two of the names need quoting
    channels = {}
    for name in draw(st.permutations(["u", "v", "a,b", 'say "hi"', "w x"]))[:count]:
        channels[name] = np.array(draw(st.lists(csv_values, min_size=size, max_size=size)),
                                  dtype=float).reshape(grid.shape)
    return grid, channels


def test_csv_matches_csv_writer(tmp_path_factory):
    folder = tmp_path_factory.mktemp("csv")

    @settings(derandomize=True, deadline=None, max_examples=150, database=None)
    @given(csv_fields())
    @example((Grid2D(-0.1, 0.7, 4, 3, 0.1, 0.30000000000000004),
              {"f_0": np.full((3, 4), np.nan), "f_1": np.full((3, 4), np.nan),
               'q"x': np.full((3, 4), -0.0),
               "g": np.array(SPECIAL[:4] * 3).reshape(3, 4)}))
    def check(field):
        grid, channels = field
        write_csv(folder / "fast.csv", grid, channels)
        csv_writer_reference(folder / "reference.csv", grid, channels)
        assert (folder / "fast.csv").read_bytes() == (folder / "reference.csv").read_bytes()

    check()
