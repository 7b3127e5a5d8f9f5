"""Property test of ``read_field`` on field files with one entry mutated.

Every document is written by ``write_field`` and then has one header
entry, the component list or one ``values`` entry replaced, deleted or
added.  The reader must return exactly what the mutated document says
or raise ``GridError`` naming the file; any other exception fails.
Examples are derandomized, so the suite stays deterministic.
``values`` entries are replaced by numbers, ``null``, booleans, numeric
and other strings, lists and objects; only numbers and ``null`` are
values.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minding_lab.fieldio import read_field, write_field
from minding_lab.grid import Grid2D, GridError

INTS = ("nx", "ny")
REALS = ("x0", "y0", "dx", "dy")
KEYS = set(INTS + REALS + ("components", "values"))

numbers = st.one_of(
    st.floats(width=64),
    st.integers(-5, 10),
    st.sampled_from([2**70, 10**400, -(10**400)]),
)
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1),
)
numeric_strings = st.sampled_from(["2.5", "1", "-0", "nan", "1e400"])


def expected(doc):
    """What a correct reader returns for ``doc``, or None to refuse it."""
    if not isinstance(doc, dict) or set(doc) != KEYS:
        return None
    if any(type(doc[k]) is not int or doc[k] < 3 for k in INTS):
        return None
    if any(type(doc[k]) not in (int, float) for k in REALS):
        return None
    try:
        x0, y0, dx, dy = (float(doc[k]) for k in REALS)
    except OverflowError:
        return None
    if not all(math.isfinite(v) for v in (x0, y0, dx, dy)) or dx <= 0.0 or dy <= 0.0:
        return None
    names = doc["components"]
    if type(names) is not list or any(type(n) is not str for n in names):
        return None
    if len(set(names)) != len(names):
        return None
    nx, ny = doc["nx"], doc["ny"]
    values = doc["values"]
    if type(values) is not list or len(values) != nx * ny * len(names):
        return None
    flat = []
    for v in values:
        if v is None:
            flat.append(math.nan)
        elif type(v) in (int, float):
            try:
                flat.append(float(v))
            except OverflowError:
                return None
        else:
            return None
    cube = np.array(flat).reshape(ny, nx, len(names))
    grid = Grid2D(x0, y0, nx, ny, dx, dy)
    return grid, {name: cube[:, :, k] for k, name in enumerate(names)}


@st.composite
def mutated_documents(draw, path):
    nx, ny = draw(st.integers(3, 5)), draw(st.integers(3, 5))
    grid = Grid2D(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)), nx, ny,
                  draw(st.floats(0.01, 1.0)), draw(st.floats(0.01, 1.0)))
    names = draw(st.lists(st.text(max_size=3), min_size=1, max_size=3, unique=True))
    channels = {
        name: np.array(draw(st.lists(st.floats(width=64), min_size=nx * ny,
                                     max_size=nx * ny))).reshape(grid.shape)
        for name in names
    }
    write_field(path, grid, channels)
    doc = json.loads(path.read_text())

    part = draw(st.sampled_from(["header", "components", "values"]))
    if part == "header":
        key = draw(st.sampled_from(sorted(KEYS - {"values"}) + ["extra"]))
        action = draw(st.sampled_from(["replace", "delete"]))
        if action == "delete" and key in doc:
            del doc[key]
        else:
            doc[key] = draw(st.one_of(numbers, junk))
    elif part == "components":
        listed = doc["components"]
        k = draw(st.integers(0, len(listed) - 1))
        action = draw(st.sampled_from(["replace_list", "replace_name", "duplicate", "append"]))
        if action == "replace_list":
            doc["components"] = draw(st.one_of(numbers, junk))
        elif action == "replace_name":
            listed[k] = draw(st.one_of(st.text(max_size=3), numbers, junk))
        elif action == "duplicate":
            listed.append(listed[k])
            doc["values"] += doc["values"][: nx * ny]
        else:
            listed.append(draw(st.text(max_size=3)))
    else:
        values = doc["values"]
        k = draw(st.integers(0, len(values) - 1))
        action = draw(st.sampled_from(["replace", "delete", "append", "replace_all"]))
        if action == "replace":
            values[k] = draw(st.one_of(numbers, junk, numeric_strings,
                                       st.lists(st.floats(0.0, 1.0), max_size=2)))
        elif action == "delete":
            del values[k]
        elif action == "append":
            values.append(draw(numbers))
        else:
            doc["values"] = draw(st.one_of(numbers, junk))
    path.write_text(json.dumps(doc))
    return doc


def test_read_field_round_trip_or_grid_error(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "field.json"

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(st.data())
    def check(data):
        doc = data.draw(mutated_documents(path))
        want = expected(doc)
        if want is None:
            try:
                read_field(path)
            except GridError as exc:
                assert re.match(re.escape(str(path)), str(exc))
            else:
                raise AssertionError(f"accepted a malformed document: {doc!r:.200}")
            return
        grid, channels = read_field(path)
        assert grid == want[0]
        assert list(channels) == list(want[1])
        for name, arr in channels.items():
            assert np.array_equal(arr, want[1][name], equal_nan=True)

    check()


def test_read_field_value_entries(tmp_path_factory):
    # one values entry replaced: the whole-document fuzz above draws
    # this mutation too rarely to cover every kind of entry
    path = tmp_path_factory.mktemp("fuzz") / "field.json"
    grid = Grid2D(0.0, 0.0, 3, 3, 1.0, 1.0)
    write_field(path, grid, {"u": np.zeros(grid.shape)})
    base = json.loads(path.read_text())

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(st.integers(0, 8), st.one_of(numbers, junk, numeric_strings))
    def check(k, entry):
        doc = dict(base, values=list(base["values"]))
        doc["values"][k] = entry
        path.write_text(json.dumps(doc))
        want = expected(doc)
        if want is None:
            with pytest.raises(GridError, match=re.escape(str(path))):
                read_field(path)
            return
        assert np.array_equal(read_field(path)[1]["u"], want[1]["u"], equal_nan=True)

    check()
