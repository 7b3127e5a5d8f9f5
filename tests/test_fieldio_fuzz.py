"""Property test of ``read_field`` on field files with one entry mutated.

Every document is either written by ``write_field`` (a base64 payload)
or built here in the list form, and then has one header entry, the
component list or one part of ``values`` replaced, deleted or added.
The reader must return exactly what the mutated document says, bit for
bit, or raise ``GridError`` naming the file; any other exception fails.
Examples are derandomized, so the suite stays deterministic.
List entries are replaced by numbers, ``null``, booleans, numeric and
other strings, lists and objects; only numbers and ``null`` are values.
Payload strings have one character replaced, deleted or inserted, bytes
cut, added or overwritten, or the whole string replaced; only standard
base64 of exactly the listed values is a payload.  The reader decodes
a payload in slices; on those edits and on hand-made ones, at several
slice sizes, it must take exactly what one ``base64.b64decode`` call
with ``validate=True`` takes.
"""

import base64
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minding_lab import fieldio
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
# base64 alphabet and padding, near misses (URL-safe, whitespace) and any
# other character, ASCII or not
payload_chars = st.one_of(st.sampled_from(list("AZaz09+/=-_ \n*.")), st.characters())
# standard base64 with correct padding, as the ASCII regex sees it
BASE64 = re.compile(r"(?:[A-Za-z0-9+/]{4})*(?:[A-Za-z0-9+/]{2}==|[A-Za-z0-9+/]{3}=)?")


def list_document(grid, names, channels):
    """The list form of a field document, NaN as null."""
    cube = np.stack([channels[name] for name in names], axis=-1)
    return {"nx": grid.nx, "ny": grid.ny, "x0": grid.x0, "y0": grid.y0,
            "dx": grid.dx, "dy": grid.dy, "components": list(names),
            "values": [None if v != v else v for v in cube.ravel().tolist()]}


def expected_values(values, size):
    """The float64 array ``values`` stands for, or None to refuse it."""
    if type(values) is str:
        if not BASE64.fullmatch(values):
            return None
        raw = base64.b64decode(values)
        return np.frombuffer(raw, dtype="<f8") if len(raw) == 8 * size else None
    if type(values) is not list or len(values) != size:
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
    return np.array(flat)


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
    flat = expected_values(doc["values"], nx * ny * len(names))
    if flat is None:
        return None
    cube = flat.reshape(ny, nx, len(names))
    grid = Grid2D(x0, y0, nx, ny, dx, dy)
    return grid, {name: cube[:, :, k] for k, name in enumerate(names)}


@st.composite
def edited_payloads(draw, text):
    """``text`` with one character replaced, deleted or inserted, bytes
    cut, added or overwritten, or the whole string replaced."""
    raw = base64.b64decode(text)
    k = draw(st.integers(0, len(text) - 1))
    action = draw(st.sampled_from(["replace_char", "delete_char", "insert_char",
                                   "cut_bytes", "add_bytes", "overwrite_value",
                                   "replace_all"]))
    if action == "replace_char":
        return text[:k] + draw(payload_chars) + text[k + 1:]
    if action == "delete_char":
        return text[:k] + text[k + 1:]
    if action == "insert_char":
        return text[:k] + draw(payload_chars) + text[k:]
    if action == "cut_bytes":
        return base64.b64encode(raw[:-draw(st.integers(1, 9))]).decode("ascii")
    if action == "add_bytes":
        extra = draw(st.binary(min_size=1, max_size=9))
        return base64.b64encode(raw + extra).decode("ascii")
    if action == "overwrite_value":
        # any 8 bytes are a float64: NaN payloads and subnormals included
        at = 8 * draw(st.integers(0, len(raw) // 8 - 1))
        value = draw(st.binary(min_size=8, max_size=8))
        return base64.b64encode(raw[:at] + value + raw[at + 8:]).decode("ascii")
    return draw(st.one_of(numbers, junk, st.text(max_size=12)))


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
    form = draw(st.sampled_from(["payload", "list"]))
    if form == "payload":
        write_field(path, grid, channels)
        doc = json.loads(path.read_text())
    else:
        doc = list_document(grid, names, channels)

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
            if form == "payload":
                raw = base64.b64decode(doc["values"])
                doc["values"] = base64.b64encode(raw + raw[: 8 * nx * ny]).decode("ascii")
            else:
                doc["values"] += doc["values"][: nx * ny]
        else:
            listed.append(draw(st.text(max_size=3)))
    elif form == "payload":
        doc["values"] = draw(edited_payloads(doc["values"]))
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

    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
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
            assert np.array_equal(arr.view(np.int64), want[1][name].view(np.int64))

    check()


def test_read_field_value_entries(tmp_path_factory):
    # one values entry replaced: the whole-document fuzz above draws
    # this mutation too rarely to cover every kind of entry
    path = tmp_path_factory.mktemp("fuzz") / "field.json"
    grid = Grid2D(0.0, 0.0, 3, 3, 1.0, 1.0)
    base = list_document(grid, ["u"], {"u": np.zeros(grid.shape)})

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


def test_read_field_payload_edits(tmp_path_factory):
    # one payload edit: the whole-document fuzz above draws each kind of
    # edit too rarely to cover it
    path = tmp_path_factory.mktemp("fuzz") / "field.json"
    grid = Grid2D(0.0, 0.0, 3, 3, 1.0, 1.0)
    write_field(path, grid, {"u": np.arange(9.0).reshape(grid.shape)})
    base = json.loads(path.read_text())

    @settings(derandomize=True, deadline=None, max_examples=150, database=None)
    @given(edited_payloads(base["values"]))
    def check(values):
        doc = dict(base, values=values)
        path.write_text(json.dumps(doc))
        want = expected(doc)
        if want is None:
            with pytest.raises(GridError, match=re.escape(str(path))):
                read_field(path)
            return
        got = read_field(path)[1]["u"]
        assert np.array_equal(got.view(np.int64), want[1]["u"].view(np.int64))

    check()


def b64decode_values(text, size):
    """The values one ``b64decode(..., validate=True)`` call gives ``text``,
    or None where it raises or gives other than ``size`` values."""
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:
        return None
    return np.frombuffer(raw, dtype="<f8") if len(raw) == 8 * size else None


@pytest.mark.parametrize("chunk", [3, 6, 12, None])
def test_read_field_payload_is_one_b64decode(tmp_path_factory, monkeypatch, chunk):
    # slices of 4, 8 and 16 characters and the default, which holds the
    # whole payload; the 72-byte payload below is 96 characters
    if chunk is not None:
        monkeypatch.setattr(fieldio, "_CHUNK", chunk)
    path = tmp_path_factory.mktemp("fuzz") / "field.json"
    grid = Grid2D(0.0, 0.0, 3, 3, 1.0, 1.0)
    write_field(path, grid, {"u": np.arange(1.0, 10.0).reshape(grid.shape)})
    base = json.loads(path.read_text())
    good = base["values"]
    raw = base64.b64decode(good)

    def payload(data):
        return base64.b64encode(data).decode("ascii")

    short = payload(raw[:-1])

    def check_one(values):
        path.write_text(json.dumps(dict(base, values=values)))
        want = b64decode_values(values, 9)
        if want is None:
            with pytest.raises(GridError, match=re.escape(str(path))):
                read_field(path)
            return
        got = read_field(path)[1]["u"].ravel()
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    # the payloads test_fieldio refuses, padding at a slice's end or start,
    # padding past a complete payload, and two payloads joined, which
    # decode to the nine values slice by slice where padding ends a slice
    joined = [payload(raw[:k]) + payload(raw[k:]) for k in (1, 2, 3)]
    for values in (good, good[:40] + "*" + good[40:], good[:40] + "\n" + good[40:],
                   good[:40] + "-" + good[40:], short[:-1], short + "=", short,
                   short[:-4] + "=" + short[-4:-1], good[:40] + "\u00e9" + good[40:],
                   payload(raw[:-8]), payload(raw * 2),
                   good[:3] + "=" + good[4:], good[:2] + "==" + good[4:],
                   good[:4] + "=" + good[4:], good + "=", good + "==", good + "===",
                   short + "==", "=" + good, "", *joined):
        check_one(values)

    @settings(derandomize=True, deadline=None, max_examples=150, database=None)
    @given(edited_payloads(good).filter(lambda values: type(values) is str))
    def check(values):
        check_one(values)

    check()
