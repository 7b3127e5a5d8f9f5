"""Property test of ``--config`` files with one entry mutated.

Every document starts as a usable set of flag defaults and then has one
entry replaced, deleted or added, is replaced as a whole, or is written
as bytes that are not UTF-8 JSON.  ``main`` must then either run the
command with exactly the configuration the document says or exit 2
with a message naming the file; exit 1 (a traceback) and exit 4 fail.
Commands are replaced by a recorder, so no pipeline runs.  Examples are
derandomized, so the suite stays deterministic.
"""

import json
import math

from hypothesis import given, settings, strategies as st

from minding_lab import cli
from minding_lab.cli import CATALOG, EXIT_PASS, EXIT_USAGE, main

SOURCES = ("catalog", "theta_file", "surface_file", "metric_file", "factor_file")
STRINGS = SOURCES + ("out",)
KEYS = STRINGS + ("n", "tol_scale")

numbers = st.one_of(
    st.floats(width=64),
    st.integers(-5, 200),
    st.sampled_from([2**70, 10**400, -(10**400)]),
)
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1),
)


def expected(doc, existing: str):
    """The resolved config a correct reader runs with, or None to refuse."""
    if not isinstance(doc, dict) or not set(doc) <= set(KEYS):
        return None
    for key, value in doc.items():
        number = type(value) in (int, float) if key == "tol_scale" else type(value) is int
        if value is not None and not (type(value) is str if key in STRINGS else number):
            return None
    doc = {key: value for key, value in doc.items() if value is not None}
    if sum(key in doc for key in SOURCES) != 1:
        return None
    if doc.get("catalog", CATALOG[0]) not in CATALOG:
        return None
    if any(doc.get(key, existing) != existing for key in SOURCES[1:]):
        return None
    try:
        tol_scale = float(doc.get("tol_scale", 1.0))
    except OverflowError:
        return None
    n = doc.get("n", 129)
    if n < 9 or not 0.0 < tol_scale < math.inf:
        return None
    return {**dict.fromkeys(SOURCES), **{k: doc[k] for k in SOURCES if k in doc},
            "n": n, "tol_scale": tol_scale, "out_dir": doc.get("out")}


@st.composite
def mutated_configs(draw, existing: str):
    source = draw(st.sampled_from(SOURCES))
    doc = {source: "half_plane_pseudosphere" if source == "catalog" else existing,
           "n": draw(st.integers(9, 200)), "tol_scale": draw(st.floats(0.5, 4.0)),
           "out": "run"}
    action = draw(st.sampled_from(["replace", "delete", "add", "whole", "bytes"]))
    if action == "replace":
        key = draw(st.sampled_from(sorted(doc)))
        doc[key] = draw(st.one_of(numbers, junk, st.sampled_from(CATALOG)))
    elif action == "delete":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif action == "add":
        key = draw(st.sampled_from(KEYS + ("extra",)))
        doc[key] = draw(st.one_of(numbers, junk, st.sampled_from(CATALOG + (existing,))))
    elif action == "whole":
        return draw(st.one_of(numbers, junk))
    else:
        return draw(st.sampled_from([b"\xff{}", b'{"out": "\xe9"}', b"{", b"[" * 100_000]))
    return doc


def test_config_loads_exactly_or_exits_2_naming_the_file(tmp_path_factory, monkeypatch,
                                                        capsys):
    root = tmp_path_factory.mktemp("config")
    path, existing = root / "cfg.json", root / "u.json"
    existing.write_text("{}")
    seen = []
    monkeypatch.setattr(cli, "_COMMANDS", {"solve": lambda config: seen.append(config)
                                           or EXIT_PASS})

    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(st.data())
    def check(data):
        doc = data.draw(mutated_configs(str(existing)))
        if isinstance(doc, bytes):
            path.write_bytes(doc)
            want = None
        else:
            path.write_text(json.dumps(doc))
            want = expected(doc, str(existing))
        seen.clear()
        code = main(["solve", "--config", str(path)])
        err = capsys.readouterr().err
        if want is None:
            assert code == EXIT_USAGE, f"accepted {doc!r:.200}"
            assert str(path) in err
        else:
            assert code == EXIT_PASS, err
            assert seen[0].as_dict() == want

    check()


def test_export_plots_reads_out_the_same_way(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for doc in ({"out": 3}, {"out": ["run"]}, {"out": True}):
        cfg.write_text(json.dumps(doc))
        assert main(["export-plots", "--config", str(cfg)]) == EXIT_USAGE
        assert str(cfg) in capsys.readouterr().err
    cfg.write_text(json.dumps({"out": str(tmp_path / "missing")}))
    assert main(["export-plots", "--config", str(cfg)]) == EXIT_USAGE
    assert "no report.json" in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()
