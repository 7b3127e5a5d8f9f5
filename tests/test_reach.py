"""Reach: every function of the package is entered by some command.

Runs every command in process under ``sys.setprofile``, on every source
kind at n = 65 and on a factor whose e^{2u} overflows.  Every ``def`` in
``src/minding_lab`` must be entered, or named in ``ALLOWED`` with the
reason it stays; an allowed name that a command now enters, or that no
longer exists, fails too.  Lambdas, comprehensions and class bodies
are not ``def``s.
"""

import contextlib
import io
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import minding_lab
from minding_lab import cli
from minding_lab.fieldio import write_field
from minding_lab.grid import Grid2D

# def -> why it stays, though no command enters it
ALLOWED = {
    **dict.fromkeys([
        "developing.develop_path_residual", "developing.hyperbolic_distance",
        "developing.mobius_disk", "forms.isothermic_connection", "forms._as_matrices",
        "weak.frame_weak_compatibility", "weak._connection_fields", "weak._entry_terms",
        "weak.mixed_partials_check", "weak._mixed_terms", "weak.product_rule_check",
        "weak.product_rule_pointwise_residual",
    ], "perfbench/audit.py runs it for the identity-audit workload"),
    "elliptic.Stencil.nnz": "perfbench/spantrace.py reads the flatten system's nonzeros",
    "developing.u_from_phi": "perfbench/spantrace.py pins it; the exponent oracle of the tests",
    **dict.fromkeys(["forms.zero_curvature_residual", "forms.zero_curvature_entries"],
                    "the isothermic frame's pointwise check, decided with that frame"),
    "grid.Grid2D.refined": "the finer grid of a planned convergence command",
    "grid.TestFunction.exact_integral": "the closed form the quadrature tests check against",
}
N = "65"


def package_defs() -> dict:
    """``(file, first line, name)`` of every ``def`` in the package -> its
    dotted name, read from the compiled source."""
    defs = {}
    for path in sorted(Path(minding_lab.__file__).parent.glob("*.py")):
        stack = [(compile(path.read_text(), str(path), "exec"), path.stem)]
        while stack:
            code, prefix = stack.pop()
            for const in code.co_consts:
                if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                    name = f"{prefix}.{const.co_name}"
                    stack.append((const, name))
                    if const.co_flags & 0x1:  # CO_OPTIMIZED: a function, not a class body
                        defs[const.co_filename, const.co_firstlineno, const.co_name] = name
    return defs


def commands(tmp: Path):
    base = tmp / "base"
    factor = str(base / "factor.json")
    overflow = tmp / "overflow.json"
    g = Grid2D.from_bounds(-0.35, 0.35, -0.35, 0.35, 65, 65)
    write_field(overflow, g, {"u": np.full(g.shape, 800.0)})
    yield ["verify-minding", "--catalog", "one_soliton", "--out", str(base)]
    yield ["export-plots", "--out", str(base)]
    for name in cli.CATALOG:
        if name != "one_soliton":
            yield ["verify-minding", "--catalog", name]
    for flag, name in (("theta", "surface"), ("surface", "surface"), ("metric", "metric")):
        yield ["verify-minding", f"--{flag}-file", str(base / f"{name}.json")]
    yield ["synthesize", "--catalog", "one_soliton"]
    yield ["metric", "--surface-file", str(base / "surface.json")]
    yield ["flatten", "--metric-file", str(base / "metric.json")]
    for command in ("liouville-check", "solve", "develop"):
        yield [command, "--factor-file", factor]
        yield [command, "--catalog", "half_plane_pseudosphere"]
    yield ["liouville-check", "--factor-file", str(overflow)]


@pytest.fixture(scope="module")
def reach(tmp_path_factory):
    """(every def's dotted name, the dotted names the commands enter)."""
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    for argv in commands(tmp_path_factory.mktemp("reach")):
        if argv[0] != "export-plots":
            argv += ["--n", N]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            sys.setprofile(hook)
            try:
                cli.main(argv)
            finally:
                sys.setprofile(None)
    defs = package_defs()
    keys = {(c.co_filename, c.co_firstlineno, c.co_name) for c in entered}
    return set(defs.values()), {name for key, name in defs.items() if key in keys}


def test_every_def_is_entered_or_allowed(reach):
    defs, entered = reach
    assert sorted(defs - entered - set(ALLOWED)) == []


def test_allow_list_names_only_unreached_defs(reach):
    defs, entered = reach
    assert sorted(set(ALLOWED) - defs) == [], "allowed but no longer defined"
    assert sorted(set(ALLOWED) & entered) == [], "allowed but entered by a command"
