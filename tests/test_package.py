"""The package namespace: each export loads on first use, from its module."""

import ast
import pathlib
import pickle
import re
import sys

import numpy as np
import pytest

import gpcuntz as g
from helpers import run_python

MODULES = {"algebra", "decisions", "expressions", "params", "reps", "states"}
README = pathlib.Path(__file__).parent.parent / "README.md"


def test_each_export_is_the_object_its_module_defines():
    homes = set()
    for name in g.__all__:
        value = getattr(g, name)
        assert getattr(sys.modules[value.__module__], name) is value
        homes.add(value.__module__)
    assert homes == {f"gpcuntz.{module}" for module in MODULES}
    assert set(g.__all__) <= set(dir(g))
    with pytest.raises(AttributeError):
        g.no_such_name


def test_rank_mismatch_error_keeps_its_home_in_algebra():
    # it is defined beside the tolerances, which the numeric layers import
    # without the word layer, but named, exported and pickled as algebra's
    err = g.params.RankMismatchError("rank mismatch: 2 vs 3")
    assert type(err) is g.RankMismatchError is g.algebra.RankMismatchError
    assert repr(g.RankMismatchError) == "<class 'gpcuntz.algebra.RankMismatchError'>"
    again = pickle.loads(pickle.dumps(err))
    assert type(again) is g.RankMismatchError and again.args == err.args


def test_readme_public_api_lists_exactly_the_exports():
    section = README.read_text().split("## Public API\n")[1].split("\n## ")[0]
    # one item per module: "- `module`: `name`, ...", wrapped until the next item
    listed = {module: re.findall(r"`(\w+)`", names)
              for module, names in re.findall(r"^- `(\w+)`: (.*?)(?=^\S)", section, re.M | re.S)}
    assert listed == {module: list(names) for module, names in g._EXPORTS.items()}
    assert sorted(sum(listed.values(), [])) == sorted(g.__all__)
    assert f"these {len(g.__all__)} names" in section


def test_star_import_binds_every_export():
    namespace = {}
    exec("from gpcuntz import *", namespace)
    assert all(namespace[name] is getattr(g, name) for name in g.__all__)


def test_bare_import_loads_no_submodule_and_not_numpy():
    proc = run_python("-c", "import sys, gpcuntz\n"
                            "print(sorted(m for m in sys.modules if m.startswith(('gpcuntz', 'numpy'))))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['gpcuntz']\n"


# each runs first in a fresh interpreter; importing a submodule by path binds
# it on the package, so no submodule may be named after an export
@pytest.mark.parametrize("first", [
    "from gpcuntz.algebra import multiply",
    "from gpcuntz.decisions import classify",
    "from gpcuntz.expressions import parse",
    "from gpcuntz.params import cycle",
    "from gpcuntz.reps import verify_gp",
    "from gpcuntz.states import state_eval",
    "from gpcuntz.cli import main",
    "from gpcuntz.cli import main\n"
    "main(['classify', '--inline', '{\"kind\":\"cycle\",\"factors\":[[1,0]]}'])",
], ids=["algebra", "decisions", "expressions", "params", "reps", "states", "cli", "cli-main"])
def test_classify_is_the_function_in_every_import_order(first):
    proc = run_python("-c", first + "\nimport gpcuntz\nfrom gpcuntz.decisions import classify\n"
                                    "print(gpcuntz.classify is classify)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "True"


def test_no_decision_builds_a_truncation():
    # the decision layer imports neither numpy nor reps itself, and no
    # decision query loads reps
    tree = ast.parse(pathlib.Path(g.decisions.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and not node.module:
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert not imported & {"numpy", "reps"}
    proc = run_python("-c", "import sys, fractions, gpcuntz as g\n"
                            "e1, e2 = [1, 0], [0, 1]\n"
                            "z, r = g.cycle([e1, e1]), g.rotation_chain(fractions.Fraction(1, 3))\n"
                            "g.classify(z); g.classify(r); g.equivalent(z, g.cycle([e2]))\n"
                            "g.equivalent(r, g.explicit_chain([e1])); g.decompose_cycle(z)\n"
                            "g.decompose_chain(r)\n"
                            "print(sorted(m for m in sys.modules if m.startswith('gpcuntz')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['gpcuntz', 'gpcuntz._policy', 'gpcuntz.decisions', 'gpcuntz.params']\n"



def _records():
    """Per record: (class, its fields in order, the required arguments, the
    defaults of the others, how it compares and hashes, frozen, its repr
    with the defaults, or None for `Name(field=value, ...)`)."""
    z = g.cycle([[1, 0]])
    rep = g.build_cycle_rep(z, 2)
    no_rows = np.empty((0, 2), dtype=complex)
    plain, absolute = {1: [0.0, 0.5]}, {1: [0.0, 0.25]}
    rep_fields = ("n", "kind", "depth", "layers", "step_sources", "step_targets",
                  "step_coeffs", "param", "factor_rows")
    report_extras = ("eigen_residual", "step_residual", "basis_gram_residual", "basis_count",
                     "basis_count_expected", "basis_min_singular")
    return [
        (g.AlgebraElement, ("n", "terms"), (2, {((1,), (2,)): 1.5j, ((), ()): 1.0}), {},
         "fields", True, "AlgebraElement(n=2, {((), ()): 1.0, ((1,), (2,)): 1.5j})"),
        (g.CycleParam, ("rows",), (z.rows,), {}, "identity", True, None),
        (g.ChainParam, ("kind", "n", "preperiod", "period", "theta", "prefix"),
         ("gray_zone", 2), {"preperiod": no_rows, "period": no_rows, "theta": None,
                            "prefix": no_rows}, "identity", True, None),
        (g.PeriodicityVerdict, ("eventually_periodic", "period", "analytic_assumption", "note"),
         (True,), {"period": None, "analytic_assumption": False, "note": ""}, "fields", True,
         "PeriodicityVerdict(eventually_periodic=True, period=None, "
         "analytic_assumption=False, note='')"),
        (g.DiagnosticsTable, ("m_max", "plain", "absolute"), (2, plain, absolute), {},
         "fields", True, "DiagnosticsTable(m_max=2, plain={1: [0.0, 0.5]}, "
         "absolute={1: [0.0, 0.25]})"),
        (g.ClassificationReport,
         ("verdict", "reason", "analytic_assumption", "root", "power", "period"),
         ("yes", "trivial root"),
         {"analytic_assumption": False, "root": None, "power": None, "period": None},
         "fields", True, "ClassificationReport(verdict='yes', reason='trivial root', "
         "analytic_assumption=False, root=None, power=None, period=None)"),
        (g.DirectIntegralDescriptor, ("base",), (z,), {}, "fields", True, None),
        (g.TruncatedRep, rep_fields + ("window",),
         tuple(getattr(rep, name) for name in rep_fields), {"window": None},
         "identity", False, None),
        (g.BasisLabel, ("depth", "anchor", "branch", "prefix"), (1, 2), {"branch": 0, "prefix": ()},
         "fields", True, "BasisLabel(depth=1, anchor=2, branch=0, prefix=())"),
        (g.VerificationReport, ("kind", "isometry_residual", "completeness_residual",
                                "family_residual") + report_extras,
         ("cycle", 1e-16, 0.0, 2e-16), dict.fromkeys(report_extras), "fields", False,
         "VerificationReport(kind='cycle', isometry_residual=1e-16, completeness_residual=0.0, "
         "family_residual=2e-16, eigen_residual=None, step_residual=None, "
         "basis_gram_residual=None, basis_count=None, basis_count_expected=None, "
         "basis_min_singular=None)"),
    ]


def _same(x, y):
    if isinstance(x, np.ndarray):
        return type(y) is np.ndarray and x.shape == y.shape and np.array_equal(x, y)
    return type(x) is type(y) and (x is y or x == y)


def _hash_or_type_error(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


# each record built from its required arguments, from all of them in order and
# by keyword: the fields, ==, hash(), repr() and read-only fields of the
# dataclass each record once was
@pytest.mark.parametrize("case", _records(), ids=lambda case: case[0].__name__)
def test_records_construct_compare_hash_and_print_by_their_fields(case):
    cls, names, required, defaults, compares, frozen, text = case
    values = required + tuple(defaults.values())
    assert len(values) == len(names)
    short, full = cls(*required), cls(*values)
    by_name = cls(**dict(zip(names, values)))
    for record in (short, full, by_name):
        assert all(_same(getattr(record, name), value) for name, value in zip(names, values))
    if cls is g.ChainParam:
        # the unused stacks default to empty read-only (0, N) arrays
        assert not short.prefix.flags.writeable
    fields = ", ".join(f"{name}={getattr(short, name)!r}" for name in names)
    assert repr(short) == (text or f"{cls.__name__}({fields})")
    assert short == short and not short != short
    assert short != object() and (short == None) is False  # noqa: E711
    own = tuple(getattr(short, name) for name in names)
    if compares == "identity":
        assert short != full and short != by_name
        assert hash(short) == object.__hash__(short)
    else:
        assert short == full == by_name and not short != by_name
        if frozen:
            assert _hash_or_type_error(short) == _hash_or_type_error(own)
        else:
            assert cls.__hash__ is None
            with pytest.raises(TypeError):
                hash(short)
    if frozen:
        for name in names:
            with pytest.raises(AttributeError):
                setattr(short, name, None)
            with pytest.raises(AttributeError):
                delattr(short, name)
        assert all(getattr(short, name) is value for name, value in zip(names, own))
    else:
        setattr(short, names[0], "changed")
        assert getattr(short, names[0]) == "changed"
