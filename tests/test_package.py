"""The package namespace: each export loads on first use, from its module."""

import pathlib
import pickle
import re
import sys

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
