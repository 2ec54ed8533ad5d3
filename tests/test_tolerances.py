"""The one tolerance policy: the threshold table in `algebra`, NaN-refusing
unit checks, and zero tests that never treat NaN as zero."""

import cmath
import math
import pathlib
import re

import numpy as np
import pytest

import gpcuntz as g
from gpcuntz import algebra

SRC = pathlib.Path(g.__file__).parent
E1 = g.basis_vector(2, 1)


def test_four_thresholds_all_in_algebra():
    names = {}
    for path in sorted(SRC.glob("*.py")):
        for name in re.findall(r"^\s*([A-Z_]*TOL)\s*=", path.read_text(), re.M):
            names[name] = path.name
    assert names == dict.fromkeys(["PRUNE_TOL", "UNIT_TOL", "PIVOT_TOL", "DEFAULT_TOL"],
                                  "algebra.py")
    assert (algebra.PRUNE_TOL, algebra.UNIT_TOL, algebra.PIVOT_TOL, algebra.DEFAULT_TOL) == (
        1e-12, 1e-10, 1e-8, 1e-9)
    assert g.params.DEFAULT_TOL is algebra.DEFAULT_TOL
    for path in sorted(SRC.glob("*.py")):
        if path.name != "algebra.py":
            text = path.read_text()
            assert not re.search(r"\b1e-(8|10|12)\b", text), path.name
            assert "> UNIT_TOL" not in text, path.name


# each call gets one scalar that should be 1 in modulus (or make its input a
# unit vector or a unitary); 2.0 is a finite value off the unit
UNIT_INPUTS = {
    "cycle": lambda x: g.cycle([[x, 0]]),
    "explicit_chain": lambda x: g.explicit_chain([[x, 0]]),
    "prefix_chain": lambda x: g.prefix_chain([[x, 0]]),
    "unit_vector": lambda x: g.unit_vector([x, 0]),
    "s_of": lambda x: g.s_of([E1, [x, 0]]),
    "gauge_action": lambda x: g.gauge_action(x, g.generator(2, 1)),
    "unitary_action": lambda x: g.unitary_action([[x, 0], [0, 1]], g.generator(2, 1)),
    "scale_cycle": lambda x: g.scale_cycle(g.cycle([E1]), x),
    "build_fiber_rep": lambda x: g.build_fiber_rep(g.cycle([E1]), x, 2),
    "complete_unitary": lambda x: g.complete_unitary([x, 0]),
}


@pytest.mark.parametrize("nan", [math.nan, complex(0.0, math.nan)], ids=["nan", "nan-imag"])
@pytest.mark.parametrize("name", list(UNIT_INPUTS))
def test_nan_is_refused_like_a_finite_input_off_the_unit(name, nan):
    call = UNIT_INPUTS[name]
    with pytest.raises(ValueError) as off_unit:
        call(2.0)
    with pytest.raises(ValueError) as refused:
        call(nan)
    assert str(refused.value) == str(off_unit.value)


def test_unit_inputs_within_unit_tol_are_accepted():
    near = 1.0 + 0.25 * algebra.UNIT_TOL
    for call in UNIT_INPUTS.values():
        call(near)


def test_unitary_action_keeps_a_nan_term_as_leavitt_form_does():
    b = g.AlgebraElement(2, {((1,), ()): complex(math.nan, 0.0), ((2,), ()): 1.0 + 0.0j})
    for image in (g.unitary_action(np.eye(2), b), g.leavitt_form(b)):
        assert set(image.terms) == set(b.terms)
        assert cmath.isnan(image.terms[(1,), ()])
        assert image.terms[(2,), ()] == 1.0


@pytest.mark.parametrize("word, adjoint", [((2,) * 4, ()), ((), (1, 1))])
def test_support_guard_counts_nan_as_support(word, adjoint):
    rep = g.build_chain_rep(g.explicit_chain([E1]), 3, d_minus=2, d_plus=2)
    vec = np.zeros(rep.dim, dtype=complex)
    # outside both the exact interior and the step targets
    vec[rep.index(2, rep.block)] = math.nan
    with pytest.raises(g.TruncationOverflowError):
        g.apply_element(rep, g.word_element(2, word, adjoint), vec)
