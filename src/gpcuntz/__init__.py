"""Toolkit for generalized permutative representations of Cuntz algebras.

Normal-form word arithmetic, a text syntax for elements, cycle/chain
parameter procedures, exact parameter states, sparse truncated
representations, and classification of irreducibility, equivalence and
decomposition.

Every name in `_EXPORTS` is exported from the package and loads on first use
(PEP 562): `import gpcuntz` imports no submodule and not numpy, and
`gpcuntz.NAME` imports only the module that defines NAME, then keeps NAME
here so later lookups are plain attribute reads; `gpcuntz.reps` and the
other submodules load the same way.  A command-line query thus compiles and
imports only the modules its subcommand runs.  Importing a submodule binds
it on the package under its own name, so no submodule is named after an
export: the decision functions live in `gpcuntz.decisions`, and
`gpcuntz.classify` is the function whatever was imported first.
"""

import importlib

_EXPORTS = {
    "algebra": (
        "AlgebraElement",
        "RankMismatchError",
        "car_generator",
        "conditional_expectation",
        "expand_identity",
        "gauge_action",
        "generator",
        "identity",
        "leavitt_form",
        "multiply",
        "s_of",
        "unitary_action",
        "word_element",
        "zero",
    ),
    "decisions": (
        "ClassificationReport",
        "DirectIntegralDescriptor",
        "classify",
        "decompose_chain",
        "decompose_cycle",
        "equivalent",
    ),
    "expressions": ("ExprSyntaxError", "format_element", "parse"),
    "params": (
        "ChainParam",
        "CycleParam",
        "DiagnosticsTable",
        "PeriodicityVerdict",
        "UndecidableError",
        "asymptotic_diagnostics",
        "basis_vector",
        "chain_factor",
        "chain_factors",
        "chain_tail_equivalent",
        "cycle",
        "cycles_equivalent",
        "explicit_chain",
        "gray_zone_chain",
        "is_eventually_periodic",
        "prefix_chain",
        "primitive_root",
        "rotation_chain",
        "scale_cycle",
        "target_overlap_sums",
        "unit_vector",
    ),
    "reps": (
        "BasisLabel",
        "TruncatedRep",
        "TruncationOverflowError",
        "VerificationReport",
        "apply_element",
        "build_chain_rep",
        "build_cycle_rep",
        "build_fiber_rep",
        "chain_vector",
        "complete_unitary",
        "cycle_anchor_vectors",
        "enumerate_basis",
        "export_coo",
        "export_json",
        "numeric_cycle_eigencheck",
        "power_vanish",
        "vacuum_expectation",
        "verify_gp",
    ),
    "states": (
        "GPState",
        "gram_matrix",
        "state_eval",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
