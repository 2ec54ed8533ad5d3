"""Toolkit for generalized permutative representations of Cuntz algebras.

Normal-form word arithmetic, a text syntax for elements, cycle/chain
parameter procedures, exact parameter states, sparse truncated
representations, and classification of irreducibility, equivalence,
decomposition and branching.

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
        "linear_combine",
        "multiply",
        "s_of",
        "unitary_action",
        "word_element",
        "zero",
    ),
    "decisions": (
        "BranchingReport",
        "ClassificationReport",
        "DirectIntegralDescriptor",
        "branching_u1",
        "classify",
        "decompose_chain",
        "decompose_cycle",
        "equivalent",
        "numeric_cycle_eigencheck",
    ),
    "expressions": ("ExprSyntaxError", "format_element", "parse"),
    "params": (
        "CanonicalCycle",
        "ChainParam",
        "CycleParam",
        "DiagnosticsTable",
        "PeriodicityVerdict",
        "UndecidableError",
        "asymptotic_diagnostics",
        "basis_vector",
        "canonicalize_cycle",
        "chain_factor",
        "chain_factors",
        "chain_tail_equivalent",
        "cycle",
        "cycles_equivalent",
        "explicit_chain",
        "full_tensor",
        "gray_zone_chain",
        "is_eventually_periodic",
        "prefix_chain",
        "primitive_root",
        "rotation_chain",
        "rotation_to_explicit",
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
        "power_vanish",
        "vacuum_expectation",
        "verify_gp",
    ),
    "states": (
        "GPState",
        "fock_annihilation_residual",
        "gram_matrix",
        "state_eval",
        "state_eval_word",
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
