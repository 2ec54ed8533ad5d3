"""Toolkit for generalized permutative representations of Cuntz algebras.

Normal-form word arithmetic, a text syntax for elements, cycle/chain
parameter procedures, exact parameter states, sparse truncated
representations, and classification of irreducibility, equivalence,
decomposition and branching.
"""

from .algebra import (
    AlgebraElement,
    RankMismatchError,
    car_generator,
    conditional_expectation,
    expand_identity,
    gauge_action,
    generator,
    identity,
    leavitt_form,
    linear_combine,
    multiply,
    s_of,
    unitary_action,
    word_element,
    zero,
)
from .classify import (
    BranchingReport,
    ClassificationReport,
    DirectIntegralDescriptor,
    branching_u1,
    classify,
    decompose_chain,
    decompose_cycle,
    equivalent,
    numeric_cycle_eigencheck,
)
from .expressions import ExprSyntaxError, format_element, parse
from .params import (
    CanonicalCycle,
    ChainParam,
    CycleParam,
    DiagnosticsTable,
    PeriodicityVerdict,
    UndecidableError,
    asymptotic_diagnostics,
    basis_vector,
    canonicalize_cycle,
    chain_factor,
    chain_factors,
    chain_tail_equivalent,
    cycle,
    cycles_equivalent,
    explicit_chain,
    full_tensor,
    gray_zone_chain,
    is_eventually_periodic,
    prefix_chain,
    primitive_root,
    rotation_chain,
    rotation_to_explicit,
    scale_cycle,
    target_overlap_sums,
    unit_vector,
)
from .reps import (
    BasisLabel,
    TruncatedRep,
    TruncationOverflowError,
    VerificationReport,
    apply_element,
    build_chain_rep,
    build_cycle_rep,
    build_fiber_rep,
    chain_vector,
    complete_unitary,
    cycle_anchor_vectors,
    enumerate_basis,
    export_coo,
    export_json,
    power_vanish,
    vacuum_expectation,
    verify_gp,
)
from .states import (
    GPState,
    fock_annihilation_residual,
    gram_matrix,
    state_eval,
    state_eval_word,
)

__version__ = "0.1.0"
