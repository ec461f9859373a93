"""
bruhat_forge: exact Kazhdan-Lusztig and Bruhat-order computations in
the affine Weyl group of type A2~, with closed formulas for every
canonical basis element, a graded-poset toolkit for Bruhat intervals,
and an exhaustive verification harness for the combinatorial
invariance of KL polynomials under interval isomorphism.
"""

from .laurent import LaurentPoly, QPoly, ShapeError, from_q, to_q
from .weyl import (
    Element,
    ResourceLimitError,
    Symmetry,
    SYMMETRY_GROUP,
    bruhat_leq,
    enumerate_up_to_length,
    from_word,
    identity,
)
from .hecke import (
    HeckeElement,
    M_element,
    N_element,
    content,
    hecke_geq,
    is_monotonic,
    kl_basis,
    kl_polynomial,
    mult_kl_s,
    standard_basis,
)
from .regions import RegionKind, RegionTag, ThetaIndex, classify, s_mn, theta, theta1, theta2, x_chain
from .closedform import (
    ClosedFormError,
    appendix_identity_check,
    kl_basis_theta,
    kl_basis_theta1,
    kl_basis_theta2,
    kl_basis_x,
    kl_column,
    kl_fast,
    product_identity_check,
)
from .poset import (
    Interval,
    IsoCertificate,
    NotComparableError,
    build_interval,
    fingerprint,
    is_isomorphic,
    parents,
    structural_lemma_checks,
)
from .verify import (
    VerificationReport,
    verify_closed_forms,
    verify_conjecture,
    verify_lemma_suite,
)

__version__ = "0.1.0"
