"""
bruhat_forge: exact Kazhdan-Lusztig and Bruhat-order computations in
the affine Weyl group of type A2~, with closed formulas for every
canonical basis element, a graded-poset toolkit for Bruhat intervals,
and an exhaustive verification harness for the combinatorial
invariance of KL polynomials under interval isomorphism.

Importing the package loads only laurent and weyl; each hecke, regions,
closedform, poset or verify name it exports loads its module on first
access.
"""

import importlib

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
# Every other name loads its module on first use, so a command compiles
# only what it runs: a cached `kl` answer needs no closed form or recursion.
_LAZY = dict.fromkeys(
    "HeckeElement M_element N_element content hecke_geq is_monotonic kl_basis kl_polynomial "
    "mult_kl_s standard_basis".split(), "hecke"
) | dict.fromkeys(
    "RegionKind RegionTag ThetaIndex classify s_mn theta theta1 theta2 x_chain".split(), "regions"
) | dict.fromkeys(
    "ClosedFormError appendix_identity_check kl_column kl_fast product_identity_check".split(),
    "closedform",
) | dict.fromkeys(
    "Interval IsoCertificate NotComparableError build_interval fingerprint is_isomorphic "
    "parents".split(), "poset"
) | dict.fromkeys(
    "VerificationReport structural_lemma_checks verify_closed_forms verify_conjecture "
    "verify_lemma_suite".split(), "verify"
)


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"
