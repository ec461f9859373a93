"""
Closed formulas for the canonical basis elements of all four families,
and the resulting fast Kazhdan-Lusztig polynomial path.

Each formula is written once, as a list of terms (k, tops, bare): the
lower-interval sum v^k N_x for tops (x,), the two-interval sum
v^k M_{x,y} for tops (x, y), or the bare monomial v^k H_w for tops (w,).
A smaller family member enters as its own terms, shifted by v^k and
relabelled by its symmetry tau (tau N_x = N_{tau x}, since tau keeps
lengths and Bruhat order).  ``kl_closed_form`` sums the list of a region
tag into one hecke table, unmemoized; ``theta2_product_form``, the
second theta2 formula, keeps its product-identity route.  The recursion
stays an independent oracle, and every formula is tested against it.

``kl_column`` is the one way to a KL column off the closed forms, and
it builds no Hecke element: in the q-normalization a term v^k N_x adds
q^((l(y)-l(x)-k)/2) to P_{z,y} for every z <= x, so a column is fixed by
which term masks hold z.  ``kl_fast`` looks one P up in the column.  A
column whose support is not [e, y], with a term whose q-exponent is odd
or negative, or with a P whose constant term is not 1, raises
``ClosedFormError`` with its reason.  Nothing here answers from the
recursion in its place: the verification stages fail on the error, and
the CLI exits 2.
"""

from __future__ import annotations

import functools
from collections import Counter

from . import hecke, regions, weyl
from .hecke import (
    HeckeElement,
    N_element,
    Table,
    _add_element,
    _add_mult_gen,
    _add_N,
    _freeze,
)
from .laurent import LaurentPoly, QPoly
from .regions import RegionKind, ThetaIndex, s_mn, theta, theta1, theta2, x_chain
from .weyl import IDENTITY_SYMMETRY, RHO, Element, Symmetry

__all__ = [
    "kl_closed_form",
    "theta2_product_form",
    "closed_form_terms",
    "kl_column",
    "kl_fast",
    "ClosedFormError",
    "fallback_log",
    "appendix_identity_check",
    "product_identity_check",
]

_RHO2 = RHO * RHO

# v^k N_x for tops (x,), v^k M_{x,y} for tops (x, y), or v^k H_w for (w,) and bare
Term = tuple[int, tuple[Element, ...], bool]


# ---------------------------------------------------------------------------
# the four families, as term lists

def _shifted(k: int, terms: list[Term], tau: Symmetry = IDENTITY_SYMMETRY) -> list[Term]:
    # v^k times the tau image of a sum of terms
    return [(k + j, tuple(map(tau.apply, tops)), bare) for j, tops, bare in terms]


def _x_terms(n: int) -> list[Term]:
    # N_{x_n} for n <= 3; N_{x_4} + v N_{x_1} at n = 4; for n >= 5 the
    # term v N_{x_{n-3}} persists and even n picks up the two extra
    # standard-basis terms v H_{s1 s0 x_{n-5}} + v^2 H_{s0 x_{n-5}}
    terms = [(0, (x_chain(n),), False)]
    if n >= 4:
        terms.append((1, (x_chain(n - 3),), False))
    if n >= 5 and n % 2 == 0:
        tail = x_chain(n - 5).left_mult(0)
        terms += [(1, (tail.left_mult(1),), True), (2, (tail,), True)]
    return terms


def _theta_terms(idx: ThetaIndex | tuple[int, int]) -> list[Term]:
    # the sum over i = 0..min(m, n) of v^(2i) N_{theta(m-i, n-i)}
    m, n = idx
    return [(2 * i, (theta((m - i, n - i)),), False) for i in range(min(m, n) + 1)]


def _theta1_terms(idx: ThetaIndex | tuple[int, int]) -> list[Term]:
    # theta(m, n) s by the four-case formula: N plus v times the theta
    # closed form of each neighbour (m-1, n), (m, n-1) that exists
    m, n = idx
    terms = [(0, (theta1(idx),), False)]
    for i in ((m - 1, n), (m, n - 1)):
        if min(i) >= 0:
            terms += _shifted(1, _theta_terms(i))
    return terms


def _theta2_terms(idx: ThetaIndex | tuple[int, int]) -> list[Term]:
    # the first closed form of s0 theta(m, n) s
    m, n = idx
    terms = [(0, (theta2(idx),), False)]
    if m == 0 and n == 0:
        return terms + [(2, (weyl.generator(0),), False)]
    if m == 0 or n == 0:
        # the two edges mirror each other: n = 0 uses rho where m = 0
        # uses rho^2, and the other way round
        prev = ThetaIndex(max(m - 1, 0), max(n - 1, 0))
        near, far = (RHO, _RHO2) if n == 0 else (_RHO2, RHO)
        terms.append((1, (theta(prev).left_mult(0), near.apply(theta(prev))), False))
        return terms + _shifted(1, _theta1_terms(prev), far)
    below = ThetaIndex(m, n - 1)
    left = ThetaIndex(m - 1, n)
    terms.append((1, (theta(below).left_mult(0), theta(left).left_mult(0)), False))
    terms += _shifted(1, _theta1_terms(below), RHO) + _shifted(1, _theta1_terms(left), _RHO2)
    return terms


def closed_form_terms(tag: regions.RegionTag) -> list[Term]:
    """The closed form of the canonical member of a region tag, as a list
    of terms (k, tops, bare); the identity is N_e."""
    if tag.kind is RegionKind.IDENTITY:
        return [(0, (weyl.identity(),), False)]
    if tag.kind is RegionKind.X:
        return _x_terms(tag.params)
    if tag.kind is RegionKind.THETA:
        return _theta_terms(tag.params)
    if tag.kind is RegionKind.THETA1:
        return _theta1_terms(tag.params)
    return _theta2_terms(tag.params)


def _sum(terms: list[Term]) -> HeckeElement:
    """The Hecke element of a sum of terms."""
    acc: Table = {}
    for k, tops, bare in terms:
        if bare:
            row = acc.setdefault(tops[0], {})
            row[k] = row.get(k, 0) + 1
        else:
            _add_N(acc, k, *tops)
    return _freeze(acc)


def kl_closed_form(tag: regions.RegionTag) -> HeckeElement:
    """Closed form for the canonical member described by a region tag."""
    return _sum(closed_form_terms(tag))


def theta2_product_form(idx: ThetaIndex | tuple[int, int]) -> HeckeElement:
    """The second closed form of s0 theta(m, n) s, whose agreement with
    kl_closed_form is itself a consistency check: one M term over the
    flanking theta1 members, plus v times the canonical element of
    s0 theta(i), by the product identity, for each flanking index i.
    The two formulas coincide for m = n = 0."""
    m, n = idx
    if m == 0 and n == 0:
        return _sum(_theta2_terms(idx))
    if m == 0 or n == 0:
        prev = ThetaIndex(max(m - 1, 0), max(n - 1, 0))
        near, far = (RHO, _RHO2) if n == 0 else (_RHO2, RHO)
        tops, flanks = (far.apply(theta1(prev)), near.apply(theta(prev))), (prev,)
    else:
        flanks = (ThetaIndex(m, n - 1), ThetaIndex(m - 1, n))
        tops = (RHO.apply(theta1(flanks[0])), _RHO2.apply(theta1(flanks[1])))
    acc = _add_N({}, 0, theta2(idx))
    _add_N(acc, 1, *tops)
    for i in flanks:
        _add_element(acc, hecke.mult_kl_s(_sum(_theta_terms(i)), 0, "left"), k=1)
    return _freeze(acc)


# ---------------------------------------------------------------------------
# the fast KL path, one column at a time

class ClosedFormError(RuntimeError):
    """A closed form gave a column that cannot be a KL column."""


def fallback_log() -> tuple:
    """Always empty: a failed closed form raises ClosedFormError and is
    never answered from the recursion.  Kept for callers that still
    count fallbacks."""
    return ()


@functools.cache
def kl_column(y: Element) -> dict[Element, QPoly]:
    """P_{x,y} for every x <= y, in (length, word) order of x.

    The terms of the closed form of y's canonical member, relabelled onto
    [e, y] by the classifying symmetry, split [e, y] by their masks (the
    ideal of x, of both tops for M, the bit of w for a bare H_w), one AND
    per part and term; each part's P is built once, so equal P share one
    object.  Raises ClosedFormError unless the support is exactly [e, y],
    every q-exponent is whole and >= 0 and every P has constant term 1.
    Columns are memoized per y (a raise is not, so it recurs on every
    call); callers must not mutate them.
    """
    ideal = y.ideal  # above the enumeration cap this raises before classify
    tag = regions.classify(y)
    terms = _shifted(0, closed_form_terms(tag), tag.tau)
    parts: list[tuple[int, tuple[int, ...]]] = []  # (mask, the terms holding it)
    for t, (k, tops, bare) in enumerate(terms):
        # tops[-1] is tops[0] but for an M term
        rest = 1 << tops[0].ball_index if bare else tops[0].ideal | tops[-1].ideal
        split = []
        for part, held in parts:
            inside = part & rest
            if inside != part:
                split.append((part ^ inside, held))
            if inside:
                split.append((inside, held + (t,)))
                rest ^= inside
        parts = split + [(rest, (t,))] if rest else split
    if sum(part for part, _ in parts) != ideal:  # the parts are disjoint
        raise ClosedFormError(f"closed form of {y.word()} is not supported on [e, y]")
    half = []
    for k, (x, *_), _ in terms:
        twice = y.length - x.length - k
        if twice < 0 or twice % 2:
            raise ClosedFormError(f"P({x.word()}, {y.word()}): term v^{k} gives q^({twice}/2)")
        half.append(twice // 2)
    seen: dict[QPoly, QPoly] = {}
    column = dict.fromkeys(weyl.ball_elements(ideal))
    for part, held in parts:
        p = QPoly(Counter(half[t] for t in held))
        p = seen.setdefault(p, p)
        for x in weyl.bit_elements(part):
            column[x] = p
    for x, p in column.items():
        if p.coefficient(0) != 1:
            raise ClosedFormError(f"P({x.word()}, {y.word()}) = {p} has no constant term 1")
    return column


def kl_fast(x: Element, y: Element) -> QPoly:
    """P_{x,y} looked up in kl_column(y); zero when x is not below y.

    The closed form classifies y once for its whole column.  A column that
    fails its checks raises ClosedFormError, like kl_column.
    """
    return kl_column(y).get(x, QPoly.zero())


# ---------------------------------------------------------------------------
# identity reports

def appendix_identity_check(m: int, n: int) -> dict:
    """Check N_theta(m,n) * (H_s + v) + v^2 N_theta(m-1,n-1)s against
    N_theta(m,n)s + v N_theta(m-1,n) + v N_theta(m,n-1); requires m, n >= 1.

    The report carries equality, both contents and their predicted
    value, monotonicity of the left side, the coefficientwise order,
    and the four anchor coefficients.
    """
    if m < 1 or n < 1:
        raise ValueError("appendix_identity_check requires m, n >= 1")
    s = s_mn((m, n))
    acc: Table = {}
    _add_mult_gen(acc, N_element(theta((m, n))), s, True)
    _add_N(acc, 2, theta1((m - 1, n - 1)))
    left = _freeze(acc)
    acc = _add_N({}, 0, theta1((m, n)))
    _add_N(acc, 1, theta((m - 1, n)))
    _add_N(acc, 1, theta((m, n - 1)))
    right = _freeze(acc)
    content_formula = 3 * (3 * m * m + 3 * n * n + 12 * m * n + 5 * m + 5 * n + 4)
    anchors = {
        "theta(m,n)s": (theta1((m, n)), LaurentPoly({0: 1})),
        "theta(m-1,n)": (theta((m - 1, n)), LaurentPoly({3: 1, 1: 1})),
        "theta(m,n-1)": (theta((m, n - 1)), LaurentPoly({3: 1, 1: 1})),
        # the v^4 + 2v^2 value is forced by the right-hand side's monomial
        # structure: v^4 from N_{theta(m,n)s} and v * v from each of the
        # two remaining N terms
        "theta(m-1,n-1)s": (theta1((m - 1, n - 1)), LaurentPoly({4: 1, 2: 2})),
    }
    anchor_report = {}
    anchors_ok = True
    for name, (el, expected) in anchors.items():
        gl = left.coefficient(el)
        gr = right.coefficient(el)
        ok = gl == gr == expected
        anchors_ok &= ok
        anchor_report[name] = {
            "left": str(gl),
            "right": str(gr),
            "expected": str(expected),
            "ok": ok,
        }
    cl, cr = hecke.content(left), hecke.content(right)
    geq = hecke.hecke_geq(left, right)
    equal = left == right
    holds = (
        equal and cl == cr == content_formula and anchors_ok and geq and hecke.is_monotonic(left)
    )
    witnesses = []
    if not equal:
        diff = left - right
        witnesses = [{"element": x.word(), "coefficient": str(p)} for x, p in diff.items()]
    return {
        "identity": "N*Hs + v^2*N == N + vN + vN",
        "params": {"m": m, "n": n},
        "holds": holds,
        "equal": equal,
        "content_left": cl,
        "content_right": cr,
        "content_formula": content_formula,
        "left_monotonic": hecke.is_monotonic(left),
        "coefficientwise_geq": geq,
        "anchors": anchor_report,
        "witnesses": witnesses,
    }


def product_identity_check(idx: ThetaIndex | tuple[int, int]) -> dict:
    """Verify the three canonical-basis product identities around
    theta(m, n) against the recursion oracle."""
    idx = ThetaIndex(*idx)
    s = s_mn(idx)
    t = theta(idx)
    base = hecke.kl_basis(t)
    left = hecke.mult_kl_s(base, 0, "left")
    right = hecke.mult_kl_s(base, s, "right")
    both = hecke.mult_kl_s(left, s, "right")
    checks = {
        "s0 * theta": left == hecke.kl_basis(t.left_mult(0)),
        "theta * s": right == hecke.kl_basis(t.right_mult(s)),
        "s0 * theta * s": both == hecke.kl_basis(t.right_mult(s).left_mult(0)),
    }
    return {
        "identity": "canonical generator products",
        "params": {"m": idx.m, "n": idx.n},
        "holds": all(checks.values()),
        "checks": checks,
        "witnesses": [] if all(checks.values()) else [k for k, v in checks.items() if not v],
    }
