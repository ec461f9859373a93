"""
Closed formulas for the canonical basis elements of all four families,
and the resulting fast Kazhdan-Lusztig polynomial path.

The formulas express each canonical basis element through the
lower-interval sums N_x, the two-interval sums M_{x,y}, a handful of
bare standard-basis terms, and canonical basis elements of strictly
smaller family members.  Recursive terms are expanded through the
closed forms themselves (memoized), never through the generic
recursion; the recursion stays available as an independent oracle and
is what every formula is tested against.  Each formula is summed in
place into one hecke table and frozen once: the N and M terms go in as
monomials read off the ideal bitsets, memoized family terms are added
coefficient by coefficient without being mutated, and bare
standard-basis terms go in as single monomials.

``kl_column`` is the one way to a KL column off the closed forms: it
classifies y once, relabels the closed form of the canonical family
member by the classifying symmetry, reads the column off the ideal of
y in ball order and converts every coefficient to q; ``kl_fast`` looks
one P up in it.  A column whose support is not [e, y], or with a P whose
constant term is not 1, raises ``ClosedFormError`` with its reason.
Nothing here answers from the recursion in its place: the verification
stages fail on the error, and the CLI exits 2.
"""

from __future__ import annotations

import functools

from . import hecke, regions, weyl
from .hecke import (
    HeckeElement,
    N_element,
    Table,
    _add_element,
    _add_mult_gen,
    _add_N,
    _freeze,
    standard_basis,
)
from .laurent import ONE, LaurentPoly, QPoly, ShapeError, to_q
from .regions import RegionKind, ThetaIndex, s_mn, theta, theta1, theta2, x_chain
from .weyl import RHO, Element

__all__ = [
    "kl_basis_x",
    "kl_basis_theta",
    "kl_basis_theta1",
    "kl_basis_theta2",
    "kl_closed_form",
    "kl_column",
    "kl_fast",
    "ClosedFormError",
    "fallback_log",
    "appendix_identity_check",
    "product_identity_check",
]

_RHO2 = RHO * RHO


# ---------------------------------------------------------------------------
# the four families

@functools.cache
def kl_basis_x(n: int) -> HeckeElement:
    """Canonical basis element of the chain x_n.

    N_{x_n} for n <= 3; N_{x_4} + v N_{x_1} at n = 4; for n >= 5 the
    term v N_{x_{n-3}} persists and even n picks up the two extra
    standard-basis terms v H_{s1 s0 x_{n-5}} + v^2 H_{s0 x_{n-5}}.
    """
    if n < 1:
        raise ValueError("kl_basis_x requires n >= 1")
    acc = _add_N({}, 0, x_chain(n))
    if n >= 4:
        _add_N(acc, 1, x_chain(n - 3))
    if n >= 5 and n % 2 == 0:
        tail = x_chain(n - 5).left_mult(0)
        ONE.add_to(acc.setdefault(tail.left_mult(1), {}), 1, 1)
        ONE.add_to(acc.setdefault(tail, {}), 1, 2)
    return _freeze(acc)


@functools.cache
def kl_basis_theta(idx: ThetaIndex | tuple[int, int]) -> HeckeElement:
    """Sum over i = 0..min(m, n) of v^(2i) N_{theta(m-i, n-i)}."""
    m, n = idx
    acc: Table = {}
    for i in range(min(m, n) + 1):
        _add_N(acc, 2 * i, theta((m - i, n - i)))
    return _freeze(acc)


@functools.cache
def kl_basis_theta1(idx: ThetaIndex | tuple[int, int]) -> HeckeElement:
    """Canonical basis element of theta(m, n) s, by the four-case formula."""
    m, n = idx
    acc = _add_N({}, 0, theta1(idx))
    if m > 0 and n > 0:
        _add_element(acc, kl_basis_theta((m - 1, n)), k=1)
        _add_element(acc, kl_basis_theta((m, n - 1)), k=1)
    elif m > 0 or n > 0:
        _add_N(acc, 1, theta((max(m - 1, 0), max(n - 1, 0))))
    return _freeze(acc)


def _kl_s0_theta(idx: ThetaIndex | tuple[int, int]) -> HeckeElement:
    # canonical basis element of s0 theta(m, n), via the product identity
    # (H_{s0} + v) * kl_basis_theta == canonical element of the product
    return hecke.mult_kl_s(kl_basis_theta(idx), 0, "left")


@functools.cache
def kl_basis_theta2(idx: ThetaIndex | tuple[int, int], version: int = 1) -> HeckeElement:
    """Canonical basis element of s0 theta(m, n) s.

    The two versions are the paired formulas whose agreement is itself a
    consistency check; they coincide for m = n = 0.
    """
    if version not in (1, 2):
        raise ValueError("version must be 1 or 2")
    m, n = idx
    acc = _add_N({}, 0, theta2(idx))
    if m == 0 and n == 0:
        _add_N(acc, 2, weyl.generator(0))
    elif m == 0 or n == 0:
        # the two edges mirror each other: n = 0 uses rho where m = 0
        # uses rho^2, and the other way round
        prev = ThetaIndex(max(m - 1, 0), max(n - 1, 0))
        near, far = (RHO, _RHO2) if n == 0 else (_RHO2, RHO)
        if version == 1:
            _add_N(acc, 1, theta(prev).left_mult(0), near.apply(theta(prev)))
            _add_element(acc, hecke.apply_symmetry(far, kl_basis_theta1(prev)), k=1)
        else:
            _add_N(acc, 1, far.apply(theta1(prev)), near.apply(theta(prev)))
            _add_element(acc, _kl_s0_theta(prev), k=1)
    else:
        below = ThetaIndex(m, n - 1)
        left = ThetaIndex(m - 1, n)
        if version == 1:
            _add_N(acc, 1, theta(below).left_mult(0), theta(left).left_mult(0))
            _add_element(acc, hecke.apply_symmetry(RHO, kl_basis_theta1(below)), k=1)
            _add_element(acc, hecke.apply_symmetry(_RHO2, kl_basis_theta1(left)), k=1)
        else:
            _add_N(acc, 1, RHO.apply(theta1(below)), _RHO2.apply(theta1(left)))
            _add_element(acc, _kl_s0_theta(below), k=1)
            _add_element(acc, _kl_s0_theta(left), k=1)
    return _freeze(acc)


def kl_closed_form(tag: regions.RegionTag) -> HeckeElement:
    """Closed form for the canonical member described by a region tag."""
    if tag.kind is RegionKind.IDENTITY:
        return standard_basis(weyl.identity())
    if tag.kind is RegionKind.X:
        return kl_basis_x(tag.params)
    if tag.kind is RegionKind.THETA:
        return kl_basis_theta(tag.params)
    if tag.kind is RegionKind.THETA1:
        return kl_basis_theta1(tag.params)
    return kl_basis_theta2(tag.params, 1)


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

    Classifies y once, relabels the support of the closed form of its
    canonical family member by the classifying symmetry, and reads the
    column off the ideal of y in ball order, each coefficient converted
    to the q-normalization; equal P share one object.  Raises
    ClosedFormError unless the support is exactly [e, y] and every P has
    constant term 1.  Columns are memoized per y (a raise is not, so it
    recurs on every call); callers must not mutate them.
    """
    ideal = y.ideal  # above the enumeration cap this raises before classify
    tag = regions.classify(y)
    coefficients = {tag.tau.apply(x): h for x, h in kl_closed_form(tag)._m.items()}
    column = {}
    seen: dict[QPoly, QPoly] = {}
    for x in weyl.ball_elements(ideal):
        h = coefficients.get(x)
        if h is None:
            break
        try:
            p = to_q(h, y.length - x.length)
        except ShapeError as exc:
            raise ClosedFormError(f"P({x.word()}, {y.word()}): {exc}") from exc
        if p.coefficient(0) != 1:
            raise ClosedFormError(f"P({x.word()}, {y.word()}) = {p} has no constant term 1")
        column[x] = seen.setdefault(p, p)
    if len(column) != len(coefficients) or len(column) != ideal.bit_count():
        raise ClosedFormError(f"closed form of {y.word()} is not supported on [e, y]")
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
    content_formula = 3 * (
        3 * m * m + 3 * n * n + 12 * m * n + 5 * m + 5 * n + 4
    )
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
        equal
        and cl == cr == content_formula
        and anchors_ok
        and geq
        and hecke.is_monotonic(left)
    )
    witnesses = []
    if not equal:
        diff = left - right
        witnesses = [
            {"element": x.word(), "coefficient": str(p)} for x, p in diff.items()
        ]
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
