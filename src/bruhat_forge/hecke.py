"""
The Hecke algebra of the affine Weyl group of type A2~, in the
normalization where the quadratic relation reads
H_s^2 = (v^-1 - v) H_s + H_id and the canonical basis element of a
simple reflection is H_s + v H_id.

Provides the standard basis, multiplication by H_s + v, the canonical
basis via the mu-corrected recursion (the oracle every closed
formula is checked against), Kazhdan-Lusztig polynomials in both the v-
and q-normalizations, the auxiliary sums N_x (lower-interval sum) and
M_{x,y} (union of two lower intervals), coefficient extraction by
HeckeElement.coefficient, the content c(H) (total coefficient mass at
v = 1), monotonic elements, and the coefficientwise order on Hecke elements.

Products by a generator, N_x, M_{x,y} and the closed forms are each one
HeckeElement.from_monomials call, a sum of monomials c v^e H_z: two for
each monomial of the factor of a product, one for each element of the
ideal bitsets of N_x or M_{x,y}.  The recursion runs on
rows instead: ball index of x -> h_{x,w} at v = 2^32, one int whose
32-bit fields are the coefficients.  Multiplying by H_s + v is then an
add and a one-field shift per x, with s x read off the weyl
left-multiplication table, and a mu correction one multiply-and-subtract
per x.  The rows are the one memo, decoded afresh on each kl_basis and
kl_polynomial call; kl_mismatches reads them undecoded.  The
recursion uses nothing from the closed forms (this module does not
import closedform), so the two routes to P_{x,y} stay independent.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, Mapping, Optional

from . import weyl
from .laurent import ONE, ZERO, LaurentPoly, QPoly, to_q
from .weyl import Element, ResourceLimitError

__all__ = [
    "HeckeElement",
    "standard_basis",
    "mult_kl_s",
    "kl_basis",
    "kl_polynomial",
    "kl_mismatches",
    "N_element",
    "M_element",
    "content",
    "is_monotonic",
    "hecke_geq",
    "DEFAULT_KL_CAP",
]

DEFAULT_KL_CAP = 24


class HeckeElement:
    """A finitely supported map Element -> LaurentPoly (standard basis)."""

    __slots__ = ("_m", "_hash")

    def __init__(self, terms: Mapping[Element, LaurentPoly] | None = None):
        self._m = {x: p for x, p in (terms or {}).items() if p}
        self._hash: Optional[int] = None

    @classmethod
    def zero(cls) -> "HeckeElement":
        return cls()

    @classmethod
    def from_monomials(cls, triples: Iterable[tuple[Element, int, int]]) -> "HeckeElement":
        """The sum of c v^e H_z over the (z, e, c) triples; zeros drop."""
        acc: dict[Element, dict[int, int]] = {}
        for z, e, c in triples:
            row = acc.setdefault(z, {})
            row[e] = row.get(e, 0) + c
        return cls({z: LaurentPoly(row) for z, row in acc.items()})

    def support(self) -> tuple[Element, ...]:
        return tuple(sorted(self._m, key=Element.sort_key))

    def coefficient(self, x: Element) -> LaurentPoly:
        return self._m.get(x, ZERO)

    def items(self) -> Iterator[tuple[Element, LaurentPoly]]:
        for x in self.support():
            yield x, self._m[x]

    def __len__(self) -> int:
        return len(self._m)

    def __bool__(self) -> bool:
        return bool(self._m)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self._m == other._m

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(frozenset(self._m.items()))
            self._hash = h
        return h

    def __repr__(self) -> str:
        parts = [f"({p}) H[{x.word() or '~'}]" for x, p in self.items()]
        return "HeckeElement(" + " + ".join(parts or ["0"]) + ")"

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        m = dict(self._m)
        for x, p in other._m.items():
            m[x] = m.get(x, ZERO) + p
        return HeckeElement(m)

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        m = dict(self._m)
        for x, p in other._m.items():
            m[x] = m.get(x, ZERO) - p
        return HeckeElement(m)

    def scale(self, p: LaurentPoly) -> "HeckeElement":
        if not p:
            return HeckeElement()
        return HeckeElement({x: q * p for x, q in self._m.items()})

    # -- serialization ------------------------------------------------------

    def to_json_obj(self) -> list[dict]:
        """[{element: canonical word, poly: [[exp, coeff], ...]}, ...]"""
        return [
            {"element": x.word(), "poly": p.to_pairs()} for x, p in self.items()
        ]


def standard_basis(w: Element) -> HeckeElement:
    """The single term H_w with coefficient 1."""
    return HeckeElement({w: ONE})


def mult_kl_s(H: HeckeElement, s: int, side: str = "right") -> HeckeElement:
    """Multiply by the canonical generator H_s + v H_id on either side.

    H_x (H_s + v) = H_{xs} + v H_x when the length goes up, and
    H_{xs} + v^-1 H_x when it goes down: two monomials for each of H's.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    monomials = []
    for x, p in H._m.items():
        xs = x.right_mult(s) if side == "right" else x.left_mult(s)
        up = 1 if xs.length > x.length else -1
        for e, c in p.items():
            monomials += [(xs, e, c), (x, e + up, c)]
    return HeckeElement.from_monomials(monomials)


# ---------------------------------------------------------------------------
# canonical basis (the recursion oracle)

# a row value's field k holds the coefficient of v^k as a balanced digit,
# exact for every coefficient of absolute value below 2^(_FIELD - 1)
_FIELD = 32
_LOW = (1 << _FIELD) - 1
_HALF = 1 << (_FIELD - 1)


def kl_basis(w: Element, max_length: int = DEFAULT_KL_CAP) -> HeckeElement:
    """Canonical basis element of w by the mu-corrected recursion.

    Writing kl_basis(w) = sum_x h_{x,w}(v) H_x, the result satisfies
    h_{w,w} = 1 and h_{x,w} in v Z[v] for x < w, and is fixed by the bar
    involution.  With s = min D_L(w) it is (H_s + v) * kl_basis(sw) minus
    mu(x, sw) * kl_basis(x) for every x with sx < x, where mu is the
    coefficient of v^1.  The memo holds the rows of w (ball index of x ->
    h_{x,w} at v = 2^32); each call decodes them afresh, one shared
    LaurentPoly per distinct row value.  This module never reads the
    closed forms, so the recursion stays an independent check on them.
    The cap is checked on every call, memoized or not.
    """
    rows = _rows(w, max_length)
    polys = {h: _decode(h) for h in set(rows.values())}
    return HeckeElement({weyl.ball_element(i): polys[h] for i, h in rows.items()})


def _rows(w: Element, max_length: int) -> dict[int, int]:
    if w.length > max_length:
        raise ResourceLimitError(f"kl_basis at length {w.length} exceeds the cap {max_length}")
    return _kl_rows(w)


@functools.cache
def _kl_rows(w: Element) -> dict[int, int]:
    # reading w's ball index enumerates its layer, which fills the left
    # table for every s x with x below s w; the identity is ball index 0
    if w.ball_index == 0:
        return {0: 1}
    s = min(w.left_descents())
    left = weyl._LEFT[s]
    acc: dict[int, int] = {}
    for x, h in _kl_rows(w.left_mult(s)).items():
        sx = left[x]
        acc[sx] = acc.get(sx, 0) + h
        if sx > x:
            acc[x] = acc.get(x, 0) + (h << _FIELD)
            continue
        # H_s H_x = H_sx + (v^-1 - v) H_x, and h_{x,sw} lies in v Z[v]
        # for x < sw: v^-1 h is exact, and its v^0 field is mu(x, sw)
        if h & _LOW:
            raise ArithmeticError(f"row of ball index {x} in C_sw has a v^0 term, w = {w.word()}")
        h >>= _FIELD
        acc[x] = acc.get(x, 0) + h
        mu = h & _LOW
        if mu:
            mu -= (mu >= _HALF) << _FIELD
            for z, hz in _kl_rows(weyl.ball_element(x)).items():
                acc[z] = acc.get(z, 0) - mu * hz
    return acc


def _decode(h: int) -> LaurentPoly:
    """The polynomial of a row value, one balanced digit per field."""
    coeffs = {}
    while h:
        c = h & _LOW
        c -= (c >= _HALF) << _FIELD
        coeffs[len(coeffs)] = c
        h = (h - c) >> _FIELD
    return LaurentPoly(coeffs)


def kl_polynomial(x: Element, w: Element) -> tuple[LaurentPoly, QPoly]:
    """(h_{x,w}, P_{x,w}), decoded from the one row entry of x; both zero
    when x is not below w."""
    rows = _rows(w, DEFAULT_KL_CAP)
    h = x.length <= w.length and rows.get(x.ball_index)
    if not h:
        return ZERO, QPoly.zero()
    p = _decode(h)
    return p, to_q(p, w.length - x.length)


def kl_mismatches(w: Element, column: Mapping[Element, QPoly]) -> list[Element]:
    """The x <= w, in (length, word) order, whose P_{x,w} column lacks or
    holds other than the recursion: x's row entry shifted up l(x) fields
    against one row value v^l(w) P(v^-2) per distinct P.  A P of degree past
    l(w)/2 or with a coefficient outside the 32-bit fields is a mismatch."""
    rows = _rows(w, DEFAULT_KL_CAP)
    raised: dict[Optional[QPoly], Optional[int]] = {None: None}
    bad = []
    for x in weyl.ball_elements(w.ideal):
        p = column.get(x)
        h = raised.get(p, False)
        if h is False:
            terms = [(c, w.length - 2 * k) for k, c in p.items()]
            fits = all(e >= 0 and -_HALF <= c < _HALF for c, e in terms)
            h = raised[p] = sum(c << (_FIELD * e) for c, e in terms) if fits else None
        if rows.get(x.ball_index, 0) << (_FIELD * x.length) != h:
            bad.append(x)
    return bad


# ---------------------------------------------------------------------------
# auxiliary elements and the coefficient apparatus

def N_element(x: Element) -> HeckeElement:
    """Sum over z <= x of v^(l(x)-l(z)) H_z."""
    return M_element(x, x)


def M_element(x: Element, y: Element) -> HeckeElement:
    """Sum over w <= x or w <= y of v^(l(x)-l(w)) H_w.

    The exponents are centered on l(x), so M_{x,y} = M_{y,x} only when
    the two lengths agree.
    """
    top = x.length
    return HeckeElement.from_monomials(
        (z, top - z.length, 1) for z in weyl.ball_elements(x.ideal | y.ideal)
    )


def content(H: HeckeElement) -> int:
    """Sum over the support of the coefficient values at v = 1."""
    return sum(p.evaluate_at_one() for p in H._m.values())


def is_monotonic(H: HeckeElement) -> bool:
    """Whether G_y(H) - v^(l(x)-l(y)) G_x(H) lies in N[v, v^-1] for all
    y <= x.

    Tested on covers: the coefficients are non-negative and G_z - v G_w
    is in N[v, v^-1] for each w in the support and each z it covers.
    Intervals are graded and G_y - v^(a+b) G_x = (G_y - v^a G_z) +
    v^a (G_z - v^b G_x), so this is the condition on every pair.
    """
    if not all(p.is_nonneg() for p in H._m.values()):
        return False
    covers = weyl.ball(max((x.length for x in H._m), default=0)).covers
    for w, pw in H._m.items():
        for z in weyl.bit_elements(covers[w.ball_index]):
            if not H.coefficient(z).dominates(pw, 1):
                return False
    return True


def hecke_geq(H1: HeckeElement, H2: HeckeElement) -> bool:
    """Coefficientwise order: every G_x(H1 - H2) lies in N[v, v^-1]."""
    diff = H1 - H2
    return all(p.is_nonneg() for p in diff._m.values())

