"""
Exact integer Laurent polynomials in the variable v, plus ordinary
polynomials in q, and the passage between the two normalizations of
Kazhdan-Lusztig polynomials: h(v) = v^ldiff * P(v^-2).

Both types are immutable sparse maps exponent -> coefficient with no
stored zeros; coefficients are plain Python ints (arbitrary precision).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

__all__ = ["LaurentPoly", "QPoly", "ShapeError", "to_q", "from_q"]


class ShapeError(ValueError):
    """A Laurent polynomial does not have the v^ldiff * P(v^-2) shape.

    Raised by :func:`to_q`; it signals a corrupted KL computation.
    """


def _clean(coeffs: Mapping[int, int]) -> dict[int, int]:
    return {e: c for e, c in coeffs.items() if c}


def _dominates(a: Mapping[int, int], b: Mapping[int, int], k: int) -> bool:
    # every coefficient of a - (b with exponents shifted by k) is >= 0
    for e, c in a.items():
        if c < b.get(e - k, 0):
            return False
    for e, c in b.items():
        if c > 0 and e + k not in a:
            return False
    return True


def _format_term(coeff: int, exp: int, var: str) -> str:
    if exp == 0:
        return str(coeff)
    if exp == 1:
        head = var
    else:
        head = f"{var}^{exp}"
    if coeff == 1:
        return head
    if coeff == -1:
        return "-" + head
    return f"{coeff}{head}"


def _join_terms(terms: list[str]) -> str:
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        if t.startswith("-"):
            out += " - " + t[1:]
        else:
            out += " + " + t
    return out


class LaurentPoly:
    """Sparse Laurent polynomial in v over the integers.

    >>> p = LaurentPoly({1: 1, -1: 1})
    >>> str(p * p)
    'v^2 + 2 + v^-2'
    """

    __slots__ = ("_c", "_hash")

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        self._c = _clean(coeffs) if coeffs else {}
        self._hash: int | None = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _L_ZERO

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _L_ONE

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "LaurentPoly":
        acc: dict[int, int] = {}
        for e, c in pairs:
            acc[e] = acc.get(e, 0) + c
        return cls(acc)

    # -- structure -------------------------------------------------------------

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._c.items()))

    def coefficient(self, exp: int) -> int:
        return self._c.get(exp, 0)

    @property
    def is_zero(self) -> bool:
        return not self._c

    def min_exp(self) -> int:
        return min(self._c)

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._c == other._c
        if isinstance(other, int):
            return self._c == ({} if other == 0 else {0: other})
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(frozenset(self._c.items()))
            self._hash = h
        return h

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)!r})"

    def __str__(self) -> str:
        terms = [
            _format_term(c, e, "v") for e, c in sorted(self._c.items(), reverse=True)
        ]
        return _join_terms(terms)

    # -- ring operations --------------------------------------------------------

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        acc = dict(self._c)
        for e, c in other._c.items():
            n = acc.get(e, 0) + c
            if n:
                acc[e] = n
            else:
                acc.pop(e, None)
        return _wrap(acc)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _wrap({e: -c for e, c in self._c.items()})

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        acc = dict(self._c)
        for e, c in other._c.items():
            n = acc.get(e, 0) - c
            if n:
                acc[e] = n
            else:
                acc.pop(e, None)
        return _wrap(acc)

    def __rsub__(self, other: int) -> "LaurentPoly":
        if not isinstance(other, int):
            return NotImplemented
        return LaurentPoly({0: other}) - self

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return _L_ZERO
            return _wrap({e: c * other for e, c in self._c.items()})
        acc: dict[int, int] = {}
        for e1, c1 in self._c.items():
            for e2, c2 in other._c.items():
                e = e1 + e2
                n = acc.get(e, 0) + c1 * c2
                if n:
                    acc[e] = n
                else:
                    acc.pop(e, None)
        return _wrap(acc)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by v^k."""
        return _wrap({e + k: c for e, c in self._c.items()})

    def add_to(self, acc: dict[int, int], coeff: int, k: int) -> None:
        """Add coeff * v^k * self into the exponent -> coefficient table acc.

        Zeros are left in acc; ``LaurentPoly(acc)`` drops them.
        """
        for e, c in self._c.items():
            e += k
            acc[e] = acc.get(e, 0) + coeff * c

    # -- involutions and tests ----------------------------------------------------

    def bar(self) -> "LaurentPoly":
        """The involution v -> v^-1 (exponent k maps to -k)."""
        return _wrap({-e: c for e, c in self._c.items()})

    def is_nonneg(self) -> bool:
        """Membership in N[v, v^-1] after normalization."""
        return all(c >= 0 for c in self._c.values())

    def dominates(self, other: "LaurentPoly", k: int) -> bool:
        """Whether self - v^k * other lies in N[v, v^-1], without building it."""
        return _dominates(self._c, other._c, k)

    def evaluate_at_one(self) -> int:
        return sum(self._c.values())

    # -- serialization ---------------------------------------------------------------

    def to_pairs(self) -> list[list[int]]:
        """JSON form: [exponent, coefficient] pairs sorted ascending."""
        return [[e, c] for e, c in sorted(self._c.items())]


def _wrap(acc: dict[int, int]) -> LaurentPoly:
    # acc must hold no zeros; it becomes the new polynomial's own table
    out = LaurentPoly.__new__(LaurentPoly)
    out._c = acc
    out._hash = None
    return out


_L_ZERO = LaurentPoly()
_L_ONE = LaurentPoly({0: 1})

V = LaurentPoly({1: 1})
V_INV = LaurentPoly({-1: 1})
ONE = _L_ONE
ZERO = _L_ZERO


class QPoly:
    """Ordinary polynomial in q with integer coefficients (exponents >= 0).

    >>> str(QPoly({0: 1, 1: 1}))
    '1 + q'
    """

    __slots__ = ("_c", "_hash")

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        c = _clean(coeffs) if coeffs else {}
        if any(e < 0 for e in c):
            raise ValueError("QPoly exponents must be non-negative")
        self._c = c
        self._hash: int | None = None

    @classmethod
    def zero(cls) -> "QPoly":
        return _Q_ZERO

    @classmethod
    def one(cls) -> "QPoly":
        return _Q_ONE

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._c.items()))

    def coefficient(self, exp: int) -> int:
        return self._c.get(exp, 0)

    @property
    def is_zero(self) -> bool:
        return not self._c

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return max(self._c) if self._c else -1

    def evaluate_at_one(self) -> int:
        return sum(self._c.values())

    def is_nonneg(self) -> bool:
        return all(c >= 0 for c in self._c.values())

    def dominates(self, other: "QPoly") -> bool:
        """Whether self - other has no negative coefficient, without building it."""
        return _dominates(self._c, other._c, 0)

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QPoly):
            return self._c == other._c
        if isinstance(other, int):
            return self._c == ({} if other == 0 else {0: other})
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(("q", frozenset(self._c.items())))
            self._hash = h
        return h

    def __add__(self, other: "QPoly") -> "QPoly":
        acc = dict(self._c)
        for e, c in other._c.items():
            acc[e] = acc.get(e, 0) + c
        return QPoly(acc)

    def __sub__(self, other: "QPoly") -> "QPoly":
        acc = dict(self._c)
        for e, c in other._c.items():
            acc[e] = acc.get(e, 0) - c
        return QPoly(acc)

    def __repr__(self) -> str:
        return f"QPoly({str(self)!r})"

    def __str__(self) -> str:
        terms = [_format_term(c, e, "q") for e, c in sorted(self._c.items())]
        return _join_terms(terms)

    def to_pairs(self) -> list[list[int]]:
        return [[e, c] for e, c in sorted(self._c.items())]

    def coefficient_list(self) -> list[int]:
        """Dense coefficient list [c0, c1, ...] up to the degree."""
        if not self._c:
            return [0]
        d = self.degree()
        return [self._c.get(e, 0) for e in range(d + 1)]


_Q_ZERO = QPoly()
_Q_ONE = QPoly({0: 1})

Q_ONE = _Q_ONE
Q_PLUS_ONE = QPoly({0: 1, 1: 1})  # 1 + q


def to_q(h: LaurentPoly, ldiff: int) -> QPoly:
    """Convert h = v^ldiff * P(v^-2) to P(q).

    >>> str(to_q(LaurentPoly({4: 1, 2: 1}), 4))
    '1 + q'
    """
    if ldiff < 0:
        raise ShapeError("ldiff must be non-negative")
    acc: dict[int, int] = {}
    for e, c in h._c.items():
        k = ldiff - e
        if k < 0 or k % 2:
            raise ShapeError(
                f"exponent {e} is inconsistent with ldiff {ldiff}: "
                f"not of the form v^ldiff * P(v^-2)"
            )
        acc[k // 2] = c
    return QPoly(acc)


def from_q(p: QPoly, ldiff: int) -> LaurentPoly:
    """Inverse of :func:`to_q`: P(q) -> v^ldiff * P(v^-2)."""
    return LaurentPoly({ldiff - 2 * k: c for k, c in p._c.items()})
