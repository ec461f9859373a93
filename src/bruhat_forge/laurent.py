"""
Exact integer Laurent polynomials in the variable v, plus ordinary
polynomials in q, and the passage between the two normalizations of
Kazhdan-Lusztig polynomials: h(v) = v^ldiff * P(v^-2).

Both types are immutable sparse maps exponent -> coefficient with no
stored zeros, held and operated on by one private base class;
coefficients are plain Python ints (arbitrary precision).
"""

from __future__ import annotations

from typing import Iterator, Mapping

__all__ = ["LaurentPoly", "QPoly", "ShapeError", "to_q", "from_q"]


class ShapeError(ValueError):
    """A Laurent polynomial does not have the v^ldiff * P(v^-2) shape.

    Raised by :func:`to_q`; it signals a corrupted KL computation.
    """


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


class _Poly:
    """The sparse core of both types; equal only to its own type or a constant int."""

    __slots__ = ("_c", "_hash")

    _VAR = "v"
    _DESCENDING = True  # print the highest exponent first

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        self._c = {e: c for e, c in coeffs.items() if c} if coeffs else {}
        self._hash: int | None = None

    @classmethod
    def _wrap(cls, acc: dict[int, int]) -> "_Poly":
        # acc must hold no zeros; it becomes the new polynomial's own table
        out = cls.__new__(cls)
        out._c = acc
        out._hash = None
        return out

    # -- structure -------------------------------------------------------------

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._c.items()))

    def coefficient(self, exp: int) -> int:
        return self._c.get(exp, 0)

    @property
    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
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
        return f"{type(self).__name__}({str(self)!r})"

    def __str__(self) -> str:
        out = ""
        for e, c in sorted(self._c.items(), reverse=self._DESCENDING):
            term = _format_term(c, e, self._VAR)
            if not out:
                out = term
            elif term.startswith("-"):
                out += " - " + term[1:]
            else:
                out += " + " + term
        return out or "0"

    # -- arithmetic and tests ----------------------------------------------------

    def __add__(self, other: "_Poly | int") -> "_Poly":
        return self._combine(other, 1)

    def __sub__(self, other: "_Poly | int") -> "_Poly":
        return self._combine(other, -1)

    def _combine(self, other: "_Poly | int", sign: int) -> "_Poly":
        # self + sign * other; an int is a constant of self's type
        if isinstance(other, int):
            other = type(self)({0: other})
        acc = dict(self._c)
        for e, c in other._c.items():
            n = acc.get(e, 0) + sign * c
            if n:
                acc[e] = n
            else:
                acc.pop(e, None)
        return self._wrap(acc)

    def is_nonneg(self) -> bool:
        """Whether no coefficient is negative (membership in N[v, v^-1] or N[q])."""
        return all(c >= 0 for c in self._c.values())

    def dominates(self, other: "_Poly", k: int = 0) -> bool:
        """Whether self - v^k * other has no negative coefficient, without building it."""
        a, b = self._c, other._c
        for e, c in a.items():
            if c < b.get(e - k, 0):
                return False
        for e, c in b.items():
            if c > 0 and e + k not in a:
                return False
        return True

    def evaluate_at_one(self) -> int:
        return sum(self._c.values())

    # -- serialization ---------------------------------------------------------------

    def to_pairs(self) -> list[list[int]]:
        """JSON form: [exponent, coefficient] pairs sorted ascending."""
        return [[e, c] for e, c in sorted(self._c.items())]


class LaurentPoly(_Poly):
    """Sparse Laurent polynomial in v over the integers.

    >>> p = LaurentPoly({1: 1, -1: 1})
    >>> str(p * p)
    'v^2 + 2 + v^-2'
    """

    __slots__ = ()

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return ZERO

    @classmethod
    def one(cls) -> "LaurentPoly":
        return ONE

    # -- ring operations --------------------------------------------------------

    # named in this class's own dict, where layer tracing wraps them
    __add__ = __radd__ = _Poly.__add__
    __sub__ = _Poly.__sub__

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return ZERO
            return self._wrap({e: c * other for e, c in self._c.items()})
        acc: dict[int, int] = {}
        for e1, c1 in self._c.items():
            for e2, c2 in other._c.items():
                e = e1 + e2
                n = acc.get(e, 0) + c1 * c2
                if n:
                    acc[e] = n
                else:
                    acc.pop(e, None)
        return self._wrap(acc)


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})
V = LaurentPoly({1: 1})


class QPoly(_Poly):
    """Ordinary polynomial in q with integer coefficients (exponents >= 0).

    >>> str(QPoly({0: 1, 1: 1}))
    '1 + q'
    """

    __slots__ = ()

    _VAR = "q"
    _DESCENDING = False

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        super().__init__(coeffs)
        if any(e < 0 for e in self._c):
            raise ValueError("QPoly exponents must be non-negative")

    @classmethod
    def zero(cls) -> "QPoly":
        return _Q_ZERO

    @classmethod
    def one(cls) -> "QPoly":
        return _Q_ONE

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return max(self._c) if self._c else -1

    def coefficient_list(self) -> list[int]:
        """Dense coefficient list [c0, c1, ...] up to the degree."""
        if not self._c:
            return [0]
        d = self.degree()
        return [self._c.get(e, 0) for e in range(d + 1)]


_Q_ZERO = QPoly()
_Q_ONE = QPoly({0: 1})
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
    return QPoly._wrap(acc)


def from_q(p: QPoly, ldiff: int) -> LaurentPoly:
    """Inverse of :func:`to_q`: P(q) -> v^ldiff * P(v^-2)."""
    return LaurentPoly({ldiff - 2 * k: c for k, c in p._c.items()})
