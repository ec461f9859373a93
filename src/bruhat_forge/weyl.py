"""
The affine Weyl group W of type A2~: three generators s0, s1, s2 with
s_i^2 = id and all pairwise braid relations of order 3.

Elements are stored exactly as affine maps on the weight lattice of A2:
w(x) = A.x + t, where A is one of the six finite Weyl group matrices (in
weight coordinates) and t lies in the root lattice.  This realization
gives O(1) products, inverses and equality, an O(1) length formula
(walls of the alcove tessellation separating w(A0) from the fundamental
alcove A0), and the alcove model w -> w(A0) used for drawing.

Words are sequences of generator labels; any integer label k denotes the
generator with index k mod 3, so "1234321" reads the same as "1201021".
Elements serialize as their ShortLex-minimal reduced word with generator
order 0 < 1 < 2.

Bruhat order is held one way.  The ball is numbered once, in (length,
word) order, as its layers are enumerated; the same loop fills a
left-multiplication table, one list per generator s of the ball index
of s w by that of w (each new w and s in D_L(w) give both entries, as
s w = z exactly when s z = w).  Each element caches its lower ideal
{z : z <= w} as an int bitset over that numbering, built by Deodhar's
property Z: [e, w] = [e, sw] U s[e, sw] for s in D_L(w) (Bjorner-Brenti,
GTM 231, 2.2), with s[e, sw] read bit by bit through the table.  The
upper sets {z : x <= z} within a length bound are the transpose of
those ideals; ``ball(n)`` holds them with the lengths and down-covers,
as tables read by ball index.  It also holds the one action of the
symmetry group G on ball indices: for each tau, the ball index of tau w
by that of w (tau preserves length, so each layer maps onto itself).

The symmetry group G (order 12) is generated by the diagram rotation rho
(s0 -> s1 -> s2 -> s0), the diagram flip sigma (fixes s0, swaps s1 and
s2) and the inversion map iota: w -> w^-1.  Diagram automorphisms act by
conjugation with an affine isometry of the plane that maps A0 to itself,
so applying a symmetry is O(1) as well.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from typing import Iterable, Iterator, NamedTuple, Optional, Union

__all__ = [
    "Element",
    "Symmetry",
    "ResourceLimitError",
    "SYMMETRY_GROUP",
    "HARD_MAX_LENGTH",
    "parse_word",
    "from_word",
    "identity",
    "generator",
    "bruhat_leq",
    "lower_interval",
    "upper_set",
    "ball",
    "ball_element",
    "ball_elements",
    "bit_elements",
    "enumerate_up_to_length",
    "elements_of_length",
]

Generator = int
WordLike = Union[str, Iterable[int]]

HARD_MAX_LENGTH = 64


class ResourceLimitError(RuntimeError):
    """Raised when an enumeration or recursion exceeds its configured cap."""


# ---------------------------------------------------------------------------
# linear algebra over the weight lattice (integer 2x2 matrices, row-major)

Mat = tuple[int, int, int, int]
Vec = tuple[int, int]

_ID: Mat = (1, 0, 0, 1)
_S1: Mat = (-1, 0, 1, 1)   # s1: (a, b) -> (-a, a+b)
_S2: Mat = (1, 1, 0, -1)   # s2: (a, b) -> (a+b, -b)
_S0: Mat = (0, -1, -1, 0)  # linear part of s0: (a, b) -> (-b, -a)


def _mat_mul(m: Mat, n: Mat) -> Mat:
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _mat_vec(m: Mat, v: Vec) -> Vec:
    a, b, c, d = m
    x, y = v
    return (a * x + b * y, c * x + d * y)


def _mat_inv(m: Mat) -> Mat:
    a, b, c, d = m
    det = a * d - b * c
    # all matrices here have determinant +-1
    return (d // det, -b // det, -c // det, a // det)


def _finite_weyl_matrices() -> tuple[Mat, ...]:
    mats = [_ID, _S1, _S2]
    frontier = list(mats)
    while frontier:
        m = frontier.pop()
        for g in (_S1, _S2):
            p = _mat_mul(m, g)
            if p not in mats:
                mats.append(p)
                frontier.append(p)
    return tuple(sorted(mats))


_LINS: tuple[Mat, ...] = _finite_weyl_matrices()
_LIN_INDEX: dict[Mat, int] = {m: i for i, m in enumerate(_LINS)}
_LIN_MUL: tuple[tuple[int, ...], ...] = tuple(
    tuple(_LIN_INDEX[_mat_mul(m, n)] for n in _LINS) for m in _LINS
)
_LIN_INV: tuple[int, ...] = tuple(_LIN_INDEX[_mat_inv(m)] for m in _LINS)

_GEN_LIN: tuple[int, int, int] = (_LIN_INDEX[_S0], _LIN_INDEX[_S1], _LIN_INDEX[_S2])
_GEN_TRANS: tuple[Vec, Vec, Vec] = ((1, 1), (0, 0), (0, 0))


# ---------------------------------------------------------------------------
# elements

class Element:
    """A group element, interned so that equal elements are one object.

    ``lin`` indexes the linear part among the six finite Weyl matrices
    and ``(tx, ty)`` is the translation in weight coordinates (always a
    root lattice vector: tx = ty mod 3).  ``_make`` is the only
    constructor and keeps one object per ``(lin, tx, ty)``, so equality
    and hashing are those of object identity.
    """

    __slots__ = (
        "lin", "tx", "ty", "_len", "_rd", "_ld", "_word", "_index", "_ideal"
    )

    def __init__(self, lin: int, tx: int, ty: int):
        self.lin = lin
        self.tx = tx
        self.ty = ty
        self._len: Optional[int] = None
        self._rd: Optional[frozenset[int]] = None
        self._ld: Optional[frozenset[int]] = None
        self._word: Optional[str] = None
        self._index: Optional[int] = None
        self._ideal: Optional[int] = None

    def __reduce__(self):
        # pickle and copy rebuild through _make, so a copy is the interned object itself
        return (_make, (self.lin, self.tx, self.ty))

    def __repr__(self) -> str:
        return f"Element({self.word()!r})"

    # -- group structure ---------------------------------------------------

    def __mul__(self, other: "Element") -> "Element":
        a = _LINS[self.lin]
        x, y = _mat_vec(a, (other.tx, other.ty))
        return _make(_LIN_MUL[self.lin][other.lin], x + self.tx, y + self.ty)

    def inverse(self) -> "Element":
        inv = _LIN_INV[self.lin]
        x, y = _mat_vec(_LINS[inv], (self.tx, self.ty))
        return _make(inv, -x, -y)

    def right_mult(self, s: Generator) -> "Element":
        """w * s for a single generator, without building ``s`` first."""
        lin = _LIN_MUL[self.lin][_GEN_LIN[s]]
        if s == 0:
            a, b, c, d = _LINS[self.lin]
            return _make(lin, self.tx + a + b, self.ty + c + d)
        return _make(lin, self.tx, self.ty)

    def left_mult(self, s: Generator) -> "Element":
        """s * w for a single generator."""
        g = _GEN_LIN[s]
        x, y = _mat_vec(_LINS[g], (self.tx, self.ty))
        ex, ey = _GEN_TRANS[s]
        return _make(_LIN_MUL[g][self.lin], x + ex, y + ey)

    # -- length, descents, words -------------------------------------------

    @property
    def length(self) -> int:
        """Number of tessellation walls separating w(A0) from A0."""
        n = self._len
        if n is None:
            px, py = self._scaled_centroid()
            n = abs(px // 3) + abs(py // 3) + abs((px + py) // 3)
            self._len = n
        return n

    def _scaled_centroid(self) -> Vec:
        # 3 * centroid of w(A0) in weight coordinates
        a, b, c, d = _LINS[self.lin]
        return (a + b + 3 * self.tx, c + d + 3 * self.ty)

    @property
    def is_identity(self) -> bool:
        return self.length == 0

    def right_descents(self) -> frozenset[int]:
        """{s : l(ws) < l(w)}"""
        rd = self._rd
        if rd is None:
            n = self.length
            rd = frozenset(s for s in (0, 1, 2) if self.right_mult(s).length < n)
            self._rd = rd
        return rd

    def left_descents(self) -> frozenset[int]:
        """{s : l(sw) < l(w)}"""
        ld = self._ld
        if ld is None:
            n = self.length
            ld = frozenset(s for s in (0, 1, 2) if self.left_mult(s).length < n)
            self._ld = ld
        return ld

    def word(self) -> str:
        """ShortLex-minimal reduced word, with generator order 0 < 1 < 2.

        >>> from_word("1212").word()
        '21'
        """
        w = self._word
        if w is None:
            # word(w) = s + word(sw) for s = min D_L(w): walk down to the
            # first cached word, then fill the words back up (iteratively,
            # so a long user word cannot exhaust the stack)
            chain = []
            cur = self
            while cur._word is None:
                s = min(cur.left_descents())
                chain.append((cur, str(s)))
                cur = cur.left_mult(s)
            w = cur._word
            for el, s in reversed(chain):
                w = s + w
                el._word = w
        return w

    def sort_key(self) -> tuple[int, str]:
        return (self.length, self.word())

    # -- Bruhat order ------------------------------------------------------

    @property
    def ball_index(self) -> int:
        """Position of w in the ball, numbered in (length, word) order."""
        if self._index is None:
            elements_of_length(self.length)
        return self._index

    @property
    def ideal(self) -> int:
        """The lower ideal {z : z <= w} as a bitset with bit z.ball_index.

        By property Z with s = min D_L(w): the ideal of sw, OR the bit
        of s z, read from the left-multiplication table, for each bit z
        of that ideal (w itself is s (sw)).
        """
        m = self._ideal
        if m is None:
            # reading ball_index enumerates the layer of w, which fills
            # the table entries s z for every z below w
            m = 1 << self.ball_index
            if not self.is_identity:
                s = min(self.left_descents())
                below = self.left_mult(s).ideal
                m |= below
                act = _LEFT[s]
                for j, bit in enumerate(bin(below)[:1:-1]):
                    if bit == "1":
                        m |= 1 << act[j]
            self._ideal = m
        return m

    # -- alcove geometry ----------------------------------------------------

    def alcove_vertices(self) -> tuple[Vec, Vec, Vec]:
        """Vertices of w(A0) in weight coordinates (integer points)."""
        a, b, c, d = _LINS[self.lin]
        t = (self.tx, self.ty)
        return (t, (a + t[0], c + t[1]), (b + t[0], d + t[1]))


_REGISTRY: dict[tuple[int, int, int], Element] = {}


def _make(lin: int, tx: int, ty: int) -> Element:
    key = (lin, tx, ty)
    el = _REGISTRY.get(key)
    if el is None:
        el = Element(lin, tx, ty)
        _REGISTRY[key] = el
    return el


_IDENTITY = _make(_LIN_INDEX[_ID], 0, 0)
_GENERATORS = tuple(_make(_GEN_LIN[s], *_GEN_TRANS[s]) for s in (0, 1, 2))


def identity() -> Element:
    return _IDENTITY


def generator(s: int) -> Element:
    """The simple reflection with label s (taken mod 3)."""
    return _GENERATORS[s % 3]


def parse_word(word: WordLike) -> tuple[int, ...]:
    """Normalize a word to generator indices, reducing labels mod 3.

    >>> parse_word("1234321")
    (1, 2, 0, 1, 0, 2, 1)
    """
    if isinstance(word, str):
        # ASCII only: str.isdigit also takes other scripts' digits and "²"
        if word and not (word.isascii() and word.isdigit()):
            raise ValueError(f"word must be a digit string, got {word!r}")
        return tuple(int(ch) % 3 for ch in word)
    return tuple(int(k) % 3 for k in word)


def from_word(word: WordLike) -> Element:
    """Evaluate a (possibly non-reduced) word to a group element.

    >>> from_word([]) is identity()
    True
    >>> from_word("1212") == from_word("21")
    True
    """
    w = _IDENTITY
    for s in parse_word(word):
        w = w.right_mult(s)
    return w


# ---------------------------------------------------------------------------
# Bruhat order

def bruhat_leq(x: Element, y: Element) -> bool:
    """x <= y in Bruhat order: a bit test against the lower ideal of y."""
    if x.length >= y.length:
        return x == y
    return bool(y.ideal >> x.ball_index & 1)


def lower_interval(y: Element) -> tuple[Element, ...]:
    """All z <= y, sorted by (length, word): the ideal of y, decoded."""
    return ball_elements(y.ideal)


def upper_set(x: Element, max_length: int) -> int:
    """The upper set {z : x <= z, l(z) <= max_length} as a ball bitset."""
    if x.length > max_length:
        return 0
    return ball(max_length).uppers[x.ball_index]


class Ball(NamedTuple):
    """The elements of length <= a bound, read by ball index: their
    lengths, their upper sets, and their down-covers (the elements one
    length below them in their lower ideals) as ball bitsets.
    ``actions[k][i]`` is the ball index of SYMMETRY_GROUP[k] applied to
    element i, one list per symmetry in SYMMETRY_GROUP order."""

    lengths: tuple[int, ...]
    uppers: tuple[int, ...]
    covers: tuple[int, ...]
    actions: tuple[tuple[int, ...], ...]


@functools.cache
def ball(max_length: int) -> Ball:
    """The Ball table of the elements of length <= max_length."""
    # grown from the table one length down: each element of the new
    # layer is maximal in the ball, so its upper set is itself, and it
    # joins the upper set of everything in its ideal; its down-covers
    # are the rest of its ideal cut to the layer below; each symmetry
    # maps the layer onto itself
    if max_length < 0:
        return Ball((), (), (), ((),) * len(SYMMETRY_GROUP))
    lengths, uppers, covers, actions = ball(max_length - 1)
    layer = elements_of_length(max_length)
    start = _layer_start(max_length - 1)
    ups = list(uppers)
    downs = []
    for w in layer:
        bit = 1 << w.ball_index
        ups.append(bit)
        mask = w.ideal ^ bit
        downs.append(mask >> start << start)
        while mask:
            low = mask & -mask
            ups[low.bit_length() - 1] |= bit
            mask ^= low
    images = (tuple(tau.apply(w).ball_index for w in layer) for tau in SYMMETRY_GROUP)
    actions = tuple(act + image for act, image in zip(actions, images))
    return Ball(lengths + (max_length,) * len(layer), tuple(ups), covers + tuple(downs), actions)


def ball_element(i: int) -> Element:
    """The element with ball index i (already enumerated)."""
    if not 0 <= i < len(_BALL):
        raise IndexError(f"no element with ball index {i} enumerated")
    return _BALL[i]


def ball_elements(mask: int) -> tuple[Element, ...]:
    """The elements whose ball bits are set in ``mask``, in (length, word)
    order, by one walk over the ball: for dense masks such as ideals."""
    return tuple(w for w, bit in zip(_BALL, bin(mask)[:1:-1]) if bit == "1")


def bit_elements(mask: int) -> tuple[Element, ...]:
    """ball_elements(mask) read bit by bit, at a cost that grows with the
    set bits rather than the ball: for sparse masks such as covers."""
    return tuple(_BALL[i] for i in _bits(mask))


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# enumeration

# the enumerated elements in ball-index order, so each layer is a slice
_BALL: list[Element] = [_IDENTITY]
_IDENTITY._index = 0
_IDENTITY._word = ""
# _LEFT[s][i] is the ball index of s w for the element w with ball index i,
# or -1 while s w lies beyond the enumerated layers
_LEFT: tuple[list[int], list[int], list[int]] = ([-1], [-1], [-1])


def elements_of_length(n: int) -> tuple[Element, ...]:
    """All elements of length exactly n, sorted by canonical word."""
    if n < 0:
        raise ValueError("length must be non-negative")
    if n > HARD_MAX_LENGTH:
        raise ResourceLimitError(
            f"enumeration up to length {n} exceeds the hard cap {HARD_MAX_LENGTH}"
        )
    while _BALL[-1].length < n:
        depth = _BALL[-1].length + 1
        prev = _BALL[_layer_start(depth - 1) :]
        # s w for each s in D_L(w), per new w, give its left descents, its
        # word (s + word(s w) for the least s) and its _LEFT entries
        below: dict[Element, dict[int, Element]] = {}
        for w in prev:
            for s in (0, 1, 2):
                nxt = w.right_mult(s)
                if nxt.length == depth and nxt not in below:
                    below[nxt] = down = {
                        t: sw for t in (0, 1, 2) if (sw := nxt.left_mult(t)).length < depth
                    }
                    nxt._ld = frozenset(down)
                    t = min(down)
                    nxt._word = str(t) + down[t]._word
        layer = sorted(below, key=Element.sort_key)
        for act in _LEFT:
            act.extend([-1] * len(layer))
        for i, w in enumerate(layer, len(_BALL)):
            w._index = i
            for s, sw in below[w].items():
                _LEFT[s][i] = sw._index
                _LEFT[s][sw._index] = i
        _BALL.extend(layer)
    return tuple(_BALL[_layer_start(n) : _layer_start(n + 1)])


def _layer_start(n: int) -> int:
    """The number of enumerated elements shorter than n (a layer's first ball index)."""
    return bisect_left(_BALL, n, key=Element.length.fget)


def enumerate_up_to_length(max_length: int) -> tuple[Element, ...]:
    """All elements of length <= max_length, each exactly once.

    >>> len(enumerate_up_to_length(1))
    4
    """
    elements_of_length(max_length)  # checks the bound, then fills every layer up to it
    return tuple(_BALL[: _layer_start(max_length + 1)])


# ---------------------------------------------------------------------------
# the symmetry group G = <rho, sigma, iota>

Affine = tuple[Mat, Vec]


def _aff_mul(f: Affine, g: Affine) -> Affine:
    fm, fv = f
    gm, gv = g
    x, y = _mat_vec(fm, gv)
    return (_mat_mul(fm, gm), (x + fv[0], y + fv[1]))


# rho is conjugation by the order-3 rotation of the plane fixing A0 and
# cycling its walls; sigma is conjugation by the reflection swapping the
# two weight axes.  Both normalize W.
_ROT: Affine = ((-1, -1, 1, 0), (1, 0))
_FLIP: Affine = ((0, 1, 1, 0), (0, 0))

_PERM_RHO = (1, 2, 0)
_PERM_SIGMA = (0, 2, 1)
_PERM_ID = (0, 1, 2)


def _perm_mul(p: tuple[int, int, int], q: tuple[int, int, int]) -> tuple[int, int, int]:
    return (p[q[0]], p[q[1]], p[q[2]])


def _diagram_conjugators() -> dict[tuple[int, int, int], Affine]:
    conj = {_PERM_ID: (_ID, (0, 0))}
    frontier = [_PERM_ID]
    while frontier:
        p = frontier.pop()
        for q, aff in ((_PERM_RHO, _ROT), (_PERM_SIGMA, _FLIP)):
            r = _perm_mul(q, p)
            if r not in conj:
                conj[r] = _aff_mul(aff, conj[p])
                frontier.append(r)
    return conj


def _conjugation_table(m: Mat, v: Vec) -> tuple[Mat, tuple[tuple[int, int, int], ...]]:
    # c w c^-1 for c = (m, v) and w = (A, t) has linear part L = m A m^-1
    # and translation m t + v - L v: m, and per index of A, that of L and v - L v
    rows = []
    for a in _LINS:
        lin = _mat_mul(_mat_mul(m, a), _mat_inv(m))
        x, y = _mat_vec(lin, v)
        rows.append((_LIN_INDEX[lin], v[0] - x, v[1] - y))
    return m, tuple(rows)


_CONJ_TABLES = {p: _conjugation_table(*c) for p, c in _diagram_conjugators().items()}


class Symmetry(NamedTuple):
    """An element of G: a diagram automorphism plus an optional inversion.

    ``perm[s]`` is the image of generator s under the diagram part; the
    inversion iota commutes with the diagram part as a map on W.
    """

    perm: tuple[int, int, int]
    inv: bool = False

    def apply(self, w: Element) -> Element:
        """The image of w under tau; preserves lengths and Bruhat order.

        >>> RHO.apply(generator(0)) is generator(1)
        True
        """
        (a, b, c, d), rows = _CONJ_TABLES[self.perm]
        lin, ox, oy = rows[w.lin]
        x, y = w.tx, w.ty
        out = _make(lin, a * x + b * y + ox, c * x + d * y + oy)
        return out.inverse() if self.inv else out

    def apply_generator(self, s: Generator) -> Generator:
        return self.perm[s]

    def __mul__(self, other: "Symmetry") -> "Symmetry":
        return Symmetry(_perm_mul(self.perm, other.perm), self.inv ^ other.inv)

    def inverse_symmetry(self) -> "Symmetry":
        inv = (self.perm.index(0), self.perm.index(1), self.perm.index(2))
        return Symmetry(inv, self.inv)

    @property
    def name(self) -> str:
        return _SYMMETRY_NAMES[(self.perm, self.inv)]

    def __repr__(self) -> str:
        return f"Symmetry({self.name})"


RHO = Symmetry(_PERM_RHO)
SIGMA = Symmetry(_PERM_SIGMA)
IOTA = Symmetry(_PERM_ID, True)
IDENTITY_SYMMETRY = Symmetry(_PERM_ID)

# fixed enumeration order: id, rho, rho^2, sigma, sigma rho, sigma rho^2,
# then the same six composed with iota
_D3_ORDER = [
    ("id", IDENTITY_SYMMETRY),
    ("rho", RHO),
    ("rho2", RHO * RHO),
    ("sigma", SIGMA),
    ("sigma_rho", SIGMA * RHO),
    ("sigma_rho2", SIGMA * RHO * RHO),
]
SYMMETRY_GROUP: tuple[Symmetry, ...] = tuple(
    [tau for _, tau in _D3_ORDER] + [tau * IOTA for _, tau in _D3_ORDER]
)
_SYMMETRY_NAMES: dict[tuple[tuple[int, int, int], bool], str] = {}
for _n, _tau in _D3_ORDER:
    _SYMMETRY_NAMES[(_tau.perm, False)] = _n
    _SYMMETRY_NAMES[(_tau.perm, True)] = _n + "_iota"

SYMMETRY_BY_NAME: dict[str, Symmetry] = {tau.name: tau for tau in SYMMETRY_GROUP}

