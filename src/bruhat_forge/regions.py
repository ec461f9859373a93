"""
The four-region decomposition of the nonidentity elements of W and the
canonical families behind it.

* chain elements x_n = s1 s2 s0 s1 ... (n letters, labels 1..n mod 3);
* theta(m, n) = ascending word 1..(2m+2) followed by the descending word
  (2m+1)..(2m-2n+1), all labels mod 3 (length 2m+2n+3);
* theta1(m, n) = theta(m, n) * s(m, n), where s(m, n) is the unique
  generator lengthening theta(m, n) on the right;
* theta2(m, n) = s0 * theta(m, n) * s(m, n).

Every nonidentity element is the image of exactly one canonical family
member under some symmetry in G; ``classify`` finds that description
with a deterministic tie-break.  The lower interval of theta(m, n) also
has a geometric description: an alcove lies below theta(m, n) exactly
when its centroid falls in the convex hexagon spanned by the centroids
of the six alcoves u * theta(m, n), u in the finite Weyl group <s1, s2>.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional

from . import weyl
from .weyl import SYMMETRY_GROUP, Element, Symmetry

__all__ = [
    "ThetaIndex",
    "RegionKind",
    "RegionTag",
    "x_chain",
    "theta",
    "s_mn",
    "theta1",
    "theta2",
    "classify",
    "theta_lower_geometric",
    "boundary_set",
    "intersection_check",
]


class ThetaIndex(NamedTuple):
    m: int
    n: int


class RegionKind(str, Enum):
    X = "X"
    THETA = "Theta"
    THETA1 = "Theta1"
    THETA2 = "Theta2"
    IDENTITY = "Identity"


# ---------------------------------------------------------------------------
# the canonical families

def x_chain(n: int) -> Element:
    """The chain element with word 1, 2, 3, ..., n (labels mod 3)."""
    if n < 1:
        raise ValueError("x_chain requires n >= 1")
    return weyl.from_word(range(1, n + 1))


def theta(idx: ThetaIndex | tuple[int, int]) -> Element:
    """1 2 ... (2m+1) (2m+2) (2m+1) ... (2m-2n+1), labels mod 3.

    >>> theta((0, 0)).word()
    '121'
    >>> theta((1, 0)).word()
    '12010'
    """
    m, n = idx
    if m < 0 or n < 0:
        raise ValueError("theta indices must be non-negative")
    word = list(range(1, 2 * m + 3)) + list(range(2 * m + 1, 2 * m - 2 * n, -1))
    return weyl.from_word(word)


def s_mn(idx: ThetaIndex | tuple[int, int]) -> int:
    """The unique generator s with l(theta(m,n) * s) > l(theta(m,n))."""
    return _right_ascent(theta(idx), idx)


def _right_ascent(t: Element, idx: ThetaIndex | tuple[int, int]) -> int:
    ascents = [s for s in (0, 1, 2) if s not in t.right_descents()]
    if len(ascents) != 1:
        raise AssertionError(f"theta{tuple(idx)} has ascents {ascents}")
    return ascents[0]


def theta1(idx: ThetaIndex | tuple[int, int]) -> Element:
    """theta(m, n) * s(m, n); length 2m + 2n + 4."""
    t = theta(idx)
    return t.right_mult(_right_ascent(t, idx))


def theta2(idx: ThetaIndex | tuple[int, int]) -> Element:
    """s0 * theta(m, n) * s(m, n); length 2m + 2n + 5."""
    return theta1(idx).left_mult(0)


# theta, theta1 and theta2 members have length 2m + 2n + 3, 4 and 5; classify scans this order
_THETA_BUILDERS = {RegionKind.THETA: theta, RegionKind.THETA1: theta1, RegionKind.THETA2: theta2}


# ---------------------------------------------------------------------------
# classification

class RegionTag(NamedTuple):
    """Description of w as tau(canonical member).

    ``params`` is a ThetaIndex for the Theta/Theta1/Theta2 kinds and the
    chain length for the X kind (None for the identity).
    """

    kind: RegionKind
    tau: Symmetry
    params: Optional[ThetaIndex | int]

    def canonical_member(self) -> Element:
        if self.kind is RegionKind.IDENTITY:
            return weyl.identity()
        if self.kind is RegionKind.X:
            return x_chain(self.params)
        return _THETA_BUILDERS[self.kind](self.params)

    def reconstruct(self) -> Element:
        return self.tau.apply(self.canonical_member())

    def to_json_obj(self) -> dict:
        obj = {"kind": self.kind.value, "tau": self.tau.name}
        if self.kind is RegionKind.X:
            obj["chain_len"] = self.params
        elif self.kind is not RegionKind.IDENTITY:
            obj["m"] = self.params.m
            obj["n"] = self.params.n
        return obj


# (tau^-1, tau) for each tau, in SYMMETRY_GROUP order
_INVERSES = tuple((tau.inverse_symmetry(), tau) for tau in SYMMETRY_GROUP)


def classify(w: Element) -> RegionTag:
    """The region tag of w, with deterministic tie-breaking.

    Kinds are tried in the order X, Theta, Theta1, Theta2 (they are
    disjoint; the order only fixes the scan).  Within a kind, family
    parameters are canonicalized first: inversion puts theta(m, n) and
    theta(n, m) images in one orbit, so the lexicographically smallest
    matching (m, n) is chosen, making the params a G-invariant, and
    the first matching symmetry in the fixed order of SYMMETRY_GROUP
    breaks the remaining tie.  As tau(c) = w exactly when c = tau^-1(w),
    each member is built only when the scan reaches it and looked up
    among the twelve preimages of w.
    """
    if w.is_identity:
        return RegionTag(RegionKind.IDENTITY, weyl.IDENTITY_SYMMETRY, None)
    L = w.length
    # each preimage keeps the first symmetry in SYMMETRY_GROUP order mapping it to w
    preimages: dict[Element, Symmetry] = {}
    for inverse, tau in _INVERSES:
        preimages.setdefault(inverse.apply(w), tau)
    # scanned in kind order, each theta family by (m, n) with 2m + 2n + shift = L
    scan = [(RegionKind.X, x_chain, L)]
    for shift, (kind, build) in enumerate(_THETA_BUILDERS.items(), 3):
        half, odd = divmod(L - shift, 2)
        scan += [(kind, build, ThetaIndex(m, half - m)) for m in range(half + 1) if not odd]
    for kind, build, params in scan:
        tau = preimages.get(build(params))
        if tau is not None:
            return RegionTag(kind, tau, params)
    raise AssertionError(f"unclassifiable element {w!r}")  # partition says never


# ---------------------------------------------------------------------------
# geometric lower intervals

def _hull(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Convex hull (counterclockwise, no duplicate endpoints); exact."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def half(seq):
        out: list[tuple[int, int]] = []
        for p in seq:
            while len(out) >= 2:
                ax, ay = out[-2]
                bx, by = out[-1]
                if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


_WF = tuple(weyl.from_word(word) for word in ("", "1", "2", "12", "21", "121"))


def _theta_hull(idx: ThetaIndex) -> list[tuple[int, int]]:
    t = theta(idx)
    return _hull([(u * t)._scaled_centroid() for u in _WF])


def _inside_hull(hull: list[tuple[int, int]], p: tuple[int, int]) -> bool:
    # closed hull: boundary counts as inside
    k = len(hull)
    for i in range(k):
        ax, ay = hull[i]
        bx, by = hull[(i + 1) % k]
        if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) < 0:
            return False
    return True


def theta_lower_geometric(idx: ThetaIndex | tuple[int, int]) -> tuple[Element, ...]:
    """All elements below theta(m, n), by the geometric test."""
    idx = ThetaIndex(*idx)
    hull = _theta_hull(idx)
    elements = weyl.enumerate_up_to_length(theta(idx).length)
    return tuple(w for w in elements if _inside_hull(hull, w._scaled_centroid()))


def boundary_set(idx: ThetaIndex | tuple[int, int]) -> frozenset[Element]:
    """Elements of theta(m, n)_down whose alcove has an edge on the
    boundary of the region (the union of the alcoves of the interval).

    An alcove edge lies on the region boundary exactly when the alcove
    on the other side of that edge -- the alcove of w * s for the wall
    generator s -- is outside the region.
    """
    idx = ThetaIndex(*idx)
    hull = _theta_hull(idx)
    return frozenset(
        w
        for w in theta_lower_geometric(idx)
        if any(not _inside_hull(hull, w.right_mult(s)._scaled_centroid()) for s in (0, 1, 2))
    )


def intersection_check(m: int, n: int) -> bool:
    """Whether theta(m-1,n)_down meets theta(m,n-1)_down in exactly
    theta(m-1,n-1)s_down, as lower-ideal bitsets; requires m, n >= 1."""
    if m < 1 or n < 1:
        raise ValueError("intersection_check requires m, n >= 1")
    both = theta((m - 1, n)).ideal & theta((m, n - 1)).ideal
    return both == theta1((m - 1, n - 1)).ideal
