"""
Bruhat intervals [x, y] as graded posets, isomorphism testing with
certificates, an isomorphism-invariant fingerprint for bucketing, and
the two poset invariants that drive the interval comparisons: m-parent
counts and the Z-sets

    Z^m = { z in [x, y] : l(y) - l(z) = m and P_{z,y}(q) = 1 + q }.

Isomorphism search refines the rank partition by iterated neighborhood
colors and then backtracks over class-respecting, rank-by-rank
assignments checking cover preservation; Bruhat intervals are graded,
so rank is forced and cover preservation suffices for order
isomorphism.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Optional, Sequence

from . import closedform, regions, weyl
from .laurent import QPoly, Q_PLUS_ONE
from .regions import RegionKind, ThetaIndex
from .weyl import RHO, SIGMA, Element

__all__ = [
    "Interval",
    "IsoCertificate",
    "NotComparableError",
    "build_interval",
    "is_isomorphic",
    "fingerprint",
    "parents",
    "z_invariant",
    "z_preserved_check",
    "structural_lemma_checks",
]


class NotComparableError(ValueError):
    """Raised when asked to build [x, y] with x not below y."""


class Interval:
    """The graded poset on {z : x <= z <= y}, rank = l(z) - l(x).

    Members are indexed in (rank, canonical word) order.  Order relations
    are the members' lower ideals restricted to the interval; covers are
    the comparabilities between adjacent ranks (Bruhat order is graded by
    length, so these are exactly the cover relations).
    """

    __slots__ = (
        "bottom",
        "top",
        "members",
        "index",
        "ranks",
        "span",
        "rank_sizes",
        "down_masks",
        "up_masks",
        "_leq_masks",
        "_colors",
        "_fingerprint",
    )

    def __init__(self, bottom: Element, top: Element, members: list[Element]):
        self.bottom = bottom
        self.top = top
        self.members = tuple(members)
        self.index = {z: i for i, z in enumerate(self.members)}
        base = bottom.length
        self.ranks = tuple(z.length - base for z in self.members)
        self.span = top.length - base
        sizes = [0] * (self.span + 1)
        for r in self.ranks:
            sizes[r] += 1
        self.rank_sizes = tuple(sizes)
        # members come in rank order: rank r fills positions starts[r]..starts[r+1]-1
        starts = list(accumulate(sizes, initial=0))
        self.down_masks = tuple(
            self._restrict(z.ideal, starts[r - 1], starts[r]) if r else 0
            for z, r in zip(self.members, self.ranks)
        )
        self.up_masks = _transpose(self.down_masks)
        self._leq_masks: Optional[tuple[int, ...]] = None
        self._colors: Optional[tuple[int, ...]] = None
        self._fingerprint: Optional[str] = None

    def _restrict(self, ideal: int, lo: int, hi: int) -> int:
        """Members lo..hi-1 that lie in ``ideal``, as a member-position bitset."""
        members = self.members
        acc = 0
        for i in range(lo, hi):
            if ideal >> members[i].ball_index & 1:
                acc |= 1 << i
        return acc

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, z: Element) -> bool:
        return z in self.index

    def __repr__(self) -> str:
        return (
            f"Interval([{self.bottom.word() or '~'}, {self.top.word() or '~'}], "
            f"size={len(self.members)})"
        )

    def rank_of(self, z: Element) -> int:
        return self.ranks[self.index[z]]

    @property
    def leq_masks(self) -> tuple[int, ...]:
        """leq_masks[i] has bit j set when member i <= member j.

        The tests' reference checks read the whole order here; the
        package itself checks certificates on covers.
        """
        if self._leq_masks is None:
            # column j is the ideal of member j restricted to the interval
            self._leq_masks = _transpose(
                [self._restrict(z.ideal, 0, j + 1) for j, z in enumerate(self.members)]
            )
        return self._leq_masks

    def covers(self) -> list[tuple[int, int]]:
        """Cover pairs (i, j) with member i covered by member j."""
        return sorted(
            (i, j) for j, mask in enumerate(self.down_masks) for i in _bits(mask)
        )

    def is_graded(self) -> bool:
        """Every maximal chain climbs one rank at a time from x to y."""
        if self.rank_sizes[0] != 1 or self.rank_sizes[-1] != 1:
            return False
        n = len(self.members)
        for i in range(n):
            r = self.ranks[i]
            if r < self.span and self.up_masks[i] == 0:
                return False
            if r > 0 and self.down_masks[i] == 0:
                return False
        return True

    # -- canonical refinement -------------------------------------------------

    @property
    def colors(self) -> tuple[int, ...]:
        """Stable colors from iterated (rank, neighbor-multiset) refinement."""
        if self._colors is None:
            downs = [list(_bits(m)) for m in self.down_masks]
            ups = [list(_bits(m)) for m in self.up_masks]
            colors = list(self.ranks)
            while True:
                data = [
                    (c, _multiset(down, colors), _multiset(up, colors))
                    for c, down, up in zip(colors, downs, ups)
                ]
                palette = {d: c for c, d in enumerate(sorted(set(data)))}
                new = [palette[d] for d in data]
                if new == colors:
                    break
                colors = new
            self._colors = tuple(colors)
        return self._colors

    def to_json_obj(self) -> dict:
        return {
            "bottom": self.bottom.word(),
            "top": self.top.word(),
            "members": [z.word() for z in self.members],
            "covers": [[i, j] for i, j in self.covers()],
        }


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _transpose(masks: Sequence[int]) -> tuple[int, ...]:
    """Bit i of out[j] is bit j of masks[i]."""
    out = [0] * len(masks)
    for j, mask in enumerate(masks):
        for i in _bits(mask):
            out[i] |= 1 << j
    return tuple(out)


def _multiset(positions: list[int], colors: list[int]) -> tuple[int, ...]:
    return tuple(sorted([colors[i] for i in positions]))


def interval_mask(x: Element, y: Element) -> int:
    """The members of [x, y] as a ball bitset: the ideal of y meets the
    upper set of x.  Empty when x is not below y."""
    return y.ideal & weyl.upper_set(x, y.length)


@functools.cache
def build_interval(x: Element, y: Element) -> Interval:
    """The interval [x, y]; raises NotComparableError when x is not below y."""
    if not weyl.bruhat_leq(x, y):
        raise NotComparableError(
            f"{x.word() or 'id'!s} is not below {y.word() or 'id'!s} in Bruhat order"
        )
    return Interval(x, y, list(weyl.ball_elements(interval_mask(x, y))))


def _ends(side: "Interval | tuple[Element, Element]") -> tuple[Element, Element]:
    if isinstance(side, Interval):
        return side.bottom, side.top
    return side


# ---------------------------------------------------------------------------
# isomorphism

@dataclass(frozen=True)
class IsoCertificate:
    """An order isomorphism, stored as a member-to-member mapping."""

    mapping: dict[Element, Element]

    def apply(self, z: Element) -> Element:
        return self.mapping[z]

    def inverse(self) -> "IsoCertificate":
        return IsoCertificate({b: a for a, b in self.mapping.items()})

    def compose(self, earlier: "IsoCertificate") -> "IsoCertificate":
        """self after earlier."""
        return IsoCertificate({a: self.mapping[b] for a, b in earlier.mapping.items()})

    def to_index_permutation(self, a: Interval, b: Interval) -> list[int]:
        """JSON form: position i holds the b-index of the image of a.members[i]."""
        return [b.index[self.mapping[z]] for z in a.members]

    def is_valid(
        self,
        a: "Interval | tuple[Element, Element]",
        b: "Interval | tuple[Element, Element]",
    ) -> bool:
        """Re-derive that the mapping is an order isomorphism a -> b.

        Each side is an Interval or its (bottom, top) pair.  Members and
        covers come from the lower ideals over the ball, not from the
        search's masks: the members of [x, y] are the ideal of y met with
        the upper set of x, and the down-covers of z are the members of
        its ideal one length below it.  The check asks for a bijection
        between the member sets that keeps ranks and maps the down-covers
        of every member onto the down-covers of its image.  Covers then
        correspond in both directions, and that suffices: in a finite
        poset the order is the reflexive-transitive closure of the cover
        relation (Stanley, EC1, 3.1).
        """
        (ax, ay), (bx, by) = _ends(a), _ends(b)
        members_a, members_b = interval_mask(ax, ay), interval_mask(bx, by)
        index = {z.ball_index: w.ball_index for z, w in self.mapping.items()}
        domain = image = 0
        for i, j in index.items():
            domain |= 1 << i
            image |= 1 << j
        if domain != members_a or image != members_b or image.bit_count() != len(index):
            return False
        shift = bx.length - ax.length
        for z, w in self.mapping.items():
            if w.length - z.length != shift:
                return False
            if z is ax:
                continue
            covers = z.ideal & members_a & weyl.layer_mask(z.length - 1)
            mapped = 0
            while covers:
                low = covers & -covers
                mapped |= 1 << index[low.bit_length() - 1]
                covers ^= low
            if mapped != w.ideal & members_b & weyl.layer_mask(w.length - 1):
                return False
        return True


def is_isomorphic(a: Interval, b: Interval) -> Optional[IsoCertificate]:
    """A certificate iff the two intervals are order isomorphic.

    Deterministic for fixed inputs: members are scanned in canonical
    order and the first completed assignment wins.
    """
    if (
        len(a.members) != len(b.members)
        or a.span != b.span
        or a.rank_sizes != b.rank_sizes
    ):
        return None
    ca, cb = a.colors, b.colors
    if sorted(ca) != sorted(cb):
        return None
    n = len(a.members)
    by_color_b: dict[tuple[int, int], list[int]] = {}
    for j in range(n):
        by_color_b.setdefault((b.ranks[j], cb[j]), []).append(j)
    order = sorted(range(n), key=lambda i: (a.ranks[i], ca[i], i))
    amap = [-1] * n
    used = 0

    def extend(pos: int) -> bool:
        nonlocal used
        if pos == n:
            return True
        i = order[pos]
        req = sum(1 << amap[k] for k in _bits(a.down_masks[i]))
        for j in by_color_b.get((a.ranks[i], ca[i]), ()):
            bit = 1 << j
            if used & bit or b.down_masks[j] != req:
                continue
            amap[i] = j
            used |= bit
            if extend(pos + 1):
                return True
            amap[i] = -1
            used &= ~bit
        return False

    if not extend(0):
        return None
    return IsoCertificate(
        {a.members[i]: b.members[amap[i]] for i in range(n)}
    )


def fingerprint(a: Interval) -> str:
    """Isomorphism-invariant digest of the refined color structure.

    Equal for isomorphic intervals by construction; used to gate the
    backtracking search.
    """
    if a._fingerprint is None:
        colors = a.colors
        edge_profile = sorted(
            (colors[i], colors[j]) for i, j in a.covers()
        )
        blob = repr((a.span, a.rank_sizes, sorted(colors), edge_profile))
        a._fingerprint = hashlib.sha256(blob.encode()).hexdigest()[:16]
    return a._fingerprint


# ---------------------------------------------------------------------------
# poset invariants

def parents(a: Element, b: Element, interval: Interval, m: int) -> frozenset[Element]:
    """Common upper bounds of a and b in the interval, exactly m ranks up."""
    if a not in interval or b not in interval:
        raise ValueError("both elements must lie in the interval")
    if a.length != b.length:
        raise ValueError(
            f"rank mismatch: l({a.word()}) = {a.length} != {b.length} = l({b.word()})"
        )
    if m < 1:
        raise ValueError("m must be a positive integer")
    target = a.length + m
    return frozenset(
        z
        for z in interval.members
        if z.length == target and weyl.bruhat_leq(a, z) and weyl.bruhat_leq(b, z)
    )


def z_invariant(interval: Interval, m: int) -> frozenset[Element]:
    """Members at corank m whose KL polynomial against the top is 1 + q."""
    return _z_sets(interval.bottom, interval.top, (m,))[m]


def _z_sets(x: Element, y: Element, ms) -> dict[int, frozenset[Element]]:
    # Z^m of [x, y] for each m in ms, read off the KL column of y with
    # the bit test x <= z; no Interval is built
    found: dict[int, set[Element]] = {m: set() for m in ms}
    top = y.length
    for z, p in closedform.kl_fast_column(y).items():
        zs = found.get(top - z.length)
        if zs is not None and p == Q_PLUS_ONE and weyl.bruhat_leq(x, z):
            zs.add(z)
    return {m: frozenset(zs) for m, zs in found.items()}


def z_preserved_check(
    a: "Interval | tuple[Element, Element]",
    b: "Interval | tuple[Element, Element]",
    cert: IsoCertificate,
) -> bool:
    """Whether the certificate maps Z^m of a onto Z^m of b for m = 1..4.

    Each side is an Interval or its (bottom, top) pair.
    """
    ms = range(1, 5)
    za, zb = _z_sets(*_ends(a), ms), _z_sets(*_ends(b), ms)
    return all({cert.apply(z) for z in za[m]} == zb[m] for m in ms)


# ---------------------------------------------------------------------------
# structural consequences of the Z-sets

def _six_case_elements(idx: ThetaIndex) -> list[Element]:
    m, n = idx
    if m == 0 and n == 0:
        return [weyl.generator(0), weyl.identity()]
    if m > 0 and n == 0:
        return [
            RHO.apply(regions.theta((m - 1, 0))),
            RHO.apply(regions.x_chain(2 * m)),
        ]
    if m == 0 and n > 0:
        rho2 = RHO * RHO
        return [
            rho2.apply(regions.theta((0, n - 1))),
            rho2.apply(SIGMA.apply(regions.x_chain(2 * n))),
        ]
    return []


def structural_lemma_checks(bound: int) -> dict:
    """Check the Z-set lemmas on every interval with l(y) <= bound.

    * tops in Theta1, Theta2 or X: |Z^3| = 1 forces P = 1 + q;
    * tops in Theta1 or X: empty Z^3 forces P = 1;
    * tops in X: P is 1 or 1 + q according to Z^3 being empty or not;
    * tops in Theta2 with empty Z^3 and P != 1: the pulled-back bottom
      is one of the six exceptional cases, with P = 1 + q, |Z^4| = 1 and
      length gap 4 or 5.
    """
    one = QPoly.one()
    counts = {"theta1_x_unique": 0, "empty_z3": 0, "x_tops": 0, "six_case": 0}
    violations: list[dict] = []
    instances: list[dict] = []
    for y in weyl.enumerate_up_to_length(bound):
        if y.is_identity:
            continue
        tag = regions.classify(y)
        kind = tag.kind
        if kind is RegionKind.THETA:
            continue
        column = closedform.kl_fast_column(y)
        corank3 = [(z, p) for z, p in column.items() if z.length == y.length - 3]
        corank4 = [(z, p) for z, p in column.items() if z.length == y.length - 4]
        inv = tag.tau.inverse_symmetry()
        six = _six_case_elements(tag.params) if kind is RegionKind.THETA2 else []
        for x, p_xy in column.items():
            z3 = sum(
                1
                for z, p in corank3
                if p == Q_PLUS_ONE and weyl.bruhat_leq(x, z)
            )

            def flag(rule: str) -> None:
                violations.append(
                    {
                        "rule": rule,
                        "x": x.word(),
                        "y": y.word(),
                        "P": str(p_xy),
                        "z3": z3,
                    }
                )

            if z3 == 1:
                counts["theta1_x_unique"] += 1
                if p_xy != Q_PLUS_ONE:
                    flag("|Z3| = 1 forces P = 1 + q")
            if z3 == 0 and kind in (RegionKind.THETA1, RegionKind.X):
                counts["empty_z3"] += 1
                if p_xy != one:
                    flag("empty Z3 forces P = 1")
            if kind is RegionKind.X:
                counts["x_tops"] += 1
                expected = one if z3 == 0 else Q_PLUS_ONE
                if p_xy != expected:
                    flag("X tops: P determined by Z3")
            if kind is RegionKind.THETA2 and z3 == 0 and p_xy != one:
                counts["six_case"] += 1
                z4 = sum(
                    1
                    for z, p in corank4
                    if p == Q_PLUS_ONE and weyl.bruhat_leq(x, z)
                )
                gap = y.length - x.length
                x0 = inv.apply(x)
                ok = (
                    x0 in six
                    and p_xy == Q_PLUS_ONE
                    and z4 == 1
                    and gap in (4, 5)
                )
                instances.append(
                    {
                        "x": x.word(),
                        "y": y.word(),
                        "m": tag.params.m,
                        "n": tag.params.n,
                        "case_element": x0.word(),
                        "gap": gap,
                        "ok": ok,
                    }
                )
                if not ok:
                    flag("six-case lemma")
    return {
        "bound": bound,
        "counts": counts,
        "six_case_instances": instances,
        "violations": violations,
        "holds": not violations,
    }
