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

Both invariants read order off the ball tables (weyl.ball): m-parents
lie in two upper sets, and ``z_masks(y)`` holds every Z^m of [e, y] as a
ball bitset, so Z^m of [x, y] is that mask met with the upper set of x.
"""

from __future__ import annotations

import hashlib
from operator import itemgetter
from typing import Iterator, Optional

from . import closedform, regions, weyl
from .laurent import QPoly, Q_PLUS_ONE
from .regions import RegionKind, ThetaIndex
from .weyl import RHO, SIGMA, Element

__all__ = [
    "Interval",
    "IsoCertificate",
    "ComposedCertificate",
    "NotComparableError",
    "build_interval",
    "is_isomorphic",
    "fingerprint",
    "parents",
    "z_masks",
    "z_invariant",
    "z_preserved_check",
    "structural_lemma_checks",
]


class NotComparableError(ValueError):
    """Raised when asked to build [x, y] with x not below y."""


class Interval:
    """The graded poset on {z : x <= z <= y}, rank = l(z) - l(x).

    Members are indexed in (rank, canonical word) order, which is their
    ball-index order, and ``mask`` holds them as a ball bitset.  The
    covers are read once from the ball: the down-covers of z are the
    members of its lower ideal one length below it (Bruhat order is
    graded by length).  ``down_masks[i]`` holds, as a position bitset,
    the members that member i covers.  ``colors`` are refined from the
    same pass.
    """

    __slots__ = (
        "bottom",
        "top",
        "members",
        "mask",
        "ranks",
        "span",
        "rank_sizes",
        "down_masks",
        "colors",
    )

    def __init__(self, bottom: Element, top: Element, members: list[Element]):
        self.bottom = bottom
        self.top = top
        self.members = tuple(members)
        base = bottom.length
        self.ranks = tuple(z.length - base for z in self.members)
        self.span = top.length - base
        self.rank_sizes = tuple(self.ranks.count(r) for r in range(self.span + 1))
        lower_covers = weyl.ball(top.length).covers
        self.mask = inside = interval_mask(bottom, top)
        position = {z.ball_index: p for p, z in enumerate(self.members)}
        downs: list[list[int]] = [[] for _ in self.members]
        ups: list[list[int]] = [[] for _ in self.members]
        down_masks = [0] * len(position)
        for p, i in enumerate(position):
            covers = lower_covers[i] & inside
            while covers:
                low = covers & -covers
                q = position[low.bit_length() - 1]
                downs[p].append(q)
                ups[q].append(p)
                down_masks[p] |= 1 << q
                covers ^= low
        self.down_masks = tuple(down_masks)
        self.colors = _refine(self.ranks, downs, ups)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, z: Element) -> bool:
        return z.length <= self.top.length and bool(self.mask >> z.ball_index & 1)

    def __repr__(self) -> str:
        return (
            f"Interval([{self.bottom.word() or '~'}, {self.top.word() or '~'}], "
            f"size={len(self.members)})"
        )

    def is_graded(self) -> bool:
        """Every maximal chain climbs one rank at a time from x to y."""
        if self.rank_sizes[0] != 1 or self.rank_sizes[-1] != 1:
            return False
        # members are in rank order, bottom first and top last; a member is
        # covered exactly when its bit is set in some down mask
        covered = 0
        for mask in self.down_masks:
            covered |= mask
        return covered == (1 << len(self.members) - 1) - 1 and all(self.down_masks[1:])

    def to_json_obj(self) -> dict:
        return {
            "bottom": self.bottom.word(),
            "top": self.top.word(),
            "members": [z.word() for z in self.members],
            "covers": sorted(
                [i, j] for j, mask in enumerate(self.down_masks) for i in _bits(mask)
            ),
        }


def _refine(ranks: tuple[int, ...], downs: list, ups: list) -> tuple[int, ...]:
    """Stable colors from iterated (rank, neighbor-multiset) refinement;
    ``downs[i]`` and ``ups[i]`` list the neighbors of member i, and the
    ranks take every value in 0..k-1.  The palette sorts by old color
    first, so a round that splits no class gives back the colors it read:
    the loop stops there, or at a discrete partition.  Round one reads
    cover counts, as the neighbors of a rank-r member have colors r +- 1.
    """
    n, k = len(ranks), max(ranks) + 1
    colors = ranks
    data = [(r, len(down), len(up)) for r, down, up in zip(ranks, downs, ups)]
    # per side, (member, its one neighbor) and (member, itemgetter of its neighbors)
    reads = [
        (
            [(i, nbrs[0]) for i, nbrs in enumerate(side) if len(nbrs) == 1],
            [(i, itemgetter(*nbrs)) for i, nbrs in enumerate(side) if len(nbrs) > 1],
        )
        for side in (downs, ups)
    ]
    while k < n:
        palette = sorted(set(data))
        if len(palette) == k:
            break
        k = len(palette)
        index = {d: c for c, d in enumerate(palette)}
        colors = [index[d] for d in data]
        if k == n:
            break
        data = list(zip(colors, *(_multisets(*read, colors) for read in reads)))
    return tuple(colors)


def _multisets(one: list, many: list, colors: list) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = [()] * len(colors)
    for i, j in one:
        out[i] = (colors[j],)
    for i, get in many:
        out[i] = tuple(sorted(get(colors)))
    return out


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def interval_mask(x: Element, y: Element) -> int:
    """The members of [x, y] as a ball bitset: the ideal of y meets the
    upper set of x.  Empty when x is not below y."""
    return y.ideal & weyl.upper_set(x, y.length)


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

class IsoCertificate:
    """An order isomorphism between two intervals.

    Stored as ``index``, a dict from the ball index of each member to the
    ball index of its image; ``mapping`` decodes it to elements on
    demand.  ``IsoCertificate(mapping)`` takes a member-to-member dict.
    """

    __slots__ = ("index",)

    def __init__(self, mapping: dict[Element, Element]):
        self.index = {z.ball_index: w.ball_index for z, w in mapping.items()}

    @classmethod
    def from_index(cls, index: dict[int, int]) -> "IsoCertificate":
        cert = cls.__new__(cls)
        cert.index = index
        return cert

    @property
    def mapping(self) -> dict[Element, Element]:
        at = weyl.ball_element
        return {at(i): at(j) for i, j in self.index.items()}

    def apply(self, z: Element) -> Element:
        return weyl.ball_element(self.index[z.ball_index])

    def is_valid(
        self,
        a: "Interval | tuple[Element, Element]",
        b: "Interval | tuple[Element, Element]",
    ) -> bool:
        """Re-derive that the mapping is an order isomorphism a -> b.

        Each side is an Interval or its (bottom, top) pair.  Members and
        covers come from the ball tables (weyl.ball), not from the search's
        masks: the members of [x, y] are the ideal of y met with the upper
        set of x, and the down-covers of z are the members of its ideal
        one length below it.  The check asks for a bijection between the
        member sets that shifts all lengths by one amount and maps the
        down-covers of every member onto the down-covers of its image.
        Covers then correspond in both directions, and that suffices: in
        a finite poset the order is the reflexive-transitive closure of
        the cover relation (Stanley, EC1, 3.1).
        """
        (ax, ay), (bx, by) = _ends(a), _ends(b)
        members_a, members_b = interval_mask(ax, ay), interval_mask(bx, by)
        index = self.index
        domain = image = 0
        for i, j in index.items():
            domain |= 1 << i
            image |= 1 << j
        # the keys are distinct, so equal counts make the images distinct
        if domain != members_a or image != members_b or image.bit_count() != len(index):
            return False
        lengths, _, lower_covers, _ = weyl.ball(max(ay.length, by.length))
        shift = bx.length - ax.length
        for i, j in index.items():
            if lengths[j] - lengths[i] != shift:
                return False
            covers = lower_covers[i] & members_a
            mapped = 0
            while covers:
                c = covers.bit_length() - 1
                mapped |= 1 << index[c]
                covers ^= 1 << c
            if mapped != lower_covers[j] & members_b:
                return False
        return True


class ComposedCertificate(IsoCertificate):
    """``base`` after the inverse of a symmetry tau: z -> base(tau^-1 z),
    held as ``base`` and the weyl.ball action lists ``act`` of tau and
    ``inv`` of tau^-1.  ``index`` is composed on each read, not kept."""

    __slots__ = ("base", "act", "inv")

    def __init__(self, base: IsoCertificate, act: tuple[int, ...], inv: tuple[int, ...]):
        self.base, self.act, self.inv = base, act, inv

    @property
    def index(self) -> dict[int, int]:
        act = self.act
        return {act[i]: j for i, j in self.base.index.items()}

    def apply(self, z: Element) -> Element:
        return weyl.ball_element(self.base.index[self.inv[z.ball_index]])


def is_automorphism(act: tuple[int, ...], inv: tuple[int, ...], max_length: int) -> bool:
    """Whether the ball-index list ``act``, inverted by ``inv``, permutes
    weyl.ball(max_length) keeping down-covers, and so fixing e (the one element
    with none) and, by induction, lengths: then it is a Bruhat automorphism,
    as order is the closure of covers (Stanley, EC1, 3.1)."""
    covers = weyl.ball(max_length).covers
    return sorted(act) == list(range(len(covers))) and len(inv) == len(act) and all(
        inv[j] == i and covers[j] == sum(1 << act[c] for c in _bits(covers[i]))
        for i, j in enumerate(act)
    )


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
    return IsoCertificate.from_index(
        {z.ball_index: b.members[j].ball_index for z, j in zip(a.members, amap)}
    )


def fingerprint(a: Interval) -> str:
    """Isomorphism-invariant digest of the refined color structure.

    Equal for isomorphic intervals by construction; used to gate the
    backtracking search.
    """
    colors = a.colors
    edge_profile = sorted(
        (colors[i], cj) for cj, mask in zip(colors, a.down_masks) for i in _bits(mask)
    )
    blob = repr((a.span, a.rank_sizes, sorted(colors), edge_profile))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


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
    top = interval.top
    above = top.ideal & weyl.upper_set(a, top.length) & weyl.upper_set(b, top.length)
    return frozenset(z for z in weyl.ball_elements(above) if z.length == a.length + m)


def z_masks(y: Element) -> dict[int, int]:
    """Each non-empty Z^m of [e, y] as a ball bitset keyed by m, from one
    pass over the KL column of y.

    >>> from bruhat_forge.regions import theta, theta1
    >>> set(weyl.ball_elements(z_masks(theta1((1, 1)))[3])) == {theta((0, 1)), theta((1, 0))}
    True
    """
    masks: dict[int, int] = {}
    for z, p in closedform.kl_column(y).items():
        if p == Q_PLUS_ONE:
            m = y.length - z.length
            masks[m] = masks.get(m, 0) | 1 << z.ball_index
    return masks


def z_invariant(interval: Interval, m: int) -> frozenset[Element]:
    """Members at corank m whose KL polynomial against the top is 1 + q."""
    x, y = interval.bottom, interval.top
    return frozenset(weyl.ball_elements(z_masks(y).get(m, 0) & weyl.upper_set(x, y.length)))


def _z_preserved(a: tuple, za: dict, b: tuple, zb: dict, cert: IsoCertificate) -> bool:
    # a and b are (bottom, top) pairs, za and zb the z_masks of their tops
    upper_a, upper_b = weyl.upper_set(a[0], a[1].length), weyl.upper_set(b[0], b[1].length)
    index = cert.index
    return all(
        {index[i] for i in _bits(za.get(m, 0) & upper_a)} == set(_bits(zb.get(m, 0) & upper_b))
        for m in range(1, 5)
    )


def z_preserved_check(
    a: "Interval | tuple[Element, Element]",
    b: "Interval | tuple[Element, Element]",
    cert: IsoCertificate,
) -> bool:
    """Whether the certificate maps Z^m of a onto Z^m of b for m = 1..4.

    Each side is an Interval or its (bottom, top) pair.
    """
    a, b = _ends(a), _ends(b)
    return _z_preserved(a, z_masks(a[1]), b, z_masks(b[1]), cert)


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
        column = closedform.kl_column(y)
        zs = z_masks(y)
        inv = tag.tau.inverse_symmetry()
        six = _six_case_elements(tag.params) if kind is RegionKind.THETA2 else []
        for x, p_xy in column.items():
            upper = weyl.upper_set(x, y.length)
            z3 = (zs.get(3, 0) & upper).bit_count()

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
                z4 = (zs.get(4, 0) & upper).bit_count()
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
