"""
Bruhat intervals [x, y] as graded posets, isomorphism testing with
certificates, and m-parent counts, all read off the Bruhat order of weyl
and its ball tables (weyl.ball).  No KL polynomial enters here, so the
surveys' "isomorphic intervals share P_{x,y}" compares two invariants
computed apart.

Everything runs in the ball's numbering.  An interval is its ball bitset,
and each member's down-covers are the ball's covers met with it, held as
a mask over the layer one length below the member; its up-cover count is
the ball's up-covers met with it, counted.  Isomorphism search colors
each member by one round of refinement, its (rank, down count, up
count), and backtracks over color-respecting assignments from ball index
to ball index in color order, which is rank order, checking cover
preservation; Bruhat intervals are graded, so rank is forced and cover
preservation suffices for order isomorphism.  The automorphism groups
are small, so the search settles what that round leaves together with
little backtracking; the map it completes, and each restriction of it,
is a certificate.  The round leaves ``Interval.key``, which fixes the
rank sizes, the survey's one bucket key; it keeps classes in founding
order.  Only the readers that print or hash positions (to_json_obj,
is_graded, fingerprint) translate the masks back to member positions.
"""

from __future__ import annotations

from itertools import count
from operator import attrgetter, itemgetter
from typing import Iterable, Optional

from . import weyl
from .weyl import Element, _bits, _indices

__all__ = [
    "Interval",
    "IsoCertificate",
    "IdentityCertificate",
    "ComposedCertificate",
    "NotComparableError",
    "build_interval",
    "is_isomorphic",
    "fingerprint",
    "parents",
]


class NotComparableError(ValueError):
    """Raised when asked to build [x, y] with x not below y."""


class Interval:
    """The graded poset on {z : x <= z <= y}, rank = l(z) - l(x).

    Members are indexed in (rank, canonical word) order, which is their
    ball-index order, and ``mask`` holds them as a ball bitset.
    ``down_masks[i]`` holds the members that member i covers, its
    down-covers in the ball (weyl.ball) met with ``mask``, as a bitset
    over the layer one length below it: bit k is the k-th element of
    weyl.elements_of_length(l(z_i) - 1).  Up counts are the ball's
    up-covers met with ``mask``, counted.  ``colors``, which carry the
    ranks, and their invariant ``key`` (see _refine) are one round of
    refinement over those covers: equal keys do not make intervals
    isomorphic, the search decides that.
    """

    __slots__ = (
        "bottom", "top", "members", "mask", "span", "rank_sizes", "down_masks", "colors", "key",
    )

    def __init__(self, bottom: Element, top: Element):
        self.bottom = bottom
        self.top = top
        self.mask = mask = interval_mask(bottom, top)
        self.members = weyl.ball_elements(mask)
        table = weyl.ball(top.length)
        lengths, covers, starts = table.lengths, table.covers, table.starts
        index = _indices(mask)
        base = bottom.length
        ranks = [lengths[i] - base for i in index]
        self.span = top.length - base
        self.rank_sizes = tuple(ranks.count(r) for r in range(self.span + 1))
        # the bottom covers no member, so its shift (by starts[-1] at e) is moot
        self.down_masks = tuple([(covers[i] & mask) >> starts[lengths[i] - 1] for i in index])
        # an element covering a member of [x, y] and below y lies in [x, y]
        ups = map(int.bit_count, map(mask.__and__, map(table.upcovers.__getitem__, index)))
        self.colors, self.key = _refine(ranks, map(int.bit_count, self.down_masks), ups)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, z: Element) -> bool:
        return z.length <= self.top.length and bool(self.mask >> z.ball_index & 1)

    def __repr__(self) -> str:
        return (
            f"Interval([{self.bottom.word() or '~'}, {self.top.word() or '~'}], "
            f"size={len(self.members)})"
        )

    def _position_masks(self) -> list[int]:
        """down_masks over the member positions: bit p of entry i is set
        when member i covers member p."""
        index = _indices(self.mask)
        position = dict(zip(index, count()))
        table = weyl.ball(self.top.length)
        return [
            sum(1 << position[table.starts[table.lengths[i] - 1] + k] for k in _bits(down))
            for i, down in zip(index, self.down_masks)
        ]

    def is_graded(self) -> bool:
        """Every maximal chain climbs one rank at a time from x to y."""
        if self.rank_sizes[0] != 1 or self.rank_sizes[-1] != 1:
            return False
        # members are in rank order, bottom first and top last; a member is
        # covered exactly when its bit is set in some down mask
        masks = self._position_masks()
        covered = 0
        for mask in masks:
            covered |= mask
        return covered == (1 << len(self.members) - 1) - 1 and all(masks[1:])

    def to_json_obj(self) -> dict:
        return {
            "bottom": self.bottom.word(),
            "top": self.top.word(),
            "members": [z.word() for z in self.members],
            "covers": sorted(
                [i, j] for j, mask in enumerate(self._position_masks()) for i in _bits(mask)
            ),
        }


def _refine(ranks: list[int], downs: Iterable, ups: Iterable) -> tuple[tuple[int, ...], int]:
    """One round of color refinement, and a key: member i's color is the
    index of its (rank, down count, up count) in the sorted palette of
    those triples, so color order is rank order; ``downs[i]`` counts the
    members it covers and ``ups[i]`` those covering it.
    Neither depends on the member numbering, so isomorphic intervals share
    colors up to relabelling and share keys; is_isomorphic does the rest.
    """
    data = list(zip(ranks, downs, ups))
    palette = sorted(set(data))
    index = {d: c for c, d in enumerate(palette)}
    colors = tuple(map(index.__getitem__, data))
    return colors, hash((frozenset(palette), tuple(sorted(colors))))


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
    return Interval(x, y)


# ---------------------------------------------------------------------------
# isomorphism

class IsoCertificate:
    """An order isomorphism between two intervals.

    Stored as ``index``, a dict from the ball index of each member to the
    ball index of its image; ``mapping`` decodes it to elements on
    demand.
    """

    __slots__ = ("index",)

    def __init__(self, index: dict[int, int]):
        self.index = index

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
        (ax, ay), (bx, by) = (
            (side.bottom, side.top) if isinstance(side, Interval) else side for side in (a, b)
        )
        members_a, members_b = interval_mask(ax, ay), interval_mask(bx, by)
        index = self.index
        domain = image = 0
        for i, j in index.items():
            domain |= 1 << i
            image |= 1 << j
        # the keys are distinct, so equal counts make the images distinct
        if domain != members_a or image != members_b or image.bit_count() != len(index):
            return False
        table = weyl.ball(max(ay.length, by.length))
        lengths, lower_covers = table.lengths, table.covers
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


class IdentityCertificate(IsoCertificate):
    """The identity on [x, y], held as ``pair`` = (x, y) alone: ``index``
    is read off the interval mask when read, and ``apply`` gives z back."""

    __slots__ = ("pair",)

    def __init__(self, pair: tuple[Element, Element]):
        self.pair = pair

    @property
    def index(self) -> dict[int, int]:
        return {i: i for i in _indices(interval_mask(*self.pair))}

    def apply(self, z: Element) -> Element:
        return z


class ComposedCertificate(IsoCertificate):
    """``base`` after the inverse of a symmetry tau: z -> base(tau^-1 z),
    held as ``base`` and the weyl.ball action list ``act`` of tau, which
    verify checks once with is_automorphism.  ``index`` is composed on
    each read, not kept, and ``apply`` goes through ``base.apply``."""

    __slots__ = ("base", "act")

    def __init__(self, base: IsoCertificate, act: tuple[int, ...]):
        self.base, self.act = base, act

    @property
    def index(self) -> dict[int, int]:
        act = self.act
        return {act[i]: j for i, j in self.base.index.items()}

    def apply(self, z: Element) -> Element:
        return self.base.apply(weyl.ball_element(self.act.index(z.ball_index)))


def is_automorphism(act: tuple[int, ...], max_length: int) -> bool:
    """Whether the ball-index list ``act`` permutes weyl.ball(max_length)
    keeping down-covers, and so fixing e (the one element with none) and,
    by induction, lengths.  Then it is a Bruhat automorphism, as order is
    the closure of covers (Stanley, EC1, 3.1): it maps each [x, y] onto
    [tau x, tau y], and so each certificate composed through it inherits
    its base's verdict.  This is the one check that a symmetry acts."""
    covers = weyl.ball(max_length).covers
    return sorted(act) == list(range(len(covers))) and all(
        covers[j] == sum(1 << act[c] for c in _bits(covers[i])) for i, j in enumerate(act)
    )


def is_isomorphic(a: Interval, b: Interval) -> Optional[IsoCertificate]:
    """A certificate iff the two intervals are order isomorphic.

    The search maps ball index to ball index: a member's required image
    covers are the images of its down-covers, read as a mask over the
    image layer, and compared with the down masks of b, which are kept
    over that layer.  Deterministic for fixed inputs: members are scanned
    by color, in canonical order within one, candidates in canonical
    order, and the first completed assignment, which is the certificate's
    index, wins.
    """
    if a.rank_sizes != b.rank_sizes:  # so spans and sizes agree
        return None
    ca, cb = a.colors, b.colors
    if sorted(ca) != sorted(cb):
        return None
    # ball indices as the int objects the members hold, shared by the index
    ball_index = attrgetter("_index")
    by_color_b: dict[int, dict[int, list[int]]] = {}
    for j, c, down in zip(map(ball_index, b.members), cb, b.down_masks):
        by_color_b.setdefault(c, {}).setdefault(down, []).append(j)
    table = weyl.ball(max(a.top.length, b.top.length))
    lengths, starts = table.lengths, table.starts
    shift = b.bottom.length - a.bottom.length
    # stable, and color order is rank order: down-covers are mapped first;
    # per member, its ball index, its down mask, the first ball indices of
    # the layers below it and below its image, and its candidates in b
    members_a = sorted(zip(ca, map(ball_index, a.members), a.down_masks), key=itemgetter(0))
    steps = [
        (i, down, starts[lengths[i] - 1], starts[lengths[i] - 1 + shift], by_color_b[c])
        for c, i, down in members_a
    ]
    index: dict[int, int] = {}
    return IsoCertificate(index) if _extend(steps, 0, index, set()) else None


def _extend(steps: list[tuple], pos: int, index: dict[int, int], used: set[int]) -> bool:
    """is_isomorphic's search from ``steps[pos]`` on, depth first: whether
    ``index`` completes, taking images outside ``used``.  An entry left by
    a failed branch is set again before it is read.  A module function,
    not a closure, so no call leaves a reference cycle for the collector."""
    if pos == len(steps):
        return True
    i, down, start, image_start, candidates = steps[pos]
    req = 0
    while down:
        low = down & -down
        req |= 1 << index[start + low.bit_length() - 1] - image_start
        down ^= low
    for j in candidates.get(req, ()):
        if j in used:
            continue
        index[i] = j
        used.add(j)
        if _extend(steps, pos + 1, index, used):
            return True
        used.discard(j)
    return False


def fingerprint(a: Interval) -> str:
    """Isomorphism-invariant digest of the one-round colors and the
    color pairs along covers.

    Equal for isomorphic intervals by construction, and unequal digests
    make intervals non-isomorphic; equal ones do not make them
    isomorphic.  No survey reads it: they bucket on Interval.key.
    """
    import hashlib  # loaded only here: it maps libcrypto into the process
    colors = a.colors
    edge_profile = sorted(
        (colors[i], cj) for cj, mask in zip(colors, a._position_masks()) for i in _bits(mask)
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
