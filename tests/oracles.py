"""
Independent reference implementations used only by the tests.

Everything here is deliberately written against different machinery
than the package: the group is realized by homogeneous 3x3 integer
matrices in ROOT coordinates (the package uses 2x2 weight-coordinate
tables), lengths come from breadth-first search distance instead of a
wall-counting formula, ShortLex words from listing every reduced word,
Bruhat order comes from the subword property, polynomial arithmetic
uses dense coefficient lists, the canonical basis is rebuilt as new
immutable elements at every step of its recursion, and isomorphism
testing enumerates bijections outright.  The in-place table sums the
package used before ``HeckeElement.from_monomials`` are kept here as
references for it, with the Laurent arithmetic only the tests use
(negation, int - p, the bar involution and v^-1).
"""

from __future__ import annotations

import hashlib
import itertools
from functools import lru_cache

from bruhat_forge.laurent import LaurentPoly

# -- the group as 3x3 matrices in root coordinates ---------------------------

# s1: (c1, c2) -> (c2 - c1, c2); s2: (c1, c2) -> (c1, c1 - c2);
# s0: (c1, c2) -> (1 - c2, 1 - c1)
GEN_MATS = {
    0: ((0, -1, 1), (-1, 0, 1), (0, 0, 1)),
    1: ((-1, 1, 0), (0, 1, 0), (0, 0, 1)),
    2: ((1, 0, 0), (1, -1, 0), (0, 0, 1)),
}
IDENTITY_MAT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def mat_of_word(word: str):
    out = IDENTITY_MAT
    for ch in word:
        out = mat_mul(out, GEN_MATS[int(ch) % 3])
    return out


@lru_cache(maxsize=None)
def bfs_ball(max_depth: int) -> dict:
    """matrix -> word distance from the identity, out to max_depth."""
    depths = {IDENTITY_MAT: 0}
    frontier = [IDENTITY_MAT]
    for d in range(1, max_depth + 1):
        nxt = []
        for m in frontier:
            for g in GEN_MATS.values():
                p = mat_mul(m, g)
                if p not in depths:
                    depths[p] = d
                    nxt.append(p)
        frontier = nxt
    return depths


def bfs_length(word: str, max_depth: int = 24) -> int:
    """Word distance of the element of ``word`` from the identity."""
    target = mat_of_word(word)
    depths = bfs_ball(max_depth)
    if target not in depths:
        raise ValueError(f"element of {word!r} beyond BFS ball {max_depth}")
    return depths[target]


def shortlex_words(max_depth: int) -> dict:
    """matrix -> ShortLex-least reduced word, out to max_depth.

    Every reduced word is listed, length by length in lexicographic
    order (each prefix of a reduced word is reduced), and the first one
    to reach a matrix is kept.
    """
    depths = bfs_ball(max_depth)
    first = {IDENTITY_MAT: ""}
    layer = [("", IDENTITY_MAT)]
    for d in range(1, max_depth + 1):
        nxt = []
        for word, m in layer:
            for g in "012":
                p = mat_mul(m, GEN_MATS[int(g)])
                if depths.get(p) == d:
                    nxt.append((word + g, p))
                    first.setdefault(p, word + g)
        layer = nxt
    return first


# -- the ball by right multiplication ----------------------------------------

def reference_ball(max_length: int):
    """The ball up to max_length by the loop weyl.elements_of_length ran
    before it grew layers by left ascents: each layer is the right
    multiples of the last that are one length longer, each new element's
    left descents are found by multiplying it on the left, its word is
    s + word(s u) for the least descent s, and the layer is sorted by
    word.  Returns the elements in ball order, their words, their left
    descent sets and the three left-multiplication tables (-1 past
    max_length).  Lengths come from the alcove centroid and nothing is
    written on the elements."""
    from bruhat_forge import weyl

    def length(w):
        px, py = w._scaled_centroid()
        return abs(px // 3) + abs(py // 3) + abs((px + py) // 3)

    layer = [weyl.identity()]
    ball = list(layer)
    word = {layer[0]: ""}
    below = {layer[0]: {}}
    for depth in range(1, max_length + 1):
        new = {}
        for w in layer:
            for s in (0, 1, 2):
                u = w.right_mult(s)
                if length(u) == depth and u not in new:
                    new[u] = down = {
                        t: su for t in (0, 1, 2) if length(su := u.left_mult(t)) < depth
                    }
                    t = min(down)
                    word[u] = str(t) + word[down[t]]
        layer = sorted(new, key=word.__getitem__)
        below.update(new)
        ball += layer
    index = {w: i for i, w in enumerate(ball)}
    left = tuple([-1] * len(ball) for _ in range(3))
    for u in ball:
        for s, su in below[u].items():
            left[s][index[u]] = index[su]
            left[s][index[su]] = index[u]
    return ball, [word[u] for u in ball], [frozenset(below[u]) for u in ball], left


# -- Bruhat order by the subword property ------------------------------------

def subword_lower_set(y) -> frozenset:
    """All elements below y: evaluations of subsequences of one fixed
    reduced word of y (the deletion property makes every subsequence
    land weakly below)."""
    from bruhat_forge import weyl

    word = y.word()
    out = set()
    for r in range(len(word) + 1):
        for combo in itertools.combinations(word, r):
            out.add(weyl.from_word("".join(combo)))
    return frozenset(out)


def alcove_coordinates(w):
    """Centroid of the alcove w(A0) plus its orientation flag.

    Returns ((x, y'), up) where the Cartesian centroid is (x, y' * sqrt(3))
    for the embedding with A0 = triangle (0,0), (1,0), (1/2, sqrt(3)/2).
    The map is injective and identity() lands on A0 pointing up.
    """
    from bruhat_forge import render

    verts = render.alcove_vertices(w)
    cx = sum(v[0] for v in verts) / 3
    cy = sum(v[1] for v in verts) / 3
    return ((cx, cy), orientation_up(w))


def orientation_up(w) -> bool:
    """Whether w(A0) points the same way as A0: its Cartesian vertices,
    in the order alcove_vertices lists them, run counterclockwise as
    those of A0 do."""
    from bruhat_forge import render

    (ax, ay), (bx, by), (cx, cy) = render.alcove_vertices(w)
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0


# -- dense Laurent polynomial arithmetic -------------------------------------

def laurent_from_pairs(pairs):
    """The LaurentPoly summing c v^e over the (e, c) pairs; repeated
    exponents add up."""
    acc: dict = {}
    for e, c in pairs:
        acc[e] = acc.get(e, 0) + c
    return LaurentPoly(acc)


def dense_from_pairs(pairs, lo=-64, hi=64):
    coeffs = [0] * (hi - lo + 1)
    for e, c in pairs:
        coeffs[e - lo] += c
    return lo, coeffs


def dense_mul(a_pairs, b_pairs, lo=-64, hi=64):
    _, a = dense_from_pairs(a_pairs, lo, hi)
    _, b = dense_from_pairs(b_pairs, lo, hi)
    size = len(a) + len(b) - 1
    out = [0] * size
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    base = 2 * lo
    return [[base + k, c] for k, c in enumerate(out) if c]


def dense_add(a_pairs, b_pairs, lo=-64, hi=64):
    _, a = dense_from_pairs(a_pairs, lo, hi)
    _, b = dense_from_pairs(b_pairs, lo, hi)
    return [[lo + k, x + y] for k, (x, y) in enumerate(zip(a, b)) if x + y]


# -- Laurent arithmetic that only the tests use --------------------------------

V_INV = LaurentPoly({-1: 1})


def neg(p):
    """-p."""
    return LaurentPoly({e: -c for e, c in p.items()})


def rsub(n: int, p):
    """The int n minus p."""
    return LaurentPoly({0: n}) - p


def bar(p):
    """The involution v -> v^-1 (exponent k maps to -k)."""
    return LaurentPoly({-e: c for e, c in p.items()})


def shift(p, k: int):
    """v^k p."""
    return LaurentPoly({e + k: c for e, c in p.items()})


def min_exp(p) -> int:
    """The least exponent of a nonzero p."""
    return min(e for e, _ in p.items())


# -- the canonical basis by the immutable recursion ----------------------------

def mult_std(h, s: int, side: str = "right"):
    """h * H_s (or H_s * h), term by term through public HeckeElement
    operations: H_x H_s = H_{xs} when the length goes up, and
    H_{xs} + (v^-1 - v) H_x when it goes down."""
    from bruhat_forge.hecke import HeckeElement
    from bruhat_forge.laurent import V, ZERO

    terms: dict = {}
    for x, p in h.items():
        xs = x.right_mult(s) if side == "right" else x.left_mult(s)
        terms[xs] = terms.get(xs, ZERO) + p
        if xs.length < x.length:
            terms[x] = terms.get(x, ZERO) + p * (V_INV - V)
    return HeckeElement(terms)


def _times_kl_generator(h, s: int):
    """h * (H_s + v), term by term through public HeckeElement operations."""
    from bruhat_forge.hecke import HeckeElement
    from bruhat_forge.laurent import V, ZERO

    terms: dict = {}
    for x, p in h.items():
        xs = x.right_mult(s)
        terms[xs] = terms.get(xs, ZERO) + p
        terms[x] = terms.get(x, ZERO) + p * (V if xs.length > x.length else V_INV)
    return HeckeElement(terms)


@lru_cache(maxsize=None)
def reference_kl_basis(w):
    """C_w = C_{ws}(H_s + v) - sum of mu(x, ws) C_x over x with xs < x,
    s = min D_R(w), each step a new immutable HeckeElement."""
    from bruhat_forge.hecke import standard_basis
    if w.is_identity:
        return standard_basis(w)
    s = min(w.right_descents())
    base = reference_kl_basis(w.right_mult(s))
    out = _times_kl_generator(base, s)
    for x, p in base.items():
        m = p.coefficient(1)
        if m and x.right_mult(s).length < x.length:
            out = out - reference_kl_basis(x).scale(LaurentPoly({0: m}))
    return out


# -- the bar involution ---------------------------------------------------------

@lru_cache(maxsize=None)
def _bar_standard(x):
    """Image of H_x under the bar involution: bar(H_s) = H_s + (v - v^-1)."""
    from bruhat_forge.hecke import standard_basis
    from bruhat_forge.laurent import V

    if x.is_identity:
        return standard_basis(x)
    s = min(x.left_descents())
    rest = _bar_standard(x.left_mult(s))
    return mult_std(rest, s, "left") + rest.scale(V - V_INV)


def bar_involution(H):
    """The bar involution: v -> v^-1 on coefficients, H_s -> H_s^-1."""
    from bruhat_forge.hecke import HeckeElement

    out = HeckeElement()
    for x, p in H.items():
        out = out + _bar_standard(x).scale(bar(p))
    return out


# -- the whole order of an interval and its colour refinement ----------------

def leq_masks(interval) -> tuple[int, ...]:
    """leq_masks[i] has bit j set when member i <= member j.

    Read from the members' lower ideals over the ball, pair by pair; the
    package itself keeps only the covers.
    """
    members = interval.members
    return tuple(
        sum(1 << j for j, zj in enumerate(members) if zj.ideal >> zi.ball_index & 1)
        for zi in members
    )


def interval_ranks(interval) -> tuple[int, ...]:
    """Each member's rank, l(z) - l(x), read off the member lengths: the
    first member is the bottom."""
    base = interval.members[0].length
    return tuple(z.length - base for z in interval.members)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _cover_masks(interval) -> tuple[list[int], list[int]]:
    # covers are the comparable pairs one rank apart, taken from leq_masks
    leq, ranks = leq_masks(interval), interval_ranks(interval)
    n = len(ranks)
    ups = [
        sum(1 << j for j in _bits(leq[i]) if ranks[j] == ranks[i] + 1) for i in range(n)
    ]
    downs = [0] * n
    for i, mask in enumerate(ups):
        for j in _bits(mask):
            downs[j] |= 1 << i
    return downs, ups


def reference_refine(ranks, downs, ups) -> tuple[int, ...]:
    """The colour refinement of an interval from its ranks and its
    neighbour lists, ``downs[i]`` and ``ups[i]`` for member i: every
    round rebuilds (colour, sorted down colours, sorted up colours) for
    each member from lists, and the loop runs until a round changes no
    colour."""
    colors = list(ranks)
    while True:
        data = [
            (c, tuple(sorted([colors[i] for i in down])), tuple(sorted([colors[i] for i in up])))
            for c, down, up in zip(colors, downs, ups)
        ]
        palette = {d: c for c, d in enumerate(sorted(set(data)))}
        new = [palette[d] for d in data]
        if new == colors:
            return tuple(colors)
        colors = new


def reference_round_one(ranks, downs, ups) -> tuple[tuple[int, ...], int]:
    """One round of colour refinement and its key, from the ranks and the
    neighbour lists: each member's colour is the place of its (rank, down
    count, up count) in the sorted list of the distinct triples, and the
    key hashes that palette, as a frozenset, with the sorted colours."""
    triples = [(rank, len(down), len(up)) for rank, down, up in zip(ranks, downs, ups)]
    palette = sorted(set(triples))
    colors = tuple(palette.index(t) for t in triples)
    return colors, hash((frozenset(palette), tuple(sorted(colors))))


def reference_covers(interval) -> tuple[list[list[int]], list[list[int]]]:
    """Each member's down- and up-neighbour lists, read bit by bit from
    cover masks built out of leq_masks."""
    down_masks, up_masks = _cover_masks(interval)
    return [list(_bits(m)) for m in down_masks], [list(_bits(m)) for m in up_masks]


def reference_colors(interval) -> tuple[int, ...]:
    """Iterated (rank, neighbour-multiset) colour refinement over
    reference_covers."""
    return reference_refine(interval_ranks(interval), *reference_covers(interval))


def reference_fingerprint(interval, colors=None) -> str:
    """The fingerprint digest of ``colors``, reference_colors by default,
    over the covers of leq_masks."""
    if colors is None:
        colors = reference_colors(interval)
    _, up_masks = _cover_masks(interval)
    edge_profile = sorted(
        (colors[i], colors[j]) for i, mask in enumerate(up_masks) for j in _bits(mask)
    )
    blob = repr((interval.span, interval.rank_sizes, sorted(colors), edge_profile))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def position_down_masks(interval) -> tuple[int, ...]:
    """interval.down_masks over member positions: bit k of down mask i
    names the k-th element of weyl.elements_of_length(l(z_i) - 1), found
    among the members by a dict, so bit p of the result is set when
    member i covers member p."""
    from bruhat_forge import weyl

    members = interval.members
    position = {z: p for p, z in enumerate(members)}
    out = []
    for z, down in zip(members, interval.down_masks):
        layer = weyl.elements_of_length(z.length - 1) if z.length else ()
        out.append(sum(1 << position[layer[k]] for k in _bits(down)))
    return tuple(out)


def reference_interval(x, y):
    """[x, y] built on its own, with no cover table: a position dict over
    its members, and the down-covers of each member read bit by bit off
    the ball's covers met with the interval mask.  A namespace holding
    members, mask, down_masks over member positions, and the colors and
    key of reference_round_one."""
    from types import SimpleNamespace

    from bruhat_forge import poset, weyl

    mask = poset.interval_mask(x, y)
    members = weyl.ball_elements(mask)
    ranks = tuple(z.length - x.length for z in members)
    lower_covers = weyl.ball(y.length).covers
    position = {z.ball_index: p for p, z in enumerate(members)}
    downs: list[list[int]] = [[] for _ in members]
    ups: list[list[int]] = [[] for _ in members]
    down_masks = [0] * len(members)
    for p, i in enumerate(position):
        covers = lower_covers[i] & mask
        while covers:
            low = covers & -covers
            q = position[low.bit_length() - 1]
            downs[p].append(q)
            ups[q].append(p)
            down_masks[p] |= 1 << q
            covers ^= low
    colors, key = reference_round_one(ranks, downs, ups)
    return SimpleNamespace(
        members=members, mask=mask, down_masks=tuple(down_masks), colors=colors, key=key
    )


def reference_readers(x, y) -> tuple[dict, bool, str]:
    """What the CLI and the tests read off [x, y], from reference_interval
    and its position down masks, as poset computed them over positions:
    the to_json_obj dict, is_graded, and the fingerprint of the one-round
    colors."""
    ref = reference_interval(x, y)
    masks, colors = ref.down_masks, ref.colors
    obj = {
        "bottom": x.word(),
        "top": y.word(),
        "members": [z.word() for z in ref.members],
        "covers": sorted([i, j] for j, mask in enumerate(masks) for i in _bits(mask)),
    }
    sizes = [0] * (y.length - x.length + 1)
    for z in ref.members:
        sizes[z.length - x.length] += 1
    covered = 0
    for mask in masks:
        covered |= mask
    graded = (
        sizes[0] == sizes[-1] == 1
        and covered == (1 << len(masks) - 1) - 1
        and all(masks[1:])
    )
    edge_profile = sorted(
        (colors[i], cj) for cj, mask in zip(colors, masks) for i in _bits(mask)
    )
    blob = repr((y.length - x.length, tuple(sizes), sorted(colors), edge_profile))
    return obj, graded, hashlib.sha256(blob.encode()).hexdigest()[:16]


# -- brute-force interval isomorphism ----------------------------------------

def brute_force_isomorphic(a, b) -> bool:
    """Exhaustive bijection search checking order preservation both ways.

    Any order isomorphism of graded bounded posets preserves rank (rank
    is the longest-chain length from the bottom, an order-theoretic
    quantity), so the enumeration runs over rank-respecting bijections;
    within that restriction every bijection is tried.
    """
    if len(a.members) != len(b.members) or a.rank_sizes != b.rank_sizes:
        return False
    n = len(a.members)
    ranks_a, ranks_b = interval_ranks(a), interval_ranks(b)
    by_rank_a: dict[int, list[int]] = {}
    by_rank_b: dict[int, list[int]] = {}
    for i in range(n):
        by_rank_a.setdefault(ranks_a[i], []).append(i)
        by_rank_b.setdefault(ranks_b[i], []).append(i)
    la, lb = leq_masks(a), leq_masks(b)
    ranks = sorted(by_rank_a)
    perm_sets = [
        list(itertools.permutations(by_rank_b[r])) for r in ranks
    ]

    for combo in itertools.product(*perm_sets):
        mapping = [0] * n
        for r_idx, r in enumerate(ranks):
            for src, dst in zip(by_rank_a[r], combo[r_idx]):
                mapping[src] = dst
        ok = True
        for i in range(n):
            if not ok:
                break
            for j in range(n):
                if ((la[i] >> j) & 1) != ((lb[mapping[i]] >> mapping[j]) & 1):
                    ok = False
                    break
        if ok:
            return True
    return False


def reference_is_isomorphic(a, b):
    """poset.is_isomorphic as it was with the search keyed on (rank,
    color) and run over member positions: candidates in b share a
    member's rank and color, a's members are scanned by (rank, color,
    position), and the covers are position_down_masks.  A certificate,
    or None."""
    from bruhat_forge.poset import IsoCertificate

    if a.rank_sizes != b.rank_sizes:
        return None
    ca, cb = a.colors, b.colors
    if sorted(ca) != sorted(cb):
        return None
    ranks_a, ranks_b = interval_ranks(a), interval_ranks(b)
    n = len(a.members)
    by_color_b: dict[tuple[int, int], list[int]] = {}
    for j in range(n):
        by_color_b.setdefault((ranks_b[j], cb[j]), []).append(j)
    order = sorted(range(n), key=lambda i: (ranks_a[i], ca[i], i))
    downs_a, downs_b = position_down_masks(a), position_down_masks(b)
    amap = [-1] * n
    used = 0

    def extend(pos: int) -> bool:
        nonlocal used
        if pos == n:
            return True
        i = order[pos]
        req = sum(1 << amap[k] for k in _bits(downs_a[i]))
        for j in by_color_b.get((ranks_a[i], ca[i]), ()):
            bit = 1 << j
            if used & bit or downs_b[j] != req:
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
        {z.ball_index: b.members[j].ball_index for z, j in zip(a.members, amap)}
    )


# -- the interval survey, one pair at a time ---------------------------------

def per_pair_survey(max_length: int):
    """Classify every interval with l(y) <= max_length on its own.

    Each pair, in pair order, is built, bucketed by (span, size, rank
    vector, fingerprint) and searched against the class representatives
    of its bucket, with no use of the symmetry group; classes are listed
    in the order they are founded.  Returns a verify.Survey with the
    certificates the search found.
    """
    from bruhat_forge import weyl
    from bruhat_forge.poset import build_interval, fingerprint, is_isomorphic
    from bruhat_forge.verify import IsoClass, Survey

    pairs = [
        (x, y)
        for y in weyl.enumerate_up_to_length(max_length)
        for x in weyl.lower_interval(y)
        if x != y
    ]
    buckets: dict = {}  # key -> (class, representative interval) entries
    classes: list = []
    for pair in pairs:
        interval = build_interval(*pair)
        key = (interval.span, len(interval), interval.rank_sizes, fingerprint(interval))
        bucket = buckets.setdefault(key, [])
        for cls, rep in bucket:
            cert = is_isomorphic(interval, rep)
            if cert is not None:
                cls.members.append(pair)
                cls.certs[pair] = cert
                break
        else:
            classes.append(IsoClass(rep=pair, members=[pair], certs={}))
            bucket.append((classes[-1], interval))
    return Survey(max_length, pairs, classes)


def orbit_table_survey(max_length: int):
    """verify.interval_survey as it was with a per-pair orbit table.

    Each orbit-first pair, in pair order, records for every tau_k the pair
    it carries itself onto, with the least such k, in a dict over all
    pairs; a class representative's certificate onto itself is a full
    {z: z} IsoCertificate.  Classes are listed in the order they are
    founded.  Returns a verify.Survey.
    """
    from bruhat_forge import poset, weyl
    from bruhat_forge.poset import IsoCertificate, build_interval, fingerprint, is_isomorphic
    from bruhat_forge.verify import IsoClass, Survey, _interval_pairs

    pairs = _interval_pairs(max_length)
    actions = weyl.ball(max_length).actions
    orbit_of: dict = {}  # pair -> (first pair of its orbit, k)
    placed: dict = {}  # first pair -> (its class, certificate onto the rep)
    buckets: dict = {}
    classes: list = []
    for x, y in pairs:
        i, j = x.ball_index, y.ball_index
        if (i, j) in orbit_of:
            continue
        for k, act in enumerate(actions):
            orbit_of.setdefault((act[i], act[j]), ((x, y), k))
        interval = build_interval(x, y)
        key = (interval.span, len(interval), interval.rank_sizes, fingerprint(interval))
        bucket = buckets.setdefault(key, [])
        for cls, rep in bucket:
            cert = is_isomorphic(interval, rep)
            if cert is not None:
                placed[(x, y)] = (cls, cert)
                break
        else:
            cls = IsoClass(rep=(x, y), members=[], certs={})
            bucket.append((cls, interval))
            classes.append(cls)
            identity = {z.ball_index: z.ball_index for z in interval.members}
            placed[(x, y)] = (cls, IsoCertificate(identity))
    for pair in pairs:
        first, k = orbit_of[pair[0].ball_index, pair[1].ball_index]
        cls, cert = placed[first]
        cls.members.append(pair)
        if pair != cls.rep:
            cls.certs[pair] = cert if pair == first else poset.ComposedCertificate(cert, actions[k])
    return Survey(max_length, pairs, classes)


def composed_certificates(max_length: int) -> dict:
    """Every survey certificate as an eager index dict, pair -> IsoCertificate.

    The orbit survey with each certificate composed when it is made: the
    action of each tau is worked out from Symmetry.apply over the ball,
    and a pair (tau x, tau y) that is not first in its orbit gets the
    dict tau z -> c(z), c being the certificate of the orbit's first
    pair (x, y) onto its class representative, or the identity when
    (x, y) is that representative.
    """
    from bruhat_forge import weyl
    from bruhat_forge.poset import IsoCertificate, build_interval, fingerprint, is_isomorphic

    pairs = [
        (x, y)
        for y in weyl.enumerate_up_to_length(max_length)
        for x in weyl.lower_interval(y)
        if x != y
    ]
    ball = weyl.enumerate_up_to_length(max_length)
    actions = [[tau.apply(w).ball_index for w in ball] for tau in weyl.SYMMETRY_GROUP]
    orbit_of: dict = {}
    built: dict = {}
    buckets: dict = {}
    for x, y in pairs:
        i, j = x.ball_index, y.ball_index
        if (i, j) in orbit_of:
            continue
        for act in actions:
            orbit_of.setdefault((act[i], act[j]), ((x, y), act))
        built[(x, y)] = interval = build_interval(x, y)
        key = (interval.span, len(interval), interval.rank_sizes, fingerprint(interval))
        buckets.setdefault(key, []).append((x, y))
    placed: dict = {}
    reps: list = []
    for key in sorted(buckets, key=repr):
        pending: list = []
        for first in buckets[key]:
            for cid in pending:
                cert = is_isomorphic(built[first], built[reps[cid]])
                if cert is not None:
                    placed[first] = (cid, cert)
                    break
            else:
                reps.append(first)
                pending.append(len(reps) - 1)
                identity = {z.ball_index: z.ball_index for z in built[first].members}
                placed[first] = (len(reps) - 1, IsoCertificate(identity))
    certs = {}
    for pair in pairs:
        first, act = orbit_of[pair[0].ball_index, pair[1].ball_index]
        cid, cert = placed[first]
        if pair == reps[cid]:
            continue
        if pair == first:
            certs[pair] = cert
        else:
            certs[pair] = IsoCertificate({act[i]: k for i, k in cert.index.items()})
    return certs


def by_top_then_bottom(witnesses: list) -> list:
    # witnesses {"member": [x, y], ...} sorted by y, then x, each by (length, word)
    return sorted(witnesses, key=lambda w: [(len(z), z) for z in reversed(w["member"])])


def reference_certificate_verdicts(survey) -> tuple[dict, list]:
    """The certificate stage of verify_conjecture by IsoCertificate.is_valid
    on every certificate of the survey, the composed ones included: its
    counts and its failing members, by top and then bottom."""
    bad = by_top_then_bottom([
        {"member": [w.word() for w in member], "rep": [w.word() for w in cls.rep]}
        for cls in survey.classes
        for member, cert in cls.certs.items()
        if not cert.is_valid(member, cls.rep)
    ])
    return {"certificates": sum(len(c.certs) for c in survey.classes), "invalid": len(bad)}, bad


def reference_z_stage(survey) -> tuple[dict, list]:
    """The Z-set stage of verify_lemma_suite read per certificate:
    verify._z_preserved on the index of every certificate of the survey,
    the composed ones included; its counts and its failing members, by
    top and then bottom."""
    from bruhat_forge import verify, weyl

    masks = [verify.z_masks(y) for y in weyl.enumerate_up_to_length(survey.max_length)]
    bad = by_top_then_bottom([
        {"member": [w.word() for w in member], "rep": [w.word() for w in cls.rep]}
        for cls in survey.classes
        for member, cert in cls.certs.items()
        if not verify._z_preserved(masks, cert, member, cls.rep)
    ])
    classes = survey.classes
    return {"certificates": sum(len(c.certs) for c in classes), "classes": len(classes)}, bad


# -- certificates as maps: inverse, composition, JSON form --------------------

def cert_inverse(cert):
    """The certificate b -> a of a certificate a -> b."""
    from bruhat_forge.poset import IsoCertificate

    return IsoCertificate({j: i for i, j in cert.index.items()})


def cert_compose(later, earlier):
    """The certificate ``later`` after ``earlier``."""
    from bruhat_forge.poset import IsoCertificate

    index = later.index
    return IsoCertificate({i: index[j] for i, j in earlier.index.items()})


def to_index_permutation(cert, a, b) -> list[int]:
    """Position i holds the b-position of the image of a.members[i]."""
    position = {w.ball_index: p for p, w in enumerate(b.members)}
    index = cert.index
    return [position[index[z.ball_index]] for z in a.members]


def full_order_check(cert, a, b) -> bool:
    """Whether cert maps the members of Interval a onto those of Interval
    b and keeps the whole order both ways, read from ``leq_masks``."""
    if set(cert.mapping) != set(a.members):
        return False
    if set(cert.mapping.values()) != set(b.members):
        return False
    perm = to_index_permutation(cert, a, b)
    la, lb = leq_masks(a), leq_masks(b)
    for i, row in enumerate(la):
        img_row = 0
        while row:
            low = row & -row
            img_row |= 1 << perm[low.bit_length() - 1]
            row ^= low
        if img_row != lb[perm[i]]:
            return False
    return True


def subword_order_check(cert, a_pair, b_pair) -> bool:
    """Whether cert is an order isomorphism [x, y] -> [u, v], with both
    intervals and their order taken from the subword property."""

    def members(x, y):
        return {z for z in subword_lower_set(y) if x in subword_lower_set(z)}

    dom, img = members(*a_pair), members(*b_pair)
    if set(cert.mapping) != dom or set(cert.mapping.values()) != img:
        return False
    below = {z: subword_lower_set(z) for z in dom | img}
    image = {p: cert.apply(p) for p in dom}
    return all((p in below[q]) == (image[p] in below[image[q]]) for p in dom for q in dom)


# -- symmetries by composing affine maps --------------------------------------

def reference_symmetry_apply(tau, w):
    """tau w as c w c^-1, c the affine conjugator of tau's diagram
    permutation, by two affine products; then inverted if tau has iota."""
    from bruhat_forge import weyl

    m, v = weyl._diagram_conjugators()[tau.perm]
    mi = weyl._mat_inv(m)
    x, y = weyl._mat_vec(mi, v)
    ci = (mi, (-x, -y))
    lin, (tx, ty) = weyl._aff_mul(weyl._aff_mul((m, v), (weyl._LINS[w.lin], (w.tx, w.ty))), ci)
    out = weyl._make(weyl._LIN_INDEX[lin], tx, ty)
    return out.inverse() if tau.inv else out


# -- classification by applying every symmetry to every member ----------------

def reference_classify(w):
    """The region tag of w by the scan regions.classify made before it
    looked members up among the preimages of w: every family member of
    length l(w) is built first, in kind order (X, Theta, Theta1, Theta2,
    each theta family by its index), and each symmetry is applied to
    each member in SYMMETRY_GROUP order until one gives w."""
    from bruhat_forge import regions, weyl
    from bruhat_forge.regions import RegionKind, RegionTag, ThetaIndex

    if w.is_identity:
        return RegionTag(RegionKind.IDENTITY, weyl.IDENTITY_SYMMETRY, None)
    L = w.length

    def indices(shift):
        # solutions of 2m + 2n + shift == L with m, n >= 0
        rest = L - shift
        if rest < 0 or rest % 2:
            return []
        return [ThetaIndex(m, rest // 2 - m) for m in range(rest // 2 + 1)]

    candidates = [(RegionKind.X, regions.x_chain(L), L)]
    candidates += [(RegionKind.THETA, regions.theta(i), i) for i in indices(3)]
    candidates += [(RegionKind.THETA1, regions.theta1(i), i) for i in indices(4)]
    candidates += [(RegionKind.THETA2, regions.theta2(i), i) for i in indices(5)]
    for kind, member, params in candidates:
        for tau in weyl.SYMMETRY_GROUP:
            if tau.apply(member) == w:
                return RegionTag(kind, tau, params)
    raise AssertionError(f"unclassifiable element {w!r}")


# -- lower ideals by decoding and left multiplication ------------------------

@lru_cache(maxsize=None)
def reference_ideal(w) -> int:
    """The lower ideal of w as a ball bitset, by Deodhar's property Z,
    [e, w] = [e, sw] U s[e, sw] for s = min D_L(w): the ideal of sw is
    decoded into elements and each is multiplied by s on the left."""
    from bruhat_forge import weyl

    m = 1 << w.ball_index
    if not w.is_identity:
        s = min(w.left_descents())
        below = reference_ideal(w.left_mult(s))
        m |= below
        for z in weyl.ball_elements(below):
            m |= 1 << z.left_mult(s).ball_index
    return m


def per_bit_ideal(w, known=None) -> int:
    """The lower ideal of w as weyl.Element.ideal built it before its
    property-Z image became one gather: the ideal of sw (s = min D_L(w)),
    OR the bit of s z, read from weyl._LEFT, for each set bit z of that
    ideal, walked through its bin() string.  Recurses through itself,
    with ``known`` as an optional memo, so no cached ideal is read."""
    from bruhat_forge import weyl

    known = {} if known is None else known
    m = known.get(w)
    if m is None:
        m = 1 << w.ball_index
        if not w.is_identity:
            s = min(w.left_descents())
            below = per_bit_ideal(w.left_mult(s), known)
            m |= below
            act = weyl._LEFT[s]
            for j, bit in enumerate(bin(below)[:1:-1]):
                if bit == "1":
                    m |= 1 << act[j]
        known[w] = m
    return m


def per_bit_ball_elements(mask):
    """weyl.ball_elements before it became one compress: the ball zipped
    with the bin() string of ``mask``, one Python test per position."""
    from bruhat_forge import weyl

    return tuple(w for w, bit in zip(weyl._BALL, bin(mask)[:1:-1]) if bit == "1")


# -- monotonicity over every comparable pair ----------------------------------

def reference_is_monotonic(H) -> bool:
    """Whether G_y(H) - v^(l(x)-l(y)) G_x(H) lies in N[v, v^-1] for every
    y <= x with x in the support, and every coefficient is non-negative."""
    from bruhat_forge import weyl

    if not all(p.is_nonneg() for _, p in H.items()):
        return False
    for x, px in H.items():
        lx = x.length
        for y in weyl.lower_interval(x):
            if not H.coefficient(y).dominates(px, lx - y.length):
                return False
    return True


def reference_chain_stage(max_length: int):
    """The lemma suite's chain stage tested over every pair x <= z <= y
    with l(y) <= max_length, in both forms: h_{x,y} - v^k h_{z,y} in N[v]
    on the decoded recursion (a "v" witness) and P_{x,y} - P_{z,y} in
    N[q] on the closed forms (a "q" witness, as the stage writes it);
    (counts, witnesses).  The h and P columns are read through the
    modules, so a test that patches hecke.kl_basis, hecke._rows or
    closedform.kl_column patches this as well."""
    from bruhat_forge import closedform, hecke, weyl

    bad = []
    checked = 0
    for y in weyl.enumerate_up_to_length(max_length):
        basis = hecke.kl_basis(y)
        ps = closedform.kl_column(y)
        hs = {z: basis.coefficient(z) for z in ps}
        # when no h in the column has a negative power of v, a
        # difference h_x - v^k h_z (k >= 0) that dominates() accepts
        # lies in N[v]; any other difference is built and tested
        nonneg_powers = all(not h or min_exp(h) >= 0 for h in hs.values())
        for z, pz in ps.items():
            hz = hs[z]
            lz = z.length
            for x in weyl.lower_interval(z):
                checked += 1
                k = lz - x.length
                if not (nonneg_powers and hs[x].dominates(hz, k)):
                    diff = hs[x] - shift(hz, k)
                    if not diff.is_nonneg() or (diff and min_exp(diff) < 0):
                        bad.append(
                            {"x": x.word(), "z": z.word(), "y": y.word(), "v": str(diff)}
                        )
                if not ps[x].dominates(pz):
                    bad.append(
                        {"x": x.word(), "z": z.word(), "y": y.word(), "q": str(ps[x] - pz)}
                    )
    return {"chains": checked}, bad


def reference_oracle_stage(max_length: int):
    """The closed-forms-vs-recursion stage read pair by pair: for every
    x <= y with l(y) <= max_length, P_{x,y} from hecke.kl_polynomial
    against closedform.kl_column(y), an entry the column lacks a
    mismatch: (counts, witnesses), by top and then bottom, as the stage
    returns them.  Both are read through the modules, so a test that
    patches either patches this as well."""
    from bruhat_forge import closedform, hecke, weyl

    pairs, bad = 0, []
    for y in weyl.enumerate_up_to_length(max_length):
        column = closedform.kl_column(y)
        for x in weyl.lower_interval(y):
            pairs += 1
            if hecke.kl_polynomial(x, y)[1] != column.get(x):
                bad.append([x.word(), y.word()])
    return {"pairs": pairs, "mismatches": len(bad)}, bad


# -- Z-sets by one Bruhat test per candidate ----------------------------------

def reference_z_sets(x, y, ms) -> dict:
    """Z^m of [x, y] for each m in ms, read off the KL column of y with
    the test x <= z for each candidate z."""
    from bruhat_forge import closedform, weyl
    from bruhat_forge.laurent import Q_PLUS_ONE

    found: dict = {m: set() for m in ms}
    top = y.length
    for z, p in closedform.kl_column(y).items():
        zs = found.get(top - z.length)
        if zs is not None and p == Q_PLUS_ONE and weyl.bruhat_leq(x, z):
            zs.add(z)
    return {m: frozenset(zs) for m, zs in found.items()}


def reference_z_preserved(a_pair, b_pair, cert) -> bool:
    """Whether cert maps Z^m of [x, y] = a_pair onto Z^m of b_pair for
    m = 1..4, compared as sets of elements."""
    ms = range(1, 5)
    za, zb = reference_z_sets(*a_pair, ms), reference_z_sets(*b_pair, ms)
    return all({cert.apply(z) for z in za[m]} == zb[m] for m in ms)


# -- the closed forms as sums of immutable elements --------------------------

def apply_symmetry(tau, H):
    """Relabel the support of the HeckeElement H by tau; coefficients are
    unchanged.

    Valid for every tau in G because diagram automorphisms extend to
    algebra automorphisms permuting both bases, and inversion preserves
    all KL coefficients.
    """
    from bruhat_forge.hecke import HeckeElement

    return HeckeElement({tau.apply(x): p for x, p in H._m.items()})


@lru_cache(maxsize=None)
def reference_closed_form(kind: str, idx, version: int = 1):
    """The closed form of the family member theta(idx), theta1(idx),
    theta2(idx) (kind "theta", "theta1", "theta2") or x_idx (kind "x"),
    each term a new immutable HeckeElement: N_element(...) plus
    M_element(...) and family terms, scaled by powers of v."""
    from bruhat_forge import hecke, weyl
    from bruhat_forge.hecke import HeckeElement, M_element, N_element, standard_basis
    from bruhat_forge.regions import ThetaIndex, theta, theta1, theta2, x_chain

    rho = weyl.RHO
    rho2 = rho * rho

    def scaled(H, k):
        return H.scale(LaurentPoly({k: 1}))

    def s0_theta(i):
        return hecke.mult_kl_s(reference_closed_form("theta", i), 0, "left")

    if kind == "x":
        n = idx
        out = N_element(x_chain(n))
        if n >= 4:
            out = out + scaled(N_element(x_chain(n - 3)), 1)
        if n >= 5 and n % 2 == 0:
            tail = x_chain(n - 5)
            out = out + scaled(standard_basis(tail.left_mult(0).left_mult(1)), 1)
            out = out + scaled(standard_basis(tail.left_mult(0)), 2)
        return out
    m, n = idx
    if kind == "theta":
        out = HeckeElement.zero()
        for i in range(min(m, n) + 1):
            out = out + scaled(N_element(theta((m - i, n - i))), 2 * i)
        return out
    if kind == "theta1":
        out = N_element(theta1(idx))
        if m > 0 and n > 0:
            out = out + scaled(reference_closed_form("theta", (m - 1, n)), 1)
            out = out + scaled(reference_closed_form("theta", (m, n - 1)), 1)
        elif m > 0:
            out = out + scaled(N_element(theta((m - 1, 0))), 1)
        elif n > 0:
            out = out + scaled(N_element(theta((0, n - 1))), 1)
        return out
    out = N_element(theta2(idx))
    if m == 0 and n == 0:
        out = out + scaled(N_element(weyl.generator(0)), 2)
    elif n == 0:
        prev = ThetaIndex(m - 1, 0)
        s0_prev = theta(prev).left_mult(0)
        rho_prev = rho.apply(theta(prev))
        rho2_prev_s = rho2.apply(theta1(prev))
        if version == 1:
            out = out + scaled(M_element(s0_prev, rho_prev), 1)
            out = out + scaled(
                apply_symmetry(rho2, reference_closed_form("theta1", prev)), 1
            )
        else:
            out = out + scaled(M_element(rho2_prev_s, rho_prev), 1)
            out = out + scaled(s0_theta(prev), 1)
    elif m == 0:
        prev = ThetaIndex(0, n - 1)
        s0_prev = theta(prev).left_mult(0)
        rho2_prev = rho2.apply(theta(prev))
        rho_prev_s = rho.apply(theta1(prev))
        if version == 1:
            out = out + scaled(M_element(s0_prev, rho2_prev), 1)
            out = out + scaled(
                apply_symmetry(rho, reference_closed_form("theta1", prev)), 1
            )
        else:
            out = out + scaled(M_element(rho_prev_s, rho2_prev), 1)
            out = out + scaled(s0_theta(prev), 1)
    else:
        below = ThetaIndex(m, n - 1)
        left = ThetaIndex(m - 1, n)
        if version == 1:
            out = out + scaled(
                M_element(theta(below).left_mult(0), theta(left).left_mult(0)), 1
            )
            out = out + scaled(
                apply_symmetry(rho, reference_closed_form("theta1", below)), 1
            )
            out = out + scaled(
                apply_symmetry(rho2, reference_closed_form("theta1", left)), 1
            )
        else:
            out = out + scaled(
                M_element(rho.apply(theta1(below)), rho2.apply(theta1(left))), 1
            )
            out = out + scaled(s0_theta(below), 1)
            out = out + scaled(s0_theta(left), 1)
    return out


# -- the in-place table sums -------------------------------------------------
#
# How the package summed Hecke elements before HeckeElement.from_monomials:
# one mutable table Element -> (exponent -> coefficient), zeros allowed
# until it is frozen into a HeckeElement once.

def _add_poly(row: dict, p, coeff: int, k: int) -> None:
    # coeff * v^k * p into an exponent -> coefficient row
    for e, c in p.items():
        row[e + k] = row.get(e + k, 0) + coeff * c


def add_mult_gen(acc: dict, H, s: int, right: bool) -> None:
    """Add H times H_s + v, on either side, into acc."""
    for x, p in H._m.items():
        xs = x.right_mult(s) if right else x.left_mult(s)
        _add_poly(acc.setdefault(xs, {}), p, 1, 0)
        _add_poly(acc.setdefault(x, {}), p, 1, 1 if xs.length > x.length else -1)


def add_element(acc: dict, H, coeff: int = 1, k: int = 0) -> dict:
    """Add coeff * v^k * H into acc and return acc."""
    for x, p in H._m.items():
        _add_poly(acc.setdefault(x, {}), p, coeff, k)
    return acc


def add_N(acc: dict, k: int, x, y=None) -> dict:
    """Add v^k N_x into acc, or v^k M_{x,y} when y is given, and return acc."""
    from bruhat_forge import weyl

    top = k + x.length
    for z in weyl.ball_elements(x.ideal if y is None else x.ideal | y.ideal):
        row = acc.setdefault(z, {})
        e = top - z.length
        row[e] = row.get(e, 0) + 1
    return acc


def freeze(acc: dict):
    from bruhat_forge.hecke import HeckeElement

    return HeckeElement({x: LaurentPoly(row) for x, row in acc.items()})


def table_sum(terms):
    """The Hecke element of a list of closed-form terms (k, tops, bare)."""
    acc: dict = {}
    for k, tops, bare in terms:
        if bare:
            row = acc.setdefault(tops[0], {})
            row[k] = row.get(k, 0) + 1
        else:
            add_N(acc, k, *tops)
    return freeze(acc)


def table_mult_kl_s(H, s: int, side: str = "right"):
    acc: dict = {}
    add_mult_gen(acc, H, s, side == "right")
    return freeze(acc)


def table_N_element(x):
    return freeze(add_N({}, 0, x))


def table_M_element(x, y):
    return freeze(add_N({}, 0, x, y))


def table_add(a, b, coeff: int = 1):
    """a + coeff * b."""
    return freeze(add_element(add_element({}, a), b, coeff))


def per_flank_theta2_product_form(idx):
    """The second closed form of s0 theta(m, n) s, one product by
    H_s0 + v per flanking index."""
    from bruhat_forge import closedform
    from bruhat_forge.regions import ThetaIndex, theta, theta1, theta2
    from bruhat_forge.weyl import RHO

    rho2 = RHO * RHO
    m, n = idx
    if m == 0 and n == 0:
        return table_sum(closedform._theta2_terms(idx))
    if m == 0 or n == 0:
        prev = ThetaIndex(max(m - 1, 0), max(n - 1, 0))
        near, far = (RHO, rho2) if n == 0 else (rho2, RHO)
        tops, flanks = (far.apply(theta1(prev)), near.apply(theta(prev))), (prev,)
    else:
        flanks = (ThetaIndex(m, n - 1), ThetaIndex(m - 1, n))
        tops = (RHO.apply(theta1(flanks[0])), rho2.apply(theta1(flanks[1])))
    acc = add_N({}, 0, theta2(idx))
    add_N(acc, 1, *tops)
    for i in flanks:
        product = table_mult_kl_s(table_sum(closedform._theta_terms(i)), 0, "left")
        add_element(acc, product, k=1)
    return freeze(acc)


def reference_kl_column(y):
    """P_{x,y} for every x <= y, in (length, word) order of x, read off the
    Hecke element closedform.kl_closed_form sums for the canonical member
    of y: its support relabelled by the classifying symmetry, each
    coefficient converted by to_q, equal P sharing one object.  Raises
    ClosedFormError for the same faults as closedform.kl_column; nothing
    is memoized."""
    from bruhat_forge import closedform, regions, weyl
    from bruhat_forge.laurent import ShapeError, to_q

    ideal = y.ideal
    tag = regions.classify(y)
    coefficients = {tag.tau.apply(x): h for x, h in closedform.kl_closed_form(tag)._m.items()}
    column = {}
    seen = {}
    for x in weyl.ball_elements(ideal):
        h = coefficients.get(x)
        if h is None:
            break
        try:
            p = to_q(h, y.length - x.length)
        except ShapeError as exc:
            raise closedform.ClosedFormError(f"P({x.word()}, {y.word()}): {exc}") from exc
        if p.coefficient(0) != 1:
            raise closedform.ClosedFormError(
                f"P({x.word()}, {y.word()}) = {p} has no constant term 1"
            )
        column[x] = seen.setdefault(p, p)
    if len(column) != len(coefficients) or len(column) != ideal.bit_count():
        raise closedform.ClosedFormError(f"closed form of {y.word()} is not supported on [e, y]")
    return column
