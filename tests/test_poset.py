"""Intervals, isomorphism with certificates, fingerprints, parents,
Z-sets, and the structural lemma checks."""

import collections
import itertools
import random

import pytest
from hypothesis import given, strategies as st

import oracles
from bruhat_forge import poset, regions, verify, weyl
from bruhat_forge.poset import (
    ComposedCertificate,
    IsoCertificate,
    NotComparableError,
    build_interval,
    fingerprint,
    is_isomorphic,
    parents,
)
from bruhat_forge.regions import theta, theta1, theta2, x_chain
from bruhat_forge.verify import structural_lemma_checks
from bruhat_forge.weyl import RHO, from_word, generator, identity

ID = identity()


def _all_intervals(max_length, max_size=None):
    for y in weyl.enumerate_up_to_length(max_length):
        if y.is_identity:
            continue
        for x in weyl.lower_interval(y):
            if x == y:
                continue
            interval = build_interval(x, y)
            if max_size is None or len(interval) <= max_size:
                yield interval


def test_build_examples():
    two = build_interval(ID, generator(1))
    assert len(two) == 2 and two.span == 1
    six = build_interval(ID, theta((0, 0)))
    assert len(six) == 6
    assert six.rank_sizes == (1, 2, 2, 1)
    with pytest.raises(NotComparableError):
        build_interval(generator(0), theta((0, 0)))


def test_interval_order_matches_subword_oracle_to_length_7():
    # every [x, y] with l(y) <= 7, x = y included, against the subword
    # property: oracles.leq_masks is the order and down_masks the covers
    below = {y: oracles.subword_lower_set(y) for y in weyl.enumerate_up_to_length(7)}
    checked = 0
    for y, lower in below.items():
        for x in lower:
            interval = build_interval(x, y)
            members = interval.members
            assert set(members) == {z for z in lower if x in below[z]}
            leq_masks = oracles.leq_masks(interval)
            for i, zi in enumerate(members):
                for j, zj in enumerate(members):
                    leq = zi in below[zj]
                    assert leq_masks[i] >> j & 1 == leq, (x, y, zi, zj)
                    cover = leq and zj.length == zi.length + 1
                    assert interval.down_masks[j] >> i & 1 == cover, (x, y, zi, zj)
            checked += 1
    assert checked == 1969


def test_interval_json():
    obj = build_interval(ID, theta((0, 0))).to_json_obj()
    assert obj["bottom"] == "" and obj["top"] == "121"
    assert obj["members"] == ["", "1", "2", "12", "21", "121"]
    assert [0, 1] in obj["covers"]
    assert all(i < j for i, j in obj["covers"])


def test_gradedness_to_length_6():
    for interval in _all_intervals(6):
        assert interval.is_graded()


def test_is_graded_rejects_a_member_left_uncovered_or_covering_nothing():
    uncovered = build_interval(ID, from_word("121"))
    assert uncovered.is_graded()
    top = len(uncovered) - 1
    downs = list(uncovered.down_masks)
    downs[top] &= ~(1 << top - 1)  # the last coatom is no longer covered by the top
    uncovered.down_masks = tuple(downs)
    assert not uncovered.is_graded()
    covering_nothing = build_interval(ID, from_word("121"))
    downs = list(covering_nothing.down_masks)
    downs[1] = 0  # an atom that covers nothing
    covering_nothing.down_masks = tuple(downs)
    assert not covering_nothing.is_graded()


def test_every_span2_interval_is_a_diamond():
    for interval in _all_intervals(6):
        if interval.span == 2:
            assert len(interval) == 4
            assert interval.rank_sizes == (1, 2, 1)


def test_coatom_count_of_theta2_top():
    # with both family indices positive the top has six coatoms
    interval = build_interval(ID, theta2((1, 1)))
    coatoms = [z for z in interval.members if z.length == interval.top.length - 1]
    assert len(coatoms) == 6


def test_coatom_set_formula_for_theta2_tops():
    # the six coatoms of s0 theta(m,n) s, m, n > 0, written through the
    # flanking elements and the three short conjugates of the top
    for m in range(1, 3):
        for n in range(1, 3):
            y = theta2((m, n))
            s = regions.s_mn((m, n))
            rho_s = RHO.apply_generator(s)
            rho2_s = (RHO * RHO).apply_generator(s)
            z1 = theta((m, n - 1)).left_mult(0)
            z2 = theta((m - 1, n)).left_mult(0)
            expected = {
                z1.right_mult(rho2_s).right_mult(s),
                z2.right_mult(rho_s).right_mult(s),
                y.right_mult(s),
                y.left_mult(0).left_mult(1).left_mult(0),
                y.left_mult(0).left_mult(2).left_mult(0),
                y.left_mult(0),
            }
            got = {
                w
                for w in weyl.elements_of_length(y.length - 1)
                if weyl.bruhat_leq(w, y)
            }
            assert got == expected, (m, n)


def test_parents_containment_table():
    # which of the six coatoms sit above each flanking element: the
    # pattern behind the 3/2 parent-count table
    for m in range(1, 3):
        for n in range(1, 3):
            y = theta2((m, n))
            s = regions.s_mn((m, n))
            rho_s = RHO.apply_generator(s)
            rho2_s = (RHO * RHO).apply_generator(s)
            z = {
                1: theta((m, n - 1)).left_mult(0),
                2: theta((m - 1, n)).left_mult(0),
                3: (RHO * RHO).apply(theta1((m - 1, n))),
                4: RHO.apply(theta1((m, n - 1))),
            }
            coatoms = {
                "c1": z[1].right_mult(rho2_s).right_mult(s),
                "c2": z[2].right_mult(rho_s).right_mult(s),
                "ys": y.right_mult(s),
                "c010": y.left_mult(0).left_mult(1).left_mult(0),
                "c020": y.left_mult(0).left_mult(2).left_mult(0),
                "s0y": y.left_mult(0),
            }
            expected_above = {
                "c1": {1, 2, 4},
                "c2": {1, 2, 3},
                "ys": {1, 2},
                "c010": {2, 3, 4},
                "c020": {1, 3, 4},
                "s0y": {3, 4},
            }
            for name, coatom in coatoms.items():
                above = {i for i, zi in z.items() if weyl.bruhat_leq(zi, coatom)}
                assert above == expected_above[name], (m, n, name, above)


def test_is_isomorphic_basics():
    a = build_interval(ID, generator(0))
    b = build_interval(generator(1), from_word("12"))
    cert = is_isomorphic(a, b)
    assert cert is not None and cert.is_valid(a, b)

    same = build_interval(ID, from_word("12"))
    cert = is_isomorphic(same, same)
    assert cert is not None
    assert all(cert.apply(z) == z for z in same.members)

    chain = build_interval(ID, generator(1))
    assert is_isomorphic(chain, same) is None


def test_certificate_determinism_and_inverse():
    a = build_interval(ID, theta((1, 0)))
    b = build_interval(ID, RHO.apply(theta((1, 0))))
    c1 = is_isomorphic(a, b)
    c2 = is_isomorphic(a, b)
    assert c1 is not None and c1.mapping == c2.mapping
    assert oracles.cert_inverse(c1).is_valid(b, a)
    perm = oracles.to_index_permutation(c1, a, b)
    assert sorted(perm) == list(range(len(a.members)))


def test_is_isomorphic_matches_brute_force_small():
    buckets = collections.defaultdict(list)
    for interval in _all_intervals(5, max_size=10):
        buckets[(len(interval), interval.rank_sizes)].append(interval)
    compared = 0
    for items in buckets.values():
        for a, b in itertools.combinations(items, 2):
            fast = is_isomorphic(a, b) is not None
            assert fast == oracles.brute_force_isomorphic(a, b)
            compared += 1
    assert compared > 1000


def test_fingerprint_soundness():
    # isomorphic intervals always share the fingerprint (no false negatives)
    intervals = list(_all_intervals(6, max_size=24))
    for a, b in itertools.islice(itertools.combinations(intervals, 2), 0, None, 97):
        if is_isomorphic(a, b) is not None:
            assert fingerprint(a) == fingerprint(b)
    chain = build_interval(ID, generator(1))
    diamond = build_interval(ID, from_word("12"))
    assert fingerprint(chain) != fingerprint(diamond)


def test_fingerprint_no_false_negatives_to_length_8():
    # class the intervals WITHOUT fingerprint gating, then check every
    # isomorphism class carries a single fingerprint
    buckets = collections.defaultdict(list)
    for interval in _all_intervals(8):
        buckets[(interval.span, len(interval), interval.rank_sizes)].append(interval)
    for items in buckets.values():
        reps = []
        for interval in items:
            for rep in reps:
                if is_isomorphic(interval, rep) is not None:
                    assert fingerprint(interval) == fingerprint(rep)
                    break
            else:
                reps.append(interval)


def test_colors_and_fingerprint_match_reference_to_length_8():
    # one round of refinement against the round-one reference, whose
    # covers come from the whole order
    checked = 0
    for interval in _all_intervals(8):
        colors, key = oracles.reference_round_one(
            oracles.interval_ranks(interval), *oracles.reference_covers(interval)
        )
        assert (interval.colors, interval.key) == (colors, key), interval
        assert fingerprint(interval) == oracles.reference_fingerprint(interval, colors), interval
        checked += 1
    assert checked == 3180


def _built_fields(interval) -> tuple:
    names = ("members", "mask", "down_masks", "colors", "key")
    return tuple(getattr(interval, name) for name in names)


def test_intervals_match_the_reference_builder():
    # every [x, y] with l(y) <= 8, x = y included, through build_interval
    checked = 0
    for y in weyl.enumerate_up_to_length(8):
        for x in weyl.lower_interval(y):
            expected = _built_fields(oracles.reference_interval(x, y))
            assert _built_fields(build_interval(x, y)) == expected, (x, y)
            checked += 1
    assert checked == 3180 + 109
    # and every orbit-first [x, y] at L=12, cut as the survey cuts them
    # from one cover table per top
    actions = weyl.ball(12).actions
    checked = 0
    for y in weyl.enumerate_up_to_length(12):
        table = poset.cover_table(y)
        for x in weyl.lower_interval(y):
            i, j = x.ball_index, y.ball_index
            if x == y or min((act[j], act[i]) for act in actions) != (j, i):
                continue
            expected = _built_fields(oracles.reference_interval(x, y))
            assert _built_fields(poset.Interval(x, y, table)) == expected, (x, y)
            checked += 1
    assert checked == 1515


def test_cover_table_up_counts_match_the_reference_to_length_8():
    # the table keeps only how many members cover each member of [e, y]:
    # the lengths of the reference's up lists, read from the whole order
    checked = 0
    for y in weyl.enumerate_up_to_length(8):
        members, _, _, ups = poset.cover_table(y)
        interval = build_interval(ID, y)
        assert list(members) == list(interval.members)
        assert ups == [len(up) for up in oracles.reference_covers(interval)[1]], y
        checked += 1
    assert checked == 109


def test_color_keyed_search_matches_the_rank_and_color_search_to_length_10(monkeypatch):
    from bruhat_forge import verify

    # every search the survey makes gives the certificate of the search
    # keyed on (rank, color), or None where that gives None
    outcomes = collections.Counter()

    def spying(a, b):
        cert, expected = is_isomorphic(a, b), oracles.reference_is_isomorphic(a, b)
        assert (cert and cert.index) == (expected and expected.index), (a, b)
        outcomes[cert is None] += 1
        return cert

    monkeypatch.setattr(verify, "is_isomorphic", spying)
    verify.interval_survey.__wrapped__(10)
    assert outcomes[False] and outcomes[True]


@st.composite
def _layered_posets(draw):
    # ranks 0..k-1, each taken, members in a drawn order, and covers only
    # between adjacent ranks: (ranks, downs, ups), ups as lists
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    ranks = [r for r, size in enumerate(sizes) for _ in range(size)]
    order = draw(st.permutations(range(len(ranks))))
    ranks = tuple(ranks[p] for p in order)
    downs = [[] for _ in ranks]
    ups = [[] for _ in ranks]
    for i, j in itertools.product(range(len(ranks)), repeat=2):
        if ranks[i] == ranks[j] + 1 and draw(st.booleans()):
            downs[i].append(j)
            ups[j].append(i)
    return ranks, downs, ups


def _poset(sizes, covers):
    # members numbered rank by rank; covers as (lower, upper) pairs
    ranks = tuple(r for r, size in enumerate(sizes) for _ in range(size))
    downs = [[] for _ in ranks]
    ups = [[] for _ in ranks]
    for lo, hi in covers:
        downs[hi].append(lo)
        ups[lo].append(hi)
    return ranks, downs, ups


def _round_one(poset_lists):
    # _refine, which reads up counts, against the round-one reference on
    # the up lists: the same colors and key
    ranks, downs, ups = poset_lists
    colors, key = poset._refine(ranks, downs, map(len, ups))
    assert (colors, key) == oracles.reference_round_one(*poset_lists)
    return colors


@given(_layered_posets())
def test_refine_matches_the_reference_on_layered_posets(poset_lists):
    colors = _round_one(poset_lists)
    # the full refinement splits round one's classes and merges none
    full = oracles.reference_refine(*poset_lists)
    assert len(set(zip(full, colors))) == len(set(full))


def test_refine_matches_the_reference_on_shaped_posets():
    chain = _poset([1, 1, 1, 1], [(0, 1), (1, 2), (2, 3)])
    # every rank-mate has the same counts, so round one splits nothing
    complete = _poset([1, 3, 3, 1], [(0, 1), (0, 2), (0, 3), (4, 7), (5, 7), (6, 7)]
                      + [(i, j) for i in (1, 2, 3) for j in (4, 5, 6)])
    # the three atoms have (down, up) counts (1, 1), (1, 0), (0, 0)
    discrete = _poset([1, 3, 1], [(0, 1), (0, 2), (1, 4)])
    # the two atoms have equal counts, and split only in a later round,
    # through their up-neighbors: round one leaves them to the search
    late = _poset([1, 2, 2, 1], [(0, 1), (0, 2), (1, 3), (2, 4), (4, 5)])
    assert _round_one(chain) == chain[0] == oracles.reference_refine(*chain)
    assert _round_one(complete) == complete[0] == oracles.reference_refine(*complete)
    assert len(set(_round_one(discrete))) == 5
    assert _round_one(discrete) == oracles.reference_refine(*discrete)
    assert _round_one(late) == (0, 1, 1, 2, 3, 4)
    assert oracles.reference_refine(*late) == (0, 1, 2, 3, 4, 5)
    neighbors = {len(n) for p in (chain, complete, discrete, late) for n in p[1] + p[2]}
    assert {0, 1, 3} <= neighbors


def test_survey_is_unchanged_under_the_reference_refinement(monkeypatch):
    from bruhat_forge.verify import interval_survey

    # the search reads the full reference colors; the certificates may
    # differ, as the search breaks ties by color, but not the classes
    def classes():
        interval_survey.cache_clear()
        return [(cls.rep, cls.members) for cls in interval_survey(10).classes]

    fast = classes()
    refine = poset._refine
    calls = []

    def reference(ranks, downs, ups):
        # the reference's colors, on up lists inverted from the down lists,
        # with the key of the refinement under test
        calls.append(ranks)
        up_lists = [[] for _ in downs]
        for i, down in enumerate(downs):
            for j in down:
                up_lists[j].append(i)
        return oracles.reference_refine(ranks, downs, up_lists), refine(ranks, downs, ups)[1]

    monkeypatch.setattr(poset, "_refine", reference)
    assert classes() == fast
    assert calls
    interval_survey.cache_clear()


def test_key_is_symmetric_and_no_failed_search_misses_an_isomorphism(monkeypatch):
    from bruhat_forge import verify

    # the key is coarser than the classes, so some searches in a bucket
    # fail: each must be between intervals that the full reference
    # refinement tells apart
    failed = []

    def spying(a, b):
        cert = is_isomorphic(a, b)
        if cert is None:
            failed.append((a, b))
        return cert

    monkeypatch.setattr(verify, "is_isomorphic", spying)
    verify.interval_survey.__wrapped__(12)
    assert failed
    for a, b in failed:
        assert oracles.reference_fingerprint(a) != oracles.reference_fingerprint(b), (a, b)

    # and [x, y], [tau x, tau y] share a key for every tau
    rng = random.Random(30)
    pairs = [(x, y) for y in weyl.enumerate_up_to_length(10) for x in weyl.lower_interval(y)]
    for x, y in rng.sample(pairs, 60):
        key = build_interval(x, y).key
        for tau in weyl.SYMMETRY_GROUP:
            assert build_interval(tau.apply(x), tau.apply(y)).key == key, (x, y, tau.name)


def test_parent_counts_preserved_by_certificates():
    pairs = [
        (build_interval(ID, theta1((1, 1))),
         build_interval(ID, RHO.apply(theta1((1, 1))))),
        (build_interval(ID, theta2((1, 0))),
         build_interval(ID, (RHO * RHO).apply(theta2((1, 0))))),
    ]
    for a, b in pairs:
        cert = is_isomorphic(a, b)
        assert cert is not None
        by_rank = collections.defaultdict(list)
        for z in a.members:
            by_rank[z.length - a.bottom.length].append(z)
        for rank, elems in by_rank.items():
            for u, v in itertools.combinations(elems, 2):
                for m in (1, 2):
                    if rank + m > a.span:
                        continue
                    left = len(parents(u, v, a, m))
                    right = len(parents(cert.apply(u), cert.apply(v), b, m))
                    assert left == right


def test_short_intervals_share_kl_when_isomorphic():
    # isomorphic pairs with span <= 4 have equal KL polynomials,
    # checked over all tops of length <= 9
    from bruhat_forge import closedform
    from bruhat_forge.verify import interval_survey

    survey = interval_survey(9)
    for cls in survey.classes:
        x0, y0 = cls.rep
        if y0.length - x0.length > 4:
            continue
        ref = closedform.kl_fast(x0, y0)
        for x, y in cls.members:
            assert closedform.kl_fast(x, y) == ref


def test_fingerprint_collision_rate_reported():
    intervals = list(_all_intervals(7))
    fps = collections.defaultdict(list)
    for interval in intervals:
        fps[fingerprint(interval)].append(interval)
    classes = 0
    for items in fps.values():
        reps = []
        for interval in items:
            if not any(is_isomorphic(interval, r) for r in reps):
                reps.append(interval)
        classes += len(reps)
    collisions = classes - len(fps)
    print(
        f"fingerprint census at length 7: {len(intervals)} intervals, "
        f"{len(fps)} fingerprints, {classes} classes, {collisions} collisions"
    )
    assert collisions == 0


def test_parents_table_and_errors():
    m, n = 1, 1
    interval = build_interval(ID, theta2((m, n)))
    z1 = theta((m, n - 1)).left_mult(0)
    z2 = theta((m - 1, n)).left_mult(0)
    z3 = (RHO * RHO).apply(theta1((m - 1, n)))
    z4 = RHO.apply(theta1((m, n - 1)))
    zs = {1: z1, 2: z2, 3: z3, 4: z4}
    for i, j in itertools.combinations(zs, 2):
        expected = 3 if {i, j} in ({1, 2}, {3, 4}) else 2
        assert len(parents(zs[i], zs[j], interval, 2)) == expected
    with pytest.raises(ValueError):
        parents(z1, interval.top, interval, 2)  # rank mismatch
    with pytest.raises(ValueError):
        parents(z1, z2, interval, 0)


def test_parents_rejects_non_members():
    interval = build_interval(generator(1), theta2((1, 1)))
    member = interval.members[2]
    outside = next(z for z in weyl.elements_of_length(member.length) if z not in interval.members)
    for a, b in ((outside, member), (member, outside)):
        with pytest.raises(ValueError, match="must lie in the interval"):
            parents(a, b, interval, 1)


def test_membership_reads_the_interval_mask():
    for x, y in (
        (ID, theta2((1, 1))),
        (generator(1), x_chain(9)),
        (from_word("12"), RHO.apply(theta1((1, 2)))),
    ):
        interval = build_interval(x, y)
        # every member is in, every same-length non-member out
        members = set(interval.members)
        for n in range(x.length, y.length + 1):
            for z in weyl.elements_of_length(n):
                assert (z in interval) == (z in members), (x, y, z)
        # longer than the top: answered without enumerating past the hard cap
        assert x_chain(80) not in interval


def test_four_parent_set_for_even_chains():
    k = 6
    interval = build_interval(ID, x_chain(k))
    a = x_chain(k - 3)
    b = x_chain(k - 5).left_mult(0).left_mult(1)
    got = parents(a, b, interval, 2)
    assert got == frozenset(
        {
            x_chain(k - 1),
            RHO.apply(x_chain(k - 1)),
            theta((k // 2 - 2, 0)),
            (RHO * RHO).apply(theta((k // 2 - 2, 0))),
        }
    )
    assert len(got) == 4


def _z_set(interval, m):
    # Z^m of [x, y] as the stages read it: z_masks(y)[m] met with up(x)
    x, y = interval.bottom, interval.top
    return frozenset(weyl.ball_elements(verify.z_masks(y).get(m, 0) & weyl.upper_set(x, y.length)))


def _z_kept(a, b, cert):
    # verify._z_preserved on two (bottom, top) pairs, with their tops' z_masks
    masks = {y.ball_index: verify.z_masks(y) for _, y in (a, b)}
    return verify._z_preserved(masks, cert, a, b)


def test_z_invariant_examples():
    assert _z_set(build_interval(ID, theta((1, 1))), 3) == frozenset()
    assert _z_set(build_interval(ID, theta((2, 1))), 3) == frozenset()
    got = _z_set(build_interval(ID, theta1((1, 1))), 3)
    assert got == frozenset({theta((0, 1)), theta((1, 0))})
    got = _z_set(build_interval(ID, theta1((2, 2))), 3)
    assert got == frozenset({theta((1, 2)), theta((2, 1))})
    for interval in itertools.islice(_all_intervals(6), 0, None, 13):
        assert _z_set(interval, 1) == frozenset()


def test_z_preserved_on_symmetric_pairs():
    for idx in ((1, 0), (1, 1)):
        a = build_interval(ID, theta1(idx))
        for tau in weyl.SYMMETRY_GROUP[:6]:
            b = build_interval(tau.apply(ID), tau.apply(theta1(idx)))
            cert = IsoCertificate({z.ball_index: tau.apply(z).ball_index for z in a.members})
            assert cert.is_valid(a, b)
            assert _z_kept((a.bottom, a.top), (b.bottom, b.top), cert)
    a = build_interval(ID, theta((1, 1)))
    ident = IsoCertificate({z.ball_index: z.ball_index for z in a.members})
    assert _z_kept((a.bottom, a.top), (a.bottom, a.top), ident)


def test_structural_lemma_checks_bound_8():
    rep = structural_lemma_checks(8)
    assert rep["holds"]
    assert not rep["violations"]
    assert rep["counts"]["six_case"] > 0
    # the (m, n) = (0, 0) top with bottom s0 must appear, with gap 4
    hits = [
        inst
        for inst in rep["six_case_instances"]
        if inst["y"] == "01210" and inst["x"] == "0"
    ]
    assert hits and hits[0]["ok"] and hits[0]["gap"] == 4


def test_structural_six_case_includes_rho_chain_bottom():
    # y = s0 theta(1,0) s with bottom rho(x_2): empty Z^3, P = 1 + q,
    # a singleton Z^4, and length gap 5
    from bruhat_forge import closedform

    y = theta2((1, 0))
    x = RHO.apply(x_chain(2))
    interval = build_interval(x, y)
    assert _z_set(interval, 3) == frozenset()
    assert str(closedform.kl_fast(x, y)) == "1 + q"
    assert len(_z_set(interval, 4)) == 1
    assert y.length - x.length == 5

    rep = structural_lemma_checks(8)
    hits = [
        inst
        for inst in rep["six_case_instances"]
        if inst["x"] == x.word() and inst["y"] == y.word()
    ]
    assert hits and all(h["ok"] and h["gap"] == 5 for h in hits)


def _survey_certificates(max_length):
    from bruhat_forge.verify import interval_survey

    survey = interval_survey(max_length)
    return [
        (member, cls.rep, cert)
        for cls in survey.classes
        for member, cert in cls.certs.items()
    ]


def _swap_two_images(cert, rng):
    # exchange the images of two members of one length
    by_length = collections.defaultdict(list)
    for z in cert.mapping:
        by_length[z.length].append(z)
    length = rng.choice(sorted(n for n, zs in by_length.items() if len(zs) > 1))
    u, v = rng.sample(by_length[length], 2)
    mapping = dict(cert.mapping)
    mapping[u], mapping[v] = mapping[v], mapping[u]
    return IsoCertificate({z.ball_index: w.ball_index for z, w in mapping.items()})


def _swap_unlike_pair(cert, a):
    # the index map of cert with the images of two same-rank members of a
    # exchanged, two whose covers differ, so that the swap is no
    # automorphism of a and the result is no isomorphism; None if the
    # members of every rank have equal covers
    _, up_masks = oracles._cover_masks(a)
    for r in range(1, a.span):
        same = [i for i, z in enumerate(a.members) if z.length - a.bottom.length == r]
        for u, v in itertools.combinations(same, 2):
            if (a.down_masks[u], up_masks[u]) != (a.down_masks[v], up_masks[v]):
                index = dict(cert.index)
                bu, bv = a.members[u].ball_index, a.members[v].ball_index
                index[bu], index[bv] = index[bv], index[bu]
                return IsoCertificate(index)
    return None


def test_cover_check_agrees_with_full_order_check_to_length_8():
    certs = _survey_certificates(8)
    unlike_swaps = 0
    for member, rep, cert in certs:
        a, b = build_interval(*member), build_interval(*rep)
        assert cert.is_valid(member, rep), (member, rep)
        assert oracles.full_order_check(cert, a, b)
        assert {z.ball_index: w.ball_index for z, w in cert.mapping.items()} == cert.index
        swapped = _swap_unlike_pair(cert, a)
        if swapped is not None:
            assert not swapped.is_valid(member, rep), (member, rep)
            assert not oracles.full_order_check(swapped, a, b), (member, rep)
            unlike_swaps += 1
    assert unlike_swaps == 1871
    rng = random.Random(8)
    spread = [t for t in certs if t[0][1].length - t[0][0].length >= 2]
    rejected = 0
    for member, rep, cert in rng.sample(spread, 250):
        swapped = _swap_two_images(cert, rng)
        by_covers = swapped.is_valid(member, rep)
        assert by_covers == oracles.full_order_check(
            swapped, build_interval(*member), build_interval(*rep)
        ), (member, rep)
        assert by_covers == swapped.is_valid(build_interval(*member), build_interval(*rep))
        rejected += not by_covers
    print(f"cover check: {rejected} of 250 perturbed certificates rejected")
    assert rejected > 0


def _outside(length, inside):
    # the first element of the given length outside the ball bitset, or None
    return next(
        (z.ball_index for z in weyl.elements_of_length(length) if not inside >> z.ball_index & 1),
        None,
    )


def test_is_valid_rejects_maps_that_are_no_bijection_of_the_members():
    rng = random.Random(5)
    certs = [t for t in _survey_certificates(6) if t[0][1].length - t[0][0].length >= 2]
    for member, rep, cert in rng.sample(certs, 30):
        index = cert.index
        inside_a, inside_b = poset.interval_mask(*member), poset.interval_mask(*rep)
        at = weyl.ball_element
        # a member u, with an element of its length outside [x, y] and one
        # of its image's length outside the target, so only membership fails
        u, key, image = next(
            (u, key, image)
            for u in rng.sample(sorted(index), len(index))
            if (key := _outside(at(u).length, inside_a)) is not None
            and (image := _outside(at(index[u]).length, inside_b)) is not None
        )
        v = next(i for i in index if i != u)
        merged = dict(index)
        merged[u] = index[v]
        missing = dict(index)
        del missing[u]
        stray_key = {key if i == u else i: j for i, j in index.items()}
        stray_image = dict(index)
        stray_image[u] = image
        sides = [(member, rep), (build_interval(*member), build_interval(*rep))]
        for a, b in sides:
            assert IsoCertificate(dict(index)).is_valid(a, b)
            for bad in (merged, missing, stray_key, stray_image):
                assert not IsoCertificate(bad).is_valid(a, b), (member, rep)


def test_cover_check_agrees_with_subword_order_on_a_sample():
    rng = random.Random(7)
    for member, rep, cert in rng.sample(_survey_certificates(7), 40):
        assert cert.is_valid(member, rep)
        assert oracles.subword_order_check(cert, member, rep)
        assert oracles.cert_inverse(cert).is_valid(rep, member)
        if member[1].length - member[0].length >= 2:
            swapped = _swap_two_images(cert, rng)
            assert swapped.is_valid(member, rep) == oracles.subword_order_check(
                swapped, member, rep
            )


def test_composed_certificate_with_wrong_symmetry_is_rejected():
    # z -> c(tau^-1 z) certifies [tau x, tau y] -> rep only for a tau
    # that carries [x, y] onto [tau x, tau y]
    from bruhat_forge.verify import interval_survey

    survey = interval_survey(6)
    rejected = 0
    for cls in survey.classes[::5]:
        for first in cls.members[:3]:
            members = build_interval(*first).members
            cert = cls.certs.get(first)
            images = [cert.apply(z) if cert is not None else z for z in members]
            for tau in weyl.SYMMETRY_GROUP:
                target = (tau.apply(first[0]), tau.apply(first[1]))
                for built_with in weyl.SYMMETRY_GROUP:
                    composed = IsoCertificate({
                        built_with.apply(z).ball_index: c.ball_index
                        for z, c in zip(members, images)
                    })
                    carried = (built_with.apply(first[0]), built_with.apply(first[1]))
                    assert composed.is_valid(target, cls.rep) == (carried == target)
                    rejected += carried != target
    assert rejected > 0


def test_lazily_composed_certificate_with_wrong_action_is_rejected():
    # an orbit certificate stands for z -> base(tau^-1 z); built with the
    # action of a tau that does not carry the base's pair onto the
    # member, it fails is_valid
    from bruhat_forge.verify import interval_survey

    survey = interval_survey(6)
    table = weyl.ball(6)
    composed = [
        (member, cls.rep, cert)
        for cls in survey.classes
        for member, cert in cls.certs.items()
        if isinstance(cert, ComposedCertificate)
    ]
    rejected = 0
    for member, rep, cert in composed[::13]:
        assert cert.is_valid(member, rep)
        # the base certificate's domain is the orbit's first pair
        first = (min(cert.base.index), max(cert.base.index))
        target = (member[0].ball_index, member[1].ball_index)
        for act in table.actions:
            moved = ComposedCertificate(cert.base, act)
            carried = (act[first[0]], act[first[1]])
            assert moved.is_valid(member, rep) == (carried == target)
            rejected += carried != target
    assert rejected > 0


def test_is_automorphism_accepts_the_symmetries_and_rejects_broken_lists():
    n = 6
    table = weyl.ball(n)
    size = len(table.lengths)
    assert poset.is_automorphism(tuple(range(size)), n)
    for act in table.actions:
        assert poset.is_automorphism(act, n)
    act = table.actions[1]

    def swapped(u, v):
        # act followed by the exchange of u and v
        a = list(act)
        a[u], a[v] = a[v], a[u]
        return tuple(a)

    same_length = next(
        (u, v)
        for u, v in itertools.combinations(range(size), 2)
        if table.lengths[u] == table.lengths[v] and table.covers[u] != table.covers[v]
    )
    across = next(v for v in range(size) if table.lengths[v] == 2), 1
    for bad_act in (swapped(*same_length), swapped(*across)):
        assert sorted(bad_act) == list(range(size))
        assert not poset.is_automorphism(bad_act, n)
    # a list that misses the last element, and one that repeats an element
    assert not poset.is_automorphism(act[:-1], n)
    assert not poset.is_automorphism(act[:-1] + act[:1], n)


def test_z_invariant_matches_the_reference():
    # Z-sets as masks met with upper sets, against one Bruhat test per candidate
    for interval in _all_intervals(8):
        ref = oracles.reference_z_sets(interval.bottom, interval.top, range(1, 5))
        for m in range(1, 5):
            assert _z_set(interval, m) == ref[m], (interval, m)


def test_z_preserved_check_matches_the_reference():
    certificates = _survey_certificates(8)
    for member, rep, cert in certificates:
        assert _z_kept(member, rep, cert) == oracles.reference_z_preserved(
            member, rep, cert
        )
    assert len(certificates) > 3000


def test_z_preserved_check_rejects_a_certificate_that_moves_a_z_set():
    # swap the images of a member of some Z^m and a same-rank member
    # outside it: still a bijection, no longer preserving Z^m
    rejected = 0
    for member, rep, cert in _survey_certificates(8):
        x, y = member
        ref = oracles.reference_z_sets(x, y, range(1, 5))
        members = weyl.ball_elements(poset.interval_mask(x, y))
        for m in range(1, 5):
            rank = y.length - m
            outside = [w for w in members if w.length == rank and w not in ref[m]]
            if ref[m] and outside:
                z, w = min(ref[m], key=lambda z: z.sort_key()), outside[0]
                index = dict(cert.index)
                index[z.ball_index], index[w.ball_index] = index[w.ball_index], index[z.ball_index]
                moved = IsoCertificate(index)
                assert not _z_kept(member, rep, moved)
                assert not oracles.reference_z_preserved(member, rep, moved)
                rejected += 1
                break
    assert rejected > 700


def test_structural_counts_match_the_reference_z_sets():
    # |Z^3| and |Z^4| on every pair to length 8, as the structural checks
    # read them (popcounts of z_masks met with upper sets), against one
    # Bruhat test per candidate; the report's tallies are recounted from
    # the reference sets
    from bruhat_forge import closedform
    from bruhat_forge.regions import RegionKind

    rep = structural_lemma_checks(8)
    counts = dict.fromkeys(rep["counts"], 0)
    six_case = []
    for y in weyl.enumerate_up_to_length(8):
        kind = regions.classify(y).kind
        if y.is_identity or kind is RegionKind.THETA:
            continue
        masks = verify.z_masks(y)
        for x, p in closedform.kl_column(y).items():
            ref = oracles.reference_z_sets(x, y, (3, 4))
            upper = weyl.upper_set(x, y.length)
            assert (masks.get(3, 0) & upper).bit_count() == len(ref[3])
            assert (masks.get(4, 0) & upper).bit_count() == len(ref[4])
            z3 = len(ref[3])
            counts["theta1_x_unique"] += z3 == 1
            counts["empty_z3"] += z3 == 0 and kind in (RegionKind.THETA1, RegionKind.X)
            counts["x_tops"] += kind is RegionKind.X
            if kind is RegionKind.THETA2 and z3 == 0 and p != 1:
                counts["six_case"] += 1
                assert len(ref[4]) == 1
                six_case.append([x.word(), y.word()])
    assert counts == rep["counts"]
    assert six_case == [[i["x"], i["y"]] for i in rep["six_case_instances"]]
    assert rep["holds"] and counts["six_case"] > 0
