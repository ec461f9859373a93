"""The verification harness: suites, determinism, reports."""

import ast
import functools
import gc
import itertools
import json
import operator
import tracemalloc
from pathlib import Path

import pytest

import oracles
from bruhat_forge import closedform, hecke, poset, verify, weyl
from bruhat_forge.laurent import LaurentPoly, QPoly
from bruhat_forge.poset import build_interval
from bruhat_forge.regions import RegionKind, theta2
from bruhat_forge.verify import (
    interval_survey,
    verify_closed_forms,
    verify_conjecture,
    verify_lemma_suite,
)


def test_conjecture_small_bound_passes():
    report = verify_conjecture(5)
    assert report.passed
    names = [s.name for s in report.suites]
    assert any("conjecture" in n for n in names)
    conj = report.suites[0]
    assert conj.counts["violations"] == 0
    assert conj.counts["intervals"] > 400


def test_census_small_spans():
    rows = interval_survey(5).census_rows()
    by_span = {r["span"]: r for r in rows}
    assert by_span[1]["classes"] == 1
    assert by_span[2]["classes"] == 1
    assert all(r["classes"] >= 1 for r in rows)


def test_reports_deterministic():
    interval_survey.cache_clear()
    r1 = verify_conjecture(4)
    interval_survey.cache_clear()
    r2 = verify_conjecture(4)
    interval_survey.cache_clear()

    def norm(report):
        obj = report.to_json_obj()
        obj.pop("elapsed")
        for s in obj["suites"]:
            s.pop("elapsed")
        return obj

    assert norm(r1) == norm(r2)
    # the survey runs in one process; no other job count is accepted
    with pytest.raises(ValueError):
        verify_conjecture(4, jobs=2)


def test_closed_forms_small():
    report = verify_closed_forms(max_family_length=11, x_max=8)
    assert report.passed
    assert all(s.counts.get("mismatches", 0) == 0 for s in report.suites)


def test_lemma_suite_small_bounds():
    report = verify_lemma_suite(max_length=7, partition_bound=8)
    assert report.passed, [s.name for s in report.suites if not s.passed]


def test_fixed_index_bounds_in_suite_names():
    # the index bounds no caller sets are constants; their values show
    # in the suite names
    lemmas = verify_lemma_suite(max_length=2, partition_bound=2)
    assert [s.name for s in lemmas.suites] == [
        "region partition and counts (l <= 2)",
        "descent patterns per region (reported)",
        "lower-interval intersection (m, n <= 4)",
        "boundary decomposition (p, q <= 3)",
        "cardinality polynomials (m, n <= 4)",
        "appendix identity (m, n <= 3)",
        "parent-count table (m, n <= 3)",
        "coatom set of s0*theta(1,3)*s",
        "closed forms vs recursion (l(y) <= 2)",
        "monotonicity along chains (l(y) <= 2)",
        "monotonic element closure properties",
        "G-invariance of length, order, KL (l <= 2)",
        "Z-set preservation (l(y) <= 2)",
        "structural Z-set lemmas (l(y) <= 2)",
    ]
    assert lemmas.scope == {
        "suite": "lemmas",
        "partition_bound": 2,
        "monotonicity_bound": 2,
        "z_bound": 2,
        "structural_bound": 2,
    }
    closed = verify_closed_forms(3, 3)
    assert [s.name for s in closed.suites] == [
        "chain family vs oracle (n <= 3)",
        "theta family vs oracle (length <= 3)",
        "theta1 family vs oracle (length <= 3)",
        "theta2 family both versions vs oracle (length <= 3)",
        "canonical generator product identities (m, n <= 3)",
    ]
    # every lemma stage but the oracle, which reports as in the conjecture
    # suite, carries a fallback count: 0 while it passes, 1 when a closed
    # form it reads fails; the closed-form stages read no column
    assert [sorted(s.counts) for s in lemmas.suites] == [
        ["Identity", "Theta", "Theta1", "Theta2", "X", "fallbacks"],
        ["fallbacks", "patterns"],
        *[["checked", "fallbacks"]] * 5,
        ["coatoms", "fallbacks"],
        ["mismatches", "pairs"],
        ["chains", "fallbacks"],
        *[["checked", "fallbacks"]] * 2,
        ["certificates", "classes", "fallbacks"],
        ["empty_z3", "fallbacks", "six_case", "theta1_x_unique", "x_tops"],
    ]
    assert [sorted(s.counts) for s in closed.suites] == [
        *[["checked", "mismatches"]] * 3,
        ["checked", "mismatches", "version_disagreements"],
        ["checked", "mismatches"],
    ]


def test_report_serialization():
    report = verify_conjecture(4)
    obj = json.loads(report.to_json())
    assert obj["passed"] is True
    assert [sorted(s["counts"]) for s in obj["suites"]] == [
        ["classes", "fallbacks", "intervals", "violations"],
        ["certificates", "invalid"],
        ["mismatches", "pairs"],
    ]
    assert {"scope", "suites", "census", "elapsed", "passed"} <= set(obj)
    rows = report.to_csv_rows()
    assert rows[0] == ["suite", "passed", "counts", "witnesses"]
    assert all(len(r) == 4 for r in rows)
    census = report.census_csv_rows()
    assert census[0] == ["span", "classes", "intervals"]
    lines = report.summary_lines()
    assert all(line.startswith(("PASS", "FAIL")) for line in lines)


def test_survey_classes_cover_all_intervals():
    survey = interval_survey(4)
    covered = {m for cls in survey.classes for m in cls.members}
    assert covered == set(survey.intervals)
    for cls in survey.classes:
        assert cls.rep in cls.members
        assert set(cls.certs) == set(cls.members) - {cls.rep}


def test_symmetric_interval_pairs_in_same_class():
    survey = interval_survey(5)
    class_id = {pair: cid for cid, cls in enumerate(survey.classes) for pair in cls.members}
    for x, y in survey.intervals[::7]:
        cid = class_id[(x, y)]
        for tau in weyl.SYMMETRY_GROUP:
            assert class_id[(tau.apply(x), tau.apply(y))] == cid


def test_composed_certificates_connect_class_members():
    # member-to-representative certificates compose into valid
    # member-to-member certificates that still preserve the Z-sets
    survey = interval_survey(6)
    checked = 0
    for cls in survey.classes:
        if len(cls.members) < 3 or checked >= 5:
            continue
        a, b = cls.members[1], cls.members[2]
        composed = oracles.cert_compose(oracles.cert_inverse(cls.certs[b]), cls.certs[a])
        ia, ib = build_interval(*a), build_interval(*b)
        assert composed.is_valid(ia, ib)
        masks = {y.ball_index: verify.z_masks(y) for _, y in (a, b)}
        assert verify._z_preserved(masks, composed, a, b)
        checked += 1
    assert checked > 0


def test_lemma_report_json_round_trip():
    report = verify_lemma_suite(max_length=5, partition_bound=6)
    obj = json.loads(report.to_json())
    assert obj["passed"] is True
    assert len(obj["suites"]) == len(report.suites)


def _words(pair):
    return [w.word() for w in pair]


def _unlike_pair(pair):
    # ball indices of two same-rank members of the interval whose covers
    # differ, found as in test_poset's _swap_unlike_pair: exchanging their
    # images turns an isomorphism into a map that is none; None if the
    # members of every rank have equal covers
    a = build_interval(*pair)
    _, up_masks = oracles._cover_masks(a)
    for r in range(1, a.span):
        same = [i for i, z in enumerate(a.members) if z.length - a.bottom.length == r]
        for u, v in itertools.combinations(same, 2):
            if (a.down_masks[u], up_masks[u]) != (a.down_masks[v], up_masks[v]):
                return a.members[u].ball_index, a.members[v].ball_index
    return None


def _certificate_stage(max_length):
    return next(s for s in verify_conjecture(max_length).suites if s.name.startswith("certif"))


def _built_on(cls, base):
    # the members whose certificate is base or is composed on it
    return [m for m, c in cls.certs.items() if c is base or getattr(c, "base", None) is base]


def test_certificate_stage_names_the_failing_members():
    survey = interval_survey(6)
    try:
        # a base certificate the survey stored for an orbit-first pair,
        # with more members built on it than a stage lists as witnesses
        cls, pair, base = next(
            (cls, m, c)
            for cls in survey.classes
            for m, c in cls.certs.items()
            if type(c) is poset.IsoCertificate and len(_built_on(cls, c)) > 10 and _unlike_pair(m)
        )
        dependants, rep = _built_on(cls, base), cls.rep
        assert base.is_valid(pair, rep)
        u, v = _unlike_pair(pair)
        index = base.index
        index[u], index[v] = index[v], index[u]
        certs = _certificate_stage(6)
        assert not certs.passed
        assert certs.counts["invalid"] == len(dependants)
        assert certs.witnesses == [{"member": _words(m), "rep": _words(rep)} for m in dependants][:10]
        index[u], index[v] = index[v], index[u]
        assert _certificate_stage(6).passed

        # one composed certificate reading a corrupted copy of its action
        # list: the shared list and every other member stay intact; its
        # base maps from the interval whose ends are the least and the
        # greatest key in ball order
        def source(cert):
            return weyl.ball_element(min(cert.base.index)), weyl.ball_element(max(cert.base.index))

        cls, member, composed = next(
            (cls, m, c)
            for cls in survey.classes
            for m, c in cls.certs.items()
            if isinstance(c, poset.ComposedCertificate) and _unlike_pair(source(c))
        )
        u, v = _unlike_pair(source(composed))
        act = list(composed.act)
        act[u], act[v] = act[v], act[u]
        composed.act = tuple(act)
        certs = _certificate_stage(6)
        assert certs.counts["invalid"] == 1 and not certs.passed
        assert certs.witnesses == [{"member": _words(member), "rep": _words(cls.rep)}]
    finally:
        interval_survey.cache_clear()


CERTIFICATES = "certificates re-validated"


def _stage_results(monkeypatch, run, calls):
    # each stage of the report run() makes, by name: its uncapped (counts,
    # witnesses) and the number of entries it added to calls
    out, suite = {}, verify._suite

    def recording(name, fn, *rest):
        def stage():
            before = len(calls)
            result = fn()
            out[name] = result, len(calls) - before
            return result

        return suite(name, stage, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(verify, "_suite", recording)
        run()
    return out


def _run_stages(monkeypatch, max_length):
    # each stage of verify_conjecture(max_length) by name: its uncapped
    # (counts, witnesses) and the IsoCertificate.is_valid calls it made
    calls = []
    is_valid = poset.IsoCertificate.is_valid

    def counting(self, a, b):
        calls.append(None)
        return is_valid(self, a, b)

    with monkeypatch.context() as patch:
        patch.setattr(poset.IsoCertificate, "is_valid", counting)
        return _stage_results(patch, lambda: verify_conjecture(max_length), calls)


def _source_ends(cert):
    # a composed certificate's base maps from the interval whose ends are
    # its least and greatest key in ball order
    return weyl.ball_element(min(cert.base.index)), weyl.ball_element(max(cert.base.index))


def test_certificate_stage_matches_the_is_valid_reference(monkeypatch):
    (counts, bad), _ = _run_stages(monkeypatch, 12)[CERTIFICATES]
    assert (counts, bad) == oracles.reference_certificate_verdicts(interval_survey(12))
    assert counts == {"certificates": 15319, "invalid": 0}


def test_certificate_stage_validates_each_base_once(monkeypatch):
    # one is_valid per plain certificate, not one per certificate; the
    # representatives' identities, the bases of their orbit-mates, are
    # judged by the pair they name, as a cover walk on each would double
    # the stage at L=20
    (counts, _), calls = _run_stages(monkeypatch, 8)[CERTIFICATES]
    classes = interval_survey(8).classes
    plain = sum(type(c) is poset.IsoCertificate for cls in classes for c in cls.certs.values())
    assert counts == {"certificates": 3094, "invalid": 0}
    assert calls == plain
    assert plain + len(classes) < 3094


def test_certificate_stage_fails_the_members_of_a_corrupted_identity(monkeypatch):
    survey = interval_survey(6)
    try:
        # a representative's identity, the base of its orbit-mates, made to
        # name the representative of another class of the same span
        def span(c):
            return c.rep[1].length - c.rep[0].length

        cls, identity, other = next(
            (cls, c.base, o.rep)
            for cls in survey.classes
            for c in cls.certs.values()
            if isinstance(getattr(c, "base", None), poset.IdentityCertificate)
            for o in survey.classes
            if o is not cls and span(o) == span(cls)
        )
        expected = [{"member": _words(m), "rep": _words(cls.rep)} for m in _built_on(cls, identity)]
        identity.pair = other
        (counts, bad), _ = _run_stages(monkeypatch, 6)[CERTIFICATES]
        assert (counts, bad) == oracles.reference_certificate_verdicts(survey)
        assert bad == expected and bad
        identity.pair = cls.rep
        # a member given the identity on its own interval: the ends match,
        # so only the rule that an identity names its representative fails it
        member = next(iter(cls.certs))
        stored, cls.certs[member] = cls.certs[member], poset.IdentityCertificate(member)
        (counts, bad), _ = _run_stages(monkeypatch, 6)[CERTIFICATES]
        assert (counts, bad) == oracles.reference_certificate_verdicts(survey)
        assert bad == [{"member": _words(member), "rep": _words(cls.rep)}]
        cls.certs[member] = stored
        assert _certificate_stage(6).passed
    finally:
        interval_survey.cache_clear()


def test_certificate_stage_fails_every_member_of_a_corrupted_action_list(monkeypatch):
    survey = interval_survey(6)
    users = []
    try:
        composed = next(
            c
            for cls in survey.classes
            for c in cls.certs.values()
            if isinstance(c, poset.ComposedCertificate) and _unlike_pair(_source_ends(c))
        )
        # one corrupted copy of the action list of one tau, set on every
        # composed certificate that shares it: a permutation that keeps
        # lengths, so only the covers tell
        shared = composed.act
        u, v = _unlike_pair(_source_ends(composed))
        act = list(shared)
        act[u], act[v] = act[v], act[u]
        corrupted = tuple(act)
        users = [
            (cls, m, c)
            for cls in survey.classes
            for m, c in cls.certs.items()
            if getattr(c, "act", None) is shared
        ]
        for _, _, c in users:
            c.act = corrupted
        (counts, bad), _ = _run_stages(monkeypatch, 6)[CERTIFICATES]
        _, ref_bad = oracles.reference_certificate_verdicts(survey)
        assert ref_bad and all(w in bad for w in ref_bad)
        # the list fails as a whole: every member composed through it
        assert bad == oracles.by_top_then_bottom(
            [{"member": _words(m), "rep": _words(cls.rep)} for cls, m, _ in users]
        )
        assert counts["invalid"] == len(users)
    finally:
        for _, _, c in users:
            c.act = shared
        interval_survey.cache_clear()


def test_certificate_stage_fails_certificates_stored_under_the_wrong_member(monkeypatch):
    # two valid certificates swapped between members: each maps from the
    # other member's interval, so both fail, as the reference says
    survey = interval_survey(6)
    try:
        cls = next(c for c in survey.classes if len(c.certs) >= 2)
        a, b = list(cls.certs)[:2]
        cls.certs[a], cls.certs[b] = cls.certs[b], cls.certs[a]
        (counts, bad), _ = _run_stages(monkeypatch, 6)[CERTIFICATES]
        assert (counts, bad) == oracles.reference_certificate_verdicts(survey)
        assert bad == [{"member": _words(m), "rep": _words(cls.rep)} for m in (a, b)]
    finally:
        interval_survey.cache_clear()


def test_certificate_witnesses_run_by_top_then_bottom(monkeypatch):
    # one certificate corrupted in each of two classes, the class founded
    # later holding the earlier member: the witnesses follow (y, x), not
    # class order
    survey = interval_survey(6)

    def at(pair):
        return pair[1].ball_index, pair[0].ball_index

    try:
        (first, a), (later, b) = next(
            ((cls, a), (other, b))
            for n, cls in enumerate(survey.classes)
            for a in cls.certs
            for other in survey.classes[n + 1 :]
            for b in other.certs
            if at(b) < at(a)
        )
        stored = first.certs[a], later.certs[b]
        first.certs[a], later.certs[b] = poset.IdentityCertificate(a), poset.IdentityCertificate(b)
        (counts, bad), _ = _run_stages(monkeypatch, 6)[CERTIFICATES]
        assert (counts, bad) == oracles.reference_certificate_verdicts(survey)
        assert bad == [
            {"member": _words(b), "rep": _words(later.rep)},
            {"member": _words(a), "rep": _words(first.rep)},
        ]
        first.certs[a], later.certs[b] = stored
        assert _certificate_stage(6).passed
    finally:
        interval_survey.cache_clear()


def _raise_short_spans(monkeypatch):
    # a wrong constant term in the recursion's P_{x,y}, h + v^(l(y)-l(x)),
    # for every pair of span 1 or 2
    rows = hecke._rows

    def corrupted(w, max_length):
        out = dict(rows(w, max_length))
        for i in out:
            span = w.length - weyl.ball_element(i).length
            if 1 <= span <= 2:
                out[i] += 1 << (32 * span)
        return out

    monkeypatch.setattr(hecke, "_rows", corrupted)


def test_oracle_witnesses_run_by_top_then_bottom(monkeypatch):
    # with P_{x,y} + 1 in the recursion for every pair of span 1 or 2, the
    # stage names them all, by top and then bottom, as the per-pair
    # reference does
    _raise_short_spans(monkeypatch)
    stages = _stage_results(monkeypatch, lambda: verify_conjecture(6), [])
    (counts, bad), _ = stages["closed forms vs recursion (l(y) <= 6)"]
    assert (counts, bad) == oracles.reference_oracle_stage(6)
    expected = [
        (x, y)
        for y in weyl.enumerate_up_to_length(6)
        for x in weyl.lower_interval(y)
        if 1 <= y.length - x.length <= 2
    ]
    assert counts == {"pairs": 1099, "mismatches": len(expected)} and len(expected) > 2
    assert bad == [_words(pair) for pair in expected]


def test_oracle_stage_names_missing_and_unencodable_entries(monkeypatch):
    # one column loses an entry, and another takes P + 2^64 q^j - q^(j-1),
    # j the degree of P: packed at v = 2^32 with no range check on its
    # coefficients, that P gives the int of the true one; both mismatch
    y = theta2((1, 1))
    real = closedform.kl_column
    column = dict(real(y))
    lost, wide = [x for x, p in column.items() if p.degree() >= 1][:2]
    del column[lost]
    j = column[wide].degree()
    column[wide] = column[wide] + QPoly({j: 1 << 64, j - 1: -1})
    monkeypatch.setattr(closedform, "kl_column", lambda w: column if w is y else real(w))
    name, stage, fallbacks = verify._oracle_stage(y.length)
    assert (name, fallbacks) == (f"closed forms vs recursion (l(y) <= {y.length})", False)
    counts, bad = stage()
    assert (counts, bad) == oracles.reference_oracle_stage(y.length)
    assert bad == [_words((x, y)) for x in sorted([lost, wide], key=lambda x: x.ball_index)]


def _z_stage(monkeypatch, max_length, calls=None):
    # the Z-set stage of verify_lemma_suite(max_length): its uncapped
    # (counts, witnesses) and the entries it added to calls
    report = functools.partial(verify_lemma_suite, max_length, partition_bound=2)
    out = _stage_results(monkeypatch, report, [] if calls is None else calls)
    return next(result for name, result in out.items() if name.startswith("Z-set"))


def _moved_z_pair(pair):
    # ball indices of a member of some Z^m of [x, y], m <= 4 as the stage
    # reads, and a same-rank member outside it: exchanging their images
    # moves that Z-set; None if none
    x, y = pair
    zs, members = verify.z_masks(y), poset.interval_mask(x, y)
    for m, mask in sorted(zs.items()):
        inside = mask & members if m <= 4 else 0
        rank = [i for i in poset._bits(members) if weyl.ball_element(i).length == y.length - m]
        outside = [i for i in rank if not inside >> i & 1]
        if inside and outside:
            return next(poset._bits(inside)), outside[0]
    return None


def test_z_stage_matches_the_per_certificate_reference(monkeypatch):
    (counts, bad), _ = _z_stage(monkeypatch, 12)
    assert (counts, bad) == oracles.reference_z_stage(interval_survey(12))
    assert counts == {"certificates": 15319, "classes": 467} and not bad


def test_z_stage_composes_no_certificate(monkeypatch):
    # bases and action lists are judged once each, so no composed index
    # dict is built; a per-certificate read builds one for each of the 6919
    # composed certificates of the 7442 at L=10
    reads = []
    index = poset.ComposedCertificate.index

    def counting(self):
        reads.append(None)
        return index.fget(self)

    monkeypatch.setattr(poset.ComposedCertificate, "index", property(counting))
    (counts, bad), stage_reads = _z_stage(monkeypatch, 10, reads)
    assert counts["certificates"] == 7442 and not bad
    assert stage_reads == 0


def test_z_stage_fails_the_members_of_a_corrupted_base(monkeypatch):
    survey = interval_survey(6)
    try:
        # a plain certificate that moves a Z-set of its member once two
        # images are swapped, with more members composed on it
        cls, member, base = next(
            (cls, m, c)
            for cls in survey.classes
            for m, c in cls.certs.items()
            if type(c) is poset.IsoCertificate and len(_built_on(cls, c)) > 1 and _moved_z_pair(m)
        )
        u, v = _moved_z_pair(member)
        index = base.index
        index[u], index[v] = index[v], index[u]
        (counts, bad), _ = _z_stage(monkeypatch, 6)
        assert (counts, bad) == oracles.reference_z_stage(survey)
        assert bad == [{"member": _words(m), "rep": _words(cls.rep)} for m in _built_on(cls, base)]
        index[u], index[v] = index[v], index[u]
        assert not _z_stage(monkeypatch, 6)[0][1]
    finally:
        interval_survey.cache_clear()


def test_z_stage_fails_certificates_stored_under_the_wrong_member(monkeypatch):
    # two certificates swapped between members of one class, where the
    # per-certificate reference finds both moving a Z-set
    survey = interval_survey(6)
    try:
        found = None
        for cls in survey.classes:
            members = list(cls.certs)
            for a, b in itertools.combinations(members[:6], 2):
                cls.certs[a], cls.certs[b] = cls.certs[b], cls.certs[a]
                try:
                    _, ref_bad = oracles.reference_z_stage(survey)
                except KeyError:  # a Z-set member the other domain lacks
                    ref_bad = None
                expected = [{"member": _words(m), "rep": _words(cls.rep)} for m in (a, b)]
                if ref_bad == expected:
                    found = expected
                    break
                cls.certs[a], cls.certs[b] = cls.certs[b], cls.certs[a]
            if found:
                break
        assert found
        (counts, bad), _ = _z_stage(monkeypatch, 6)
        assert (counts, bad) == oracles.reference_z_stage(survey)
        assert bad == found
    finally:
        interval_survey.cache_clear()


def test_z_stage_fails_every_member_of_a_corrupted_action_list(monkeypatch):
    survey = interval_survey(6)
    table = weyl.ball(6)
    users = []
    try:
        shared = next(
            c.act for cls in survey.classes for c in cls.certs.values() if hasattr(c, "act")
        )
        # exchange two images of one length whose covers differ: still a
        # length-keeping permutation, no longer an automorphism
        u, v = next(
            (u, v)
            for u, v in itertools.combinations(range(len(table.lengths)), 2)
            if table.lengths[u] == table.lengths[v] > 1 and table.covers[u] != table.covers[v]
        )
        act = list(shared)
        act[u], act[v] = act[v], act[u]
        users = [
            (cls, m, c)
            for cls in survey.classes
            for m, c in cls.certs.items()
            if getattr(c, "act", None) is shared
        ]
        for _, _, c in users:
            c.act = tuple(act)
        (counts, bad), _ = _z_stage(monkeypatch, 6)
        assert len(users) > 10
        assert bad == oracles.by_top_then_bottom(
            [{"member": _words(m), "rep": _words(cls.rep)} for cls, m, _ in users]
        )
    finally:
        for _, _, c in users:
            c.act = shared
        interval_survey.cache_clear()


def test_z_stage_checks_that_each_list_carries_the_z_sets(monkeypatch):
    # one Z-set bit dropped from z_masks(y) for a top y that only composed
    # certificates reach: every base still keeps its Z-sets, so only the
    # per-list check that tau carries z_masks(y) onto z_masks(tau y) sees it
    survey = interval_survey(6)
    judged = {cls.rep[1] for cls in survey.classes} | {
        m[1]
        for cls in survey.classes
        for m, c in cls.certs.items()
        if type(c) is poset.IsoCertificate
    }
    real = verify.z_masks
    y, dropped = next(
        (y, (m, low))
        for cls in survey.classes
        for (x, y), c in cls.certs.items()
        if y not in judged
        for m, mask in sorted(real(y).items())
        if m <= 4 and (low := mask & weyl.upper_set(x, y.length))
    )
    m, low = dropped
    masks = dict(real(y))
    masks[m] ^= low & -low
    monkeypatch.setattr(verify, "z_masks", lambda w: masks if w is y else real(w))
    (_, bad), _ = _z_stage(monkeypatch, 6)
    _, ref_bad = oracles.reference_z_stage(survey)
    assert ref_bad and all(w in bad for w in ref_bad)


def test_a_broken_symmetry_fails_the_g_invariance_stage(monkeypatch):
    # one action list of the ball table exchanges two elements of one
    # length whose covers differ; the survey was built before, so only
    # the stages that read the table's lists see it
    n = 6
    interval_survey(n)
    table, ball = weyl.ball(n), weyl.ball
    k = 1
    tau = weyl.SYMMETRY_GROUP[k]
    u, v = next(
        (u, v)
        for u, v in itertools.combinations(range(len(table.lengths)), 2)
        if table.lengths[u] == table.lengths[v] > 1 and table.covers[u] != table.covers[v]
    )
    act = list(table.actions[k])
    act[u], act[v] = act[v], act[u]
    actions = table.actions[:k] + (tuple(act),) + table.actions[k + 1 :]
    broken = table._replace(actions=actions)
    monkeypatch.setattr(weyl, "ball", lambda m: broken if m == n else ball(m))

    stages = _stage_results(monkeypatch, lambda: verify_lemma_suite(n, partition_bound=2), [])
    (_, bad), _ = stages[f"G-invariance of length, order, KL (l <= {n})"]
    assert bad[0] == {"tau": tau.name, "rule": "automorphism"}
    assert all(w["tau"] == tau.name for w in bad)


def test_a_conjecture_report_judges_each_action_list_once(monkeypatch):
    # the certificate stage takes one verdict per action list
    real, judged = poset.is_automorphism, []

    def counted(act, max_length):
        judged.append(act)
        return real(act, max_length)

    monkeypatch.setattr(poset, "is_automorphism", counted)
    assert verify_conjecture(6).passed
    assert sorted(judged) == sorted(weyl.ball(6).actions)


def test_every_stage_caps_its_witnesses(monkeypatch, restore_closed_forms):
    real = closedform._theta_terms
    e = weyl.identity()
    # every theta closed form gains the bare term H_e
    monkeypatch.setattr(closedform, "_theta_terms", lambda idx: real(idx) + [(0, (e,), True)])
    report = verify_closed_forms(15, 14)
    theta = next(s for s in report.suites if s.name.startswith("theta family"))
    assert not theta.passed and not report.passed
    # the counts stay exact; the report lists the first ten witnesses
    assert theta.counts == {"checked": 28, "mismatches": 28}
    assert len(theta.witnesses) == 10 and theta.witnesses[0] == [0, 0]
    assert report.to_csv_rows()[2] == [theta.name, "FAIL", json.dumps(theta.counts), 10]
    # nothing memoises a closed form's Hecke element, so with the patch
    # undone all pass
    restore_closed_forms()
    assert verify_closed_forms(15, 14).passed


def test_a_wrong_theta_formula_fails_the_oracle_stage_of_both_suites(
    monkeypatch, restore_closed_forms
):
    # each theta closed form of more than one term loses its last: every
    # column stays well formed and G-invariant, so only the comparison
    # with the recursion sees the 18 wrong P at L=8, in both suites
    def counts(report):
        return {s.name: (s.passed, s.counts) for s in report.suites}

    suites = (verify_conjecture, verify_lemma_suite)
    before = [counts(suite(8)) for suite in suites]
    real = closedform._theta_terms
    monkeypatch.setattr(closedform, "_theta_terms", lambda idx: real(idx)[:-1] or real(idx))
    closedform.kl_column.cache_clear()
    oracle = "closed forms vs recursion (l(y) <= 8)"
    for suite, clean in zip(suites, before):
        report = suite(8)
        assert not report.passed
        after = counts(report)
        assert after.pop(oracle) == (False, {"pairs": 3289, "mismatches": 18})
        assert clean.pop(oracle) == (True, {"pairs": 3289, "mismatches": 0})
        assert after == clean
    _, bad = oracles.reference_oracle_stage(8)
    assert len(bad) == 18
    assert next(s for s in report.suites if s.name == oracle).witnesses == bad[:10]
    restore_closed_forms()
    assert all(suite(8).passed for suite in suites)


def test_reports_are_built_only_by_the_stage_runner():
    # SuiteResult only in _suite and VerificationReport only in _report,
    # so every stage is timed, capped and fallback-checked alike
    src = Path(verify.__file__).parent
    calls = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {}
        for f in ast.walk(tree):
            if isinstance(f, ast.FunctionDef):
                for node in ast.walk(f):
                    owner.setdefault(id(node), f.name)
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            if name in ("SuiteResult", "VerificationReport"):
                calls.append((path.name, name, owner.get(id(call))))
    assert sorted(calls) == [
        ("verify.py", "SuiteResult", "_suite"),
        ("verify.py", "VerificationReport", "_report"),
    ]


def _failed_by_a_closed_form(suite) -> bool:
    return (
        not suite.passed
        and suite.counts == {"fallbacks": 1}
        and len(suite.witnesses) == 1
        and suite.witnesses[0].endswith("is not supported on [e, y]")
    )


@pytest.mark.usefixtures("restore_closed_forms")
def test_formula_fallbacks_fail_verification(monkeypatch):
    # a Theta1 closed form that lost the term of its canonical member:
    # every Theta1 column raises ClosedFormError, which must fail every
    # stage reading it
    real = closedform.closed_form_terms

    def lossy(tag):
        terms = real(tag)
        return terms[1:] if tag.kind is RegionKind.THETA1 else terms

    monkeypatch.setattr(closedform, "closed_form_terms", lossy)
    closedform.kl_column.cache_clear()
    report = verify_conjecture(6)
    assert not report.passed
    # each stage that reads a KL column fails with the reason; the
    # certificate stage, which reads none, still runs after the first
    assert [_failed_by_a_closed_form(s) for s in report.suites] == [True, False, True]
    certificates, survey = report.suites[1], interval_survey(6)
    assert certificates.passed
    certs = len(survey.intervals) - len(survey.classes)
    assert certificates.counts == {"certificates": certs, "invalid": 0}
    assert report.census == survey.census_rows()
    json.loads(report.to_json())

    lemmas = verify_lemma_suite(max_length=5, partition_bound=4)
    failed = {s.name.split(" (")[0] for s in lemmas.suites if _failed_by_a_closed_form(s)}
    assert failed == {
        "closed forms vs recursion",
        "monotonicity along chains",
        "G-invariance of length, order, KL",
        "Z-set preservation",
        "structural Z-set lemmas",
    }
    # the stages after a failed one still run, and pass with count 0
    others = [s for s in lemmas.suites if s.name.split(" (")[0] not in failed]
    assert len(others) == 9 and all(s.passed and s.counts["fallbacks"] == 0 for s in others)


def test_orbit_survey_matches_per_pair_reference():
    # classifying one pair per symmetry orbit gives the representatives,
    # class ids, member order and census of classifying every pair
    for max_length in range(9):
        survey = interval_survey(max_length)
        ref = oracles.per_pair_survey(max_length)
        assert survey.intervals == ref.intervals
        assert [c.rep for c in survey.classes] == [c.rep for c in ref.classes]
        assert [c.members for c in survey.classes] == [c.members for c in ref.classes]
        assert survey.census_rows() == ref.census_rows()
        for cls in survey.classes:
            assert set(cls.certs) == set(cls.members) - {cls.rep}


def _lowered_column(monkeypatch, y, drop=QPoly({1: 1})):
    # P_{e,y} - drop in the column of y, which for drop = q or 1 breaks
    # monotonicity at e
    e = weyl.identity()
    kl_column = closedform.kl_column

    def bad_column(w):
        column = dict(kl_column(w))
        if w == y:
            column[e] = column[e] - drop
        return column

    monkeypatch.setattr(closedform, "kl_column", bad_column)


@pytest.mark.usefixtures("restore_closed_forms")
@pytest.mark.parametrize("bump", [QPoly({1: 1}), QPoly({0: 1})])
def test_monotonicity_stages_report_witnesses(monkeypatch, bump):
    # a column lowered by q, or by 1, breaks monotonicity: it fails the
    # chain stage on P and the oracle stage; the closure stage decodes no
    # column, so it passes
    y = weyl.from_word("1201")
    _lowered_column(monkeypatch, y, bump)
    report = verify_lemma_suite(max_length=4, partition_bound=2)
    suites = {s.name: s for s in report.suites}
    chains = suites["monotonicity along chains (l(y) <= 4)"]
    assert not chains.passed and not report.passed
    assert any(w["y"] == y.word() and "q" in w for w in chains.witnesses)
    assert not any("v" in w for w in chains.witnesses)
    oracle = suites["closed forms vs recursion (l(y) <= 4)"]
    assert not oracle.passed and oracle.witnesses == [["", y.word()]]
    assert suites["monotonic element closure properties"].passed


def test_a_non_monotone_recursion_row_fails_the_oracle_stage(monkeypatch):
    # with P_{x,y} + 1 in the recursion for every pair of span 1 or 2,
    # h_{x,y} falls below v h_{z,y} for x three ranks below y, as the h
    # form of the all-pairs reference sees; the lemma suite sees it in its
    # oracle stage, and in the closure stage's sums, which decode rows of
    # length <= 5
    _raise_short_spans(monkeypatch)
    _, ref_bad = oracles.reference_chain_stage(4)
    assert any("v" in w for w in ref_bad)
    report = verify_lemma_suite(max_length=4, partition_bound=2)
    failed = [s.name for s in report.suites if not s.passed]
    assert failed == [
        "closed forms vs recursion (l(y) <= 4)",
        "monotonic element closure properties",
    ]


def test_the_lemma_suite_decodes_only_the_closure_samples(monkeypatch):
    # every P the stages read comes from kl_column, checked once by the
    # oracle stage on undecoded rows; kl_basis serves only the closure
    # stage's sums, over elements of length at most 5.  N_w too is built
    # only for those samples, and no stage counts a union through M_{x,y}
    lengths, n_lengths, m_tops = [], [], []
    kl_basis, N_element, M_element = hecke.kl_basis, hecke.N_element, hecke.M_element

    def spy(w, *args):
        lengths.append(w.length)
        return kl_basis(w, *args)

    def n_spy(w):
        n_lengths.append(w.length)
        return N_element(w)

    def m_spy(x, y):
        m_tops.append((x, y))
        return M_element(x, y)

    monkeypatch.setattr(hecke, "kl_basis", spy)
    monkeypatch.setattr(hecke, "N_element", n_spy)
    monkeypatch.setattr(hecke, "M_element", m_spy)
    assert verify_lemma_suite(10, 4).passed
    assert lengths and max(lengths) <= 5
    assert n_lengths and max(n_lengths) <= 5
    assert m_tops and all(x == y for x, y in m_tops)


@pytest.mark.parametrize("corruption", ["identity dropped", "coatom raised"])
def test_a_broken_N_constructor_still_fails_the_lemma_suite(monkeypatch, corruption):
    # N_w checked only at the closure samples still guards the constructor:
    # M_{x,y} without H_e, or with one coatom's v^1 raised to v^2, fails
    # the appendix identity and the closure stage, and nothing else
    M_element = hecke.M_element

    def broken(x, y):
        good = M_element(x, y)
        terms = dict(good.items())
        if corruption == "identity dropped":
            terms.pop(weyl.identity(), None)
        else:
            coatoms = [z for z in good.support() if z.length == x.length - 1]
            if coatoms:
                terms[coatoms[0]] = terms[coatoms[0]] * LaurentPoly({1: 1})
        return hecke.HeckeElement(terms)

    monkeypatch.setattr(hecke, "M_element", broken)
    report = verify_lemma_suite(4, 2)
    assert [s.name for s in report.suites if not s.passed] == [
        f"appendix identity (m, n <= {verify.IDENTITY_BOUND})",
        "monotonic element closure properties",
    ]


def test_survey_matches_the_orbit_table_reference():
    # first pairs and their least-k action lists, read off the lists, give
    # the representatives, class ids, member order and certificates (as
    # word maps) of the survey that kept a per-pair orbit table
    survey, ref = interval_survey(12), oracles.orbit_table_survey(12)
    assert survey.intervals == ref.intervals
    assert [c.rep for c in survey.classes] == [c.rep for c in ref.classes]
    assert [c.members for c in survey.classes] == [c.members for c in ref.classes]

    def word_maps(cls):
        return [
            (_words(m), {z.word(): w.word() for z, w in cert.mapping.items()})
            for m, cert in cls.certs.items()
        ]

    for cls, ref_cls in zip(survey.classes, ref.classes):
        assert word_maps(cls) == word_maps(ref_cls), cls.rep


def test_survey_peak_memory_stays_small():
    # no per-pair orbit table and no {z: z} dict per representative: the
    # traced peak at L=12 is about 4.5 MB, and 8.8 MB with both
    weyl.ball(12)
    tracemalloc.start()
    try:
        interval_survey.__wrapped__(12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000


def test_survey_certificates_match_the_eager_reference():
    # certificates stored as (orbit base, action) read like the dicts
    # the survey used to compose for every pair
    for max_length in range(9):
        survey = interval_survey(max_length)
        ref = oracles.composed_certificates(max_length)
        certs = {m: c for cls in survey.classes for m, c in cls.certs.items()}
        assert certs.keys() == ref.keys()
        for pair, cert in certs.items():
            expected = ref[pair]
            assert cert.index == expected.index, pair
            assert cert.mapping == expected.mapping, pair
            assert all(cert.apply(z) == w for z, w in expected.mapping.items()), pair


def _live_intervals() -> int:
    gc.collect()
    return sum(isinstance(o, poset.Interval) for o in gc.get_objects())


def test_survey_keeps_only_class_representatives_alive(monkeypatch):
    # by the time the first certificate is composed every orbit-first
    # pair is classified, so at most the class representatives may still
    # hold an Interval; keeping every orbit-first one fails this
    baseline = _live_intervals()
    alive = []
    composed = poset.ComposedCertificate

    def counting(*args):
        if not alive:
            alive.append(_live_intervals() - baseline)
        return composed(*args)

    monkeypatch.setattr(poset, "ComposedCertificate", counting)
    survey = interval_survey.__wrapped__(10)
    assert alive and alive[0] <= len(survey.classes)


def _chain_stage(max_length):
    report = verify_lemma_suite(max_length=max_length, partition_bound=2)
    return next(s for s in report.suites if s.name.startswith("monotonicity along chains"))


@pytest.mark.usefixtures("restore_closed_forms")
def test_chain_stage_on_covers_matches_the_all_pairs_reference(monkeypatch):
    # the reference tests h as well as P over every pair; with the recursion
    # intact it finds no "v" witness, and its "q" witnesses on covers are
    # the stage's, so the stage's P test alone gives its verdict, on the
    # closed forms and with one column lowered
    report = functools.partial(verify_lemma_suite, 10, partition_bound=2)
    for lowered in (False, True):
        if lowered:
            _lowered_column(monkeypatch, weyl.elements_of_length(10)[0])
        (counts, bad), _ = _stage_results(monkeypatch, report, [])[
            "monotonicity along chains (l(y) <= 10)"
        ]
        ref_counts, ref_bad = oracles.reference_chain_stage(10)
        assert not any("v" in w for w in ref_bad)
        assert counts == ref_counts and bool(bad) == bool(ref_bad) == lowered
        on_covers = [w for w in ref_bad if len(w["z"]) - len(w["x"]) == 1]
        key = operator.itemgetter("x", "z", "y", "q")
        assert sorted(map(key, bad)) == sorted(map(key, on_covers))


def test_chain_count_is_the_number_of_chains_in_the_subword_order():
    # "chains" counts the pairs x <= z <= y with l(y) <= 7, recounted
    # here from the subword property
    below: dict = {}

    def lower(w):
        if w not in below:
            below[w] = oracles.subword_lower_set(w)
        return below[w]

    expected = sum(len(lower(z)) for y in weyl.enumerate_up_to_length(7) for z in lower(y))
    assert _chain_stage(7).counts["chains"] == expected
