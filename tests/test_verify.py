"""The verification harness: suites, determinism, reports."""

import ast
import gc
import itertools
import json
from pathlib import Path

import pytest

import oracles
from bruhat_forge import closedform, hecke, poset, verify, weyl
from bruhat_forge.hecke import standard_basis
from bruhat_forge.laurent import LaurentPoly, QPoly
from bruhat_forge.poset import build_interval
from bruhat_forge.regions import RegionKind
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
    # every lemma stage carries a fallback count: 0 while it passes, 1 when
    # a closed form it reads fails; the closed-form stages read no column
    assert [sorted(s.counts) for s in lemmas.suites] == [
        ["Identity", "Theta", "Theta1", "Theta2", "X", "fallbacks"],
        ["fallbacks", "patterns"],
        *[["checked", "fallbacks"]] * 5,
        ["coatoms", "fallbacks"],
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
        ["class_reps", "mismatches", "sampled"],
        ["sampled"],
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
    from bruhat_forge.poset import build_interval, z_preserved_check

    survey = interval_survey(6)
    checked = 0
    for cls in survey.classes:
        if len(cls.members) < 3 or checked >= 5:
            continue
        a, b = cls.members[1], cls.members[2]
        composed = oracles.cert_compose(oracles.cert_inverse(cls.certs[b]), cls.certs[a])
        ia, ib = build_interval(*a), build_interval(*b)
        assert composed.is_valid(ia, ib)
        assert z_preserved_check(ia, ib, composed)
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
        same = [i for i in range(len(a)) if a.ranks[i] == r]
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


def _run_stages(monkeypatch, max_length):
    # each stage of verify_conjecture(max_length) by name: its uncapped
    # (counts, witnesses) and the IsoCertificate.is_valid calls it made
    calls, out = [], {}
    is_valid, suite = poset.IsoCertificate.is_valid, verify._suite

    def counting(self, a, b):
        calls.append(None)
        return is_valid(self, a, b)

    def recording(name, fn, *rest):
        def run():
            before = len(calls)
            result = fn()
            out[name] = result, len(calls) - before
            return result

        return suite(name, run, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(poset.IsoCertificate, "is_valid", counting)
        patch.setattr(verify, "_suite", recording)
        verify_conjecture(max_length)
    return out


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
    # representatives' identities, the bases of their orbit-mates, are read
    # off their keys, as a cover walk on each would double the stage at L=20
    (counts, _), calls = _run_stages(monkeypatch, 8)[CERTIFICATES]
    classes = interval_survey(8).classes
    plain = sum(type(c) is poset.IsoCertificate for cls in classes for c in cls.certs.values())
    assert counts == {"certificates": 3094, "invalid": 0}
    assert calls == plain
    assert plain + len(classes) < 3094


def test_certificate_stage_fails_the_members_of_a_corrupted_identity(monkeypatch):
    survey = interval_survey(6)
    try:
        # a representative's identity, the base of its orbit-mates
        cls, identity = next(
            (cls, c.base)
            for cls in survey.classes
            for c in cls.certs.values()
            if isinstance(c, poset.ComposedCertificate)
            and all(i == j for i, j in c.base.index.items())
            and _unlike_pair(cls.rep)
        )
        u, v = _unlike_pair(cls.rep)
        index, intact = identity.index, dict(identity.index)
        # strictly between the ends in ball order, so both ends stay
        outsider = next(w for w in range(min(index), max(index)) if w not in index)
        expected = [{"member": _words(m), "rep": _words(cls.rep)} for m in _built_on(cls, identity)]
        # two images of one rank swapped; a member dropped; a member
        # exchanged for an element outside the interval
        for corrupt in ({u: v, v: u}, {u: None}, {u: None, outsider: outsider}):
            for k, w in corrupt.items():
                if w is None:
                    del index[k]
                else:
                    index[k] = w
            (counts, bad), _ = _run_stages(monkeypatch, 6)[CERTIFICATES]
            assert (counts, bad) == oracles.reference_certificate_verdicts(survey)
            assert bad == expected and bad
            index.clear()
            index.update(intact)
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
        # composed certificate that shares it, with its true inverse: a
        # permutation that keeps lengths, so only the covers tell
        shared, shared_inv = composed.act, composed.inv
        u, v = _unlike_pair(_source_ends(composed))
        act, inv = list(shared), list(shared_inv)
        act[u], act[v] = act[v], act[u]
        inv[act[u]], inv[act[v]] = u, v
        corrupted = tuple(act), tuple(inv)
        users = [
            (cls, m, c)
            for cls in survey.classes
            for m, c in cls.certs.items()
            if getattr(c, "act", None) is shared
        ]
        for _, _, c in users:
            c.act, c.inv = corrupted
        (counts, bad), _ = _run_stages(monkeypatch, 6)[CERTIFICATES]
        _, ref_bad = oracles.reference_certificate_verdicts(survey)
        assert ref_bad and all(w in bad for w in ref_bad)
        # the list fails as a whole: every member composed through it
        assert bad == [{"member": _words(m), "rep": _words(cls.rep)} for cls, m, _ in users]
        assert counts["invalid"] == len(users)
    finally:
        for _, _, c in users:
            c.act, c.inv = shared, shared_inv
        interval_survey.cache_clear()


def test_certificate_stage_checks_the_inverse_action(monkeypatch):
    survey = interval_survey(6)
    try:
        cls, (x, y), composed = next(
            (cls, m, c)
            for cls in survey.classes
            for m, c in cls.certs.items()
            if isinstance(c, poset.ComposedCertificate)
        )
        # apply reads inv, which is_valid never reads: with the images of
        # the member's ends swapped, apply sends x to the top of the rep
        inv = list(composed.inv)
        i, j = x.ball_index, y.ball_index
        inv[i], inv[j] = inv[j], inv[i]
        composed.inv = tuple(inv)
        assert composed.apply(x) == cls.rep[1] and composed.is_valid((x, y), cls.rep)
        (counts, bad), _ = _run_stages(monkeypatch, 6)[CERTIFICATES]
        assert bad == [{"member": _words((x, y)), "rep": _words(cls.rep)}]
        assert counts["invalid"] == 1
        assert oracles.reference_certificate_verdicts(survey)[1] == []
    finally:
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


def test_every_stage_caps_its_witnesses(monkeypatch):
    real = closedform.kl_basis_theta
    e = weyl.identity()
    monkeypatch.setattr(closedform, "kl_basis_theta", lambda idx: real(idx) + standard_basis(e))
    report = verify_closed_forms(15, 14)
    theta = next(s for s in report.suites if s.name.startswith("theta family"))
    assert not theta.passed and not report.passed
    # the counts stay exact; the report lists the first ten witnesses
    assert theta.counts == {"checked": 28, "mismatches": 28}
    assert len(theta.witnesses) == 10 and theta.witnesses[0] == [0, 0]
    assert report.to_csv_rows()[2] == [theta.name, "FAIL", json.dumps(theta.counts), 10]


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


def test_formula_fallbacks_fail_verification(monkeypatch):
    # a Theta1 closed form that lost its identity term: every Theta1
    # column raises ClosedFormError, which must fail every stage reading it
    real = closedform.kl_closed_form
    e = weyl.identity()

    def lossy(tag):
        H = real(tag)
        if tag.kind is RegionKind.THETA1:
            H = H - standard_basis(e).scale(H.coefficient(e))
        return H

    monkeypatch.setattr(closedform, "kl_closed_form", lossy)
    closedform.kl_column.cache_clear()
    report = verify_conjecture(6)
    assert not report.passed
    # each stage that reads a KL column fails with the reason; the
    # certificate stage, which reads none, still runs after the first
    assert [_failed_by_a_closed_form(s) for s in report.suites] == [True, False, True, True]
    certificates, survey = report.suites[1], interval_survey(6)
    assert certificates.passed
    certs = len(survey.intervals) - len(survey.classes)
    assert certificates.counts == {"certificates": certs, "invalid": 0}
    assert report.census == survey.census_rows()
    json.loads(report.to_json())

    lemmas = verify_lemma_suite(max_length=5, partition_bound=4)
    failed = {s.name.split(" (")[0] for s in lemmas.suites if _failed_by_a_closed_form(s)}
    assert failed == {
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


@pytest.mark.parametrize("bump", [LaurentPoly({1: -1}), LaurentPoly({-1: 1})])
def test_monotonicity_stages_report_witnesses(monkeypatch, bump):
    # corrupt h_{e,y} by bump, and P_{e,y} by -q, for one y
    y = weyl.from_word("1201")
    e = weyl.identity()
    kl_basis, kl_column = hecke.kl_basis, closedform.kl_column

    def bad_kl_basis(w, max_length=hecke.DEFAULT_KL_CAP):
        h = kl_basis(w, max_length)
        return h + standard_basis(e).scale(bump) if w == y else h

    def bad_column(w):
        column = dict(kl_column(w))
        if w == y:
            column[e] = column[e] - QPoly({1: 1})
        return column

    monkeypatch.setattr(hecke, "kl_basis", bad_kl_basis)
    monkeypatch.setattr(closedform, "kl_column", bad_column)
    report = verify_lemma_suite(max_length=4, partition_bound=2)
    suites = {s.name: s for s in report.suites}
    chains = suites["monotonicity along chains (l(y) <= 4)"]
    assert not chains.passed
    for key in ("v", "q"):
        assert any(w["y"] == y.word() and key in w for w in chains.witnesses)
    # the covers-only stage fails where the all-pairs reference fails
    ref_counts, ref_bad = oracles.reference_chain_stage(4)
    assert chains.counts["chains"] == ref_counts["chains"] and ref_bad
    closure = suites["monotonic element closure properties"]
    canonical = {"w": y.word(), "rule": "canonical monotonic"}
    # a v^-1 term keeps every coefficient difference non-negative
    assert (canonical in closure.witnesses) == (bump.min_exp() > 0)


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


def test_chain_stage_on_covers_matches_the_all_pairs_reference():
    chains = _chain_stage(8)
    ref_counts, ref_bad = oracles.reference_chain_stage(8)
    assert chains.passed and not ref_bad
    assert chains.counts == {**ref_counts, "fallbacks": 0}


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
