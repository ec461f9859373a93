"""The verification harness: suites, determinism, reports."""

import json

import pytest

from bruhat_forge import closedform, weyl
from bruhat_forge.hecke import standard_basis
from bruhat_forge.regions import RegionKind
from bruhat_forge.verify import (
    interval_survey,
    iso_class_census,
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
    rows = iso_class_census(5)
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
    report = verify_closed_forms(max_family_length=11, x_max=8, product_bound=1)
    assert report.passed
    assert all(s.counts.get("mismatches", 0) == 0 for s in report.suites)


def test_lemma_suite_small_bounds():
    report = verify_lemma_suite(
        partition_bound=8,
        lemma22_bound=2,
        boundary_bound=2,
        cardinality_bound=2,
        identity_bound=2,
        parents_bound=2,
        monotonicity_bound=7,
        z_bound=6,
        structural_bound=7,
        g_invariance_bound=6,
    )
    assert report.passed, [s.name for s in report.suites if not s.passed]


def test_report_serialization():
    report = verify_conjecture(4)
    obj = json.loads(report.to_json())
    assert obj["passed"] is True
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
    for x, y in survey.intervals[::7]:
        cid = survey.class_id[(x, y)]
        for tau in weyl.SYMMETRY_GROUP:
            assert survey.class_id[(tau.apply(x), tau.apply(y))] == cid


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
        composed = cls.certs[b].inverse().compose(cls.certs[a])
        ia, ib = build_interval(*a), build_interval(*b)
        assert composed.is_valid(ia, ib)
        assert z_preserved_check(ia, ib, composed)
        checked += 1
    assert checked > 0


def test_lemma_report_json_round_trip():
    report = verify_lemma_suite(
        partition_bound=6,
        lemma22_bound=1,
        boundary_bound=1,
        cardinality_bound=1,
        identity_bound=1,
        parents_bound=1,
        monotonicity_bound=5,
        z_bound=5,
        structural_bound=5,
        g_invariance_bound=5,
    )
    obj = json.loads(report.to_json())
    assert obj["passed"] is True
    assert len(obj["suites"]) == len(report.suites)


def test_formula_fallbacks_fail_verification(monkeypatch):
    # a Theta1 closed form that lost its identity term: every Theta1
    # column falls back to the recursion, which must not pass silently
    real = closedform.kl_closed_form
    e = weyl.identity()

    def lossy(tag):
        H = real(tag)
        if tag.kind is RegionKind.THETA1:
            H = H - standard_basis(e).scale(H.coefficient(e))
        return H

    monkeypatch.setattr(closedform, "kl_closed_form", lossy)
    closedform.kl_column.cache_clear()
    monkeypatch.setattr(closedform, "_FALLBACKS", [])
    report = verify_conjecture(6)
    conj = report.suites[0]
    assert conj.counts["fallbacks"] > 0
    assert conj.counts["violations"] == 0
    assert not conj.passed and not report.passed

    lemmas = verify_lemma_suite(
        partition_bound=4,
        lemma22_bound=1,
        boundary_bound=1,
        cardinality_bound=1,
        identity_bound=1,
        parents_bound=1,
        monotonicity_bound=5,
        z_bound=5,
        structural_bound=5,
        g_invariance_bound=5,
    )
    failed = {s.name.split(" (")[0] for s in lemmas.suites if not s.passed}
    assert failed == {
        "monotonicity along chains",
        "G-invariance of length, order, KL",
        "Z-set preservation",
        "structural Z-set lemmas",
    }
    assert all(
        s.counts["fallbacks"] > 0 for s in lemmas.suites if not s.passed
    )
