"""Closed formulas vs the recursion oracle, the fast KL path, and the
identity reports."""

import pytest

import oracles
from bruhat_forge import closedform, hecke, laurent, regions, weyl
from bruhat_forge.closedform import (
    appendix_identity_check,
    kl_closed_form,
    kl_column,
    kl_fast,
    product_identity_check,
    theta2_product_form,
)
from bruhat_forge.hecke import N_element, kl_basis, standard_basis
from bruhat_forge.laurent import LaurentPoly, QPoly, to_q
from bruhat_forge.regions import RegionKind, RegionTag, ThetaIndex, theta, theta1, theta2, x_chain
from bruhat_forge.weyl import (
    IDENTITY_SYMMETRY,
    RHO,
    SYMMETRY_BY_NAME,
    SYMMETRY_GROUP,
    from_word,
    identity,
)

V = LaurentPoly({1: 1})
V2 = LaurentPoly({2: 1})
RHO2 = RHO * RHO


def family(kind, idx):
    """The closed form of the family member x_idx, theta(idx), theta1(idx)
    or theta2(idx) (kind "x", "theta", "theta1", "theta2"), through its
    region tag."""
    return kl_closed_form(RegionTag(RegionKind[kind.upper()], IDENTITY_SYMMETRY, idx))


def test_x_formula_structure():
    assert family("x", 2) == N_element(x_chain(2))
    assert family("x", 4) == N_element(x_chain(4)) + N_element(x_chain(1)).scale(V)
    tail = x_chain(1)
    assert family("x", 6) == (
        N_element(x_chain(6))
        + N_element(x_chain(3)).scale(V)
        + standard_basis(tail.left_mult(0).left_mult(1)).scale(V)
        + standard_basis(tail.left_mult(0)).scale(V2)
    )
    assert family("x", 7) == N_element(x_chain(7)) + N_element(x_chain(4)).scale(V)
    with pytest.raises(ValueError):
        family("x", 0)


def test_theta_formula_structure():
    assert family("theta", (0, 0)) == N_element(theta((0, 0)))
    assert family("theta", (1, 1)) == N_element(theta((1, 1))) + N_element(
        theta((0, 0))
    ).scale(V2)
    assert family("theta", (2, 1)) == N_element(theta((2, 1))) + N_element(
        theta((1, 0))
    ).scale(V2)


def test_theta1_formula_structure():
    assert family("theta1", (0, 0)) == N_element(theta1((0, 0)))
    assert family("theta1", (1, 0)) == N_element(theta1((1, 0))) + N_element(
        theta((0, 0))
    ).scale(V)
    assert family("theta1", (1, 1)) == (
        N_element(theta1((1, 1)))
        + family("theta", (0, 1)).scale(V)
        + family("theta", (1, 0)).scale(V)
    )


def test_theta2_formula_structure():
    expected00 = N_element(theta2((0, 0))) + N_element(weyl.generator(0)).scale(V2)
    assert family("theta2", (0, 0)) == expected00
    assert theta2_product_form((0, 0)) == expected00
    v1 = family("theta2", (1, 0))
    expected10 = (
        N_element(theta2((1, 0)))
        + hecke.M_element(theta((0, 0)).left_mult(0), RHO.apply(theta((0, 0)))).scale(V)
        + oracles.apply_symmetry(RHO2, family("theta1", (0, 0))).scale(V)
    )
    assert v1 == expected10


@pytest.mark.parametrize("n", range(1, 12))
def test_x_family_matches_oracle(n):
    assert family("x", n) == kl_basis(x_chain(n))


@pytest.mark.parametrize("m", range(4))
@pytest.mark.parametrize("n", range(4))
def test_theta_families_match_oracle_small(m, n):
    if 2 * m + 2 * n + 5 <= 13:
        assert family("theta", (m, n)) == kl_basis(theta((m, n)))
        assert family("theta1", (m, n)) == kl_basis(theta1((m, n)))
        oracle = kl_basis(theta2((m, n)))
        assert family("theta2", (m, n)) == oracle
        assert theta2_product_form((m, n)) == oracle


def test_theta2_versions_agree():
    for m in range(4):
        for n in range(4):
            assert family("theta2", (m, n)) == theta2_product_form((m, n))


def _family_members(max_length):
    """(kind, index, element) for every family member of length <= max_length."""
    out = [("x", n, x_chain(n)) for n in range(1, max_length + 1)]
    for kind, build in (("theta", theta), ("theta1", theta1), ("theta2", theta2)):
        out += [
            (kind, (m, n), build((m, n)))
            for m in range(max_length)
            for n in range(max_length)
            if build((m, n)).length <= max_length
        ]
    return out


def test_in_place_closed_forms_match_immutable_sums():
    members = _family_members(15)
    assert {kind for kind, _, _ in members} == {"x", "theta", "theta1", "theta2"}
    for kind, idx, _ in members:
        if kind == "theta2":
            for version, got in ((1, family(kind, idx)), (2, theta2_product_form(idx))):
                assert got == oracles.reference_closed_form(kind, idx, version), (idx, version)
        else:
            assert family(kind, idx) == oracles.reference_closed_form(kind, idx), (kind, idx)


def test_closed_forms_of_the_column_tops_match_immutable_sums():
    # the canonical members behind the benchmark's KL columns, lengths 22-29
    for kind, idx in (
        ("theta1", (4, 5)),
        ("theta", (5, 5)),
        ("x", 24),
        ("theta2", (2, 8)),
        ("theta1", (8, 3)),
        ("theta", (6, 6)),
        ("x", 28),
        ("theta2", (9, 3)),
    ):
        assert family(kind, idx) == oracles.reference_closed_form(kind, idx), (kind, idx)


def test_coefficients_positive_below_top():
    for kind, idx in (
        ("x", 9),
        ("theta", (1, 2)),
        ("theta1", (2, 1)),
        ("theta2", (1, 1)),
    ):
        h = family(kind, idx)
        top = max(h.support(), key=lambda w: w.length)
        for x, p in h.items():
            if x != top:
                assert p.is_nonneg() and p.min_exp() >= 1


def test_kl_fast_examples():
    assert str(kl_fast(identity(), from_word("1234"))) == "1 + q"
    assert str(kl_fast(theta((0, 0)), theta((1, 1)))) == "1 + q"
    w = from_word("2101")
    assert kl_fast(w, w) == QPoly.one()
    assert kl_fast(from_word("0"), theta((0, 0))).is_zero


def _recursion_column(y, max_length=hecke.DEFAULT_KL_CAP):
    return {
        x: to_q(h, y.length - x.length)
        for x, h in kl_basis(y, max_length=max_length).items()
    }


def test_kl_fast_matches_oracle_to_length_12():
    for y in weyl.enumerate_up_to_length(12):
        for x in weyl.lower_interval(y):
            assert kl_fast(x, y) == hecke.kl_polynomial(x, y)[1]
        column = kl_column(y)
        assert list(column) == list(weyl.lower_interval(y))
        assert column == _recursion_column(y)
    assert closedform.fallback_log() == ()


@pytest.mark.parametrize(
    "member, tau",
    [
        (x_chain(19), RHO),
        (theta((3, 5)), SYMMETRY_BY_NAME["sigma_rho2"]),
        (theta1((5, 3)), SYMMETRY_BY_NAME["rho_iota"]),
        (theta2((2, 6)), SYMMETRY_BY_NAME["sigma_iota"]),
    ],
)
def test_kl_column_matches_oracle_under_symmetry(member, tau):
    y = tau.apply(member)
    assert 18 <= y.length <= 21
    assert regions.classify(y).tau != weyl.IDENTITY_SYMMETRY
    column = kl_column(y)
    assert list(column) == list(weyl.lower_interval(y))
    assert column == _recursion_column(y, max_length=y.length)
    assert closedform.fallback_log() == ()


@pytest.mark.usefixtures("restore_closed_forms")
@pytest.mark.parametrize(
    "factor, message", [(-1, "not supported on"), (1, "no constant term 1")]
)
def test_kl_column_rejects_a_broken_closed_form(monkeypatch, factor, message):
    # add factor times the term of the canonical member itself: -1 drops
    # it, 1 repeats it
    real = closedform.closed_form_terms

    def broken(tag):
        terms = real(tag)
        return terms[1:] if factor < 0 else terms[:1] + terms

    monkeypatch.setattr(closedform, "closed_form_terms", broken)
    closedform.kl_column.cache_clear()
    y = from_word("1234")
    # a failed column is never memoized, so it fails on every call, and
    # kl_fast raises the same error: nothing answers from the recursion
    for _ in range(2):
        with pytest.raises(closedform.ClosedFormError, match=message):
            kl_column(y)
        with pytest.raises(closedform.ClosedFormError, match=message):
            kl_fast(identity(), y)
    assert closedform.fallback_log() == ()


def test_the_closed_form_route_never_reaches_the_recursion(monkeypatch):
    tops = list(weyl.enumerate_up_to_length(8)) + [
        tau.apply(member)
        for member in (x_chain(13), theta((2, 3)), theta1((3, 2)), theta2((1, 4)))
        for tau in SYMMETRY_GROUP
    ]
    expected = {y: _recursion_column(y) for y in tops}

    def forbidden(*args, **kwargs):
        raise AssertionError("the closed-form route called the recursion")

    monkeypatch.setattr(hecke, "kl_basis", forbidden)
    monkeypatch.setattr(hecke, "_kl_rows", forbidden)
    monkeypatch.setattr(hecke, "kl_polynomial", forbidden)
    kl_column.cache_clear()
    for y, column in expected.items():
        assert kl_column(y) == column
        assert all(kl_fast(x, y) == p for x, p in column.items())


def test_kl_column_holds_each_distinct_p_once():
    # equal P in a column are one object, and the column is the recursion's
    tops = list(weyl.enumerate_up_to_length(10)) + [
        tau.apply(theta2((2, 4))) for tau in SYMMETRY_GROUP
    ]
    for y in tops:
        column = kl_column(y)
        assert column == _recursion_column(y)
        assert len({id(p) for p in column.values()}) == len(set(column.values()))
    # not vacuous: the longest top's 304 P take 14 values
    top = kl_column(theta2((2, 4)))
    assert len(top) == 304 and len(set(top.values())) == 14


@pytest.mark.usefixtures("restore_closed_forms")
def test_kl_column_rejects_support_beyond_the_ideal(monkeypatch):
    real = closedform.closed_form_terms

    def wide(tag):
        # a term longer than every member of [e, y] stays outside it
        return real(tag) + [(0, (x_chain(9),), True)]

    monkeypatch.setattr(closedform, "closed_form_terms", wide)
    kl_column.cache_clear()
    with pytest.raises(closedform.ClosedFormError, match="not supported on"):
        kl_column(from_word("1234"))


@pytest.mark.usefixtures("restore_closed_forms")
@pytest.mark.parametrize("k", [0, 5])
def test_kl_column_rejects_a_term_with_an_odd_or_negative_q_exponent(monkeypatch, k):
    # v^k N_{x_1} below y = x_4 adds q^((3 - k)/2): odd at k = 0, negative at 5
    real = closedform.closed_form_terms
    monkeypatch.setattr(
        closedform, "closed_form_terms", lambda tag: real(tag) + [(k, (x_chain(1),), False)]
    )
    kl_column.cache_clear()
    y = from_word("1234")
    x = regions.classify(y).tau.apply(x_chain(1))
    message = rf"^P\({x.word()}, {y.word()}\): term v\^{k} gives q\^\({3 - k}/2\)$"
    for _ in range(2):
        with pytest.raises(closedform.ClosedFormError, match=message):
            kl_column(y)
        with pytest.raises(closedform.ClosedFormError, match=message):
            kl_fast(identity(), y)


# the canonical members of the benchmark's KL columns (lengths 22-29) and
# of its cold CLI calls (lengths 37-39)
_BENCHMARK_MEMBERS = (
    (RegionKind.THETA1, ThetaIndex(4, 5)),
    (RegionKind.THETA, ThetaIndex(5, 5)),
    (RegionKind.X, 24),
    (RegionKind.THETA2, ThetaIndex(2, 8)),
    (RegionKind.THETA1, ThetaIndex(8, 3)),
    (RegionKind.THETA, ThetaIndex(6, 6)),
    (RegionKind.X, 28),
    (RegionKind.THETA2, ThetaIndex(9, 3)),
    (RegionKind.X, 37),
    (RegionKind.THETA, ThetaIndex(9, 9)),
    (RegionKind.THETA1, ThetaIndex(10, 7)),
    (RegionKind.THETA2, ThetaIndex(4, 12)),
)


def test_kl_column_matches_the_hecke_table_reference():
    # the term masks give the column the closed form's Hecke element gives:
    # the same values in the same key order, one object per distinct P
    tops = list(weyl.enumerate_up_to_length(14)) + [
        RegionTag(kind, tau, params).reconstruct()
        for kind, params in _BENCHMARK_MEMBERS
        for tau in SYMMETRY_GROUP
    ]
    assert max(y.length for y in tops) == 39
    for y in tops:
        column, reference = kl_column(y), oracles.reference_kl_column(y)
        assert column == reference, y.word()
        assert list(column) == list(reference)
        assert len({id(p) for p in column.values()}) == len(set(column.values()))


def test_kl_column_builds_no_hecke_element_and_sorts_nothing(monkeypatch):
    tops = [tau.apply(theta2((2, 3))) for tau in SYMMETRY_GROUP]
    expected = {y: kl_column(y) for y in tops}

    def forbidden(*args, **kwargs):
        raise AssertionError("kl_column built a Hecke element, a v-polynomial or sorted elements")

    # a cold column: no closed form is memoized either
    kl_column.cache_clear()
    monkeypatch.setattr(hecke.HeckeElement, "__init__", forbidden)
    monkeypatch.setattr(hecke.HeckeElement, "support", forbidden)
    monkeypatch.setattr(weyl.Element, "sort_key", forbidden)
    monkeypatch.setattr(LaurentPoly, "__init__", forbidden)
    monkeypatch.setattr(hecke, "_add_N", forbidden)
    monkeypatch.setattr(closedform, "_add_N", forbidden)
    monkeypatch.setattr(laurent, "to_q", forbidden)
    for y in tops:
        column = kl_column(y)
        assert column == expected[y]
        assert list(column) == list(expected[y])


def test_kl_fast_symmetry_invariance():
    ball = weyl.enumerate_up_to_length(7)
    for i, y in enumerate(ball):
        lower = weyl.lower_interval(y)
        x = lower[(3 * i) % len(lower)]
        p = kl_fast(x, y)
        for tau in SYMMETRY_GROUP:
            assert kl_fast(tau.apply(x), tau.apply(y)) == p


def test_inversion_identity():
    def rho_pow(j):
        out = weyl.IDENTITY_SYMMETRY
        for _ in range(j % 3):
            out = RHO * out
        return out

    for m in range(5):
        for n in range(5):
            for j in range(3):
                lhs = rho_pow(j).apply(theta((m, n))).inverse()
                rhs = rho_pow(j + n - m).apply(theta((n, m)))
                assert lhs == rhs, (m, n, j)


def test_appendix_identity_report():
    rep = appendix_identity_check(1, 1)
    assert rep["holds"] and rep["equal"]
    assert rep["content_left"] == rep["content_right"] == 96
    assert rep["content_formula"] == 96
    assert rep["left_monotonic"] and rep["coefficientwise_geq"]
    anchors = rep["anchors"]
    assert anchors["theta(m,n)s"]["left"] == "1"
    assert anchors["theta(m-1,n)"]["left"] == "v^3 + v"
    assert anchors["theta(m,n-1)"]["left"] == "v^3 + v"
    assert anchors["theta(m-1,n-1)s"]["left"] == "v^4 + 2v^2"
    assert rep["witnesses"] == []
    for m in range(1, 4):
        for n in range(1, 4):
            assert appendix_identity_check(m, n)["holds"]
    with pytest.raises(ValueError):
        appendix_identity_check(0, 1)


def test_product_identity_reports():
    for idx in ((0, 0), (1, 0), (0, 1), (1, 1)):
        rep = product_identity_check(idx)
        assert rep["holds"], rep
        assert set(rep["checks"]) == {"s0 * theta", "theta * s", "s0 * theta * s"}


def test_left_product_with_N_splits_off_M_term():
    # the step behind the second theta2 formula: multiplying the
    # lower-interval sum of theta(m,n)s by the canonical generator of s0
    # on the left yields the bigger lower-interval sum plus v times the
    # union sum over the two flanking family elements
    rho2 = RHO * RHO
    for m in range(1, 4):
        for n in range(1, 4):
            left = hecke.mult_kl_s(N_element(theta1((m, n))), 0, "left")
            right = N_element(theta2((m, n))) + hecke.M_element(
                RHO.apply(theta1((m, n - 1))), rho2.apply(theta1((m - 1, n)))
            ).scale(V)
            assert left == right, (m, n)


def test_theta1_content_equation():
    # content bookkeeping from the single-index case: multiplying by a
    # canonical generator doubles content, and the split-off pieces add
    # up to the same total 2(3m^2 + 9m + 6)
    for m in range(1, 5):
        lhs = hecke.mult_kl_s(N_element(theta((m, 0))), regions.s_mn((m, 0)), "right")
        assert hecke.content(lhs) == 2 * (3 * m * m + 9 * m + 6)
        assert lhs == N_element(theta1((m, 0))) + N_element(theta((m - 1, 0))).scale(V)
