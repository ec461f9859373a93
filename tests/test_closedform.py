"""Closed formulas vs the recursion oracle, the fast KL path, and the
identity reports."""

import pytest

import oracles
from bruhat_forge import closedform, hecke, regions, weyl
from bruhat_forge.closedform import (
    appendix_identity_check,
    kl_basis_theta,
    kl_basis_theta1,
    kl_basis_theta2,
    kl_basis_x,
    kl_column,
    kl_fast,
    product_identity_check,
)
from bruhat_forge.hecke import N_element, kl_basis, standard_basis
from bruhat_forge.laurent import LaurentPoly, QPoly, to_q
from bruhat_forge.regions import theta, theta1, theta2, x_chain
from bruhat_forge.weyl import RHO, SYMMETRY_BY_NAME, SYMMETRY_GROUP, from_word, identity

V = LaurentPoly({1: 1})
V2 = LaurentPoly({2: 1})
RHO2 = RHO * RHO


def test_x_formula_structure():
    assert kl_basis_x(2) == N_element(x_chain(2))
    assert kl_basis_x(4) == N_element(x_chain(4)) + N_element(x_chain(1)).scale(V)
    tail = x_chain(1)
    assert kl_basis_x(6) == (
        N_element(x_chain(6))
        + N_element(x_chain(3)).scale(V)
        + standard_basis(tail.left_mult(0).left_mult(1)).scale(V)
        + standard_basis(tail.left_mult(0)).scale(V2)
    )
    assert kl_basis_x(7) == N_element(x_chain(7)) + N_element(x_chain(4)).scale(V)
    with pytest.raises(ValueError):
        kl_basis_x(0)


def test_theta_formula_structure():
    assert kl_basis_theta((0, 0)) == N_element(theta((0, 0)))
    assert kl_basis_theta((1, 1)) == N_element(theta((1, 1))) + N_element(
        theta((0, 0))
    ).scale(V2)
    assert kl_basis_theta((2, 1)) == N_element(theta((2, 1))) + N_element(
        theta((1, 0))
    ).scale(V2)


def test_theta1_formula_structure():
    assert kl_basis_theta1((0, 0)) == N_element(theta1((0, 0)))
    assert kl_basis_theta1((1, 0)) == N_element(theta1((1, 0))) + N_element(
        theta((0, 0))
    ).scale(V)
    assert kl_basis_theta1((1, 1)) == (
        N_element(theta1((1, 1)))
        + kl_basis_theta((0, 1)).scale(V)
        + kl_basis_theta((1, 0)).scale(V)
    )


def test_theta2_formula_structure():
    expected00 = N_element(theta2((0, 0))) + N_element(weyl.generator(0)).scale(V2)
    assert kl_basis_theta2((0, 0), 1) == expected00
    assert kl_basis_theta2((0, 0), 2) == expected00
    v1 = kl_basis_theta2((1, 0), 1)
    expected10 = (
        N_element(theta2((1, 0)))
        + hecke.M_element(theta((0, 0)).left_mult(0), RHO.apply(theta((0, 0)))).scale(V)
        + hecke.apply_symmetry(RHO2, kl_basis_theta1((0, 0))).scale(V)
    )
    assert v1 == expected10
    with pytest.raises(ValueError):
        kl_basis_theta2((1, 1), 3)


@pytest.mark.parametrize("n", range(1, 12))
def test_x_family_matches_oracle(n):
    assert kl_basis_x(n) == kl_basis(x_chain(n))


@pytest.mark.parametrize("m", range(4))
@pytest.mark.parametrize("n", range(4))
def test_theta_families_match_oracle_small(m, n):
    if 2 * m + 2 * n + 5 <= 13:
        assert kl_basis_theta((m, n)) == kl_basis(theta((m, n)))
        assert kl_basis_theta1((m, n)) == kl_basis(theta1((m, n)))
        oracle = kl_basis(theta2((m, n)))
        assert kl_basis_theta2((m, n), 1) == oracle
        assert kl_basis_theta2((m, n), 2) == oracle


def test_theta2_versions_agree():
    for m in range(4):
        for n in range(4):
            assert kl_basis_theta2((m, n), 1) == kl_basis_theta2((m, n), 2)


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
    formula = {"x": kl_basis_x, "theta": kl_basis_theta, "theta1": kl_basis_theta1}
    members = _family_members(15)
    assert {kind for kind, _, _ in members} == {"x", "theta", "theta1", "theta2"}
    for kind, idx, _ in members:
        if kind == "theta2":
            for version in (1, 2):
                got = kl_basis_theta2(idx, version)
                assert got == oracles.reference_closed_form(kind, idx, version), (idx, version)
        else:
            assert formula[kind](idx) == oracles.reference_closed_form(kind, idx), (kind, idx)


def test_closed_forms_of_the_column_tops_match_immutable_sums():
    # the canonical members behind the benchmark's KL columns, lengths 22-29
    for kind, idx, build in (
        ("theta1", (4, 5), kl_basis_theta1),
        ("theta", (5, 5), kl_basis_theta),
        ("x", 24, kl_basis_x),
        ("theta2", (2, 8), kl_basis_theta2),
        ("theta1", (8, 3), kl_basis_theta1),
        ("theta", (6, 6), kl_basis_theta),
        ("x", 28, kl_basis_x),
        ("theta2", (9, 3), kl_basis_theta2),
    ):
        assert build(idx) == oracles.reference_closed_form(kind, idx), (kind, idx)


def test_coefficients_positive_below_top():
    for build, idx in (
        (kl_basis_x, 9),
        (kl_basis_theta, (1, 2)),
        (kl_basis_theta1, (2, 1)),
        (kl_basis_theta2, (1, 1)),
    ):
        h = build(idx)
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


@pytest.mark.parametrize(
    "factor, message", [(-1, "not supported on"), (1, "no constant term 1")]
)
def test_kl_column_rejects_a_broken_closed_form(monkeypatch, factor, message):
    # add factor times the identity term: -1 drops it, 1 doubles it
    real = closedform.kl_closed_form

    def broken(tag):
        H = real(tag)
        term = standard_basis(identity()).scale(H.coefficient(identity()))
        return H + term.scale(LaurentPoly({0: factor}))

    monkeypatch.setattr(closedform, "kl_closed_form", broken)
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
    monkeypatch.setattr(hecke, "_kl_basis", forbidden)
    monkeypatch.setattr(hecke, "kl_polynomial", forbidden)
    for memo in (kl_column, kl_basis_x, kl_basis_theta, kl_basis_theta1, kl_basis_theta2):
        memo.cache_clear()
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


def test_kl_column_rejects_support_beyond_the_ideal(monkeypatch):
    real = closedform.kl_closed_form

    def wide(tag):
        # a term longer than every member of [e, y] stays outside it
        return real(tag) + standard_basis(x_chain(9))

    monkeypatch.setattr(closedform, "kl_closed_form", wide)
    kl_column.cache_clear()
    with pytest.raises(closedform.ClosedFormError, match="not supported on"):
        kl_column(from_word("1234"))


def test_kl_column_builds_no_hecke_element_and_sorts_nothing(monkeypatch):
    tops = [tau.apply(theta2((2, 3))) for tau in SYMMETRY_GROUP]
    expected = {y: kl_column(y) for y in tops}
    kl_column.cache_clear()

    def forbidden(*args, **kwargs):
        raise AssertionError("kl_column built a HeckeElement or sorted elements")

    monkeypatch.setattr(hecke.HeckeElement, "__init__", forbidden)
    monkeypatch.setattr(hecke.HeckeElement, "support", forbidden)
    monkeypatch.setattr(weyl.Element, "sort_key", forbidden)
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
