"""Hecke algebra: bases, the canonical recursion, N/M sums, the
coefficient apparatus, and the positivity/duality invariants."""

import ast
import pathlib
import tracemalloc

import pytest
from hypothesis import given, strategies as st

import oracles
import bruhat_forge
from bruhat_forge import closedform, hecke, regions, weyl
from bruhat_forge.hecke import (
    M_element,
    N_element,
    content,
    hecke_geq,
    is_monotonic,
    kl_basis,
    kl_polynomial,
    mult_kl_s,
    standard_basis,
)
from bruhat_forge.laurent import ONE, V, ZERO, LaurentPoly, QPoly, to_q
from bruhat_forge.weyl import ResourceLimitError, from_word, generator, identity

ID = identity()
S1 = generator(1)
T00 = from_word("121")
X4 = from_word("1234")
T11 = from_word("1234321")


def test_standard_basis():
    for w in (ID, S1, T00):
        h = standard_basis(w)
        assert h.support() == (w,)
        assert h.coefficient(w) == ONE


def test_mult_std_examples():
    mult_std = oracles.mult_std
    assert mult_std(standard_basis(ID), 1) == standard_basis(S1)
    sq = mult_std(standard_basis(S1), 1)
    assert sq.coefficient(ID) == ONE
    assert sq.coefficient(S1) == LaurentPoly({-1: 1, 1: -1})
    assert mult_std(standard_basis(S1), 2) == standard_basis(from_word("12"))


def test_mult_kl_s_examples():
    for side in ("left", "right"):
        b = mult_kl_s(standard_basis(ID), 1, side)
        assert b == kl_basis(S1)
    twice = mult_kl_s(kl_basis(S1), 1)
    assert twice == kl_basis(S1).scale(LaurentPoly({1: 1, -1: 1}))
    t00s = mult_kl_s(kl_basis(T00), 0)
    assert t00s == kl_basis(from_word("1210"))


def test_mult_sides_differ():
    h = standard_basis(from_word("12"))
    assert oracles.mult_std(h, 1, "left") != oracles.mult_std(h, 1, "right")
    with pytest.raises(ValueError):
        mult_kl_s(h, 1, "up")


def test_kl_basis_examples():
    assert kl_basis(S1) == standard_basis(S1) + standard_basis(ID).scale(V)
    assert kl_basis(X4) == N_element(X4) + N_element(S1).scale(V)
    assert kl_basis(T11) == N_element(T11) + N_element(T00).scale(LaurentPoly({2: 1}))


def test_kl_basis_cap():
    # the cap holds for an element that is already memoized, too
    kl_basis(from_word("1234"))
    with pytest.raises(ResourceLimitError):
        kl_basis(from_word("1234"), max_length=3)


def test_kl_basis_matches_immutable_recursion():
    # the ball to length 12, plus two column tops of the benchmark's shape
    tops = list(weyl.enumerate_up_to_length(12))
    tops += [weyl.SYMMETRY_BY_NAME["rho_iota"].apply(regions.theta1((4, 5))), regions.x_chain(24)]
    assert [w.length for w in tops[-2:]] == [22, 24]
    for w in tops:
        assert kl_basis(w, max_length=w.length) == oracles.reference_kl_basis(w), w.word()


def test_kl_polynomial_examples():
    for w in (ID, T00, X4):
        h, p = kl_polynomial(w, w)
        assert h == ONE and p == QPoly.one()
    h, p = kl_polynomial(ID, X4)
    assert h == LaurentPoly({4: 1, 2: 1}) and str(p) == "1 + q"
    h, p = kl_polynomial(ID, T11)
    assert h == LaurentPoly({7: 1, 5: 1}) and str(p) == "1 + q"
    h, p = kl_polynomial(generator(0), T00)
    assert h.is_zero and p.is_zero


# the widest coefficients a 32-bit balanced digit holds exactly
WIDE = 2**31 - 1


def _pack(p: LaurentPoly) -> int:
    """A row value: p, a polynomial in v, evaluated at v = 2^32."""
    return sum(c << (32 * e) for e, c in p.items())


@pytest.mark.parametrize(
    "coeffs",
    [{0: 1}, {1: -1}, {0: -1}, {2: 3, 4: -5}, {0: WIDE}, {0: -WIDE}, {1: WIDE, 2: -WIDE, 5: -1},
     {3: -WIDE, 4: WIDE}, {0: -WIDE, 1: -WIDE, 2: -WIDE}],
)
def test_rows_round_trip_with_negative_and_widest_coefficients(coeffs):
    p = LaurentPoly(coeffs)
    assert hecke._decode(_pack(p)) == p
    # the recursion's two steps: times v is a shift up by one field, and
    # v^-1 is the shift down, exact once the v^0 field is zero
    assert hecke._decode(_pack(p) << 32) == oracles.shift(p, 1)
    assert hecke._decode(_pack(oracles.shift(p, 1)) >> 32) == p


@given(st.dictionaries(st.integers(0, 16), st.integers(-WIDE, WIDE), max_size=8))
def test_rows_round_trip_any_polynomial_in_range(coeffs):
    p = LaurentPoly(coeffs)
    assert hecke._decode(_pack(p)) == p


def _down_step_row():
    """w, s w, the rows of s w for s = min D_L(w), and a ball index x in
    them with s x < x: the rows the recursion shifts down by one field."""
    w = from_word("12101")
    s = min(w.left_descents())
    sw = w.left_mult(s)
    base = dict(hecke._kl_rows(sw))
    x = next(i for i in base if weyl.ball_element(i).left_mult(s).ball_index < i)
    return w, sw, base, x, weyl.ball_element(x).left_mult(s).ball_index


def test_the_v_inverse_step_raises_on_a_row_with_a_v0_term(monkeypatch):
    # a row x of C_sw with s x < x must lie in v Z[v]; give one a
    # constant term and the recursion for w must refuse it
    real = hecke._kl_rows
    w, sw, base, x, _ = _down_step_row()
    base[x] += 1
    monkeypatch.setattr(hecke, "_kl_rows", lambda u: base if u is sw else real(u))
    with pytest.raises(ArithmeticError, match="v\\^0"):
        real.__wrapped__(w)
    monkeypatch.undo()
    assert real.__wrapped__(w) == real(w)


def test_a_negative_mu_is_subtracted_exactly(monkeypatch):
    # subtract 2v H_x from C_sw at an x with s x < x, so that mu(x, sw),
    # at most 1 here, turns negative: (H_s + v) carries -2v H_x to
    # -2v H_sx - 2 H_x, and mu drops by two, so 2 C_x is added back
    real = hecke._kl_rows
    w, sw, base, x, sx = _down_step_row()
    base[x] -= 2 << 32
    assert hecke._decode(base[x]).coefficient(1) < 0
    expected = dict(real(w))
    expected[sx] = expected.get(sx, 0) - (2 << 32)
    expected[x] = expected.get(x, 0) - 2
    for z, h in real(weyl.ball_element(x)).items():
        expected[z] = expected.get(z, 0) + 2 * h
    monkeypatch.setattr(hecke, "_kl_rows", lambda u: base if u is sw else real(u))
    got = real.__wrapped__(w)
    assert {z: h for z, h in got.items() if h} == {z: h for z, h in expected.items() if h}


def test_kl_polynomial_matches_the_immutable_recursion():
    for w in weyl.enumerate_up_to_length(10):
        ref = oracles.reference_kl_basis(w)
        for x in weyl.lower_interval(w):
            h = ref.coefficient(x)
            assert kl_polynomial(x, w) == (h, to_q(h, w.length - x.length)), (x.word(), w.word())


def test_kl_polynomial_off_the_interval_and_above_the_cap():
    zero = (ZERO, QPoly.zero())
    # same length, shorter and not below, and far longer than the ball
    assert kl_polynomial(generator(0), S1) == zero
    assert kl_polynomial(from_word("20"), T00) == zero
    assert kl_polynomial(regions.x_chain(70), S1) == zero
    with pytest.raises(ResourceLimitError, match="^kl_basis at length 25 exceeds the cap 24$"):
        kl_polynomial(ID, regions.x_chain(25))


def test_kl_mismatches_is_exact():
    # a column read off the recursion agrees everywhere, its P shared or
    # not; an entry made wrong, dropped, of degree past l(y)/2, or moved
    # by 2^64 q^j - q^(j-1), which packs to the true int at v = 2^32
    # when nothing checks the 32-bit field range, is named
    y = regions.theta2((1, 2))
    column = {x: kl_polynomial(x, y)[1] for x in weyl.lower_interval(y)}
    assert hecke.kl_mismatches(y, column) == []
    shared = {}
    assert hecke.kl_mismatches(y, {x: shared.setdefault(p, p) for x, p in column.items()}) == []
    assert len(shared) < len(column)
    wrong, lost, deep, wide = [x for x, p in column.items() if p.degree() >= 1][:4]
    column[wrong] = column[wrong] + QPoly({0: 1})
    del column[lost]
    column[deep] = column[deep] + QPoly({y.length // 2 + 1: 1})
    j = column[wide].degree()
    column[wide] = column[wide] + QPoly({j: 1 << 64, j - 1: -1})
    named = sorted([wrong, lost, deep, wide], key=lambda x: x.ball_index)
    assert hecke.kl_mismatches(y, column) == named
    assert [x for x in weyl.lower_interval(y) if kl_polynomial(x, y)[1] != column.get(x)] == named
    with pytest.raises(ResourceLimitError, match="cap 24$"):
        hecke.kl_mismatches(regions.x_chain(25), {})


def test_kl_mismatches_reads_no_ball_table(monkeypatch):
    # the lengths come off the decoded elements: no ball table is built
    y = regions.x_chain(12)
    assert y.length == 12
    column = closedform.kl_column(y)
    monkeypatch.setattr(weyl, "ball", lambda *a: pytest.fail("kl_mismatches read weyl.ball"))
    assert hecke.kl_mismatches(y, column) == []


def test_kl_basis_shares_one_polynomial_per_row_value():
    # the rows are the one memo; each call decodes them afresh, and equal
    # row values give one LaurentPoly within a column
    y = regions.x_chain(14)
    first, again = kl_basis(y), kl_basis(y)
    rows = hecke._kl_rows(y)
    shared = {}
    for x, h in first.items():
        assert again.coefficient(x) == h
        assert shared.setdefault(rows[x.ball_index], h) is h
    assert len(shared) < len(first)


def test_cold_recursion_peak_memory_stays_small():
    # a cold column of length 24, the recursion cap: the rows of every
    # element it reaches and the decoded column, with the ball built first
    y = regions.x_chain(24)
    weyl.elements_of_length(y.length)
    hecke._kl_rows.cache_clear()
    tracemalloc.start()
    try:
        hecke.kl_basis(y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_N_element_examples():
    assert N_element(ID) == standard_basis(ID)
    assert N_element(S1) == kl_basis(S1)
    assert content(N_element(T00)) == 6
    # the lemma suite counts lower ideals by their bitsets: the content of
    # N_w, the old route, is the reference
    for w in weyl.enumerate_up_to_length(12):
        assert content(N_element(w)) == w.ideal.bit_count(), w.word()


def test_M_element_examples():
    for w in (S1, T00, X4):
        assert M_element(w, w) == N_element(w)
    # symmetric exactly when the lengths agree
    ball = weyl.enumerate_up_to_length(4)
    for i, x in enumerate(ball):
        y = ball[(7 * i + 3) % len(ball)]
        assert (M_element(x, y) == M_element(y, x)) == (x.length == y.length)


def test_M_content_formula_value():
    # |union of the two flanking lower intervals| at (m, n) = (1, 1)
    a = weyl.RHO.apply(regions.theta1((1, 0)))
    b = (weyl.RHO * weyl.RHO).apply(regions.theta1((0, 1)))
    assert content(M_element(a, b)) == 38
    # the lemma suite's cardinalities are bitset counts: the content of
    # N and M, the old route, is the reference over its whole grid
    singles, pairs = _cardinality_tops()
    for x in singles:
        assert content(N_element(x)) == x.ideal.bit_count(), x.word()
    for a, b in pairs:
        assert content(M_element(a, b)) == (a.ideal | b.ideal).bit_count(), (a.word(), b.word())


def test_G_coefficient():
    assert standard_basis(ID).coefficient(ID) == ONE
    assert standard_basis(ID).coefficient(S1).is_zero
    assert kl_basis(T11).coefficient(T00) == LaurentPoly({4: 1, 2: 1})


def test_content_examples():
    for w in (ID, S1, T11):
        assert content(standard_basis(w)) == 1
    assert content(N_element(regions.theta1((0, 0)))) == 12
    assert content(N_element(regions.theta2((0, 0)))) == 22


def test_content_multiplicative_at_v_equals_one():
    h = N_element(T00)
    assert content(mult_kl_s(h, 0)) == 2 * content(h)


def test_is_monotonic_examples():
    # N_w is monotonic by construction; the lemma suite checks it only at
    # its closure samples (l(w) <= 5), so every N_w up to 12 is checked here
    for w in weyl.enumerate_up_to_length(12):
        assert is_monotonic(N_element(w)), w.word()
    for w in weyl.enumerate_up_to_length(4):
        assert is_monotonic(kl_basis(w))
    assert not is_monotonic(standard_basis(S1))
    assert not is_monotonic(standard_basis(ID).scale(LaurentPoly({0: -1})))


def test_is_monotonic_on_covers_matches_all_pairs():
    for w in weyl.enumerate_up_to_length(12):
        for H in (N_element(w), kl_basis(w)):
            assert is_monotonic(H) == oracles.reference_is_monotonic(H), w.word()
    # the corrupted inputs of the monotonicity tests: bare or negated
    # standard terms, and h_{e,y} bumped by -v or by v^-1
    y = from_word("1201")
    for H in (
        standard_basis(S1),
        standard_basis(ID).scale(LaurentPoly({0: -1})),
        kl_basis(y) + standard_basis(ID).scale(LaurentPoly({1: -1})),
        kl_basis(y) + standard_basis(ID).scale(LaurentPoly({-1: 1})),
    ):
        assert is_monotonic(H) == oracles.reference_is_monotonic(H)


def test_hecke_geq_examples():
    h = kl_basis(T00)
    assert hecke_geq(h, h)
    assert hecke_geq(N_element(T00), standard_basis(T00))
    assert not hecke_geq(standard_basis(T00), N_element(T00))


def test_equality_principle():
    # coefficientwise order plus equal content forces equality
    a = N_element(X4)
    b = N_element(X4)
    assert hecke_geq(a, b) and content(a) == content(b) and a == b


def test_unitriangularity_to_length_12():
    for w in weyl.enumerate_up_to_length(12):
        basis = kl_basis(w)
        assert basis.coefficient(w) == ONE
        for x, p in basis.items():
            if x == w:
                continue
            assert x.length < w.length
            assert p.is_nonneg() and oracles.min_exp(p) >= 1, (x.word(), w.word())


def test_kl_basis_support_is_the_full_lower_interval():
    # constant terms of the q-polynomials are 1, so no coefficient
    # below the top can vanish
    for w in weyl.enumerate_up_to_length(9):
        assert kl_basis(w).support() == weyl.lower_interval(w)


def test_round_trip_h_and_p_to_length_12():
    from bruhat_forge.laurent import from_q, to_q

    for w in weyl.enumerate_up_to_length(12):
        basis = kl_basis(w)
        for x, h in basis.items():
            ldiff = w.length - x.length
            assert from_q(to_q(h, ldiff), ldiff) == h


def test_bar_self_duality_to_length_10():
    for w in weyl.enumerate_up_to_length(10):
        basis = kl_basis(w)
        assert oracles.bar_involution(basis) == basis, w.word()


def test_bar_on_standard_basis_is_involutive():
    for w in weyl.enumerate_up_to_length(5):
        h = standard_basis(w)
        assert oracles.bar_involution(oracles.bar_involution(h)) == h


def test_apply_symmetry_on_hecke():
    for tau in weyl.SYMMETRY_GROUP:
        img = oracles.apply_symmetry(tau, kl_basis(T00))
        assert img == kl_basis(tau.apply(T00))


def test_json_round_trip():
    h = kl_basis(X4)
    obj = h.to_json_obj()
    assert obj == sorted(obj, key=lambda r: (len(r["element"]), r["element"]))


def test_sums_are_taken_key_by_key_in_order():
    # self's terms first, then those only other has; cancelled terms drop
    pairs = [
        (kl_basis(T11), N_element(X4).scale(V)),
        (standard_basis(ID), kl_basis(S1)),
        (kl_basis(X4), N_element(X4)),
        (kl_basis(T00), kl_basis(T00)),
        (hecke.HeckeElement(), kl_basis(T00)),
    ]
    for a, b in pairs:
        keys = list(dict.fromkeys([*a._m, *b._m]))
        for total, sign in ((a + b, 1), (a - b, -1)):
            expected = {x: a.coefficient(x) + b.coefficient(x) * sign for x in keys}
            assert list(total._m.items()) == [(x, p) for x, p in expected.items() if p]


def test_from_monomials_sums_and_drops_cancelled_terms():
    triples = [(S1, 1, 2), (ID, 0, 1), (S1, 1, -2), (ID, 0, -1), (T00, -1, 3)]
    assert hecke.HeckeElement.from_monomials(triples[:4]) == hecke.HeckeElement()
    assert not hecke.HeckeElement.from_monomials(triples[:4])
    assert not hecke.HeckeElement.from_monomials([])
    total = hecke.HeckeElement.from_monomials(triples + [(T00, 2, 1), (T00, -1, 1)])
    assert total == hecke.HeckeElement({T00: LaurentPoly({-1: 4, 2: 1})})
    assert total.support() == (T00,)


def _closure_sample():
    """The monotonic-closure pairs of verify_lemma_suite: (w, u, s) over
    the elements to length 5."""
    sample = weyl.enumerate_up_to_length(5)
    return [(w, sample[(i * 7 + 3) % len(sample)], i % 3) for i, w in enumerate(sample)]


def _cardinality_tops():
    """The N and M tops of the cardinality-polynomial stage."""
    from bruhat_forge.verify import CARDINALITY_BOUND

    rho, rho2 = weyl.RHO, weyl.RHO * weyl.RHO
    indices = [(m, n) for m in range(CARDINALITY_BOUND + 1) for n in range(CARDINALITY_BOUND + 1)]
    singles = [build(i) for i in indices for build in (regions.theta, regions.theta1, regions.theta2)]
    pairs = [
        (rho.apply(regions.theta1((m, n - 1))), rho2.apply(regions.theta1((m - 1, n))))
        for m, n in indices
        if m >= 1 and n >= 1
    ]
    return singles, pairs


def test_N_M_and_sums_match_the_table_reference_on_the_lemma_samples():
    singles, pairs = _cardinality_tops()
    closure = _closure_sample()
    assert (len(singles), len(pairs), len(closure)) == (75, 16, 46)
    for x in singles + [w for w, _, _ in closure]:
        assert N_element(x) == oracles.table_N_element(x), x.word()
    for x, y in pairs + [(w, u) for w, u, _ in closure]:
        assert M_element(x, y) == oracles.table_M_element(x, y), (x.word(), y.word())
    for w, u, _ in closure:
        for a, b in ((N_element(w), kl_basis(u)), (kl_basis(u), N_element(w).scale(V))):
            assert a + b == oracles.table_add(a, b), (w.word(), u.word())
            assert a - b == oracles.table_add(a, b, -1), (w.word(), u.word())
            assert not a - a and a - a == hecke.HeckeElement()


def test_mult_kl_s_matches_the_table_reference():
    # both sides and every s: a descent puts v^-1 on H_x
    descents = 0
    for w in weyl.enumerate_up_to_length(6):
        for H in (N_element(w), kl_basis(w), standard_basis(w)):
            for s in range(3):
                for side in ("left", "right"):
                    got = mult_kl_s(H, s, side)
                    assert got == oracles.table_mult_kl_s(H, s, side), (w.word(), s, side)
                    descents += any(
                        p.coefficient(-1) for p in (got.coefficient(x) for x in H.support())
                    )
    assert descents > 0


def _imported_modules(source: str) -> set[str]:
    """The package modules that ``source`` imports, relatively (``from .``)
    or by the absolute name bruhat_forge, at module level or inside a
    function.  A package name that is not a module counts as the module it
    loads lazily (bruhat_forge._LAZY), or else as __init__."""
    package = pathlib.Path(bruhat_forge.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name.split(".") + ["__init__"] for alias in node.names]
            found.update(path[1] for path in paths if path[0] == "bruhat_forge")
            continue
        if not isinstance(node, ast.ImportFrom):
            continue
        path = (node.module or "").split(".")
        if node.level == 0 and path[0] == "bruhat_forge":
            path = path[1:]
        elif node.level != 1:
            continue
        if path and path[0]:  # from .m import name, from bruhat_forge.m import name
            found.add(path[0])
        else:  # from . import name, from bruhat_forge import name
            for alias in node.names:
                name = alias.name
                found.add(name if name in modules else bruhat_forge._LAZY.get(name, "__init__"))
    return found


def _package_imports() -> dict[str, set[str]]:
    """module -> the package modules it imports; importing the package
    itself reaches every module its lazy names load."""
    package = pathlib.Path(bruhat_forge.__file__).parent
    graph = {path.stem: _imported_modules(path.read_text()) for path in package.glob("*.py")}
    graph["__init__"] |= set(bruhat_forge._LAZY.values())
    return graph


@pytest.mark.parametrize(
    "source, modules",
    [
        ("from . import closedform", {"closedform"}),
        ("from .closedform import kl_column", {"closedform"}),
        ("from bruhat_forge import closedform", {"closedform"}),
        ("from bruhat_forge.closedform import kl_column", {"closedform"}),
        ("import bruhat_forge.closedform as cf", {"closedform"}),
        ("from bruhat_forge import kl_column", {"closedform"}),
        ("def f():\n    from bruhat_forge import hecke, weyl", {"hecke", "weyl"}),
        ("import bruhat_forge", {"__init__"}),
        ("from bruhat_forge import Element", {"__init__"}),
        ("import itertools\nfrom collections import Counter", set()),
    ],
)
def test_the_import_walker_sees_every_package_import(source, modules):
    assert _imported_modules(source) == modules


def _reachable(graph: dict[str, set[str]], start: str) -> set[str]:
    seen, frontier = set(), [start]
    while frontier:
        for name in graph.get(frontier.pop(), ()):
            if name not in seen:
                seen.add(name)
                frontier.append(name)
    return seen


def test_recursion_cannot_reach_the_closed_forms():
    # the recursion oracle checks the closed forms only while no chain of
    # imports, at module level or inside a function, leads from it to them
    graph = _package_imports()
    assert "closedform" not in _reachable(graph, "hecke")
    assert {"weyl", "laurent"} <= _reachable(graph, "hecke")
    # the walk does find the closed forms where they are imported, and
    # through the package's lazy names
    assert "closedform" in _reachable(graph, "verify")
    assert "closedform" in _reachable(graph, "__init__")


def test_the_poset_layer_cannot_reach_the_kl_code():
    # isomorphism is decided without P: no chain of imports leads from poset
    # to a KL module, so "isomorphic intervals share P" compares two
    # independent invariants; hashlib loads inside fingerprint alone
    graph = _package_imports()
    reach = _reachable(graph, "poset")
    assert not reach & {"closedform", "hecke", "regions", "laurent"}
    assert reach == {"weyl"}
    tree = ast.parse((pathlib.Path(bruhat_forge.__file__).parent / "poset.py").read_text())

    def hashlib_imports(node):
        return [
            n
            for n in ast.walk(node)
            if isinstance(n, ast.Import) and "hashlib" in {a.name for a in n.names}
            or isinstance(n, ast.ImportFrom) and n.module == "hashlib"
        ]

    fingerprint = next(n for n in tree.body if getattr(n, "name", None) == "fingerprint")
    assert hashlib_imports(tree) == hashlib_imports(fingerprint) != []


def test_closedform_uses_only_public_hecke_names():
    # only hecke decides how a Hecke element is stored: closedform imports
    # no private name from it and reads no private attribute of the module
    package = pathlib.Path(bruhat_forge.__file__).parent
    tree = ast.parse((package / "closedform.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "hecke"
        for alias in node.names
    }
    assert "HeckeElement" in imported
    assert not {name for name in imported if name.startswith("_") or name == "Table"}
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "hecke"
    }
    assert "mult_kl_s" in read
    assert not {name for name in read if name.startswith("_")}
    # and hecke imports nothing from closedform, in any form
    for node in ast.walk(ast.parse((package / "hecke.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            assert "closedform" not in (node.module or "")
            assert "closedform" not in {alias.name for alias in node.names}
        if isinstance(node, ast.Import):
            assert not any("closedform" in alias.name for alias in node.names)
