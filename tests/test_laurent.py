"""Exact Laurent/q polynomial arithmetic and the normalization passage."""

import random

import pytest
from hypothesis import given, strategies as st

import oracles
from bruhat_forge.laurent import (
    LaurentPoly,
    QPoly,
    ShapeError,
    V,
    from_q,
    to_q,
)

pairs = st.lists(
    st.tuples(st.integers(-20, 20), st.integers(-50, 50)), max_size=8
)
qpairs = st.lists(
    st.tuples(st.integers(0, 20), st.integers(-50, 50)), max_size=8
)


def L(d):
    return LaurentPoly(d)


def test_ring_examples():
    v = V
    assert v + oracles.neg(v) == LaurentPoly.zero()
    assert not (v - v)
    p = L({1: 1, -1: 1})
    assert p * p == L({2: 1, 0: 2, -2: 1})
    assert L({0: 1, 1: 1}) * L({0: 1, 1: -1}) == L({0: 1, 2: -1})


def test_bar_examples():
    assert oracles.bar(V) == L({-1: 1})
    assert oracles.bar(LaurentPoly.one()) == LaurentPoly.one()
    assert oracles.bar(L({2: 1, 1: 3})) == L({-2: 1, -1: 3})


def test_bar_is_ring_homomorphism_on_1000_random_pairs():
    rng = random.Random(20240809)

    def rand_poly():
        return LaurentPoly(
            {rng.randint(-12, 12): rng.randint(-9, 9) for _ in range(rng.randint(0, 6))}
        )

    for _ in range(1000):
        p, q = rand_poly(), rand_poly()
        assert oracles.bar(oracles.bar(p)) == p
        assert oracles.bar(p + q) == oracles.bar(p) + oracles.bar(q)
        assert oracles.bar(p * q) == oracles.bar(p) * oracles.bar(q)


@given(pairs, pairs)
def test_arithmetic_matches_dense_oracle(pa, pb):
    p = oracles.laurent_from_pairs(pa)
    q = oracles.laurent_from_pairs(pb)
    assert (p * q).to_pairs() == oracles.dense_mul(pa, pb)
    assert (p + q).to_pairs() == oracles.dense_add(pa, pb)


@given(pairs, pairs, st.integers(-50, 50))
def test_subtraction_matches_dense_oracle(pa, pb, n):
    p = oracles.laurent_from_pairs(pa)
    q = oracles.laurent_from_pairs(pb)
    minus_q = [(e, -c) for e, c in pb]
    assert (p - q).to_pairs() == oracles.dense_add(pa, minus_q)
    assert oracles.rsub(n, q).to_pairs() == oracles.dense_add([(0, n)], minus_q)
    assert (q - n).to_pairs() == oracles.dense_add(pb, [(0, -n)])


@given(pairs, pairs, st.integers(-5, 5))
def test_dominates_is_the_sign_of_the_difference(pa, pb, k):
    p = oracles.laurent_from_pairs(pa)
    q = oracles.laurent_from_pairs(pb)
    assert p.dominates(q, k) == (p - oracles.shift(q, k)).is_nonneg()
    assert p.dominates(p, 0)
    qa = QPoly({e + 20: c for e, c in p.to_pairs()})
    qb = QPoly({e + 20: c for e, c in q.to_pairs()})
    assert qa.dominates(qb) == (qa - qb).is_nonneg()


@given(qpairs, qpairs, st.integers(0, 6))
def test_qpoly_shares_the_sparse_core(pa, pb, extra):
    p = QPoly(dict(oracles.dense_add(pa, [])))
    q = QPoly(dict(oracles.dense_add(pb, [])))
    assert (p + q).to_pairs() == oracles.dense_add(pa, pb)
    assert (p - q).to_pairs() == oracles.dense_add(pa, [(e, -c) for e, c in pb])
    # equal polynomials hash equally, however they were built
    assert p + q == q + p and hash(p + q) == hash(q + p)
    assert (p - q) + q == p and hash((p - q) + q) == hash(p)
    lp = oracles.laurent_from_pairs(pa)
    assert lp == LaurentPoly(dict(p.items())) and hash(lp) == hash(LaurentPoly(dict(p.items())))
    # the two types never compare equal, from either side
    d = dict(p.items())
    if d:
        assert LaurentPoly(d) != QPoly(d) and QPoly(d) != LaurentPoly(d)
    # to_q builds its result without cleaning; it must match a cleaned one
    ldiff = 2 * max(p.degree(), 0) + extra
    r = to_q(from_q(p, ldiff), ldiff)
    assert type(r) is QPoly
    assert r == QPoly(dict(r.items())) and hash(r) == hash(QPoly(dict(r.items())))


def test_to_q_examples():
    assert to_q(L({4: 1, 2: 1}), 4) == QPoly({0: 1, 1: 1})
    for k in (0, 1, 5):
        assert to_q(L({k: 1}), k) == QPoly.one()
    assert to_q(L({7: 1, 5: 1}), 7) == QPoly({0: 1, 1: 1})
    assert to_q(LaurentPoly.zero(), 3) == QPoly.zero()


def test_to_q_shape_violations():
    with pytest.raises(ShapeError):
        to_q(L({3: 1, 2: 1}), 3)  # parity
    with pytest.raises(ShapeError):
        to_q(L({5: 1}), 3)  # exponent above ldiff
    with pytest.raises(ShapeError):
        to_q(L({0: 1}), -1)


@given(st.lists(st.tuples(st.integers(0, 8), st.integers(-20, 20)), max_size=6),
       st.integers(0, 10))
def test_to_q_round_trip(qpairs, extra):
    p = QPoly(
        {e: c for e, c in dict(qpairs).items() if c}
    )
    ldiff = 2 * (p.degree() if p.degree() > 0 else 0) + extra
    assert to_q(from_q(p, ldiff), ldiff) == p


def test_is_nonneg_and_evaluate():
    assert (QPoly({0: 1, 1: 1}) - QPoly({1: 1})).is_nonneg()
    assert not L({1: 1, 2: -1}).is_nonneg()
    assert L({3: 1, 1: 2}).evaluate_at_one() == 3
    assert LaurentPoly.zero().evaluate_at_one() == 0
    assert QPoly({0: 1, 1: 2}).evaluate_at_one() == 3


def test_text_forms():
    assert str(L({4: 1, 2: 1})) == "v^4 + v^2"
    assert str(QPoly({0: 1, 1: 1})) == "1 + q"
    assert str(L({-2: 1, -1: 3})) == "3v^-1 + v^-2"
    assert str(L({1: 1, 2: -1})) == "-v^2 + v"
    assert str(LaurentPoly.zero()) == "0"
    assert str(QPoly({1: 1})) == "q"


def test_json_pairs_sorted_ascending():
    p = L({4: 1, -2: 3, 0: -1})
    assert p.to_pairs() == [[-2, 3], [0, -1], [4, 1]]
    assert oracles.laurent_from_pairs((e, c) for e, c in p.to_pairs()) == p


def test_qpoly_rejects_negative_exponents():
    with pytest.raises(ValueError):
        QPoly({-1: 1})


def test_coefficient_list():
    assert QPoly({0: 1, 2: 5}).coefficient_list() == [1, 0, 5]
    assert QPoly.zero().coefficient_list() == [0]
