"""Families, the four-region partition, classification, and the
geometric description of theta lower intervals."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from bruhat_forge import regions, weyl
from bruhat_forge.regions import (
    RegionKind,
    ThetaIndex,
    boundary_set,
    classify,
    intersection_check,
    s_mn,
    theta,
    theta1,
    theta2,
    theta_lower_geometric,
    x_chain,
)
from bruhat_forge.weyl import SYMMETRY_GROUP, bruhat_leq, from_word, generator, identity


def test_x_chain_examples():
    assert x_chain(1) == generator(1)
    assert x_chain(3) == from_word("120")
    with pytest.raises(ValueError):
        x_chain(0)
    for n in range(1, 13):
        assert x_chain(n).length == n
        assert oracles.bfs_length(x_chain(n).word()) == n


def test_theta_examples():
    assert theta((0, 0)) == from_word("121")
    assert theta((0, 0)).length == 3
    assert theta((1, 0)) == from_word("12010")
    assert theta((1, 1)).length == 7
    with pytest.raises(ValueError):
        theta((-1, 0))


def test_family_lengths():
    for m in range(7):
        for n in range(7):
            assert theta((m, n)).length == 2 * m + 2 * n + 3
            assert theta1((m, n)).length == 2 * m + 2 * n + 4
            assert theta2((m, n)).length == 2 * m + 2 * n + 5


def test_family_words_are_reduced_by_bfs_oracle():
    for m in range(3):
        for n in range(3):
            for el in (theta((m, n)), theta1((m, n)), theta2((m, n))):
                assert oracles.bfs_length(el.word()) == el.length


def test_s_mn_examples():
    assert s_mn((0, 0)) == 0
    for m in range(1, 5):
        for n in range(1, 5):
            assert s_mn((m, n)) == s_mn((m - 1, n - 1))
    for m in range(5):
        for n in range(5):
            t = theta((m, n))
            s = s_mn((m, n))
            assert t.right_descents() == frozenset({0, 1, 2}) - {s}
            assert t.right_mult(s).length == t.length + 1


def test_theta_has_two_sided_descent_pairs():
    for m in range(4):
        for n in range(4):
            t = theta((m, n))
            assert len(t.left_descents()) == 2
            assert len(t.right_descents()) == 2
            assert 0 not in t.left_descents()


def test_theta1_theta2_words():
    assert theta1((0, 0)) == from_word("1210")
    assert theta2((0, 0)) == from_word("01210")


def test_classify_examples():
    tag = classify(generator(0))
    assert tag.kind is RegionKind.X
    assert tag.tau.name == "rho2"
    assert tag.params == 1

    tag = classify(from_word("121"))
    assert tag.kind is RegionKind.THETA
    assert tag.params == ThetaIndex(0, 0)
    assert tag.tau.name == "id"

    tag = classify(from_word("01210"))
    assert tag.kind is RegionKind.THETA2
    assert tag.params == ThetaIndex(0, 0)

    tag = classify(identity())
    assert tag.kind is RegionKind.IDENTITY


def test_classify_reconstruction_and_determinism():
    for w in weyl.enumerate_up_to_length(9):
        tag = classify(w)
        assert tag.reconstruct() == w
        again = classify(w)
        assert (again.kind, again.tau, again.params) == (tag.kind, tag.tau, tag.params)


def _matching_kinds(w):
    """All kinds w can be written in, by exhaustive orbit search."""
    kinds = set()
    L = w.length
    candidates = {RegionKind.X: [(x_chain(L), L)] if L >= 1 else []}
    for kind, shift, builder in (
        (RegionKind.THETA, 3, theta),
        (RegionKind.THETA1, 4, theta1),
        (RegionKind.THETA2, 5, theta2),
    ):
        rest = L - shift
        opts = []
        if rest >= 0 and rest % 2 == 0:
            opts = [
                (builder(ThetaIndex(m, rest // 2 - m)), ThetaIndex(m, rest // 2 - m))
                for m in range(rest // 2 + 1)
            ]
        candidates[kind] = opts
    for kind, opts in candidates.items():
        for member, _ in opts:
            for tau in SYMMETRY_GROUP:
                if tau.apply(member) == w:
                    kinds.add(kind)
    return kinds


def test_partition_is_disjoint_and_exhaustive_to_length_11():
    counts = {}
    for w in weyl.enumerate_up_to_length(11):
        if w.is_identity:
            continue
        kinds = _matching_kinds(w)
        assert len(kinds) == 1, (w.word(), kinds)
        k = next(iter(kinds))
        counts[k] = counts.get(k, 0) + 1
        assert classify(w).kind is k
    assert sum(counts.values()) == 3 * sum(range(1, 12))


def test_theta_kind_iff_two_sided_double_descents():
    for w in weyl.enumerate_up_to_length(11):
        if w.is_identity:
            continue
        two = len(w.left_descents()) == 2 and len(w.right_descents()) == 2
        assert (classify(w).kind is RegionKind.THETA) == two


def test_classify_commutes_with_symmetries():
    for w in weyl.enumerate_up_to_length(8):
        if w.is_identity:
            continue
        tag = classify(w)
        for tau in SYMMETRY_GROUP:
            other = classify(tau.apply(w))
            assert other.kind is tag.kind
            assert other.params == tag.params


# the family slots of the benchmark's columns (lengths 22-29) and cli-kl
# (lengths 37-39) workloads
BENCHMARK_SLOTS = (
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


def test_classify_matches_the_apply_every_symmetry_reference():
    for w in weyl.enumerate_up_to_length(16):
        assert classify(w) == oracles.reference_classify(w), w.word()
    for kind, params in BENCHMARK_SLOTS:
        for tau in SYMMETRY_GROUP:
            w = regions.RegionTag(kind, tau, params).reconstruct()
            assert classify(w) == oracles.reference_classify(w), (kind, params, tau)


def test_classify_applies_at_most_24_symmetries_per_top():
    # the twelve preimages of y are built once and each member is looked
    # up among them.  Run fresh, on every image of the cli-kl slots.
    code = (
        "from bruhat_forge import regions, weyl\n"
        "from bruhat_forge.regions import RegionKind, RegionTag, ThetaIndex\n"
        "apply = weyl.Symmetry.apply\n"
        "calls = []\n"
        "def counted(tau, w):\n"
        "    calls.append(tau)\n"
        "    return apply(tau, w)\n"
        f"for kind, params in {[(k.value, p) for k, p in BENCHMARK_SLOTS[8:]]!r}:\n"
        "    for tau in weyl.SYMMETRY_GROUP:\n"
        "        y = RegionTag(RegionKind(kind), tau, params).reconstruct()\n"
        "        calls.clear()\n"
        "        weyl.Symmetry.apply = counted\n"
        "        regions.classify(y)\n"
        "        weyl.Symmetry.apply = apply\n"
        "        assert len(calls) <= 24, (kind, params, tau, len(calls))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(regions.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_in_theta_lower_examples():
    for idx in ((0, 0), (1, 1), (2, 0)):
        assert oracles.in_theta_lower(identity(), idx)
    assert not oracles.in_theta_lower(generator(0), (0, 0))
    assert len(theta_lower_geometric((1, 1))) == 42


def test_geometric_membership_matches_bruhat():
    ball = weyl.enumerate_up_to_length(12)
    for m in range(4):
        for n in range(4):
            t = theta((m, n))
            for w in ball:
                assert oracles.in_theta_lower(w, (m, n)) == bruhat_leq(w, t), (
                    w.word(),
                    m,
                    n,
                )


def test_boundary_set_examples():
    b = boundary_set((0, 0))
    assert len(b) == 6
    assert theta((0, 0)) in b
    assert len(weyl.lower_interval(theta1((0, 0)))) - len(
        weyl.lower_interval(theta((0, 0)))
    ) == 6


def test_boundary_union_identity():
    for p in range(4):
        for q in range(4):
            idx = ThetaIndex(p, q)
            s = s_mn(idx)
            lower = set(weyl.lower_interval(theta(idx)))
            shifted = {w.right_mult(s) for w in boundary_set(idx)}
            assert lower | shifted == set(weyl.lower_interval(theta1(idx)))
            assert not (shifted & lower)


def test_intersection_check():
    for m, n in ((1, 1), (2, 1), (1, 2), (2, 2)):
        assert intersection_check(m, n)
    both = set(weyl.lower_interval(theta((0, 1)))) & set(
        weyl.lower_interval(theta((1, 0)))
    )
    assert len(both) == 12
    with pytest.raises(ValueError):
        intersection_check(0, 1)


def test_region_tag_json():
    assert classify(from_word("01210")).to_json_obj() == {
        "kind": "Theta2",
        "tau": "id",
        "m": 0,
        "n": 0,
    }
    obj = classify(generator(0)).to_json_obj()
    assert obj == {"kind": "X", "tau": "rho2", "chain_len": 1}


def test_symmetry_and_region_tag_are_frozen_values():
    # repr, hash and equality are those of the field tuple, so the order of
    # a set or dict of tags does not depend on how the classes are declared
    assert repr(weyl.RHO) == "Symmetry(rho)"
    tag = classify(from_word("2010201021"))
    assert repr(tag) == (
        "RegionTag(kind=<RegionKind.THETA1: 'Theta1'>, tau=Symmetry(sigma_iota), "
        "params=ThetaIndex(m=1, n=2))"
    )
    for tau in SYMMETRY_GROUP:
        assert hash(tau) == hash((tau.perm, tau.inv))
        assert weyl.Symmetry(tau.perm, tau.inv) == tau
    assert hash(tag) == hash((tag.kind, tag.tau, tag.params))
    assert regions.RegionTag(tag.kind, tag.tau, tag.params) == tag
    assert tag != classify(from_word("01210"))
    with pytest.raises(AttributeError):
        weyl.RHO.inv = True
    with pytest.raises(AttributeError):
        tag.params = ThetaIndex(0, 0)
