"""Group arithmetic, length, descents, Bruhat order, symmetries, alcoves."""

import ast
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import oracles
from bruhat_forge import regions, render, weyl
from bruhat_forge.weyl import (
    IOTA,
    RHO,
    SIGMA,
    SYMMETRY_GROUP,
    ResourceLimitError,
    bruhat_leq,
    enumerate_up_to_length,
    from_word,
    generator,
    identity,
    parse_word,
)

words = st.text(alphabet="012", max_size=14)

SRC = Path(weyl.__file__).parent


def _run_fresh(code: str) -> None:
    """Run ``code`` in a new interpreter, where no layer past the
    identity is enumerated yet, and fail with its stderr if it fails."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_from_word_examples():
    assert from_word([]) is identity()
    assert identity().length == 0
    assert from_word("1212") == from_word("21")
    assert from_word("1212").length == 2
    assert from_word("121").length == 3
    assert oracles.bfs_length("121") == 3


@pytest.mark.parametrize("word", ["\u0663\u0661", "1\u00b2", "12a", " 1"])
def test_parse_word_takes_ascii_digits_only(word):
    with pytest.raises(ValueError, match="word must be a digit string"):
        parse_word(word)


def test_words_match_shortlex_oracle():
    # and the ball is numbered in (length, word) order
    shortlex = oracles.shortlex_words(10)
    ball = enumerate_up_to_length(10)
    assert len(ball) == len(shortlex)
    for i, w in enumerate(ball):
        assert from_word(w.word()) is w
        assert w.word() == shortlex[oracles.mat_of_word(w.word())]
        assert w.ball_index == i
    assert [w.word() for w in ball] == sorted(shortlex.values(), key=lambda u: (len(u), u))


def test_word_of_a_long_element():
    # far beyond the interpreter's recursion limit
    w = from_word("012" * 500)
    assert w.length == 1500
    word = w.word()
    assert len(word) == 1500 and from_word(word) is w


def test_label_mod_three():
    assert from_word("1234321") == from_word("1201021")
    assert from_word([4, 5]) == from_word("12")


def test_multiply_examples():
    w = from_word("2101")
    assert identity() * w == w
    assert generator(1) * generator(1) == identity()
    assert from_word("12") * from_word("12") == from_word("21")


def test_inverse_examples():
    assert identity().inverse() is identity()
    assert from_word("12").inverse() == from_word("21")
    theta10 = from_word("12343")
    assert theta10.inverse() == from_word("34321")
    for w in enumerate_up_to_length(6):
        assert w * w.inverse() == identity()
        assert w.inverse().length == w.length


def test_length_examples():
    assert from_word("1234321").length == 7
    for n in range(7):
        for w in weyl.elements_of_length(n):
            assert w.length == n


@given(words)
def test_word_evaluation_against_matrix_oracle(word):
    w = from_word(word)
    assert oracles.mat_of_word(word) == oracles.mat_of_word(w.word())
    assert oracles.bfs_length(word) == w.length


@given(words, words)
def test_multiplication_against_matrix_oracle(wa, wb):
    prod = from_word(wa) * from_word(wb)
    assert oracles.mat_of_word(wa + wb) == oracles.mat_of_word(prod.word())


@given(words)
def test_canonical_word_is_reduced_and_shortlex(word):
    w = from_word(word)
    canon = w.word()
    assert len(canon) == w.length
    assert from_word(canon) == w
    # no lexicographically smaller reduced word exists one letter in
    if canon:
        first = int(canon[0])
        for s in range(first):
            assert s not in w.left_descents()


def test_descent_examples():
    assert identity().right_descents() == frozenset()
    assert identity().left_descents() == frozenset()
    assert from_word("121").left_descents() == frozenset({1, 2})
    assert from_word("1").right_descents() == frozenset({1})
    assert from_word("121").left_descents() == frozenset({1, 2})


def test_left_descents_are_right_descents_of_inverse():
    for w in enumerate_up_to_length(7):
        assert w.left_descents() == w.inverse().right_descents()


@given(words, st.integers(min_value=0, max_value=2))
def test_multiplying_by_generator_changes_length_by_one(word, s):
    w = from_word(word)
    assert abs(w.right_mult(s).length - w.length) == 1
    assert abs(w.left_mult(s).length - w.length) == 1


def test_bruhat_examples():
    t = from_word("121")
    for w in enumerate_up_to_length(5):
        assert bruhat_leq(identity(), w)
    assert bruhat_leq(generator(1), t)
    assert not bruhat_leq(generator(0), t)


def test_bruhat_agrees_with_subword_oracle_to_length_10():
    ball = enumerate_up_to_length(10)
    for y in ball:
        expected = oracles.subword_lower_set(y)
        got = {x for x in enumerate_up_to_length(y.length) if bruhat_leq(x, y)}
        assert got == expected, y.word()


def test_bruhat_strict_implies_shorter():
    ball = enumerate_up_to_length(7)
    for x, y in itertools.product(ball, repeat=2):
        if bruhat_leq(x, y) and x != y:
            assert x.length < y.length


def test_counts_per_length_are_3n():
    for n in range(1, 11):
        assert len(weyl.elements_of_length(n)) == 3 * n
    assert len(enumerate_up_to_length(0)) == 1
    assert len(enumerate_up_to_length(1)) == 4
    assert len(enumerate_up_to_length(3)) == 19


def test_counts_match_bfs_oracle():
    depths = oracles.bfs_ball(8)
    by_depth = {}
    for d in depths.values():
        by_depth[d] = by_depth.get(d, 0) + 1
    for n in range(9):
        assert by_depth[n] == len(weyl.elements_of_length(n))


def test_enumeration_hard_cap():
    with pytest.raises(ResourceLimitError):
        enumerate_up_to_length(weyl.HARD_MAX_LENGTH + 1)
    with pytest.raises(ValueError):
        enumerate_up_to_length(-1)


def test_ball_element_rejects_indices_outside_the_enumerated_ball():
    _run_fresh(
        "import pytest\n"
        "from bruhat_forge import weyl\n"
        "ball = weyl.enumerate_up_to_length(3)\n"
        "assert weyl.ball_element(len(ball) - 1) is ball[-1]\n"
        "for i in (-1, -2, len(ball), 10**6):\n"
        "    message = f'^no element with ball index {i} enumerated$'\n"
        "    with pytest.raises(IndexError, match=message):\n"
        "        weyl.ball_element(i)\n"
    )


def test_equal_elements_are_one_object():
    assert from_word("1212") is from_word("21")
    for w in enumerate_up_to_length(4):
        key = (w.lin, w.tx, w.ty)
        assert weyl._make(*key) is w
        assert w != key and key != w


def test_copies_and_pickles_are_the_interned_element():
    # x_chain(50) is built in a process whose ball stops at length 4, so
    # its copies are made before its layer is enumerated
    _run_fresh(
        "import copy, pickle\n"
        "from bruhat_forge import regions, weyl\n"
        "early = weyl.enumerate_up_to_length(4)[-1]\n"
        "late = regions.x_chain(50)\n"
        "for w in (early, late):\n"
        "    assert copy.copy(w) is w and copy.deepcopy(w) is w\n"
        "    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):\n"
        "        assert pickle.loads(pickle.dumps(w, protocol)) is w, protocol\n"
        "assert late._index is None\n"
    )


def _element_calls(node: ast.AST) -> list[ast.Call]:
    return [
        call
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and (
            isinstance(call.func, ast.Name) and call.func.id == "Element"
            or isinstance(call.func, ast.Attribute) and call.func.attr == "Element"
        )
    ]


def test_elements_are_built_only_by_make():
    # identity equality holds only while _make is the one constructor
    outside = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        make = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "_make"]
        inside = {id(call) for f in make for call in _element_calls(f)}
        if path.name == "weyl.py":
            assert len(inside) == 1
        outside += [(path.name, c.lineno) for c in _element_calls(tree) if id(c) not in inside]
    assert outside == []


def test_symmetry_generator_images():
    assert RHO.apply(generator(0)) == generator(1)
    assert RHO.apply(generator(1)) == generator(2)
    assert RHO.apply(generator(2)) == generator(0)
    assert SIGMA.apply(generator(0)) == generator(0)
    assert SIGMA.apply(generator(1)) == generator(2)
    assert IOTA.apply(from_word("12")) == from_word("21")


def test_symmetry_group_structure():
    assert len(set(SYMMETRY_GROUP)) == 12
    e = weyl.IDENTITY_SYMMETRY
    assert RHO * RHO * RHO == e
    assert SIGMA * SIGMA == e
    assert IOTA * IOTA == e
    # iota commutes with the diagram part as maps on W
    for w in enumerate_up_to_length(5):
        assert (RHO * IOTA).apply(w) == (IOTA * RHO).apply(w)
        assert (SIGMA * IOTA).apply(w) == (IOTA * SIGMA).apply(w)
    for tau in SYMMETRY_GROUP:
        inv = tau.inverse_symmetry()
        for w in enumerate_up_to_length(4):
            assert inv.apply(tau.apply(w)) == w


def test_symmetries_preserve_length_and_order():
    ball = enumerate_up_to_length(7)
    for tau in SYMMETRY_GROUP:
        for w in ball:
            assert tau.apply(w).length == w.length
    for tau in SYMMETRY_GROUP:
        for x, y in itertools.islice(itertools.product(ball, repeat=2), 0, None, 7):
            assert bruhat_leq(x, y) == bruhat_leq(tau.apply(x), tau.apply(y))


def test_diagram_automorphisms_respect_products():
    ball = enumerate_up_to_length(5)
    for tau in SYMMETRY_GROUP[:6]:
        for a, b in itertools.islice(itertools.product(ball, repeat=2), 0, None, 11):
            assert tau.apply(a * b) == tau.apply(a) * tau.apply(b)
    # inversion is an anti-automorphism
    for a, b in itertools.islice(itertools.product(ball, repeat=2), 0, None, 11):
        assert IOTA.apply(a * b) == IOTA.apply(b) * IOTA.apply(a)


def test_alcove_coordinates():
    from fractions import Fraction

    (cx, cy), up = oracles.alcove_coordinates(identity())
    assert up and (cx, cy) == (Fraction(1, 2), Fraction(1, 6))
    ball = enumerate_up_to_length(8)
    coords = {oracles.alcove_coordinates(w) for w in ball}
    assert len(coords) == len(ball)
    assert len(enumerate_up_to_length(3)) == 1 + 3 + 6 + 9


def test_generator_alcoves_share_an_edge_with_fundamental():
    base = set(render.alcove_vertices(identity()))
    for s in range(3):
        shared = base & set(render.alcove_vertices(generator(s)))
        assert len(shared) == 2


def test_orientation_flag_tracks_parity():
    for w in enumerate_up_to_length(6):
        assert oracles.orientation_up(w) == (w.length % 2 == 0)


def test_serialization_is_shortlex_over_012():
    for w in enumerate_up_to_length(6):
        assert set(w.word()) <= set("012")
        assert from_word(w.word()) == w
    assert from_word("1212").word() == "21"
    with pytest.raises(ValueError):
        from_word("12a")


def test_upper_sets_and_ball_bitsets_to_length_7():
    ball = enumerate_up_to_length(7)
    for x in ball:
        above = weyl.ball_elements(weyl.upper_set(x, 7))
        assert above == tuple(z for z in ball if bruhat_leq(x, z))
        assert weyl.upper_set(x, x.length - 1) == 0
    table = weyl.ball(7)
    assert table.lengths == tuple(w.length for w in ball)
    for i, w in enumerate(ball):
        assert weyl.ball_element(i) is w
        below = weyl.ball_elements(table.covers[i])
        assert below == tuple(z for z in ball if z.length == w.length - 1 and bruhat_leq(z, w))
    assert weyl.ball_elements(identity().ideal) == (identity(),)
    # the layer starts are those the enumeration recorded, also once it
    # has run past the table's bound
    longer = enumerate_up_to_length(12)
    assert weyl.ball(7).starts == tuple(table.lengths.index(k) for k in range(8))
    lengths = [z.length for z in longer]
    for k in range(13):
        layer, start = weyl.elements_of_length(k), lengths.index(k)
        assert longer[start : start + len(layer)] == layer
        assert lengths.count(k) == len(layer)


def test_bit_elements_read_every_mask_like_ball_elements():
    # the set-bit walk for sparse masks gives what the whole-ball walk gives
    table = weyl.ball(8)
    ideals = [w.ideal for w in enumerate_up_to_length(8)]
    for mask in [0, *table.covers, *table.uppers, *ideals, ideals[-1] ^ ideals[40]]:
        assert weyl.bit_elements(mask) == weyl.ball_elements(mask)


def test_ideal_matches_decoded_property_z():
    for w in enumerate_up_to_length(14):
        assert w.ideal == oracles.reference_ideal(w), w.word()
    # the canonical members behind the long cold `kl` calls, lengths 37-39
    for w in (
        regions.x_chain(37),
        regions.theta((9, 9)),
        regions.theta1((10, 7)),
        regions.theta2((4, 12)),
    ):
        assert 37 <= w.length <= 39
        assert w.ideal == oracles.reference_ideal(w), w.word()


# a fresh interpreter that can import the oracles as well as the package
_FRESH_ORACLES = f"import sys\nsys.path.insert(0, {str(Path(__file__).parent)!r})\nimport oracles\n"


def test_ideals_match_the_per_bit_walk_to_length_30():
    # cold, longest first, so each ideal is grown down its own chain and the
    # top layer gathers through its -1 entries; bits, and the decoded order
    _run_fresh(
        _FRESH_ORACLES + "from bruhat_forge import weyl\n"
        "ball = weyl.enumerate_up_to_length(30)\n"
        "known = {}\n"
        "for w in reversed(ball):\n"
        "    m = w.ideal\n"
        "    assert m == oracles.per_bit_ideal(w, known), w.word()\n"
        "    below = weyl.lower_interval(w)\n"
        "    assert below == oracles.per_bit_ball_elements(m), w.word()\n"
        "    assert [z.ball_index for z in below] == sorted(z.ball_index for z in below)\n"
        "    assert len(below) == m.bit_count() and below[-1] is w\n"
    )


def test_ball_elements_match_the_per_bit_walk_on_any_mask():
    enumerate_up_to_length(14)
    n = len(weyl._BALL)
    rng = random.Random(28)
    masks = [0, 1 << n - 1, (1 << n) - 1, (1 << n + 5) - 1]
    masks += [rng.getrandbits(n) for _ in range(200)]
    for mask in masks:
        decoded = weyl.ball_elements(mask)
        assert decoded == oracles.per_bit_ball_elements(mask)
        assert decoded == weyl.bit_elements(mask & (1 << n) - 1)
    assert weyl.ball_elements(0) == ()
    assert weyl.ball_elements(1 << n - 1) == (weyl._BALL[-1],)
    assert weyl.ball_elements((1 << n + 5) - 1) == tuple(weyl._BALL)


def test_generator_ideals_gather_two_entries_over_unfilled_ones():
    # with only length 1 enumerated, s maps s to e (entry 0) and the other
    # two generators past the ball (-1); the gather takes two indices
    # (e and s), so itemgetter returns a tuple, not one flag
    _run_fresh(
        "from bruhat_forge import weyl\n"
        "weyl.elements_of_length(1)\n"
        "for s in (0, 1, 2):\n"
        "    g = weyl.generator(s)\n"
        "    assert sorted(weyl._LEFT[s][1:]) == [-1, -1, 0]\n"
        "    assert g.ideal == 1 | 1 << g.ball_index, (s, g.ideal)\n"
        "    assert weyl.lower_interval(g) == (weyl.identity(), g)\n"
        "assert len(weyl._BALL) == 4\n"
    )


def test_ideals_of_the_top_layer_read_unfilled_entries_as_zero():
    # an ascent out of the top enumerated layer is -1 in _LEFT until the
    # next layer exists; the gather reads it as the padded zero flag
    _run_fresh(
        _FRESH_ORACLES + "from bruhat_forge import weyl\n"
        "top = weyl.elements_of_length(9)\n"
        "n = len(weyl._BALL)\n"
        "for w in top:\n"
        "    i = w.ball_index\n"
        "    assert [weyl._LEFT[s][i] for s in (0, 1, 2)].count(-1) == 3 - len(w._ld)\n"
        "    assert w.ideal == oracles.per_bit_ideal(w) == oracles.reference_ideal(w), w.word()\n"
        "assert len(weyl._BALL) == n and max(w.length for w in weyl._BALL) == 9\n"
    )


def test_a_long_ideal_parses_past_the_int_string_limit():
    # base-2 parsing is exempt from the int/str digit limit: an ideal of
    # more than 4300 bits still builds and decodes with the limit at 640
    _run_fresh(
        _FRESH_ORACLES + "sys.set_int_max_str_digits(640)\n"
        "from bruhat_forge import regions, weyl\n"
        "y = regions.x_chain(56)\n"
        "m = y.ideal\n"
        "assert y.length == 56 and m.bit_length() > 4300, (y.length, m.bit_length())\n"
        "assert m == oracles.per_bit_ideal(y)\n"
        "assert weyl.lower_interval(y) == oracles.per_bit_ball_elements(m)\n"
    )


def test_left_table_is_left_multiplication():
    weyl.elements_of_length(13)  # so every entry below length 13 is filled
    for i, w in enumerate(enumerate_up_to_length(12)):
        for s in (0, 1, 2):
            assert weyl._LEFT[s][i] == weyl.ball_element(i).left_mult(s).ball_index


def test_ball_matches_the_right_multiplication_reference_to_length_40():
    # the same elements in the same order, with the same words, left
    # descents and left-multiplication entries, for every length n <= 40
    ball, words, descents, left = oracles.reference_ball(40)
    assert enumerate_up_to_length(40) == tuple(ball)
    for w, word, ld in zip(ball, words, descents):
        assert (w.word(), w._ld) == (word, ld), word
    n = len(ball)
    for s in (0, 1, 2):
        # entries past length 40 are filled only once longer layers are enumerated
        assert [j if j < n else -1 for j in weyl._LEFT[s][:n]] == left[s], s


def test_enumeration_interns_only_the_ball():
    # each layer is the left ascents of the one below, so no element one
    # length past the enumerated layers is made: 1 + 3 (1 + ... + 30)
    _run_fresh(
        "from bruhat_forge import weyl\n"
        "weyl.elements_of_length(30)\n"
        "assert len(weyl._REGISTRY) == 1396, len(weyl._REGISTRY)\n"
        "assert max(w.length for w in weyl._REGISTRY.values()) == 30\n"
    )


def test_symmetry_apply_matches_the_composed_affine_maps_to_length_14():
    for tau in SYMMETRY_GROUP:
        for w in enumerate_up_to_length(14):
            assert tau.apply(w) is oracles.reference_symmetry_apply(tau, w), (tau, w)


def test_ball_actions_are_the_symmetries_on_ball_indices():
    table = weyl.ball(10)
    n = len(table.lengths)
    assert len(table.actions) == len(SYMMETRY_GROUP)
    for k, tau in enumerate(SYMMETRY_GROUP):
        act = table.actions[k]
        assert list(act) == [tau.apply(weyl.ball_element(i)).ball_index for i in range(n)]
        assert sorted(act) == list(range(n))
        assert all(table.lengths[j] == table.lengths[i] for i, j in enumerate(act))
        undo = table.actions[SYMMETRY_GROUP.index(tau.inverse_symmetry())]
        assert [undo[j] for j in act] == list(range(n))
        # grown layer by layer: a smaller ball holds a prefix of each list
        small = weyl.ball(6)
        assert small.actions[k] == act[: len(small.lengths)]
