"""Seeded inputs and the checks made apart from the program's own routes.

Everything here is a pure function of the seed.  The program receives
only the generated elements or words.
"""

from __future__ import annotations

import random

from bruhat_forge import hecke, regions, weyl
from bruhat_forge.laurent import QPoly, to_q
from bruhat_forge.regions import RegionKind, ThetaIndex

# The family parameters of every slot are fixed and mix balanced and skewed
# shapes; the seed draws the symmetry (and, for cli-kl, x).  Symmetry images
# have isomorphic lower intervals, so the work a slot asks for does not
# depend on the seed, while the elements the program sees do.

# columns: computed in this order, lengths 22..29
COLUMN_SLOTS = (
    (RegionKind.THETA1, ThetaIndex(4, 5)),  # length 22
    (RegionKind.THETA, ThetaIndex(5, 5)),  # 23
    (RegionKind.X, 24),
    (RegionKind.THETA2, ThetaIndex(2, 8)),  # 25
    (RegionKind.THETA1, ThetaIndex(8, 3)),  # 26
    (RegionKind.THETA, ThetaIndex(6, 6)),  # 27
    (RegionKind.X, 28),
    (RegionKind.THETA2, ThetaIndex(9, 3)),  # 29
)

# cli-kl miss and hit passes: (slot, whether x is a seeded subword of y)
CLI_SLOTS = (
    ((RegionKind.X, 37), False),
    ((RegionKind.THETA, ThetaIndex(9, 9)), True),  # length 39
    ((RegionKind.THETA1, ThetaIndex(10, 7)), False),  # 38
    ((RegionKind.THETA2, ThetaIndex(4, 12)), True),  # 37
)

# Calls with the default --via both above the recursion cap (24).  They do
# not depend on the seed: each one fails the same way on every run until
# the CLI reports an unavailable cross-check instead of exiting 1.
FAULT_PAIRS = (
    ("", regions.x_chain(26).word()),
    ("", regions.theta1((5, 6)).word()),
)


def image(kind: RegionKind, params, tau: weyl.Symmetry) -> dict:
    y = regions.RegionTag(kind, tau, params).reconstruct()
    return {"kind": kind, "params": params, "tau": tau.name, "y": y}


def seeded_symmetry(rng: random.Random) -> weyl.Symmetry:
    return weyl.SYMMETRY_GROUP[rng.randrange(len(weyl.SYMMETRY_GROUP))]


def column_tops(seed: int) -> list[dict]:
    rng = random.Random(f"columns/{seed}")
    return [image(kind, params, seeded_symmetry(rng)) for kind, params in COLUMN_SLOTS]


def cli_pairs(seed: int) -> list[tuple[str, str]]:
    """(x word, y word) pairs; x is the identity or a seeded subword of y."""
    rng = random.Random(f"cli-kl/{seed}")
    pairs = []
    for (kind, params), subword in CLI_SLOTS:
        y = image(kind, params, seeded_symmetry(rng))["y"]
        x = weyl.identity()
        if subword:
            word = y.word()
            drop = set(rng.sample(range(len(word)), rng.randint(2, 10)))
            x = weyl.from_word("".join(c for i, c in enumerate(word) if i not in drop))
        pairs.append((x.word(), y.word()))
    return pairs


def cardinality(kind: RegionKind, params) -> int | None:
    """|[e, y]| for a theta-family image, by the cardinality polynomials."""
    if kind is RegionKind.X:
        return None
    m, n = params
    base = 3 * m * m + 3 * n * n + 12 * m * n
    return base + {
        RegionKind.THETA: 9 * m + 9 * n + 6,
        RegionKind.THETA1: 15 * m + 15 * n + 12,
        RegionKind.THETA2: 21 * m + 21 * n + 22,
    }[kind]


def p_properties_ok(coeffs: list[int], ldiff: int) -> bool:
    """P, as its coefficient list, has constant term 1, non-negative
    coefficients and degree <= (ldiff - 1) / 2 (for x < y)."""
    if coeffs[0] != 1 or min(coeffs) < 0:
        return False
    return ldiff == 0 or 2 * (len(coeffs) - 1) <= ldiff - 1


def recursion_p(x_word: str, y_word: str) -> QPoly:
    """P_{x,y} from the canonical-basis recursion, with the cap raised to l(y)."""
    x, y = weyl.from_word(x_word), weyl.from_word(y_word)
    h = hecke.kl_basis(y, max_length=max(y.length, hecke.DEFAULT_KL_CAP)).coefficient(x)
    return to_q(h, y.length - x.length) if h else QPoly.zero()
