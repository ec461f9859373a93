"""
Theorem-level verification harness.

``verify_conjecture`` enumerates every interval [x, y] with l(y) below a
bound and asserts that isomorphic intervals carry equal KL polynomials,
the combinatorial invariance statement, checked exhaustively at desk
scale.  The survey classifies one interval per orbit of the symmetry
group G: diagram automorphisms and w -> w^-1 are Bruhat-order
automorphisms (Bjorner-Brenti, Combinatorics of Coxeter Groups, GTM 231,
ch. 2) that fix KL polynomials (Kazhdan-Lusztig, Invent. Math. 53, 1979),
so [x, y] and [tau x, tau y] are isomorphic.  Each orbit representative
is classified in turn: by restricting a certificate already found for
[x, y] when it is [z, y] with z in [x, y], or else built from the ball
tables, bucketed by the key of one round of color refinement and
searched against the class representatives in its bucket, and kept
only if it founds a class.  The key only narrows the search: intervals
can share it and differ, and the search tells them apart.  Every other
interval joins its orbit representative's class and keeps no
certificate: IsoClass.certs composes z -> c(t z) on read, c the orbit
representative's certificate and t the weyl.ball list of a tau in G
carrying [x, y] onto it; the certificate stage checks a top's intervals
at once and composes certificates only once a record check fails.  Every
stage reads P_{x,y} from the KL column of y, each entry of which the
oracle stage checks by the recursion.  Neither citation is taken on
trust: the KL equality runs over every interval, each plain certificate
is re-validated, and every stage that leans on a symmetry takes one
poset.is_automorphism verdict per action list.

``verify_closed_forms`` replays every closed formula against the
canonical-basis recursion; ``verify_lemma_suite`` runs the same oracle
stage and exercises the supporting lemmas (region partition, intersection
and boundary identities, cardinality polynomials, the appendix identity,
parent counts, monotonicity, Z-set preservation and the structural lemmas).
The Z-sets Z^m = {z in [x, y] : l(y) - l(z) = m, P_{z,y} = 1 + q} read P,
so they live here, not in poset: z_masks(y) holds those of [e, y] as ball
bitsets, and Z^m of [x, y] is one of them met with the upper set of x.

Every report is an ordered list of stages, each a function returning
(counts, witnesses), run by one runner that times each stage, caps its
witnesses at 10 and fails it, with the reason as its one witness, when a
closed form it reads raises ClosedFormError; the later stages still run.
All reports serialize to JSON and CSV and are deterministic for fixed
bounds.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections import deque, namedtuple
from collections.abc import Iterator, Mapping
from operator import itemgetter
from typing import NamedTuple

from . import closedform, hecke, poset, regions, weyl
from .laurent import QPoly, Q_PLUS_ONE
from .poset import IsoCertificate, build_interval, is_isomorphic
from .regions import RegionKind, RegionTag, ThetaIndex
from .weyl import IDENTITY_SYMMETRY, RHO, SIGMA, Element, SYMMETRY_GROUP, _bits, _indices

# bounds no caller varies: index bounds of the lemma and product checks
LEMMA22_BOUND = 4
BOUNDARY_BOUND = 3
CARDINALITY_BOUND = 4
IDENTITY_BOUND = 3
PARENTS_BOUND = 3
PRODUCT_BOUND = 3

__all__ = [
    "SuiteResult",
    "VerificationReport",
    "verify_conjecture",
    "verify_closed_forms",
    "verify_lemma_suite",
    "interval_survey",
    "z_masks",
    "structural_lemma_checks",
]


class SuiteResult(NamedTuple):
    name: str
    passed: bool
    counts: dict
    witnesses: list
    elapsed: float

    def to_json_obj(self) -> dict:
        return {**self._asdict(), "elapsed": round(self.elapsed, 3)}


class VerificationReport(NamedTuple):
    scope: dict
    suites: list[SuiteResult]
    census: list[dict]
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def to_json_obj(self) -> dict:
        suites = [s.to_json_obj() for s in self.suites]
        return {**self._asdict(), "passed": self.passed, "suites": suites,
                "elapsed": round(self.elapsed, 3)}

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True)

    def to_csv_rows(self) -> list[list]:
        import json

        return [["suite", "passed", "counts", "witnesses"]] + [
            [s.name, "pass" if s.passed else "FAIL", json.dumps(s.counts, sort_keys=True),
             len(s.witnesses)]
            for s in self.suites
        ]

    def census_csv_rows(self) -> list[list]:
        return [["span", "classes", "intervals"]] + [
            [row["span"], row["classes"], row["intervals"]] for row in self.census
        ]

    def summary_lines(self) -> list[str]:
        out = []
        for s in self.suites:
            verdict = "PASS" if s.passed else "FAIL"
            detail = ", ".join(f"{k}={v}" for k, v in sorted(s.counts.items()))
            out.append(f"{verdict} {s.name}" + (f" ({detail})" if detail else ""))
        return out


def _within_kl_cap(*bounds: int) -> None:
    # every suite compares with the recursion, which refuses lengths above
    # its cap, and the survey is past desk scale there: fail before any work
    cap = hecke.DEFAULT_KL_CAP
    if max(bounds) > cap:
        raise weyl.ResourceLimitError(f"length {max(bounds)} exceeds the KL recursion cap {cap}")


def _suite(name: str, fn, fallbacks: bool = True) -> SuiteResult:
    # a failed closed form (ClosedFormError) ends any stage with
    # "fallbacks": 1 and its reason as the one witness; a passing stage
    # shows "fallbacks": 0 unless flagged fallbacks=False
    t = time.perf_counter()
    failed = 0
    try:
        counts, witnesses = fn()
    except closedform.ClosedFormError as exc:
        counts, witnesses, failed = {}, [str(exc)], 1
    if fallbacks or failed:
        counts = {**counts, "fallbacks": failed}
    return SuiteResult(
        name=name,
        passed=not witnesses,
        counts=counts,
        witnesses=witnesses[:10],
        elapsed=time.perf_counter() - t,
    )


def _report(scope: dict, stages: list[tuple], census=list) -> VerificationReport:
    """Run each (name, fn[, fallbacks]) stage through _suite, in order, into
    one timed report; census() is read after the last stage."""
    t = time.perf_counter()
    suites = [_suite(*stage) for stage in stages]
    return VerificationReport(
        scope=scope, suites=suites, census=census(), elapsed=time.perf_counter() - t
    )


def _words(pair: tuple[Element, Element]) -> list[str]:
    return [w.word() for w in pair]


def _by_top(pair: tuple[Element, Element]) -> tuple:
    # witness order: by top, then bottom, each by (length, word)
    return pair[1].sort_key(), pair[0].sort_key()


def _oracle_stage(max_length: int) -> tuple:
    """The stage both suites run: every entry of kl_column(y), l(y) <=
    max_length, against the recursion; witnesses by top, then bottom."""

    def oracle():
        tops = weyl.enumerate_up_to_length(max_length)
        bad = [(x, y) for y in tops for x in hecke.kl_mismatches(y, closedform.kl_column(y))]
        counts = {"pairs": sum(y.ideal.bit_count() for y in tops), "mismatches": len(bad)}
        return counts, [_words(pair) for pair in bad]

    return f"closed forms vs recursion (l(y) <= {max_length})", oracle, False


# ---------------------------------------------------------------------------
# the interval survey shared by the conjecture suite and the census

# what interval_survey keeps of the G-orbits, by ball index: placed[j][i] is
# the (class, base certificate) of the first pair (i, j), the base None for a
# representative, whose identity it stands for; low[j] is j's least image
# under G and to_low[j] the lists carrying j onto it, in SYMMETRY_GROUP order
_Orbits = namedtuple("_Orbits", "placed low to_low")


def _firsts(to: tuple, bottoms) -> Iterator[int]:
    # the first bottom of each ball index in ``bottoms`` under a top whose
    # lists onto its least image are ``to``: its least image under them
    if len(to) == 1:
        return map(to[0].__getitem__, bottoms)
    return map(min, *[map(act.__getitem__, bottoms) for act in to])


def _join(orbits: _Orbits, pairs: list, max_length: int, lists: dict) -> None:
    # append each of ``pairs``, by top and then bottom, to lists[j][i] for its
    # first pair (i, j), one top's bottoms in one pass in C
    rest = iter(pairs)
    for j, y in enumerate(weyl.enumerate_up_to_length(max_length)):
        firsts = _firsts(orbits.to_low[j], _indices(y.ideal)[:-1])
        deque(map(list.append, map(lists[orbits.low[j]].__getitem__, firsts), rest), 0)


def _source(orbits: _Orbits, i: int, j: int) -> tuple:
    # (first bottom, base, t) of the pair (i, j): t is the first list of
    # to_low[j] taking i least, so onto the bottom of its first pair (as in
    # _firsts), whose entry in placed gives the base; a faulty list may name
    # an unplaced pair, whose base maps nothing
    t = min(orbits.to_low[j], key=itemgetter(i))
    return t[i], orbits.placed[orbits.low[j]].get(t[i], (None, IsoCertificate({})))[1], t


def _composed(orbits: _Orbits, pair: tuple[Element, Element]) -> IsoCertificate:
    # z -> base(t z) over the members of pair (t z for a None base), base and
    # t from _source: a certificate when t carries pair onto the first pair
    # of a valid base.  Members whose image a faulty base lacks are left out.
    _, base, t = _source(orbits, pair[0].ball_index, pair[1].ball_index)
    keys = _indices(poset.interval_mask(*pair))
    images = map(t.__getitem__, keys)
    index = dict(zip(keys, images if base is None else map(base.index.get, images)))
    if None in index.values():
        index = {k: w for k, w in index.items() if w is not None}
    return IsoCertificate(index)


class _Certs(Mapping):
    """IsoClass.certs of a survey class: its members but the representative,
    in member order, each to its certificate, composed on read (_composed)."""

    __slots__ = ("rep", "members", "orbits")

    def __init__(self, rep: tuple[Element, Element], members: list, orbits: _Orbits):
        self.rep, self.members, self.orbits = rep, members, orbits

    def __iter__(self):
        return (pair for pair in self.members if pair != self.rep)

    def __len__(self) -> int:
        return len(self.members) - 1

    def __getitem__(self, pair) -> IsoCertificate:
        if pair == self.rep or pair not in self.members:
            raise KeyError(pair)
        return _composed(self.orbits, pair)

    def items(self):  # one pass, looking no member up
        return ((pair, _composed(self.orbits, pair)) for pair in self)

    def values(self):
        return (cert for _, cert in self.items())


class IsoClass(NamedTuple):
    rep: tuple[Element, Element]
    members: list[tuple[Element, Element]]
    certs: Mapping[tuple[Element, Element], IsoCertificate]


class Survey(NamedTuple):
    max_length: int
    intervals: list[tuple[Element, Element]]
    classes: list[IsoClass]
    orbits: _Orbits | None = None

    def __repr__(self) -> str:  # without the orbit tables
        return (f"Survey(max_length={self.max_length!r}, intervals={self.intervals!r}, "
                f"classes={self.classes!r})")

    def census_rows(self) -> list[dict]:
        # isomorphic intervals have one span, so each class counts under its rep's
        rows: dict[int, dict] = {}
        for cls in self.classes:
            span = cls.rep[1].length - cls.rep[0].length
            row = rows.setdefault(span, {"span": span, "classes": 0, "intervals": 0})
            row["classes"] += 1
            row["intervals"] += len(cls.members)
        return [rows[span] for span in sorted(rows)]


def _interval_pairs(max_length: int) -> list[tuple[Element, Element]]:
    # by top, then bottom, each already in (length, word) order
    ball = weyl.enumerate_up_to_length(max_length)
    return [(x, y) for y in ball for x in weyl.lower_interval(y) if x != y]


@functools.cache
def interval_survey(max_length: int) -> Survey:
    """Classify all intervals with l(y) <= max_length in one pass.

    Pairs run by top, then bottom, in ball-index order, so the first pair
    of the G-orbit of (x, y) is the least (tau y, tau x) over the weyl.ball
    action lists (_Orbits holds them by element).  Only first pairs are
    classified: the tops least in their orbits, each bottom unless a list
    fixing its top lowers it.  One above an earlier non-founder bottom of
    its top restricts that bottom's certificate (_restricted); any other
    is cut from the weyl.ball tables, bucketed by Interval.key and
    searched against its bucket's representatives, and only a founder
    keeps its Interval.  ``placed`` keeps each first pair's class and base
    certificate, None for a representative.  Then every pair joins the
    class of its first pair (_join); none keeps a certificate, as
    IsoClass.certs composes them on read.  Restricted pairs found no
    class, and a class's first pair is the first of its orbit, so its
    representative, id and member order are those of searching every pair.
    """
    _within_kl_cap(max_length)
    pairs = _interval_pairs(max_length)
    actions, uppers = weyl.ball(max_length).actions, weyl.ball(max_length).uppers
    low = [min(images) for images in zip(*actions)]
    to_low = [tuple(act for act in actions if act[j] == m) for j, m in enumerate(low)]
    placed: dict[int, dict[int, tuple[IsoClass, IsoCertificate | None]]] = {}
    orbits = _Orbits(placed, low, to_low)
    # key -> (class, representative Interval) entries in creation order
    buckets: dict[int, list[tuple[IsoClass, poset.Interval]]] = {}
    classes: list[IsoClass] = []
    for j, y in enumerate(weyl.enumerate_up_to_length(max_length)):
        if j != low[j]:
            continue
        row = placed[j] = {}
        bottoms = _indices(y.ideal)[:-1]
        # y's placed non-founder bottoms (see _restricted) and their upper sets' union
        kept, reach = [], 0
        for x, first in zip(weyl.lower_interval(y), _firsts(to_low[j], bottoms)):
            i = x.ball_index  # an int the ball holds already, shared by the keys
            if first != i:  # a list fixing y lowers x
                continue
            hit = _restricted(i, uppers[i], kept, to_low, placed) if reach >> i & 1 else None
            if hit is None:
                interval = poset.Interval(x, y)
                bucket = buckets.setdefault(interval.key, [])
                for cls, rep in bucket:
                    cert = is_isomorphic(interval, rep)
                    if cert is not None:
                        hit = cls, cert
                        break
                else:
                    pair, members = (x, y), []
                    cls = IsoClass(pair, members, _Certs(pair, members, orbits))
                    bucket.append((cls, interval))
                    classes.append(cls)
                    row[i] = cls, None
                    continue
            row[i] = cls, cert = hit
            kept.append((uppers[i], cert.index, cls.rep[1].ball_index))
            reach |= uppers[i]
    # the representatives' intervals go before any pair joins a class
    del buckets

    lists = {j: {i: cls.members for i, (cls, _) in row.items()} for j, row in placed.items()}
    _join(orbits, pairs, max_length, lists)
    return Survey(max_length, pairs, classes, orbits)


def _restricted(i: int, inside: int, kept: list, to_low: list, placed: dict):
    """(class, certificate) of [z, y], z the bottom with ball index i and
    upper set ``inside``, or None: the first kept (upper set, index, y')
    below z has c: [x, y] -> [x', y'], which restricts to [z, y] ->
    [c(z), y'], and the first list fixing y' that lowers c(z) most carries
    that onto a first pair, if placed yet.  Keys and images share ints."""
    _, index, k = next(entry for entry in kept if entry[0] >> i & 1)
    act = min(to_low[k], key=itemgetter(index[i]))
    keys = [w for w in index if inside >> w & 1]
    images = map(act.__getitem__, map(index.__getitem__, keys))
    try:
        cls, cert = placed[k][act[index[i]]]
        if cert is not None:
            images = map(cert.index.__getitem__, images)
        return cls, IsoCertificate(dict(zip(keys, images)))
    except KeyError:  # that pair comes later, or c is faulty: search instead
        return None


def _failing_certificates(survey: Survey, valid, list_ok) -> list:
    """The members, by top and then bottom, whose certificate in
    IsoClass.certs fails valid(cert, member, rep).

    The record proves that none fails, composing none: each base in the
    survey's _Orbits is judged once, None iff its first pair is its
    class's representative, any other by valid(base, source, rep), with
    source the pair of its least and greatest key, which must be its first
    pair; each list t of to_low[j] once, by list_ok(t), which must include
    poset.is_automorphism, and t[j] = low[j], so that t carries each pair
    it is read for onto its first pair; and the record (_join) must list
    each class's members again as they are.  If any check fails, each
    member's certificate is composed and judged by valid alone.
    """
    placed, low, to_low = orbits = survey.orbits

    def base_ok(i: int, j: int, cls: IsoClass, base: IsoCertificate | None) -> bool:
        if base is None:  # the identity, so its source is the representative
            return [w.ball_index for w in cls.rep] == [i, j]
        source = weyl.ball_element(min(base.index)), weyl.ball_element(max(base.index))
        return valid(base, source, cls.rep) and [w.ball_index for w in source] == [i, j]

    listed = {id(cls): [] for cls in survey.classes}  # each class's members, by the record
    where = {j: {i: listed[id(cls)] for i, (cls, _) in row.items()} for j, row in placed.items()}
    lists = {id(t): t for t in itertools.chain(*to_low)}.values()
    sound = all(base_ok(i, j, *entry) for j, row in placed.items() for i, entry in row.items())
    sound = sound and all(map(list_ok, lists)) and all(
        t[j] == low[j] for j, to in enumerate(to_low) for t in to)
    try:
        _join(orbits, survey.intervals, survey.max_length, where)
    except KeyError:  # a list onto a least image names no first pair
        sound = False
    if sound and all(cls.members == listed[id(cls)] for cls in survey.classes):
        return []
    bad = sorted(
        (_by_top(m), _words(m), _words(cls.rep)) for cls in survey.classes
        for m, cert in cls.certs.items() if not valid(cert, m, cls.rep)
    )
    return [{"member": member, "rep": rep} for _, member, rep in bad]


def verify_conjecture(max_length: int = 8, jobs: int = 1, seed: int = 0) -> VerificationReport:
    """Exhaustively check that isomorphic intervals share KL polynomials.

    The survey classifies one interval per G-orbit (interval_survey); the
    KL equality is still checked over every interval.  The report also
    judges every survey certificate through _failing_certificates: each
    plain base once on covers, each representative's None base by its first
    pair, and each of the 12 action lists once by poset.is_automorphism;
    once one fails, each certificate by IsoCertificate.is_valid.  Its oracle
    stage, which the lemma suite runs too, compares every KL column it reads
    with the recursion.  No stage checks P_{tau x, tau y} = P_{x,y} apart:
    (tau x, tau y) is a member of the class of (x, y), which the first stage
    compares with its representative.  A closed form that fails fails every
    stage that reads its column, as in every lemma suite.

    The survey runs in one process.  ``jobs`` accepts only 1 and ``seed``
    is ignored, as nothing is sampled; both stay, ``jobs`` with its report
    scope key, until ``perfbench/worker.py`` stops passing them.
    """
    if jobs != 1:
        raise ValueError(f"jobs must be 1, got {jobs}")
    _within_kl_cap(max_length)
    # every stage reads the memoised survey (positional, like every other
    # caller: functools.cache keys f(8) and f(max_length=8) apart) and the
    # memoised KL columns; the first stage builds both, so their time
    # counts there
    column = closedform.kl_column

    def equal_within_classes():
        survey = interval_survey(max_length)
        columns = {y: column(y) for y in weyl.enumerate_up_to_length(max_length)}  # one per top
        violations = []
        for cls in survey.classes:
            rx, ry = cls.rep
            p_rep = columns[ry][rx]
            violations.extend((cls.rep, (x, y)) for x, y in cls.members if columns[y][x] != p_rep)
        violations.sort(key=lambda v: _by_top(v[1]))
        counts = {
            "intervals": len(survey.intervals),
            "classes": len(survey.classes),
            "violations": len(violations),
        }
        return counts, [
            {
                "rep": _words((rx, ry)),
                "member": _words((x, y)),
                "P_rep": str(column(ry)[rx]),
                "P_member": str(column(y)[x]),
            }
            for (rx, ry), (x, y) in violations
        ]

    def certificates():
        survey = interval_survey(max_length)
        automorphism = functools.partial(poset.is_automorphism, max_length=max_length)
        bad = _failing_certificates(survey, IsoCertificate.is_valid, automorphism)
        return {"certificates": sum(len(c.certs) for c in survey.classes), "invalid": len(bad)}, bad

    return _report(
        {"suite": "conjecture", "max_length": max_length, "jobs": jobs},
        [
            (f"conjecture(max_length={max_length})", equal_within_classes),
            ("certificates re-validated", certificates, False),
            _oracle_stage(max_length),
        ],
        census=lambda: interval_survey(max_length).census_rows(),
    )


# ---------------------------------------------------------------------------
# closed-form equivalence

def verify_closed_forms(max_family_length: int = 15, x_max: int = 14) -> VerificationReport:
    """Replay every closed formula against the recursion oracle: the chain
    family to n <= x_max, the theta families to length <= max_family_length,
    and the canonical generator products to m, n <= PRODUCT_BOUND."""
    _within_kl_cap(max_family_length, x_max)

    def theta_range(shift: int) -> list[ThetaIndex]:
        half = range(max_family_length // 2 + 1)
        pairs = itertools.product(half, half)
        return [ThetaIndex(m, n) for m, n in pairs if 2 * (m + n) + shift <= max_family_length]

    def family(kind, indices):
        def stage():
            tags = [RegionTag(kind, IDENTITY_SYMMETRY, i) for i in indices]
            bad = [t.params for t in tags
                   if closedform.kl_closed_form(t) != hecke.kl_basis(t.canonical_member())]
            # chain witnesses are n, theta witnesses [m, n]
            witnesses = [list(i) if isinstance(i, ThetaIndex) else i for i in bad]
            return {"checked": len(indices), "mismatches": len(bad)}, witnesses
        return stage

    def theta2():
        indices = theta_range(5)
        bad, disagreements = [], []
        for idx in indices:
            tag = RegionTag(RegionKind.THETA2, IDENTITY_SYMMETRY, idx)
            oracle = hecke.kl_basis(tag.canonical_member())
            v1 = closedform.kl_closed_form(tag)
            v2 = closedform.theta2_product_form(idx)
            if v1 != oracle or v2 != oracle:
                bad.append(idx)
            if v1 != v2:
                disagreements.append(idx)
        counts = {
            "checked": len(indices),
            "mismatches": len(bad),
            "version_disagreements": len(disagreements),
        }
        return counts, [list(i) for i in bad + disagreements]

    def products():
        bound = range(PRODUCT_BOUND + 1)
        reps = [closedform.product_identity_check((m, n)) for m in bound for n in bound]
        bad = [rep for rep in reps if not rep["holds"]]
        return {"checked": len(reps), "mismatches": len(bad)}, bad

    lengths = f"length <= {max_family_length}"
    return _report(
        {"suite": "closed-forms", "max_family_length": max_family_length, "x_max": x_max},
        [
            (f"chain family vs oracle (n <= {x_max})",
             family(RegionKind.X, range(1, x_max + 1)), False),
            (f"theta family vs oracle ({lengths})",
             family(RegionKind.THETA, theta_range(3)), False),
            (f"theta1 family vs oracle ({lengths})",
             family(RegionKind.THETA1, theta_range(4)), False),
            (f"theta2 family both versions vs oracle ({lengths})", theta2, False),
            (f"canonical generator product identities (m, n <= {PRODUCT_BOUND})",
             products, False),
        ],
    )


# ---------------------------------------------------------------------------
# Z-sets and their structural consequences

def z_masks(y: Element) -> dict[int, int]:
    """Each non-empty Z^m of [e, y] as a ball bitset keyed by m, from one
    pass over the KL column of y.

    >>> from bruhat_forge.regions import theta, theta1
    >>> set(weyl.ball_elements(z_masks(theta1((1, 1)))[3])) == {theta((0, 1)), theta((1, 0))}
    True
    """
    masks: dict[int, int] = {}
    for z, p in closedform.kl_column(y).items():
        if p == Q_PLUS_ONE:
            m = y.length - z.length
            masks[m] = masks.get(m, 0) | 1 << z.ball_index
    return masks


def _z_preserved(masks, cert: IsoCertificate, a: tuple, b: tuple) -> bool:
    # a and b are (bottom, top) pairs; masks[i] is the z_masks of ball element i
    za, zb = masks[a[1].ball_index], masks[b[1].ball_index]
    upper_a, upper_b = weyl.upper_set(a[0], a[1].length), weyl.upper_set(b[0], b[1].length)
    index = cert.index
    return all(
        {index.get(i) for i in _bits(za.get(m, 0) & upper_a)} == set(_bits(zb.get(m, 0) & upper_b))
        for m in range(1, 5)
    )


def _six_case_elements(idx: ThetaIndex) -> list[Element]:
    m, n = idx
    if m == 0 and n == 0:
        return [weyl.generator(0), weyl.identity()]
    if m > 0 and n == 0:
        return [
            RHO.apply(regions.theta((m - 1, 0))),
            RHO.apply(regions.x_chain(2 * m)),
        ]
    if m == 0 and n > 0:
        rho2 = RHO * RHO
        return [
            rho2.apply(regions.theta((0, n - 1))),
            rho2.apply(SIGMA.apply(regions.x_chain(2 * n))),
        ]
    return []


def structural_lemma_checks(bound: int) -> dict:
    """Check the Z-set lemmas on every interval with l(y) <= bound.

    * tops in Theta1, Theta2 or X: |Z^3| = 1 forces P = 1 + q;
    * tops in Theta1 or X: empty Z^3 forces P = 1;
    * tops in X: P is 1 or 1 + q according to Z^3 being empty or not;
    * tops in Theta2 with empty Z^3 and P != 1: the pulled-back bottom
      is one of the six exceptional cases, with P = 1 + q, |Z^4| = 1 and
      length gap 4 or 5.
    """
    one = QPoly.one()
    counts = {"theta1_x_unique": 0, "empty_z3": 0, "x_tops": 0, "six_case": 0}
    violations: list[dict] = []
    instances: list[dict] = []
    for y in weyl.enumerate_up_to_length(bound):
        if y.is_identity:
            continue
        tag = regions.classify(y)
        kind = tag.kind
        if kind is RegionKind.THETA:
            continue
        column = closedform.kl_column(y)
        zs = z_masks(y)
        inv = tag.tau.inverse_symmetry()
        six = _six_case_elements(tag.params) if kind is RegionKind.THETA2 else []
        for x, p_xy in column.items():
            upper = weyl.upper_set(x, y.length)
            z3 = (zs.get(3, 0) & upper).bit_count()

            def flag(rule: str) -> None:
                violations.append(
                    {"rule": rule, "x": x.word(), "y": y.word(), "P": str(p_xy), "z3": z3}
                )

            if z3 == 1:
                counts["theta1_x_unique"] += 1
                if p_xy != Q_PLUS_ONE:
                    flag("|Z3| = 1 forces P = 1 + q")
            if z3 == 0 and kind in (RegionKind.THETA1, RegionKind.X):
                counts["empty_z3"] += 1
                if p_xy != one:
                    flag("empty Z3 forces P = 1")
            if kind is RegionKind.X:
                counts["x_tops"] += 1
                expected = one if z3 == 0 else Q_PLUS_ONE
                if p_xy != expected:
                    flag("X tops: P determined by Z3")
            if kind is RegionKind.THETA2 and z3 == 0 and p_xy != one:
                counts["six_case"] += 1
                z4 = (zs.get(4, 0) & upper).bit_count()
                gap = y.length - x.length
                x0 = inv.apply(x)
                ok = x0 in six and p_xy == Q_PLUS_ONE and z4 == 1 and gap in (4, 5)
                m, n = tag.params
                instances.append(
                    {"x": x.word(), "y": y.word(), "m": m, "n": n, "case_element": x0.word(),
                     "gap": gap, "ok": ok}
                )
                if not ok:
                    flag("six-case lemma")
    return {
        "bound": bound,
        "counts": counts,
        "six_case_instances": instances,
        "violations": violations,
        "holds": not violations,
    }


# ---------------------------------------------------------------------------
# lemma suite

def verify_lemma_suite(max_length: int = 10, partition_bound: int = 14) -> VerificationReport:
    """Run every supporting-lemma check at desk scale.

    ``partition_bound`` bounds the region partition; ``max_length`` bounds
    l(y) in the oracle, monotonicity, G-invariance, Z-set and structural
    stages, at most hecke.DEFAULT_KL_CAP.  The index bounds (m, n <= k) are
    the module constants.  Order is read from the ball tables: monotonicity
    (Braden-MacPherson, Math. Ann. 321, 2001) is tested on down-covers,
    and Z-sets are z_masks bitsets, one KL column per top.

    Each monotonicity fact is checked once, on P: with the oracle stage
    passing, h_{x,y} - v h_{z,y} = v^(l(y)-l(x)) (P_{x,y} - P_{z,y})(v^-2)
    for a cover x < z, and P_{x,y} >= ... >= P_{y,y} = 1 along a saturated
    chain gives non-negativity, so kl_basis(y) is monotonic when the chain
    stage passes at y.  N_w, monotonic by construction (each coefficient is
    v^(l(w)-l(z))), is checked only at the closure samples, which with the
    appendix identity still build it; only they build a canonical element.
    """
    _within_kl_cap(max_length)

    def partition():
        counts = {k.value: 0 for k in RegionKind}
        bad = []
        for w in weyl.enumerate_up_to_length(partition_bound):
            tag = regions.classify(w)
            counts[tag.kind.value] += 1
            if tag.reconstruct() != w:
                bad.append({"w": w.word(), "rule": "reconstruction"})
            two_sided = (
                len(w.left_descents()) == 2 and len(w.right_descents()) == 2
            )
            if (tag.kind is RegionKind.THETA) != two_sided and not w.is_identity:
                bad.append({"w": w.word(), "rule": "theta descent characterization"})
        n_expected = 1 + sum(3 * n for n in range(1, partition_bound + 1))
        if sum(counts.values()) != n_expected:
            bad.append({"rule": "element count"})
        for n in range(1, partition_bound + 1):
            if len(weyl.elements_of_length(n)) != 3 * n:
                bad.append({"rule": f"count at length {n}"})
        return counts, bad

    def observed_descent_patterns():
        # reported, not asserted: descent-set sizes per region kind
        patterns: dict[str, set] = {}
        for w in weyl.enumerate_up_to_length(min(partition_bound, 10)):
            if w.is_identity:
                continue
            tag = regions.classify(w)
            patterns.setdefault(tag.kind.value, set()).add(
                (len(w.left_descents()), len(w.right_descents()))
            )
        counts = {k: sorted(v) for k, v in sorted(patterns.items())}
        return {"patterns": repr(counts)}, []

    def lemma22():
        bad = []
        for m in range(1, LEMMA22_BOUND + 1):
            for n in range(1, LEMMA22_BOUND + 1):
                if regions.s_mn((m, n)) != regions.s_mn((m - 1, n - 1)):
                    bad.append({"m": m, "n": n, "rule": "s(m,n) stability"})
                if not regions.intersection_check(m, n):
                    bad.append({"m": m, "n": n, "rule": "intersection"})
        return {"checked": LEMMA22_BOUND**2}, bad

    def boundary():
        bad = []
        for p in range(BOUNDARY_BOUND + 1):
            for q in range(BOUNDARY_BOUND + 1):
                idx = ThetaIndex(p, q)
                s = regions.s_mn(idx)
                lower = set(weyl.lower_interval(regions.theta(idx)))
                lower_s = set(weyl.lower_interval(regions.theta1(idx)))
                geo = set(regions.theta_lower_geometric(idx))
                if geo != lower:
                    bad.append({"p": p, "q": q, "rule": "geometric membership"})
                border = regions.boundary_set(idx)
                if lower | {w.right_mult(s) for w in border} != lower_s:
                    bad.append({"p": p, "q": q, "rule": "boundary union"})
        return {"checked": (BOUNDARY_BOUND + 1) ** 2}, bad

    def cardinalities():
        bad = []
        checked = 0
        for m in range(CARDINALITY_BOUND + 1):
            for n in range(CARDINALITY_BOUND + 1):
                base = 3 * m * m + 3 * n * n + 12 * m * n
                grid = [
                    (regions.theta((m, n)), base + 9 * m + 9 * n + 6),
                    (regions.theta1((m, n)), base + 15 * m + 15 * n + 12),
                    (regions.theta2((m, n)), base + 21 * m + 21 * n + 22),
                ]
                for el, expected in grid:
                    checked += 1
                    got = el.ideal.bit_count()
                    if got != expected:
                        bad.append(
                            {"m": m, "n": n, "top": el.word(), "got": got, "expected": expected}
                        )
                if m >= 1 and n >= 1:
                    checked += 1
                    a = weyl.RHO.apply(regions.theta1((m, n - 1)))
                    b = (weyl.RHO * weyl.RHO).apply(regions.theta1((m - 1, n)))
                    got = (a.ideal | b.ideal).bit_count()
                    expected = base + 9 * m + 9 * n + 2
                    if got != expected:
                        bad.append(
                            {"m": m, "n": n, "rule": "M content", "got": got, "expected": expected}
                        )
        return {"checked": checked}, bad

    def appendix_identity():
        bad = []
        for m in range(1, IDENTITY_BOUND + 1):
            for n in range(1, IDENTITY_BOUND + 1):
                rep = closedform.appendix_identity_check(m, n)
                if not rep["holds"]:
                    bad.append(rep)
        return {"checked": IDENTITY_BOUND**2}, bad

    def parent_counts():
        bad = []
        checked = 0
        rho2 = weyl.RHO * weyl.RHO
        for m in range(PARENTS_BOUND + 1):
            for n in range(PARENTS_BOUND + 1):
                y = regions.theta2((m, n))
                interval = build_interval(weyl.identity(), y)
                zs = {}
                if n > 0:
                    zs[1] = regions.theta((m, n - 1)).left_mult(0)
                    zs[4] = weyl.RHO.apply(regions.theta1((m, n - 1)))
                if m > 0:
                    zs[2] = regions.theta((m - 1, n)).left_mult(0)
                    zs[3] = rho2.apply(regions.theta1((m - 1, n)))
                degenerate = m == 0 or n == 0
                for i, j in itertools.combinations(sorted(zs), 2):
                    checked += 1
                    if degenerate:
                        # with one family index at zero the top has only
                        # five coatoms (two deletion positions of the
                        # defining word coincide) and the unique defined
                        # pair has exactly three 2-parents
                        expected = 3
                    else:
                        expected = 3 if {i, j} in ({1, 2}, {3, 4}) else 2
                    got = len(poset.parents(zs[i], zs[j], interval, 2))
                    if got != expected:
                        bad.append(
                            {"m": m, "n": n, "pair": [i, j], "got": got, "expected": expected}
                        )
        for k in range(6, 13, 2):
            checked += 1
            interval = build_interval(weyl.identity(), regions.x_chain(k))
            a = regions.x_chain(k - 3)
            b = regions.x_chain(k - 5).left_mult(0).left_mult(1)
            got = poset.parents(a, b, interval, 2)
            expected = {
                regions.x_chain(k - 1),
                weyl.RHO.apply(regions.x_chain(k - 1)),
                regions.theta((k // 2 - 2, 0)),
                rho2.apply(regions.theta((k // 2 - 2, 0))),
            }
            if got != frozenset(expected):
                bad.append({"k": k, "rule": "four-parent set"})
        return {"checked": checked}, bad

    def coatoms():
        # the six coatoms of [id, s0 theta(1,3) s2]
        m, n = 1, 3
        y = regions.theta2((m, n))
        s = regions.s_mn((m, n))
        rho_s = weyl.RHO.apply_generator(s)
        rho2_s = (weyl.RHO * weyl.RHO).apply_generator(s)
        z1 = regions.theta((m, n - 1)).left_mult(0)
        z2 = regions.theta((m - 1, n)).left_mult(0)
        expected = {
            z1.right_mult(rho2_s).right_mult(s),
            z2.right_mult(rho_s).right_mult(s),
            y.right_mult(s),
            y.left_mult(0).left_mult(1).left_mult(0),
            y.left_mult(0).left_mult(2).left_mult(0),
            y.left_mult(0),
        }
        got = set(weyl.bit_elements(weyl.ball(y.length).covers[y.ball_index]))
        bad = []
        if got != expected:
            bad.append(
                {
                    "got": sorted(w.word() for w in got),
                    "expected": sorted(w.word() for w in expected),
                }
            )
        return {"coatoms": len(got)}, bad

    def monotonicity():
        # P_{x,y} - P_{z,y} in N[q], which with the oracle stage passing is
        # the h form too (docstring); differences telescope along a maximal
        # chain of the graded [x, z], so the down-covers of z decide every
        # x <= z; "chains" counts those pairs
        bad = []
        checked = 0
        covers = weyl.ball(max_length).covers
        for y in weyl.enumerate_up_to_length(max_length):
            ps = closedform.kl_column(y)
            for z, pz in ps.items():
                checked += z.ideal.bit_count()
                for x in weyl.bit_elements(covers[z.ball_index]):
                    if not ps[x].dominates(pz):
                        bad.append(
                            {"x": x.word(), "z": z.word(), "y": y.word(), "q": str(ps[x] - pz)}
                        )
        return {"chains": checked}, bad

    def monotonic_elements():
        # kl_basis(w) is monotonic when the chain stage passes at y = w: its
        # h_{x,w} are the P_{x,w} the oracle checks, and P_{x,w} >= ... >=
        # P_{w,w} = 1 on a saturated chain; N_w only at the samples (docstring)
        bad = []
        checked = 0
        sample = weyl.enumerate_up_to_length(5)
        for i, w in enumerate(sample):
            u = sample[(i * 7 + 3) % len(sample)]
            checked += 2
            n_w = hecke.N_element(w)
            if not hecke.is_monotonic(n_w):
                bad.append({"w": w.word(), "rule": "N monotonic"})
            s_sum = n_w + hecke.kl_basis(u)
            if not hecke.is_monotonic(s_sum):
                bad.append({"w": w.word(), "u": u.word(), "rule": "sum monotonic"})
            prod = hecke.mult_kl_s(n_w, (i % 3), "right")
            if not hecke.is_monotonic(prod):
                bad.append({"w": w.word(), "rule": "product monotonic"})
        return {"checked": checked}, bad

    def g_invariance():
        bad = []
        elements = weyl.enumerate_up_to_length(max_length)
        actions = weyl.ball(max_length).actions
        # a cover-preserving permutation keeps length and order
        for tau, act in zip(SYMMETRY_GROUP, actions):
            if not poset.is_automorphism(act, max_length):
                bad.append({"tau": tau.name, "rule": "automorphism"})
        checked = len(elements) * len(SYMMETRY_GROUP)
        for y in elements:
            column = closedform.kl_column(y)
            for tau, act in zip(SYMMETRY_GROUP, actions):
                t_column = closedform.kl_column(elements[act[y.ball_index]])
                for x, p in column.items():
                    checked += 1
                    if t_column.get(elements[act[x.ball_index]]) != p:
                        bad.append({"tau": tau.name, "x": x.word(), "y": y.word(), "rule": "KL"})
        return {"checked": checked}, bad

    def z_preservation():
        survey = interval_survey(max_length)
        masks = [z_masks(y) for y in weyl.enumerate_up_to_length(max_length)]

        def mapped(act):
            # an automorphism tau carries up(x) onto up(tau x), so with each
            # z_masks(y) onto z_masks(tau y) it carries Z^m([x, y]) onto
            # Z^m([tau x, tau y])
            return poset.is_automorphism(act, max_length) and [masks[j] for j in act] == [
                {m: sum(1 << act[i] for i in _bits(z)) for m, z in zs.items()}
                for zs in masks
            ]

        preserved = functools.partial(_z_preserved, masks)
        bad = _failing_certificates(survey, preserved, mapped)
        classes = survey.classes
        return {"certificates": sum(len(c.certs) for c in classes), "classes": len(classes)}, bad

    def structural():
        rep = structural_lemma_checks(max_length)
        return rep["counts"], rep["violations"]

    return _report(
        {
            "suite": "lemmas",
            "partition_bound": partition_bound,
            "monotonicity_bound": max_length,
            "z_bound": max_length,
            "structural_bound": max_length,
        },
        [
            (f"region partition and counts (l <= {partition_bound})", partition),
            ("descent patterns per region (reported)", observed_descent_patterns),
            (f"lower-interval intersection (m, n <= {LEMMA22_BOUND})", lemma22),
            (f"boundary decomposition (p, q <= {BOUNDARY_BOUND})", boundary),
            (f"cardinality polynomials (m, n <= {CARDINALITY_BOUND})", cardinalities),
            (f"appendix identity (m, n <= {IDENTITY_BOUND})", appendix_identity),
            (f"parent-count table (m, n <= {PARENTS_BOUND})", parent_counts),
            ("coatom set of s0*theta(1,3)*s", coatoms),
            _oracle_stage(max_length),
            (f"monotonicity along chains (l(y) <= {max_length})", monotonicity),
            ("monotonic element closure properties", monotonic_elements),
            (f"G-invariance of length, order, KL (l <= {max_length})", g_invariance),
            (f"Z-set preservation (l(y) <= {max_length})", z_preservation),
            (f"structural Z-set lemmas (l(y) <= {max_length})", structural),
        ],
    )
