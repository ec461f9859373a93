"""Layer tracing installed from outside the package.

``install()`` wraps the public functions and methods listed in
``TARGETS`` and returns a ``Tracer`` that keeps, in memory, one span per
call that crosses into a traced function (id, name, start, end, parent
id) together with exact per-name call counts and self times.  Nothing
inside ``bruhat_forge`` is edited: a wrapper replaces every module-level
reference to the original object (so ``from .hecke import N_element``
copies are caught too), and methods are replaced on their class.

A call made while a span of the same name is already open (recursion,
or ``elements_of_length`` under ``enumerate_up_to_length``) belongs to
the enclosing span and is neither counted nor timed again.  Self time is
a span's duration minus the durations of its direct child spans.

Span records are capped at ``SPAN_CAP`` per process: the hot leaves
(``bruhat_leq``, Laurent arithmetic) are called millions of times in a
sweep, and their counts and self times stay exact past the cap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

SPAN_CAP = 100_000

# (metric name, module, attribute or Class.method)
TARGETS = (
    ("weyl.enumerate", "weyl", "enumerate_up_to_length"),
    ("weyl.enumerate", "weyl", "elements_of_length"),
    ("weyl.bruhat_leq", "weyl", "bruhat_leq"),
    ("weyl.lower_interval", "weyl", "lower_interval"),
    ("weyl.from_word", "weyl", "from_word"),
    ("weyl.symmetry_apply", "weyl", "Symmetry.apply"),
    ("laurent.arith", "laurent", "LaurentPoly.__add__"),
    ("laurent.arith", "laurent", "LaurentPoly.__sub__"),
    ("laurent.arith", "laurent", "LaurentPoly.__mul__"),
    ("laurent.to_q", "laurent", "to_q"),
    ("hecke.kl_basis", "hecke", "kl_basis"),
    ("hecke.N_element", "hecke", "N_element"),
    ("regions.classify", "regions", "classify"),
    ("closedform.kl_fast", "closedform", "kl_fast"),
    ("closedform.kl_closed_form", "closedform", "kl_closed_form"),
    ("poset.build_interval", "poset", "build_interval"),
    ("poset.fingerprint", "poset", "fingerprint"),
    ("poset.is_isomorphic", "poset", "is_isomorphic"),
    ("poset.cert_is_valid", "poset", "IsoCertificate.is_valid"),
    ("verify.interval_survey", "verify", "interval_survey"),
    ("verify.verify_conjecture", "verify", "verify_conjecture"),
    ("cache.load", "cache", "cache_from_env"),
    ("cache.put", "cache", "KLCache.put"),
    ("cache.get", "cache", "KLCache.get"),
    ("cli.main", "cli", "main"),
)

# names whose non-None results count as hits (certificate found, cache hit)
HIT_NAMES = frozenset({"poset.is_isomorphic", "cache.get"})


class Tracer:
    """Spans, call counts, self times and hit counts of one process."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.hits: dict[str, int] = {}
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.dropped = 0
        self._open: set[str] = set()
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span measured outside any wrapper (such as an import)."""
        self._close(name, start, end, self._new_id(), 0.0)

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _close(self, name: str, start: float, end: float, sid: int, child: float) -> None:
        dur = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, name, start, end, parent[0] if parent else 0))
        else:
            self.dropped += 1

    def wrap(self, name: str, fn):
        tracer = self
        count_hits = name in HIT_NAMES
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in tracer._open:
                return fn(*args, **kwargs)
            tracer._open.add(name)
            frame = [tracer._new_id(), 0.0]
            tracer._stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._stack.pop()
                tracer._open.discard(name)
                tracer._close(name, start, end, frame[0], frame[1])
            if count_hits and out is not None:
                tracer.hits[name] = tracer.hits.get(name, 0) + 1
            return out

        return traced

    def to_json_obj(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "hits": self.hits,
            "spans": self.spans,
            "dropped_spans": self.dropped,
        }

    def dump(self, path: str) -> None:
        """Write everything once, at the end of the process."""
        with open(path, "w") as fh:
            json.dump(self.to_json_obj(), fh)


def install() -> Tracer:
    """Wrap every target; the modules must already be importable."""
    tracer = Tracer()
    package = [
        m for n, m in list(sys.modules.items())
        if n == "bruhat_forge" or n.startswith("bruhat_forge.")
    ]
    for name, mod_name, attr in TARGETS:
        module = importlib.import_module(f"bruhat_forge.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, tracer.wrap(name, cls.__dict__[meth]))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(name, original)
        for mod in package:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    return tracer


def merge(objs: list[dict]) -> dict:
    """Sum calls, self times, hits and fallbacks over the traces of several processes."""
    out = {"calls": {}, "self_s": {}, "hits": {}, "fallbacks": 0}
    for obj in objs:
        out["fallbacks"] += obj.get("fallbacks", 0)
        for key in ("calls", "self_s", "hits"):
            for name, value in obj[key].items():
                out[key][name] = out[key].get(name, 0) + value
    return out
