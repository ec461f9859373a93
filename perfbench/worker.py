#!/usr/bin/env python3
"""One round of one workload, in a fresh Python process.

run.py starts it as ``python3 worker.py '<task json>'``.  The task names
the workload, its seed, whether to trace, and the CLOCK_MONOTONIC time at
which run.py spawned this process, so that ``setup_s`` covers interpreter
start, the package import and input generation.  The timed part runs
first; every check runs after it, outside the timed spans and, when
tracing, after the layer statistics were taken.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
TRACE_DIR = OUT / "trace"
CLASS_COUNTS = HERE / "class_counts.json"
CERT_SAMPLE = 25
CLI_TIMEOUT_S = 120


class Round:
    """Setup time, item times, peak RSS and, when traced, layer statistics
    of this process."""

    def __init__(self, task: dict):
        self.task = task
        start = time.perf_counter()
        from bruhat_forge import cli  # noqa: F401  -- loads every module, as a CLI call does

        self.import_span = (start, time.perf_counter())
        self.tracer = None
        self.probe = None
        self.items: list[tuple[str, float, float, float]] = []  # route, net s, start, end
        self.setup_raw_s = self.begun_at = None
        self.stats = None

    def begin(self, trace_here: bool = True) -> None:
        """Mark the first timed call.  Traced rounds install the wrappers;
        untraced rounds start the speed probe."""
        self.setup_raw_s = time.monotonic() - self.task["spawned"]
        if self.task["trace"]:
            if trace_here:
                import spans

                self.tracer = spans.install()
                self.tracer.record("cli.import", *self.import_span)
        else:
            self.probe = speed.SpeedProbe()
            self.probe.start()
        self.begun_at = time.perf_counter()

    def item(self, route: str, fn):
        """Time one item of a route and return fn()'s result."""
        if self.probe is None:
            start = time.perf_counter()
            out = fn()
            end = time.perf_counter()
            net = end - start
        else:
            out, net, start, end = self.probe.time(fn)
        self.items.append((route, net, start, end))
        return out

    def end(self, rss_who: int = resource.RUSAGE_SELF) -> dict:
        """Close the timed part: item times (at reference speed when the
        probe ran), setup time, peak RSS and the layer statistics."""
        rss_mb = resource.getrusage(rss_who).ru_maxrss / 1024
        if self.probe is not None:
            self.probe.stop()
            factor = self.probe.factor
        else:
            def factor(start, end):
                return 1.0
        if self.tracer is not None:
            obj = self.tracer.to_json_obj()
            self.stats = {k: dict(obj[k]) for k in ("calls", "self_s", "hits")}
            TRACE_DIR.mkdir(parents=True, exist_ok=True)
            self.tracer.dump(str(TRACE_DIR / f"{self.task['tag']}.json"))
        out = {
            "setup_s": self.setup_raw_s * factor(self.begun_at, self.begun_at),
            "setup_raw_s": self.setup_raw_s,
            "timed_s": sum(net for _, net, _, _ in self.items),
            "rss_mb": rss_mb,
            "kernel_s": statistics.median(self.probe.kernel_s) if self.probe else None,
        }
        for route, net, start, end in self.items:
            out.setdefault(route, []).append(net * factor(start, end))
            out.setdefault(f"raw_{route}", []).append(net)
        return out


# ---------------------------------------------------------------------------
# sweep: the exhaustive combinatorial-invariance check

def sweep(task: dict, rnd: Round) -> dict:
    from bruhat_forge import closedform, hecke, verify, weyl
    from bruhat_forge.laurent import to_q

    max_length, seed = task["max_length"], task["seed"]
    rnd.begin()
    if task.get("setup_only"):
        return rnd.end()
    fallbacks_before = len(closedform.fallback_log())
    route = "primary" if task["role"] == "primary" else "secondary"
    report = rnd.item(route, lambda: verify.verify_conjecture(max_length, jobs=1, seed=seed))
    result = rnd.end()

    sys.path.insert(0, str(ROOT / "tests"))
    import oracles

    errors = []
    fallbacks = len(closedform.fallback_log()) - fallbacks_before
    if fallbacks:
        errors.append(f"{fallbacks} closed-form fallbacks")
    counts = report.suites[0].counts
    if not report.passed or counts["violations"] != 0:
        errors.append(f"report failed: {report.summary_lines()}")
    survey = verify.interval_survey(max_length)  # the survey the report used

    lower = {y: oracles.subword_lower_set(y) for y in weyl.enumerate_up_to_length(max_length)}
    expected_intervals = sum(len(below) - 1 for below in lower.values())
    if counts["intervals"] != expected_intervals or len(survey.intervals) != expected_intervals:
        errors.append(f"{counts['intervals']} intervals, subword oracle {expected_intervals}")
    if any(x not in lower[y] for x, y in survey.intervals):
        errors.append("an interval [x, y] with x not below y by the subword property")

    for cls in survey.classes:
        polys = set()
        for x, y in cls.members:
            h = hecke.kl_basis(y).coefficient(x)
            polys.add(to_q(h, y.length - x.length) if h else None)
        if len(polys) != 1 or None in polys:
            errors.append(f"class of {cls.rep[0].word()},{cls.rep[1].word()}: recursion gives {len(polys)} P")

    def oracle_interval(x, y):
        return {z for z in lower[y] if x in lower[z]}

    certs = [(m, c, cls.rep) for cls in survey.classes for m, c in cls.certs.items()]
    certs.sort(key=lambda t: (t[0][1].sort_key(), t[0][0].sort_key()))
    for (x, y), cert, rep in random.Random(f"sweep/{seed}").sample(certs, min(CERT_SAMPLE, len(certs))):
        dom, img = oracle_interval(x, y), oracle_interval(*rep)
        ok = set(cert.mapping) == dom and set(cert.mapping.values()) == img and all(
            (a in lower[b]) == (cert.apply(a) in lower[cert.apply(b)]) for a in dom for b in dom
        )
        if not ok:
            errors.append(f"certificate for [{x.word()}, {y.word()}] fails subword-oracle order")

    pinned = json.loads(CLASS_COUNTS.read_text()).get(str(max_length))
    if pinned is None or counts["classes"] != pinned["classes"] or report.census != pinned["census"]:
        errors.append(f"{counts['classes']} classes; class_counts.json has {pinned and pinned['classes']}")

    return dict(result, attempted=1, failed=int(bool(errors)), errors=errors, fallbacks=fallbacks)


# ---------------------------------------------------------------------------
# columns: whole KL columns through the closed form, then the recursion

def columns(task: dict, rnd: Round) -> dict:
    """The formula route over every top (no "slot"), or the recursion for
    one top in a process of its own.  run.py compares the tables."""
    import inputs
    from bruhat_forge import closedform, hecke, laurent, weyl

    tops = inputs.column_tops(task["seed"])
    slot = task.get("slot")
    rnd.begin()
    if task.get("setup_only"):
        return rnd.end()
    fallbacks_before = len(closedform.fallback_log())

    def formula_column(y):
        return {x: closedform.kl_fast(x, y) for x in weyl.lower_interval(y)}

    def oracle_column(y):
        basis = hecke.kl_basis(y, max_length=y.length)
        return {x: laurent.to_q(h, y.length - x.length) for x, h in basis.items()}

    if slot is None:
        tables = [rnd.item("primary", lambda: formula_column(top["y"])) for top in tops]
    else:
        tables = [rnd.item("secondary", lambda: oracle_column(tops[slot]["y"]))]
    result = rnd.end()

    fallbacks = len(closedform.fallback_log()) - fallbacks_before
    return dict(
        result,
        tables=[{x.word(): p.coefficient_list() for x, p in t.items()} for t in tables],
        pairs=sum(len(t) for t in tables),
        errors=[f"{fallbacks} closed-form fallbacks"] if fallbacks else [],
        fallbacks=fallbacks,
    )


# ---------------------------------------------------------------------------
# cli-kl: cold `bruhat-forge kl` processes, miss pass then hit pass

def cli_kl(task: dict, rnd: Round) -> dict:
    import inputs
    import spans
    from bruhat_forge import cache as cache_mod

    pairs = inputs.cli_pairs(task["seed"])
    tag = task["tag"]
    OUT.mkdir(exist_ok=True)
    cache_path = OUT / f"{tag}.cache"
    cache_path.unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if k != cache_mod.CACHE_ENV_VAR}
    env["PYTHONPATH"] = str(ROOT / "src")
    traces: list[Path] = []

    def call(route: str, x: str, y: str, via: list[str], cache: Path | None) -> dict:
        if task["trace"]:
            traces.append(TRACE_DIR / f"{tag}-call{len(traces)}.json")
            cmd = [sys.executable, str(HERE / "cli_shim.py"), str(traces[-1])]
        else:
            cmd = [sys.executable, "-m", "bruhat_forge"]
        call_env = dict(env, **({cache_mod.CACHE_ENV_VAR: str(cache)} if cache else {}))
        proc = rnd.item(route, lambda: subprocess.run(
            cmd + ["kl", x, y] + via, capture_output=True, text=True, env=call_env,
            timeout=CLI_TIMEOUT_S))
        return {"code": proc.returncode, "out": proc.stdout, "err": proc.stderr[-400:]}

    if task["trace"]:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
    # The CPUs of a shared machine slow down separately, so the CLI children
    # run on this process's CPU, where the speed probe samples.  Nothing in
    # the kl command runs in parallel.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    rnd.begin(trace_here=False)
    if task.get("setup_only"):
        return rnd.end()
    miss = [call("primary", x, y, ["--via", "formula"], cache_path) for x, y in pairs]
    hit = [call("secondary", x, y, ["--via", "formula"], cache_path) for x, y in pairs]
    fault = [call("fault", x, y, [], None) for x, y in inputs.FAULT_PAIRS]
    out = dict(rnd.end(resource.RUSAGE_CHILDREN), calls={"miss": miss, "hit": hit, "fault": fault})
    cache_path.unlink(missing_ok=True)
    if task["trace"]:
        objs = [json.loads(p.read_text()) for p in traces if p.exists()]
        rnd.stats = spans.merge(objs)
    return out


def main() -> int:
    task = json.loads(sys.argv[1])
    rnd = Round(task)
    result = {"sweep": sweep, "columns": columns, "cli-kl": cli_kl}[task["workload"]](task, rnd)
    if rnd.stats is not None and "fallbacks" in result:
        rnd.stats["fallbacks"] = result["fallbacks"]
    result["trace"] = rnd.stats
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
