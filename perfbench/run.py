#!/usr/bin/env python3
"""bruhat-forge benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {sweep,columns,cli-kl} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
A run repeats whole rounds of its workload until ``--seconds`` have
passed, and makes at least two rounds (one pair of rounds when traced).
Every round starts fresh worker processes (worker.py), one at a time, so
each round pays cold memo tables as every user-facing entry point does:
a closed loop with one client.

With ``--trace 0`` the last line of standard output carries the
end-to-end metrics; with ``--trace 1`` each round is run once untraced and
once traced, and the line carries the per-layer metrics and the tracing
overhead.  See README.md for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "columns", "cli-kl")
RUN_LIMIT_S = 170  # a run must end within 180 s
SETUP_PROBES = 4  # extra workers per run that only set up, for a steadier setup_s
MIN_ROUNDS = 2  # untraced runs; a single sweep round is too few to take a median of

END_TO_END = (("setup_s", "s"), ("primary_ms", "ms"), ("secondary_ms", "ms"), ("peak_rss_mb", "MB"))

# per-layer metric -> (kind, traced name)
PER_LAYER = {
    "weyl.enumerate.s": ("s", "weyl.enumerate"),
    "weyl.bruhat_leq.calls": ("count", "weyl.bruhat_leq"),
    "weyl.bruhat_leq.s": ("s", "weyl.bruhat_leq"),
    "weyl.lower_interval.calls": ("count", "weyl.lower_interval"),
    "weyl.lower_interval.s": ("s", "weyl.lower_interval"),
    "weyl.from_word.calls": ("count", "weyl.from_word"),
    "weyl.symmetry_apply.calls": ("count", "weyl.symmetry_apply"),
    "laurent.arith.calls": ("count", "laurent.arith"),
    "laurent.to_q.calls": ("count", "laurent.to_q"),
    "hecke.kl_basis.calls": ("count", "hecke.kl_basis"),
    "hecke.kl_basis.s": ("s", "hecke.kl_basis"),
    "hecke.N_element.calls": ("count", "hecke.N_element"),
    "hecke.N_element.s": ("s", "hecke.N_element"),
    "regions.classify.calls": ("count", "regions.classify"),
    "regions.classify.s": ("s", "regions.classify"),
    "closedform.kl_fast.calls": ("count", "closedform.kl_fast"),
    "closedform.kl_fast.s": ("s", "closedform.kl_fast"),
    "closedform.kl_closed_form.s": ("s", "closedform.kl_closed_form"),
    "closedform.fallbacks": ("fallbacks", None),
    "poset.build_interval.calls": ("count", "poset.build_interval"),
    "poset.build_interval.s": ("s", "poset.build_interval"),
    "poset.fingerprint.s": ("s", "poset.fingerprint"),
    "poset.is_isomorphic.calls": ("count", "poset.is_isomorphic"),
    "poset.is_isomorphic.s": ("s", "poset.is_isomorphic"),
    "poset.iso_hit_ratio": ("ratio", "poset.is_isomorphic"),
    "poset.cert_is_valid.s": ("s", "poset.cert_is_valid"),
    "verify.interval_survey.s": ("s", "verify.interval_survey"),
    "verify.verify_conjecture.s": ("s", "verify.verify_conjecture"),
    "cache.load.s": ("s", "cache.load"),
    "cache.put.calls": ("count", "cache.put"),
    "cache.put.s": ("s", "cache.put"),
    "cache.get_hit_ratio": ("ratio", "cache.get"),
    "cli.import.s": ("s", "cli.import"),
    "cli.main.s": ("s", "cli.main"),
    "trace.overhead_s": ("overhead", None),
}
UNITS = {"s": "s", "count": "count", "fallbacks": "count", "ratio": "ratio", "overhead": "s"}


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def round_tasks(workload: str) -> list[dict]:
    """The worker processes of one round, run one after another."""
    if workload == "sweep":
        return [
            {"workload": "sweep", "max_length": 10, "role": "primary"},
            {"workload": "sweep", "max_length": 8, "role": "secondary"},
        ]
    if workload == "columns":
        # the recursion reads each column in a cold process of its own: in
        # one process, what the columns share in its memo table depends on
        # the drawn symmetries and swung the total by 20% between seeds
        import inputs

        return [{"workload": "columns"}] + [
            {"workload": "columns", "slot": k} for k in range(len(inputs.COLUMN_SLOTS))
        ]
    return [{"workload": workload}]


def run_worker(task: dict, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for a worker within the run limit")
    task = dict(task, spawned=time.monotonic())
    # its own session, so that a timeout also ends the worker's CLI children
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(task)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_env(), cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {task['tag']} passed the run limit of {RUN_LIMIT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker {task['tag']} exited {proc.returncode}:\n{err[-3000:]}")
    return json.loads(out.strip().splitlines()[-1])


def run_round(workload: str, seed: int, trace: bool, index: int, deadline: float) -> list[dict]:
    out = []
    for k, task in enumerate(round_tasks(workload)):
        tag = f"{workload}-seed{seed}-r{index}-p{k}-{'traced' if trace else 'plain'}-{os.getpid()}"
        out.append(run_worker(dict(task, seed=seed, trace=trace, tag=tag), deadline))
    return out


def check_columns(rounds: list[list[dict]], seed: int) -> tuple[int, int, list[str]]:
    """Compare the formula tables with the recursion tables of each round.

    Every entry must agree, have the properties P must have, and each
    theta-family column must have the size its cardinality polynomial
    gives.  A pair the formula route answered through a fallback fails.
    """
    import inputs

    tops = inputs.column_tops(seed)
    attempted = failed = 0
    errors = [e for rnd in rounds for w in rnd for e in w["errors"]]
    for rnd in rounds:
        formula, oracle = rnd[0]["tables"], [t for w in rnd[1:] for t in w["tables"]]
        for top, pf, po in zip(tops, formula, oracle):
            y_len = top["y"].length
            attempted += 2 * len(pf)
            bad = {x for x, c in pf.items() if po.get(x) != c or not inputs.p_properties_ok(c, y_len - len(x))}
            bad |= set(po) - set(pf)
            size = inputs.cardinality(top["kind"], top["params"])
            if size is not None and len(pf) != size:
                errors.append(f"column of {top['y'].word()}: {len(pf)} entries, cardinality polynomial {size}")
                bad |= set(pf)
            if bad:
                errors.append(f"column of {top['y'].word()}: {len(bad)} entries fail the cross-check")
            failed += len(bad)
        failed += rnd[0]["fallbacks"]
    return attempted, failed, errors


def check_cli(results: list[dict], seed: int) -> tuple[int, int, list[str]]:
    """Score cli-kl calls against the recursion oracle run in this process.

    Returns (attempted, failed, errors).  A hit-pass call must also print
    exactly what its miss-pass call printed.  A `--via both` call above the
    recursion cap that exits 1 with the cap error is the known fault: it
    counts as failed and is not an error.
    """
    import inputs

    pairs = inputs.cli_pairs(seed)
    refs = {p: f"P = {inputs.recursion_p(*p)}" for p in list(pairs) + list(inputs.FAULT_PAIRS)}
    attempted = failed = 0
    errors = []
    for r in results:
        calls = r["calls"]
        for kind, todo in (("miss", pairs), ("hit", pairs), ("fault", inputs.FAULT_PAIRS)):
            for k, (pair, call) in enumerate(zip(todo, calls[kind])):
                attempted += 1
                ok = call["code"] == 0 and refs[pair] in call["out"].splitlines()
                if kind == "hit":
                    ok = ok and call["out"] == calls["miss"][k]["out"]
                if ok:
                    continue
                failed += 1
                if kind == "fault" and call["code"] == 1 and "exceeds the cap" in call["err"]:
                    continue
                errors.append(f"{kind} kl {pair[0]!r} {pair[1]}: exit {call['code']}, "
                              f"out {call['out']!r}, expected {refs[pair]!r}, err {call['err']!r}")
    return attempted, failed, errors


def route_ms(rounds: list[list[dict]], route: str, workload: str) -> float:
    """Milliseconds for one route, at the probe's reference speed.

    An item is one sweep, one column or one CLI slot, and every round
    repeats the same items in the same order.  Each item's time is its
    median over rounds; columns then sum the items per pair, and sweep and
    cli-kl take the median over items.
    """
    per_round = [[t for w in rnd for t in w.get(route, [])] for rnd in rounds]
    per_item = [statistics.median(times) for times in zip(*per_round)]
    if workload == "columns":
        return 1000 * sum(per_item) / rounds[0][0]["pairs"]
    return 1000 * statistics.median(per_item)


def layer_metrics(stats: list[dict], overhead_s: float) -> dict:
    """Per-layer metrics from the traced rounds (each a list of worker traces)."""
    out = {}
    for metric, (kind, name) in PER_LAYER.items():
        if kind == "overhead":
            value = overhead_s
        elif kind == "fallbacks":
            value = sum(s.get("fallbacks", 0) for s in stats[0])
        elif kind == "count":
            value = sum(s["calls"].get(name, 0) for s in stats[0])
        elif kind == "ratio":
            calls = sum(s["calls"].get(name, 0) for s in stats[0])
            hits = sum(s["hits"].get(name, 0) for s in stats[0])
            value = hits / calls if calls else 0.0
        else:
            value = statistics.median(sum(s["self_s"].get(name, 0.0) for s in rnd) for rnd in stats)
        out[metric] = {"value": value, "unit": UNITS[kind]}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bruhat_forge" / "__init__.py").is_file():
        print(f"error: no bruhat_forge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    plain: list[list[dict]] = []
    traced: list[list[dict]] = []
    try:
        tasks = [] if args.trace else (round_tasks(args.workload) * SETUP_PROBES)[:SETUP_PROBES]
        probes = [
            run_worker(dict(task, seed=args.seed, trace=False, setup_only=True,
                            tag=f"{args.workload}-seed{args.seed}-probe{k}-{os.getpid()}"), deadline)
            for k, task in enumerate(tasks)
        ]
        while True:
            plain.append(run_round(args.workload, args.seed, False, len(plain), deadline))
            if args.trace:
                traced.append(run_round(args.workload, args.seed, True, len(traced), deadline))
            if time.monotonic() - start >= args.seconds and (args.trace or len(plain) >= MIN_ROUNDS):
                break
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    workers = [w for rnd in plain + traced for w in rnd]
    if args.workload == "cli-kl":
        attempted, failed, errors = check_cli(workers, args.seed)
    elif args.workload == "columns":
        attempted, failed, errors = check_columns(plain + traced, args.seed)
    else:
        attempted = sum(w["attempted"] for w in workers)
        failed = sum(w["failed"] for w in workers)
        errors = [e for w in workers for e in w["errors"]]
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    if args.trace:
        def timed(rounds):
            return statistics.median(sum(w["timed_s"] for w in rnd) for rnd in rounds)

        metrics = layer_metrics([[w["trace"] for w in rnd] for rnd in traced], timed(traced) - timed(plain))
    else:
        ws = [w for rnd in plain for w in rnd]
        metrics = {
            "setup_s": statistics.median(w["setup_s"] for w in ws + probes),
            "primary_ms": route_ms(plain, "primary", args.workload),
            "secondary_ms": route_ms(plain, "secondary", args.workload),
            "peak_rss_mb": max(w["rss_mb"] for w in ws),
        }
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    if any(not math.isfinite(m["value"]) for m in metrics.values()):
        print("error: a metric is not finite", file=sys.stderr)
        return 1
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
