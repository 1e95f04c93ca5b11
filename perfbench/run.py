"""valflag benchmark: one seeded, fixed list of operations per workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload filter --seed 1 --seconds 20 --trace 0

One process, one thread, one caller (a closed loop: each operation starts
when the previous one returns).  Set-up imports valflag from ``src/`` and
builds the inputs, several times over, and reports the median.  One
untimed pass then runs every operation and checks each answer with the
independent checks of ``oracle``; timed passes repeat the same list until
``--seconds`` have gone by, always in whole passes, and every answer must
equal the checked one.  The last line of stdout is the JSON result; with
``--trace 1`` it holds the per-layer metrics of ``tracing`` instead of the
end-to-end ones.  Results and spans are also written under
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 9


def fresh_valflag():
    """Import valflag from this checkout's src/, dropping any earlier copy."""
    for name in [m for m in sys.modules if m == "valflag" or m.startswith("valflag.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    vf = importlib.import_module("valflag")
    importlib.import_module("valflag.cli")
    if not Path(vf.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"valflag came from {vf.__file__}, not from {SRC}")
    return vf


def set_up(workload: str, seed: int, workdir: Path):
    """Import valflag and build the inputs, SETUP_REPEATS times; the last
    build is the one the run uses."""
    import workloads

    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        vf = fresh_valflag()
        shape = random.Random(f"{workload}:shape")
        rng = random.Random(f"{workload}:{seed}")
        ops = workloads.WORKLOADS[workload](vf, shape, rng, workdir)
        times.append(time.perf_counter() - t0)
    return ops, times


def check_pass(ops):
    """Run every operation once, untimed, and check each answer.

    Returns the answers (None where the operation raised or answered
    wrongly) and the failures as (kind, wrong answer?, message).
    """
    import oracle

    answers, failures = [], []
    for op in ops:
        try:
            result = op.run()
            op.check(result)
        except oracle.Mismatch as e:
            failures.append((op.kind, True, str(e)))
            result = None
        except Exception:  # a raising operation is a failed one
            failures.append((op.kind, False, traceback.format_exc(limit=3)))
            result = None
        answers.append(result)
    return answers, failures


def timed_pass(ops, answers, tracer=None):
    """One pass over the list; returns per-operation seconds, how many
    operations failed (raised, or failed the check pass, or answered
    differently from it) and how many of those answered differently."""
    times, failed, wrong = [], 0, 0
    gc.collect()
    for op, want in zip(ops, answers):
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result = tracer.timed(op.kind, op.run) if tracer else op.run()
            raised = False
        except Exception:  # counted, and the pass goes on
            raised = True
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.active = False
        times.append(t1 - t0)
        if want is None or raised:
            failed += 1
        elif result != want:
            failed += 1
            wrong += 1
    return times, failed, wrong


def percentile(values, q):
    s = sorted(values)
    return s[min(len(s) - 1, int(q * len(s)))]


def tail_report(samples):
    """Median, and each of p90, p99 and p99.9 that has at least ten samples
    beyond it."""
    out = {"samples": len(samples), "p50_ms": statistics.median(samples) * 1e3}
    for q in (0.9, 0.99, 0.999):
        if len(samples) * (1 - q) >= 10:
            out[f"p{q * 100:g}_ms"] = percentile(samples, q) * 1e3
    return out


def src_lines() -> int:
    return sum(
        1
        for path in sorted((SRC / "valflag").rglob("*.py"))
        for line in path.read_text().splitlines()
        if line.strip()
    )


def measure(ops, answers, seconds):
    passes, failed, wrong = [], 0, 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        times, bad, differ = timed_pass(ops, answers)
        passes.append(times)
        failed += bad
        wrong += differ
    return passes, failed, wrong


def measure_traced(ops, answers, seconds):
    """Untraced and traced passes in turn; per-layer metrics are medians
    over the traced passes, each pass read on its own."""
    import tracing

    tracer = tracing.Tracer()
    plain, traced, snaps, failed, wrong = [], [], [], 0, 0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        times, bad, differ = timed_pass(ops, answers)
        plain.append(sum(times))
        failed, wrong = failed + bad, wrong + differ
        tracer.install()
        tracer.reset()
        tracer.keep = not traced
        try:
            times, bad, differ = timed_pass(ops, answers, tracer)
        finally:
            tracer.uninstall()
        traced.append(sum(times))
        failed, wrong = failed + bad, wrong + differ
        snaps.append(tracer.snapshot())
    metrics = {}
    for name, unit in tracing.METRICS:
        values = [s[name] for s in snaps]
        if len(set(values)) == 1:
            value = values[0]
        else:
            value = statistics.median(values)
            if unit == "count":
                print(f"note: {name} differs between passes: {sorted(set(values))}")
        metrics[name] = {"value": value, "unit": unit}
    metrics["src.lines"] = {"value": src_lines(), "unit": "lines"}
    overhead = statistics.median(traced) / statistics.median(plain) - 1
    return metrics, tracer, overhead, len(plain) + len(traced), failed, wrong


def end_to_end(ops, passes, setup_times, record):
    """The end-to-end metrics of an untraced run.

    Each operation is timed once per pass, and its fastest time stands for
    it: on a shared machine other work only ever adds time, so the fastest
    of many passes is the steadiest reading of what the operation costs.
    The median of these times is smoothed, as the mean of the middle fifth,
    so that a gap between two kinds of operation at the middle of the list
    cannot make it jump.  Tails come from every sample.
    """
    best = [min(t[i] for t in passes) for i in range(len(ops))]
    ranked = sorted(best)
    middle = ranked[round(0.4 * len(ranked)):round(0.6 * len(ranked))]
    samples = [x for t in passes for x in t]
    tails = tail_report(samples)
    print("latency over every timed sample: " + ", ".join(
        f"{v} samples" if k == "samples" else f"{k} {v:.3f}" for k, v in tails.items()))
    by_kind = {}
    for op, x in zip(ops, best):
        by_kind.setdefault(op.kind, []).append(x * 1e3)
    record.update(passes=len(passes), pass_s=[sum(t) for t in passes], tails=tails,
                  kind_best_ms={k: sum(v) for k, v in by_kind.items()})
    return {
        "ops_per_s": {"value": len(ops) / sum(best), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.fmean(middle) * 1e3, "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = HERE / "work" / f"{tag}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        try:
            ops, setup_times = set_up(args.workload, args.seed, workdir)
        except ImportError as e:
            print(f"error: cannot import valflag from {SRC}: {e}", file=sys.stderr)
            return 2
        answers, failures = check_pass(ops)
        for kind, is_wrong, message in failures:
            print(f"FAILED {kind}{' (wrong answer)' if is_wrong else ''}: {message}",
                  file=sys.stderr)
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "operations_per_pass": len(ops), "setup_s_each": setup_times}
        if args.trace:
            metrics, tracer, overhead, npasses, failed, wrong = measure_traced(
                ops, answers, args.seconds)
            if tracer.absent:
                print(f"absent: {', '.join(tracer.absent)}")
            print(f"tracing overhead: {overhead * 100:.1f}% of the untraced pass time")
            RESULTS.mkdir(exist_ok=True)
            spans = RESULTS / f"{tag}.spans.json"
            spans.write_text(json.dumps(
                [dict(zip(("id", "parent", "name", "start_ns", "end_ns"), s))
                 for s in tracer.spans]))
            record.update(tracing_overhead=overhead, absent=tracer.absent)
        else:
            passes, failed, wrong = measure(ops, answers, args.seconds)
            npasses = len(passes)
            metrics = end_to_end(ops, passes, setup_times, record)
        if wrong:
            print(f"FAILED {wrong} answers differ from the checked ones", file=sys.stderr)
        result = {
            "correct": not wrong and not any(w for _, w, _ in failures),
            "attempted": (1 + npasses) * len(ops),
            "failed": len(failures) + failed,
            "metrics": metrics,
        }
        record["result"] = result
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
