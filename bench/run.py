"""linkwitt benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload metabolic_pairs --seed 1 --seconds 30 \
        --trace 0

One closed-loop client: each op is a `linkwitt.cli.main(argv)` call made
in-process, started only after the previous one returned, so interpreter
start-up is not in the op times.  Every output is checked against the answer
known by construction.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; with `--trace 0` the
metrics are the end-to-end ones, with `--trace 1` the per-layer ones from a
traced replay.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction

import check
import gen
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# distinct ops generated per run; a run cycles through them, so every
# workload's mix of shapes is the same whatever the seed or the speed
OPS = {"metabolic_pairs": 240, "knot_invariants": 160, "cover_series": 240,
       "hasse_defect": 240}
SETUP_REPEATS = 5
# share of --seconds spent untraced before the traced replay of the same ops
UNTRACED_SHARE = 0.4
MODULES = ["rational", "seifert", "devissage", "endofield", "wittinv",
           "covering", "primitives", "cli"]
# Time of `reference()` at the nominal machine speed.  Times are reported
# at that speed: shared hosts switch between speed modes up to 1.7x apart
# for minutes at a time, which would otherwise swamp any change to the
# program.
REFERENCE_S = 0.0018


def reference() -> float:
    """Wall time of a fixed pure-Python Fraction loop: the current speed of
    the machine for code like the program's."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(1, i)
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, ref_before: float,
                       ref_after: float) -> float:
    return seconds * 2 * REFERENCE_S / (ref_before + ref_after)


def setup(workload: str, seed: int, work: str):
    """Import the package from source and write the inputs; returns the
    cli module, the op list and the time taken at reference speed."""
    for name in [n for n in sys.modules
                 if n == "linkwitt" or n.startswith("linkwitt.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    before = reference()
    t0 = time.perf_counter()
    cli = importlib.import_module("linkwitt.cli")
    ops = gen.make_ops(workload, seed, OPS[workload])
    gen.write_ops(ops, work)
    elapsed = time.perf_counter() - t0
    return cli, ops, at_reference_speed(elapsed, before, reference())


def run_op(cli, op: dict):
    """(latency in seconds, exit code or exception, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(op["argv"])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:   # a traceback is a failed op
            code = exc
        latency = time.perf_counter() - t0
    return latency, code, out.getvalue()


def closed_loop(cli, ops: list, budget: float, checker, count=None,
                tracer=None):
    """Run ops in order, cycling, until `count` ops or `budget` seconds of
    wall-clock op time.  The reference loop runs between consecutive ops;
    returns (latencies at reference speed, their speed factors, failures)."""
    latencies, scales, failed = [], [], 0
    busy = 0.0
    i = 0
    ref = reference()
    while (i < count) if count is not None else (busy < budget):
        op = ops[i % len(ops)]
        if tracer is not None:
            tracer.op_id = i
        latency, code, stdout = run_op(cli, op)
        ref_after = reference()
        scales.append(at_reference_speed(1.0, ref, ref_after))
        latencies.append(latency * scales[-1])
        ref = ref_after
        busy += latency
        if not checker.check(op, code, stdout):
            failed += 1
        i += 1
    return latencies, scales, failed


def percentile(values: list, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(cli, ops, seconds, setup_s):
    latencies, scales, failed = closed_loop(cli, ops, seconds,
                                            check.Checker())
    n = len(latencies)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": (n / sum(latencies), "1/s"),
        "latency_p50_s": (percentile(latencies, 50), "s"),
        "latency_p90_s": (percentile(latencies, 90), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    shown = dict(metrics, failed_frac=(failed / n, "1"),
                 speed_factor=(statistics.median(scales), "1"))
    return n, failed, metrics, shown


def per_layer(cli, ops, seconds, workload):
    """Untraced pass, then a traced replay of exactly the same ops."""
    plain, _, failed_plain = closed_loop(
        cli, ops, seconds * UNTRACED_SHARE, check.Checker())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, scales, failed_traced = closed_loop(
            cli, ops, 0, check.Checker(), count=len(plain), tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.dump(os.path.join(ROOT, ".bench_out", f"spans-{workload}"))
    metrics = {}
    for name, value in tracer.layer_metrics(scales).items():
        unit = ("s" if name.endswith("_s") else
                "1" if name.endswith("ratio") else "count")
        metrics[name] = (value, unit)
    metrics["trace_overhead_frac"] = (sum(traced) / sum(plain) - 1, "1")
    for mod in MODULES:
        path = os.path.join(SRC, "linkwitt", f"{mod}.py")
        lines = 0
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                lines = sum(1 for _ in fh)
        metrics[f"{mod}.loc"] = (lines, "lines")
    n = len(plain) + len(traced)
    return n, failed_plain + failed_traced, metrics, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "linkwitt", "cli.py")):
        print(f"no linkwitt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work = os.path.join(ROOT, ".bench_work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            cli, ops, t = setup(args.workload, args.seed, work)
            times.append(t)
        setup_s = statistics.median(times)
        if args.trace:
            n, failed, metrics, shown = per_layer(cli, ops, args.seconds,
                                                  args.workload)
        else:
            n, failed, metrics, shown = end_to_end(cli, ops, args.seconds,
                                                   setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"workload {args.workload}  seed {args.seed}  ops {n}  "
          f"failed {failed}")
    for name, (value, unit) in shown.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
