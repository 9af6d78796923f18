"""Benchmark worker: one fresh process per measurement, started by run.py.

    python3 bench/worker.py --workload W --seed N --mode MODE [--seconds S]

It imports `melontau` from the checkout's ``src`` directory, generates the
pass (see workloads.py) and prints ``ready``.  The modes then do:

- setup:   nothing more (run.py times start-up up to ``ready``);
- measure: untraced passes that fit in S seconds, at least one;
- trace:   one untraced pass, one traced pass, one counting pass and the
           scalar microbenchmark, for the per-layer metrics;
- record:  one traced pass whose output digests replace this workload's
           entry in digests.json (run it only on a trusted commit).

measure and trace print one JSON line with their results last.
"""

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
DIGESTS = os.path.join(HERE, "digests.json")

sys.path.insert(0, SRC)
import melontau  # noqa: E402  (from the checkout, not an installed copy)
from melontau import wick  # noqa: E402
from melontau.scalars import GaussRat  # noqa: E402
from tracer import COUNTERS, Tracer, counting  # noqa: E402
from workloads import CHECK_NAMES, SUITES, make_plan, run_pass  # noqa: E402


def _failures(ops):
    return [name for name, ok, _s in ops if not ok]


def measure(plan, seconds):
    """Untraced passes while the next one, at the median pass time so far,
    still ends within `seconds`; at least one."""
    passes, ops = [], []
    t0 = time.perf_counter()
    while not passes or (time.perf_counter() - t0
                         + statistics.median(w for w, _c in passes)
                         <= seconds):
        wall, cpu, pass_ops = run_pass(plan)
        passes.append((wall, cpu))
        ops.extend(pass_ops)
    return {"passes": passes, "attempted": len(ops),
            "failures": _failures(ops),
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def scalar_operands(seed, n=2000):
    """n seeded pairs of GaussRat operands with mid-sized parts."""
    rng = random.Random(seed)

    def draw():
        return GaussRat(Fraction(rng.randint(-10**6, 10**6),
                                 rng.randint(1, 10**4)),
                        Fraction(rng.randint(-10**6, 10**6),
                                 rng.randint(1, 10**4)))
    return [(draw(), draw()) for _ in range(n)]


def scalar_ns(pairs, repeats=9):
    """Median ns per GaussRat multiply and add, loop cost subtracted."""
    def median_s(kind):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            if kind == "mul":
                for x, y in pairs:
                    x * y
            elif kind == "add":
                for x, y in pairs:
                    x + y
            else:
                for x, y in pairs:
                    pass
            times.append(time.perf_counter() - t0)
        return statistics.median(times)
    loop = median_s("loop")
    return {"scalars.mul_ns": (median_s("mul") - loop) / len(pairs) * 1e9,
            "scalars.add_ns": (median_s("add") - loop) / len(pairs) * 1e9}


def _traced_pass(plan):
    tracer = Tracer()
    with tracer.installed():
        wall, _cpu, ops = run_pass(plan)
    return tracer, wall, ops


def trace(plan, workload, seed):
    pairs = scalar_operands(seed)

    base_wall, _cpu, ops = run_pass(plan)
    metrics = {"reports.check_s." + n: 0.0 for n in CHECK_NAMES}
    for name, _ok, s in ops:
        if name in CHECK_NAMES:
            metrics["reports.check_s." + name] += s

    tracer, traced_wall, traced_ops = _traced_pass(plan)
    ops += traced_ops
    metrics.update(tracer.metrics())
    metrics["wick.memo_entries"] = len(wick._rec_memo)
    for span in tracer.unfired(workload):
        ops.append(("span %s never fired" % span, False, 0.0))

    with open(DIGESTS) as f:
        recorded = json.load(f).get(workload, {})
    seen = set()
    for key, dig in tracer.digests:
        seen.add(key)
        ops.append(("digest %s" % key, recorded.get(key) == dig, 0.0))
    for key in sorted(set(recorded) - seen):
        ops.append(("digest %s never computed" % key, False, 0.0))

    counts = {}
    t0 = time.perf_counter()
    with counting(counts):
        _wall, _cpu, count_ops = run_pass(plan)
    count_wall = time.perf_counter() - t0
    ops += count_ops
    metrics.update(counts)
    for name in COUNTERS:
        if not counts[name]:
            ops.append(("counter %s never fired" % name, False, 0.0))

    metrics.update(scalar_ns(pairs))
    metrics.update({
        "trace.untraced_wall_s": base_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.count_wall_s": count_wall,
        "trace.overhead_ratio": traced_wall / base_wall,
        "trace.count_overhead_ratio": count_wall / base_wall,
    })
    return {"metrics": metrics, "attempted": len(ops),
            "failures": _failures(ops)}


def record(plan, workload):
    tracer, _wall, ops = _traced_pass(plan)
    bad = _failures(ops) + tracer.unfired(workload)
    if bad:
        raise SystemExit("refusing to record digests: %s" % bad)
    data = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as f:
            data = json.load(f)
    data[workload] = dict(sorted(tracer.digests))
    with open(DIGESTS, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "measure", "trace", "record"))
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args(argv)

    if not os.path.abspath(melontau.__file__).startswith(SRC + os.sep):
        raise SystemExit("melontau was not imported from %s" % SRC)
    if args.workload not in SUITES:
        raise SystemExit("unknown workload %r" % args.workload)
    plan = make_plan(args.workload, args.seed)
    print("ready", flush=True)

    if args.mode == "measure":
        result = measure(plan, args.seconds)
    elif args.mode == "trace":
        result = trace(plan, args.workload, args.seed)
    elif args.mode == "record":
        record(plan, args.workload)
        return 0
    else:
        return 0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
