"""melontau benchmark: end-to-end and per-layer metrics of `melontau verify`.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports `melontau` from ``src``.
Workloads and the reasons for them are in BENCHMARK.json; the pass each
one runs is in workloads.py.  Every measurement runs in a fresh worker
process (worker.py), one at a time, on one thread.

--trace 0 prints the end-to-end metrics: wall_s and cpu_s (medians per
pass over the passes that fit in S seconds, at least one), wall_s_tail,
peak_rss_mb of the measuring process, setup_s (median over SETUP_SAMPLES
fresh processes of start-up, `import melontau` and pass generation) and
pass_ratio, the operations that passed over those attempted.  An operation
is one check verdict, the must-fail control or (traced) one digest, span
or counter self-check; fail_ratio, its complement, is printed above the
result, since a metric that reads 0 cannot carry a relative bound.

--trace 1 prints the per-layer metrics from one untraced, one traced and
one counting pass, plus the scalar microbenchmark; it runs those three
passes whatever S is.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("moments", "dressed-bilinear", "many-small")
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170          # a run must end within 180 s


class WorkerError(RuntimeError):
    pass


def labelled(values, kind):
    """Attach BENCHMARK.json's units; the metric names must match it."""
    with open(SPEC) as f:
        units = {m["name"]: m["unit"] for m in json.load(f)[kind]}
    if set(values) != set(units):
        raise WorkerError("metrics do not match BENCHMARK.json: %s"
                          % sorted(set(values) ^ set(units)))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def run_worker(workload, seed, mode, seconds, deadline):
    """Start a worker; return (seconds until it printed ready, its result)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed",
           str(seed), "--mode", mode, "--seconds", repr(seconds)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("%s worker ran past the time limit" % mode)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise WorkerError("%s worker failed (exit %s)" % (mode,
                                                          proc.returncode))
    if mode == "setup":
        return setup, None
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError("%s worker printed no result" % mode)
    return setup, json.loads(lines[-1])


def tail(samples):
    """Highest percentile with at least ten samples beyond it.

    With ten samples or fewer no percentile qualifies; the maximum is
    returned then, as the 100th percentile.
    """
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def end_to_end(workload, seed, seconds, deadline):
    setups = [run_worker(workload, seed, "setup", 0, deadline)[0]
              for _ in range(SETUP_SAMPLES)]
    _setup, res = run_worker(workload, seed, "measure", seconds, deadline)
    walls = [w for w, _c in res["passes"]]
    cpus = [c for _w, c in res["passes"]]
    tail_s, tail_pct = tail(walls)
    attempted, failed = res["attempted"], len(res["failures"])
    print("passes: %d; wall_s per pass: %s" % (
        len(walls), ", ".join("%.3f" % w for w in walls)))
    print("wall_s_tail: p%.1f of %d passes" % (tail_pct, len(walls)))
    print("setup_s samples: %s" % ", ".join("%.4f" % s for s in setups))
    print("fail_ratio: %d/%d" % (failed, attempted))
    metrics = {
        "wall_s": statistics.median(walls),
        "wall_s_tail": tail_s,
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(setups),
        "pass_ratio": (attempted - failed) / attempted,
    }
    return res, labelled(metrics, "end_to_end")


def per_layer(workload, seed, deadline):
    _setup, res = run_worker(workload, seed, "trace", 0, deadline)
    return res, labelled(res["metrics"], "per_layer")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "melontau",
                                       "__init__.py")):
        print("error: src/melontau not found; bench/ must sit at the root "
              "of a melontau checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    print("workload %s seed %d seconds %d trace %d" % (
        args.workload, args.seed, args.seconds, args.trace))
    try:
        if args.trace:
            res, metrics = per_layer(args.workload, args.seed, deadline)
        else:
            res, metrics = end_to_end(args.workload, args.seed, args.seconds,
                                      deadline)
    except WorkerError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    for name in res["failures"]:
        print("FAILED: %s" % name)
    for name, m in metrics.items():
        print("%-36s %s %s" % (name, m["value"], m["unit"]))
    failed = len(res["failures"])
    print(json.dumps({"correct": failed == 0, "attempted": res["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
