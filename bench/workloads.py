"""What one pass of each benchmark workload runs, and what it must produce.

A pass is a list of steps.  Each step runs one `melontau verify` suite
through the public `melontau.cli.main` entry point, or the must-fail
Hirota control, and returns one operation record per verdict:
``(name, ok, seconds)``.  The workload seed orders the steps of a pass;
the program itself only sees the generated argument lists.

Import this module only once `melontau` is importable from the checkout's
``src`` directory (worker.py arranges that).

The default D = 3 dressed bilinear is left out on purpose: it runs the
same stages as D = 2, but one pass takes about 156 s on a 2-core x86
machine, too long to repeat.
"""

import gc
import io
import random
import time

from melontau import bilinear, cli, wick

# suite name -> extra CLI arguments, per workload (default sizes otherwise)
SUITES = {
    "moments": (("virasoro", ()),),
    "dressed-bilinear": (("tensor-bilinear", ("--D", "2")),),
    "many-small": (("commutator", ()), ("bch", ()), ("decomposition", ()),
                   ("grading", ()), ("orthopoly", ()), ("hirota", ()),
                   ("conjugation", ())),
}

# check names each suite must report, in CLI order; every one must pass
EXPECTED_CHECKS = {
    "virasoro": ("virasoro",) * 4,
    "tensor-bilinear": ("tensor-bilinear", "tensor-bilinear-reduction"),
    "commutator": ("commutator",) * 3,
    "bch": ("bch-closed-form",),
    "decomposition": ("decomposition",),
    "grading": ("tensor-grading",),
    "orthopoly": ("orthopoly",) * 3 + ("orthopoly-chain",),
    "hirota": ("hirota",) * 2,
    "conjugation": ("conjugation-ops", "conjugation-sandwich") * 2,
}

CHECK_NAMES = tuple(sorted({n for v in EXPECTED_CHECKS.values() for n in v}))

# hirota_residual(2, 1, 2, a_scale="1"): the naive A-scale must leave
# exactly this two-term residual (Series.serialize form)
CONTROL_RESIDUAL = "-1/1/0/1 * t[1,1]^1\n1/1/0/1 * t[2,1]^1"


def _suite_step(suite, extra):
    def step():
        captured = []
        emit = cli.emit

        def capture(reports, fmt="json", out=None, err=None):
            captured.extend(reports)
            return emit(reports, fmt, out=io.StringIO(), err=io.StringIO())

        t0 = time.perf_counter()
        cli.emit = capture
        try:
            code = cli.main(["verify", suite, *extra])
        except Exception as exc:  # a crash is a failed operation
            return [("%s:raised %s" % (suite, type(exc).__name__), False,
                     time.perf_counter() - t0)]
        finally:
            cli.emit = emit
        ops = [(r.name, r.passed, r.elapsed_s) for r in captured]
        names = tuple(r.name for r in captured)
        if code != 0 or names != EXPECTED_CHECKS[suite]:
            ops.append(("%s:exit %s checks %s" % (suite, code, names),
                        False, 0.0))
        return ops
    return step


def _control_step():
    t0 = time.perf_counter()
    try:
        r = bilinear.hirota_residual(2, 1, 2, a_scale="1")
        ok = r.serialize() == CONTROL_RESIDUAL
    except Exception:  # a crash is a failed operation
        ok = False
    return [("hirota-control", ok, time.perf_counter() - t0)]


def make_plan(workload, seed):
    """The steps of one pass, in the order the seed picks."""
    steps = [_suite_step(s, extra) for s, extra in SUITES[workload]]
    if workload == "many-small":
        steps.append(_control_step)
    random.Random(seed).shuffle(steps)
    return steps


def run_pass(plan):
    """Run one cold pass; return (wall_s, cpu_s, ops)."""
    wick.clear_moment_cache()
    gc.collect()
    t0 = time.perf_counter()
    c0 = time.process_time()
    ops = []
    for step in plan:
        ops.extend(step())
    return time.perf_counter() - t0, time.process_time() - c0, ops
