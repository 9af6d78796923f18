"""Uniform machine-readable outcomes for the command-line checks."""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Callable


class CheckReport:
    """One verification outcome: a name, a verdict, and the knobs used.

    A plain class, not a dataclass: importing dataclasses pulls in
    inspect and ast, which every command-line start would pay for.
    """

    __slots__ = ("name", "passed", "params", "detail", "elapsed_s")

    def __init__(self, name: str, passed: bool,
                 params: dict[str, Any] | None = None, detail: str = "",
                 elapsed_s: float = 0.0) -> None:
        self.name = name
        self.passed = passed
        self.params = {} if params is None else params
        self.detail = detail
        self.elapsed_s = elapsed_s

    def json_line(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "passed": self.passed,
                "params": self.params,
                "detail": self.detail,
                "elapsed_s": round(self.elapsed_s, 3),
            },
            sort_keys=True,
        )

    def text_line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        ps = " ".join("%s=%s" % kv for kv in sorted(self.params.items()))
        out = "%s %s" % (mark, self.name)
        if ps:
            out += " [%s]" % ps
        if self.detail:
            out += " -- %s" % self.detail
        return out


def timed_check(name: str, params: dict[str, Any],
                fn: Callable[[], tuple[bool, str]]) -> CheckReport:
    """Run fn, which returns (passed, detail), and wrap it with timing."""
    t0 = time.perf_counter()
    ok, detail = fn()
    return CheckReport(name, ok, dict(params), detail,
                       time.perf_counter() - t0)


def emit(reports: list[CheckReport], fmt: str = "json",
         out=None, err=None) -> int:
    """Write one report per line to out, a summary to err; 0/1 exit code."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    for r in reports:
        print(r.json_line() if fmt == "json" else r.text_line(), file=out)
    n_bad = sum(1 for r in reports if not r.passed)
    print("%d check(s), %d failed" % (len(reports), n_bad), file=err)
    return 1 if n_bad else 0
