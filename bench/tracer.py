"""Per-layer spans and counts, recorded from outside the program.

`Tracer` wraps the public functions of each layer (scalars -> series ->
diffops -> wick -> onematrix -> decomposition / bilinear) in spans.  A span
records its call count and self time: its duration minus the time its child
spans cover.  Each wrapper is installed at every place the function's name
is looked up: on the class for methods, and in every `melontau` module that
holds the function under that name (bilinear, for one, imports
`z1mm_series` and `build_Y` by name).

`counting` is a separate, cheaper instrument for the scalar layer: it counts
`GaussRat` multiplies and adds and `Monomial` constructions, which run
millions of times, so timing them would distort every span above.

Import this module only once `melontau` is importable (worker.py arranges
that).
"""

import hashlib
import sys
import time
from contextlib import contextmanager

from melontau import bilinear, decomposition, onematrix, wick
from melontau.diffops import DiffOp
from melontau.scalars import GaussRat
from melontau.series import Monomial, Series

# span name -> the functions it covers, as (owner, attribute name)
SPANS = {
    "series.mul": ((Series, "mul"),),
    "series.add": ((Series, "__add__"),),
    "diffops.apply": ((DiffOp, "apply"),),
    "diffops.apply_exp": ((DiffOp, "apply_exp"),),
    "diffops.compose": ((DiffOp, "compose"),),
    "wick.moment": ((wick, "hermitian_moment"),),
    "wick.tensor_moment": ((wick, "tensor_moment"),),
    "onematrix.z1mm_series": ((onematrix, "z1mm_series"),),
    "onematrix.z1mm_hankel": ((onematrix, "z1mm_hankel"),),
    "onematrix.orthopoly": tuple(
        (onematrix, n) for n in ("orthogonality_residual", "orthopoly_det",
                                 "charpoly_expectation",
                                 "hankel_chain_residuals")),
    "decomposition.routes": tuple(
        (decomposition, n) for n in ("direct_tensor_z", "intermediate_field_z",
                                     "eY_applied_z")),
    "decomposition.build_Y": ((decomposition, "build_Y"),),
    "bilinear.vertex_factor": ((bilinear, "hirota_factor"),
                               (bilinear, "tensor_vertex_factor")),
    "bilinear.sandwich": ((bilinear, "conjugation_sandwich_residual"),),
}

# Spans each workload must fire at least once, so that a renamed function
# fails the traced run instead of reporting zeros.
EXPECTED_SPANS = {
    "moments": ("series.mul", "series.add", "diffops.apply", "wick.moment",
                "onematrix.z1mm_series"),
    "dressed-bilinear": ("series.mul", "series.add", "diffops.apply",
                         "diffops.apply_exp", "onematrix.z1mm_series",
                         "onematrix.z1mm_hankel", "decomposition.build_Y",
                         "bilinear.vertex_factor"),
    "many-small": tuple(SPANS),
}

# functions whose outputs are compared, by Series.serialize() digest,
# against the digests recorded on the seed (digests.json)
DIGESTED = ("z1mm_series", "hirota_factor", "tensor_vertex_factor")

COUNTERS = ("scalars.mul_calls", "scalars.add_calls", "series.monomial_new")


def _sites(owner, attr):
    """Every object whose attribute `attr` is the function to wrap."""
    if isinstance(owner, type):
        return [owner]
    fn = getattr(owner, attr)
    return [m for name, m in sorted(sys.modules.items())
            if (name == "melontau" or name.startswith("melontau."))
            and getattr(m, attr, None) is fn]


@contextmanager
def _patched(replacements):
    """Install (owner, attr, make_wrapper) everywhere; restore on exit."""
    saved = []
    try:
        for owner, attr, make in replacements:
            fn = (owner.__dict__[attr] if isinstance(owner, type)
                  else getattr(owner, attr))
            wrapper = make(fn)
            for site in _sites(owner, attr):
                saved.append((site, attr, fn))
                setattr(site, attr, wrapper)
        yield
    finally:
        for site, attr, fn in reversed(saved):
            setattr(site, attr, fn)


def digest(series):
    return hashlib.sha256(series.serialize().encode()).hexdigest()


class Tracer:
    """Aggregated spans for one traced pass."""

    def __init__(self):
        self.stack = []            # open spans: [name, child_s, peak_terms]
        self.spans = {name: [0, 0.0] for name in SPANS}  # calls, self_s
        self.counts = {"series.mul_pairs": 0, "series.mul_terms_out": 0,
                       "diffops.apply_terms_out": 0,
                       "diffops.apply_exp_steps": 0}
        self.factors = []          # (peak terms, output terms) per factor
        self.digests = []          # (call key, output digest)

    def _wrap(self, name, attr, fn):
        stack = self.stack
        agg = self.spans[name]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, 0.0, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                agg[0] += 1
                agg[1] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            t1 = clock()
            self._after(name, attr, frame, args, kwargs, result)
            if stack:              # keep the hook out of the parent's self time
                stack[-1][1] += clock() - t1
            return result
        return wrapper

    def _after(self, name, attr, frame, args, kwargs, result):
        n = len(result.terms) if isinstance(result, Series) else 0
        for open_frame in reversed(self.stack):
            if open_frame[0] == "bilinear.vertex_factor":
                open_frame[2] = max(open_frame[2], n)
                break
        if name == "series.mul":
            self.counts["series.mul_pairs"] += (len(args[0].terms)
                                                * len(args[1].terms))
            self.counts["series.mul_terms_out"] += n
        elif name == "diffops.apply":
            self.counts["diffops.apply_terms_out"] += n
            if self.stack and self.stack[-1][0] == "diffops.apply_exp":
                self.counts["diffops.apply_exp_steps"] += 1
        elif name == "bilinear.vertex_factor":
            self.factors.append((max(frame[2], n), n))
        if attr in DIGESTED:
            key = "%s%r%r" % (attr, args, sorted(kwargs.items()))
            self.digests.append((key, digest(result)))

    @contextmanager
    def installed(self):
        with _patched([(owner, attr,
                        lambda fn, name=name, attr=attr:
                            self._wrap(name, attr, fn))
                       for name, sites in SPANS.items()
                       for owner, attr in sites]):
            yield self

    def metrics(self):
        """Per-layer metrics of the traced pass (seconds, counts, ratios).

        bilinear.peak_terms is the largest series any vertex factor built;
        bilinear.survival_ratio is the factors' output terms over their
        peak terms, both summed over the vertex-factor calls.
        """
        s, c = self.spans, self.counts
        peaks = sum(p for p, _ in self.factors)
        return {
            "series.mul_calls": s["series.mul"][0],
            "series.mul_self_s": s["series.mul"][1],
            "series.mul_pairs": c["series.mul_pairs"],
            "series.mul_keep_ratio": (c["series.mul_terms_out"]
                                      / c["series.mul_pairs"]
                                      if c["series.mul_pairs"] else 0.0),
            "series.add_self_s": s["series.add"][1],
            "diffops.apply_calls": s["diffops.apply"][0],
            "diffops.apply_self_s": s["diffops.apply"][1],
            "diffops.apply_terms_out": c["diffops.apply_terms_out"],
            "diffops.apply_exp_steps": c["diffops.apply_exp_steps"],
            "diffops.compose_self_s": s["diffops.compose"][1],
            "wick.moment_calls": s["wick.moment"][0],
            "wick.moment_self_s": s["wick.moment"][1],
            "wick.tensor_moment_self_s": s["wick.tensor_moment"][1],
            "onematrix.z1mm_series_self_s": s["onematrix.z1mm_series"][1],
            "onematrix.z1mm_hankel_self_s": s["onematrix.z1mm_hankel"][1],
            "onematrix.orthopoly_self_s": s["onematrix.orthopoly"][1],
            "decomposition.routes_self_s": s["decomposition.routes"][1],
            "decomposition.build_Y_self_s": s["decomposition.build_Y"][1],
            "bilinear.vertex_factor_self_s": s["bilinear.vertex_factor"][1],
            "bilinear.peak_terms": max((p for p, _ in self.factors),
                                       default=0),
            "bilinear.survival_ratio": (sum(o for _, o in self.factors) / peaks
                                        if peaks else 0.0),
            "bilinear.sandwich_self_s": s["bilinear.sandwich"][1],
        }

    def unfired(self, workload):
        return [n for n in EXPECTED_SPANS[workload] if not self.spans[n][0]]


@contextmanager
def counting(counts):
    """Count scalar multiplies/adds and Monomial constructions into counts."""
    for name in COUNTERS:
        counts[name] = 0

    def counter(name):
        def make(fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    with _patched([(GaussRat, "__mul__", counter("scalars.mul_calls")),
                   (GaussRat, "__rmul__", counter("scalars.mul_calls")),
                   (GaussRat, "__add__", counter("scalars.add_calls")),
                   (GaussRat, "__radd__", counter("scalars.add_calls")),
                   (Monomial, "__init__", counter("series.monomial_new"))]):
        yield counts
