"""Command-line surface over the verification workbench.

Layout:

    melontau verify  {commutator,bch,decomposition,grading,virasoro,
                      orthopoly,hirota,conjugation,tensor-bilinear}
    melontau compute {tutte,free-energy}
    melontau graph   {degree,jackets}
    melontau moment  {matrix,tensor}

verify emits one JSON CheckReport per line on stdout (--format text for
human lines) and a one-line summary on stderr; exit code 0 when every
check passed, 1 otherwise, 2 for unusable configuration.  compute/graph/
moment print their result as a single JSON object (or plain text).

Sizes left unset pick the documented defaults of each check, which are
the sizes the test suite pins down; larger boxes are exact too, just
slower.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from . import bilinear, decomposition, onematrix, wick
from .graphs import ColoredGraph
from .reports import CheckReport, emit, timed_check
from .series import USeries


def _fill(value, default):
    return default if value is None else value


def _at_least(flag, value, low):
    """value, or a configuration error (exit 2) when it is below low."""
    if value < low:
        raise ValueError("%s must be at least %d, got %d" % (flag, low, value))
    return value


def _residual_detail(r) -> str:
    """Term count and the three lowest serialized terms of a residual."""
    head = r.serialize().splitlines()[:3]
    return "%d nonzero residual term(s), lowest: %s" % (len(r.terms),
                                                        "; ".join(head))


def _zero_check(name: str, params: dict[str, Any], residual) -> CheckReport:
    def run():
        r = residual()
        if r.is_zero():
            return True, "residual identically zero"
        return False, _residual_detail(r)
    return timed_check(name, params, run)


# -- verify ----------------------------------------------------------------


def _verify_commutator(args) -> list[CheckReport]:
    # Yhat has no terms at index cap 0: vacuous
    max_q = _at_least("--pmax", _fill(args.pmax, 4), 1)
    Ds = ([_at_least("--D", args.D, 1)] if args.D is not None
          else [2, 3, 4])
    return [
        _zero_check("commutator", {"D": D, "max_q": max_q},
                    lambda D=D: decomposition.commutator_residual(D, max_q))
        for D in Ds
    ]


def _verify_bch(args) -> list[CheckReport]:
    order = _at_least("--order", _fill(args.order, 8), 0)

    def run():
        (a, b), (c, d) = decomposition.bch_log_product(order)
        dsym = USeries([0, 1], order)
        zero = USeries([], order)
        gamma = decomposition.bch_gamma(order)
        ok = (a == dsym and c == zero and d == zero and b == gamma
              and gamma == decomposition.bch_gamma_sym(order))
        return ok, "log(e^X e^Y) = X + gamma(D) Y through D^%d" % order

    return [timed_check("bch-closed-form", {"order": order}, run)]


def _verify_decomposition(args) -> list[CheckReport]:
    # D = 1 has no intermediate matrix and K = 0 only the constant term
    D = _at_least("--D", _fill(args.D, 3), 2)
    K = _at_least("--order", _fill(args.order, 1), 1)
    out = []

    def run():
        d_int, d_op = decomposition.decomposition_residuals(D, K)
        if d_int.is_zero() and d_op.is_zero():
            return True, "three routes agree exactly"
        return False, "intermediate diff %d term(s), operator diff %d" % (
            len(d_int.terms), len(d_op.terms))

    out.append(timed_check("decomposition", {"D": D, "K": K}, run))
    return out


def _verify_grading(args) -> list[CheckReport]:
    # the grading rests on the intermediate field, which needs D >= 2
    D = _at_least("--D", _fill(args.D, 3), 2)
    K = _at_least("--order", _fill(args.order, 2), 1)

    def run():
        expo = decomposition.tensor_free_energy_exponents(D, K)
        if D == 2:
            # ribbon graphs: the usual even genus grading
            ok = all(max(v) <= 2 and all(e % 2 == 0 for e in v)
                     for v in expo.values())
        else:
            # melonic dominance: cap D, attained at every order
            ok = all(max(v) == D for v in expo.values())
        return ok, "free-energy N-exponents %s" % expo

    return [timed_check("tensor-grading", {"D": D, "K": K}, run)]


def _verify_virasoro(args) -> list[CheckReport]:
    p_ext = _fill(args.pmax, 4)
    deg = _fill(args.deg, 3)
    return [
        _zero_check("virasoro", {"n": n, "p_ext": p_ext, "deg": deg},
                    lambda n=n: onematrix.virasoro_residual(n, p_ext, deg))
        for n in (-1, 0, 1, 2)
    ]


def _verify_orthopoly(args) -> list[CheckReport]:
    max_size = _at_least("--nsize", _fill(args.nsize, 3), 1)
    order = _at_least("--order", _fill(args.order, 2), 0)
    out = []
    for size in range(1, max_size + 1):
        def run(size=size):
            res = onematrix.orthogonality_residual(size, order)
            if any(any(c) for c in res):
                return False, "orthogonality residual nonzero"
            det = onematrix.orthopoly_det(size, size, order)
            char = onematrix.charpoly_expectation(size, order)
            if det != char:
                return False, "charpoly route disagrees with Hankel route"
            return True, "orthogonal through t4^%d; routes agree" % order
        out.append(timed_check("orthopoly", {"size": size, "order": order},
                               run))

    def chain():
        step, closed = onematrix.hankel_chain_residuals(max_size, max_size,
                                                        order)
        ok = all(not any(s) for s in step) and all(not any(s) for s in closed)
        return ok, "norm/partition ladder exact"

    out.append(timed_check("orthopoly-chain",
                           {"max_size": max_size, "order": order}, chain))
    return out


def _verify_hirota(args) -> list[CheckReport]:
    # degree 0 or index 0 cannot tell the a-scale apart: vacuous
    d_ext = _at_least("--deg", _fill(args.deg, 2), 1)
    p_ext = _at_least("--pmax", _fill(args.pmax, 3), 1)
    sizes = ([_at_least("--nsize", args.nsize, 1)] if args.nsize is not None
             else [1, 2])
    return [
        _zero_check("hirota", {"nsize": n, "deg": d_ext, "p_ext": p_ext},
                    lambda n=n: bilinear.hirota_residual(
                        n, d_ext, p_ext, zwindow=args.zwindow))
        for n in sizes
    ]


def _verify_conjugation(args) -> list[CheckReport]:
    # the sandwich needs a colour besides the active one
    Ds = [_at_least("--D", args.D, 2)] if args.D is not None else [2, 3]
    deg = _at_least("--deg", _fill(args.deg, 2), 0)
    out = []
    for D in Ds:
        def ops(D=D):
            res = bilinear.dressing_op_residuals(D)
            bad = [k for k, v in res.items() if not v.is_zero()]
            if bad:
                return False, "failed: %s" % ", ".join(bad)
            return True, "all four operator identities hold"
        out.append(timed_check("conjugation-ops", {"D": D}, ops))

        def sandwich(D=D):
            for mono in bilinear.basis_monomials(D, deg, 2):
                r = bilinear.conjugation_sandwich_residual(mono, D)
                if not r.is_zero():
                    return False, "mismatch at %s: %s" % (
                        mono, _residual_detail(r))
            return True, "sandwich equals dressed form on the basis"
        out.append(timed_check("conjugation-sandwich", {"D": D, "deg": deg},
                               sandwich))
    return out


def _verify_tensor_bilinear(args) -> list[CheckReport]:
    # the dressing Yhat is the intermediate field, which needs D >= 2
    D = _at_least("--D", _fill(args.D, 3), 2)
    # K = 0 is vacuous: the dropped-middle control has no terms there
    K = _at_least("--order", _fill(args.order, 1), 1)
    nsize = _at_least("--nsize", _fill(args.nsize, 1), 1)
    # degree 0 or index 0 cannot tell the middle factor apart: vacuous
    d_ext = _at_least("--deg", _fill(args.deg, 1), 1)
    p_ext = _at_least("--pmax", _fill(args.pmax, 2), 1)
    out = [_zero_check(
        "tensor-bilinear",
        {"D": D, "K": K, "nsize": nsize, "deg": d_ext, "p_ext": p_ext},
        lambda: bilinear.tensor_bilinear_residual(D, K, nsize, 1, d_ext,
                                                  p_ext))]
    out.append(_zero_check(
        "tensor-bilinear-reduction", {"D": D, "nsize": nsize},
        lambda: bilinear.tensor_reduction_residual(D, nsize)))
    return out


# the verify suites that read each size flag; the others refuse it
_READ_BY = {
    "zwindow": ("hirota",),
    "nsize": ("orthopoly", "hirota", "tensor-bilinear"),
}

_VERIFY = {
    "commutator": _verify_commutator,
    "bch": _verify_bch,
    "decomposition": _verify_decomposition,
    "grading": _verify_grading,
    "virasoro": _verify_virasoro,
    "orthopoly": _verify_orthopoly,
    "hirota": _verify_hirota,
    "conjugation": _verify_conjugation,
    "tensor-bilinear": _verify_tensor_bilinear,
}


# -- compute / graph / moment ----------------------------------------------


def _result(args, payload: dict, text: str) -> int:
    if args.format == "text":
        print(text)
    else:
        print(json.dumps(payload, sort_keys=True))
    return 0


def _compute_tutte(args) -> int:
    order = _at_least("--order", _fill(args.order, 4), 0)
    vals = onematrix.planar_two_point(order)
    return _result(
        args,
        {"order": order, "signed": [str(v) for v in vals],
         "counts": [str(abs(v)) for v in vals]},
        "planar two-point t4-coefficients: %s" % ", ".join(map(str, vals)))


def _compute_free_energy(args) -> int:
    # the output starts at t4^1
    order = _at_least("--order", _fill(args.order, 3), 1)
    coeffs = onematrix.free_energy_quartic(order)
    payload = {"order": order,
               "coefficients": {str(k + 1): {str(e): str(c)
                                             for e, c in p.c.items()}
                                for k, p in enumerate(coeffs)}}
    lines = ["[t4^%d] log Z = %s" % (k + 1, p) for k, p in enumerate(coeffs)]
    return _result(args, payload, "\n".join(lines))


def _read_graph(args) -> ColoredGraph:
    if not args.file:
        raise ValueError("graph/moment commands need --file (path or '-')")
    text = sys.stdin.read() if args.file == "-" else open(args.file).read()
    return ColoredGraph.from_json(text)


def _graph_degree(args) -> int:
    g = _read_graph(args)
    genera = {"-".join(map(str, j)): g.jacket_genus(j) for j in g.jackets()}
    return _result(
        args,
        {"D": g.D, "white": g.k, "degree": g.gurau_degree(),
         "jacket_genera": genera},
        "degree %d; jacket genera %s" % (g.gurau_degree(), genera))


def _graph_jackets(args) -> int:
    g = _read_graph(args)
    js = [list(j) for j in g.jackets()]
    return _result(args, {"D": g.D, "jackets": js},
                   "\n".join(",".join(map(str, j)) for j in js))


def _moment_matrix(args) -> int:
    word = tuple(args.powers)
    if any(p < 0 for p in word):
        raise ValueError("trace powers must be >= 0")
    m = wick.hermitian_moment(word)
    return _result(args,
                   {"word": list(word),
                    "moment": {str(k): str(v) for k, v in sorted(m.c.items())}},
                   "<%s> = %s" % (" ".join("TrM^%d" % p for p in word), m))


def _moment_tensor(args) -> int:
    g = _read_graph(args)
    m = wick.tensor_moment(g.perms)
    return _result(args,
                   {"D": g.D, "white": g.k,
                    "moment": {str(k): str(v) for k, v in sorted(m.c.items())}},
                   "<invariant> = %s" % m)


# -- argument surface ------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--D", type=int, default=None,
                        help="number of tensor colours")
    common.add_argument("-K", "--order", type=int, default=None,
                        help="coupling/series order")
    common.add_argument("--pmax", type=int, default=None,
                        help="largest time index kept")
    common.add_argument("--deg", type=int, default=None,
                        help="largest time degree kept")
    common.add_argument("--nsize", type=int, default=None,
                        help="concrete matrix size")
    common.add_argument("--zwindow", type=int, default=None,
                        help="half-width override for the z window")
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--file", default=None,
                        help="input file for graph/moment commands ('-' = stdin)")

    p = argparse.ArgumentParser(
        prog="melontau",
        description="exact order-by-order checks for the melonic tensor "
                    "model and its matrix-model decomposition")
    sub = p.add_subparsers(dest="cmd", required=True)

    pv = sub.add_parser("verify", help="run an identity check suite")
    sv = pv.add_subparsers(dest="sub", required=True)
    for name in _VERIFY:
        sv.add_parser(name, parents=[common])

    pc = sub.add_parser("compute", help="print exact computed values")
    sc = pc.add_subparsers(dest="sub", required=True)
    sc.add_parser("tutte", parents=[common])
    sc.add_parser("free-energy", parents=[common])

    pg = sub.add_parser("graph", help="coloured-graph invariants")
    sg = pg.add_subparsers(dest="sub", required=True)
    sg.add_parser("degree", parents=[common])
    sg.add_parser("jackets", parents=[common])

    pm = sub.add_parser("moment", help="exact Gaussian moments")
    sm = pm.add_subparsers(dest="sub", required=True)
    mm = sm.add_parser("matrix", parents=[common])
    mm.add_argument("powers", nargs="+", type=int, metavar="P",
                    help="trace powers of the moment word")
    sm.add_parser("tensor", parents=[common])
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.cmd == "verify":
            for flag, suites in _READ_BY.items():
                if getattr(args, flag) is not None and args.sub not in suites:
                    raise ValueError("--%s is not read by verify %s"
                                     % (flag, args.sub))
            return emit(_VERIFY[args.sub](args), args.format)
        if args.cmd == "compute":
            return (_compute_tutte if args.sub == "tutte"
                    else _compute_free_energy)(args)
        if args.cmd == "graph":
            return (_graph_degree if args.sub == "degree"
                    else _graph_jackets)(args)
        if args.cmd == "moment":
            return (_moment_matrix if args.sub == "matrix"
                    else _moment_tensor)(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    raise AssertionError("unreachable command %r" % args.cmd)


if __name__ == "__main__":
    sys.exit(main())
