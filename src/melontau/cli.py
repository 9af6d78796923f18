"""Command-line surface over the verification workbench.

Layout:

    melontau verify  {commutator,bch,decomposition,grading,virasoro,
                      orthopoly,hirota,conjugation,tensor-bilinear}
    melontau compute {tutte,free-energy}
    melontau graph   {degree,jackets}
    melontau moment  {matrix,tensor}

Each subcommand accepts only the flags it reads.  _COMMANDS declares them
once, with each flag's default and least value; the subparsers, the
defaults, the exit-2 checks and --help are built from it.  A tuple
default runs the check once per value.  Each flag has one spelling: no
parser takes a prefix of a flag for the flag.  Defaults are the sizes
the test suite pins down; larger boxes are exact too, just slower.

verify emits one JSON CheckReport per line on stdout (--format text for
human lines) and a one-line summary on stderr.  Exit code 0 when every
check passed, 1 otherwise, 2 for a value below its least or a flag only
other subcommands read.  compute/graph/moment print one JSON object (or
plain text).  Every identity check but tensor-grading gets what must vanish
from the library and reports it in _zero_check: "<k> residual(s)
identically zero", or the first nonzero component's key or index path,
term count and three lowest terms.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any

from . import bilinear, decomposition, onematrix, wick
from .graphs import ColoredGraph
from .reports import CheckReport, emit, timed_check
from .series import Series, USeries


def _at_least(flag, value, low):
    """value, or a configuration error (exit 2) when it is below low."""
    if value < low:
        raise ValueError("%s must be at least %d, got %d" % (flag, low, value))
    return value


def _components(residual, path):
    """(path, nonzero terms as text, lowest first) for each component of
    residual: a Series, DiffOp or USeries, or a dict or list of them, each
    possibly a thunk, which is called only when the walk reaches it."""
    if callable(residual):
        residual = residual()
    if isinstance(residual, (dict, list)):
        for key, r in (residual.items() if isinstance(residual, dict)
                       else enumerate(residual)):
            yield from _components(r, "%s[%s]" % (path, key) if path
                                   else str(key))
    elif isinstance(residual, USeries):
        yield path, ["x^%d: %s" % (k, c) for k, c in enumerate(residual) if c]
    elif isinstance(residual, Series):
        yield path, residual.serialize().splitlines()
    else:
        yield path, residual.term_strs()


def _zero_check(name: str, params: dict[str, Any], residual) -> CheckReport:
    """The verdict of an identity check: every component of residual
    must vanish; a failure reports the first nonzero one."""
    def run():
        n = 0
        for n, (path, lines) in enumerate(_components(residual, ""), 1):
            if lines:
                head = "%d nonzero residual term(s), lowest: %s" % (
                    len(lines), "; ".join(lines[:3]))
                return False, "%s: %s" % (path, head) if path else head
        return True, "%d residual(s) identically zero" % n
    return timed_check(name, params, run)


# -- verify ----------------------------------------------------------------


def _verify_commutator(args) -> list[CheckReport]:
    max_q = args.pmax
    return [
        _zero_check("commutator", {"D": D, "max_q": max_q},
                    lambda D=D: decomposition.commutator_residual(D, max_q))
        for D in args.D
    ]


def _verify_bch(args) -> list[CheckReport]:
    order = args.order
    return [_zero_check("bch-closed-form", {"order": order},
                        lambda: decomposition.bch_residuals(order))]


def _verify_decomposition(args) -> list[CheckReport]:
    D, K = args.D, args.order
    return [_zero_check("decomposition", {"D": D, "K": K},
                        lambda: decomposition.decomposition_residuals(D, K))]


def _verify_grading(args) -> list[CheckReport]:
    D, K = args.D, args.order

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
    p_ext, deg = args.pmax, args.deg
    return [
        _zero_check("virasoro", {"n": n, "p_ext": p_ext, "deg": deg},
                    lambda n=n: onematrix.virasoro_residual(n, p_ext, deg))
        for n in (-1, 0, 1, 2)
    ]


def _verify_orthopoly(args) -> list[CheckReport]:
    max_size, order = args.nsize, args.order
    return [_zero_check("orthopoly", {"size": size, "order": order},
                        lambda size=size: onematrix.orthopoly_residuals(
                            size, order))
            for size in range(1, max_size + 1)] + [
        _zero_check("orthopoly-chain", {"max_size": max_size, "order": order},
                    lambda: onematrix.hankel_chain_residuals(
                        max_size, max_size, order))]


def _verify_hirota(args) -> list[CheckReport]:
    d_ext, p_ext = args.deg, args.pmax
    return [
        _zero_check("hirota", {"nsize": n, "deg": d_ext, "p_ext": p_ext},
                    lambda n=n: bilinear.hirota_residual(n, d_ext, p_ext))
        for n in args.nsize
    ]


def _verify_conjugation(args) -> list[CheckReport]:
    # below degree D-1 no basis monomial has a letter in every non-active
    # colour, so e^Y never fires and the sandwich cannot fail: vacuous
    degs = [max(2, D - 1) if args.deg is None
            else _at_least("--deg", args.deg, D - 1) for D in args.D]
    return [check for D, deg in zip(args.D, degs) for check in (
        _zero_check("conjugation-ops", {"D": D},
                    lambda D=D: bilinear.dressing_op_residuals(D)),
        # one thunk per basis monomial: the walk stops at the first failure
        _zero_check("conjugation-sandwich", {"D": D, "deg": deg},
                    lambda D=D, deg=deg:
                    bilinear.conjugation_sandwich_residuals(D, deg)))]


def _verify_tensor_bilinear(args) -> list[CheckReport]:
    D, K, nsize = args.D, args.order, args.nsize
    d_ext, p_ext = args.deg, args.pmax
    return [
        _zero_check(
            "tensor-bilinear",
            {"D": D, "K": K, "nsize": nsize, "deg": d_ext, "p_ext": p_ext},
            lambda: bilinear.tensor_bilinear_residual(D, K, nsize, d_ext,
                                                      p_ext)),
        _zero_check("tensor-bilinear-reduction", {"D": D, "nsize": nsize},
                    lambda: bilinear.tensor_reduction_residual(D, nsize))]


# -- compute / graph / moment: each returns (JSON payload, text) -----------


def _compute_tutte(args) -> tuple[dict, str]:
    vals = onematrix.planar_two_point(args.order)
    return ({"order": args.order, "signed": [str(v) for v in vals],
             "counts": [str(abs(v)) for v in vals]},
            "planar two-point t4-coefficients: %s" % ", ".join(map(str, vals)))


def _compute_free_energy(args) -> tuple[dict, str]:
    coeffs = onematrix.free_energy_quartic(args.order)
    payload = {"order": args.order,
               "coefficients": {str(k + 1): {str(e): str(c)
                                             for e, c in p.c.items()}
                                for k, p in enumerate(coeffs)}}
    lines = ["[t4^%d] log Z = %s" % (k + 1, p) for k, p in enumerate(coeffs)]
    return payload, "\n".join(lines)


def _read_graph(args) -> ColoredGraph:
    if not args.file:
        raise ValueError("graph/moment commands need --file (path or '-')")
    if args.file == "-":
        return ColoredGraph.from_json(sys.stdin.read())
    with open(args.file) as f:
        return ColoredGraph.from_json(f.read())


def _graph_degree(args) -> tuple[dict, str]:
    g = _read_graph(args)
    genera = {"-".join(map(str, j)): g.jacket_genus(j) for j in g.jackets()}
    return ({"D": g.D, "white": g.k, "degree": g.gurau_degree(),
             "jacket_genera": genera},
            "degree %d; jacket genera %s" % (g.gurau_degree(), genera))


def _graph_jackets(args) -> tuple[dict, str]:
    g = _read_graph(args)
    js = [list(j) for j in g.jackets()]
    return ({"D": g.D, "jackets": js},
            "\n".join(",".join(map(str, j)) for j in js))


def _moment_matrix(args) -> tuple[dict, str]:
    word = tuple(args.powers)
    if any(p < 0 for p in word):
        raise ValueError("trace powers must be >= 0")
    m = wick.hermitian_moment(word)
    return ({"word": list(word),
             "moment": {str(k): str(v) for k, v in sorted(m.c.items())}},
            "<%s> = %s" % (" ".join("TrM^%d" % p for p in word), m))


def _moment_tensor(args) -> tuple[dict, str]:
    g = _read_graph(args)
    m = wick.tensor_moment(g.perms)
    return ({"D": g.D, "white": g.k,
             "moment": {str(k): str(v) for k, v in sorted(m.c.items())}},
            "<invariant> = %s" % m)


# -- argument surface ------------------------------------------------------


# the shared flags: dest -> (option strings, type, help)
_FLAGS = {
    "D": (("--D",), int, "number of tensor colours"),
    "order": (("-K", "--order"), int, "coupling/series order"),
    "pmax": (("--pmax",), int, "largest time index kept"),
    "deg": (("--deg",), int, "largest time degree kept"),
    "nsize": (("--nsize",), int, "concrete matrix size"),
    "file": (("--file",), str, "input graph JSON file ('-' = stdin)"),
}
_DEST = {opt: dest for dest, (opts, _, _) in _FLAGS.items() for opt in opts}

# cmd -> (help, sub -> (handler, dest -> (default, least[, help note])));
# every subcommand also reads --format
_COMMANDS = {
    "verify": ("run an identity check suite", {
        # Yhat has no terms at index cap 0: vacuous
        "commutator": (_verify_commutator,
                       {"D": ((2, 3, 4), 1), "pmax": (4, 1)}),
        "bch": (_verify_bch, {"order": (8, 0)}),
        # D = 1 has no intermediate matrix (which the grading rests on
        # too) and K = 0 only the constant term
        "decomposition": (_verify_decomposition,
                          {"D": (3, 2), "order": (1, 1)}),
        "grading": (_verify_grading, {"D": (3, 2), "order": (2, 1)}),
        # index or degree cap 0 hides a wrong operator: vacuous
        "virasoro": (_verify_virasoro, {"pmax": (4, 1), "deg": (3, 1)}),
        "orthopoly": (_verify_orthopoly, {"nsize": (3, 1), "order": (2, 0)}),
        # degree 0 or index 0 cannot tell the a-scale apart: vacuous
        "hirota": (_verify_hirota, {"deg": (2, 1), "pmax": (3, 1),
                                    "nsize": ((1, 2), 1)}),
        # the sandwich needs a colour besides the active one; the degree
        # bound depends on D, so the handler fills and checks it
        "conjugation": (_verify_conjugation, {"D": ((2, 3), 2), "deg": (
            None, 1, "default max(2, D-1); at least D-1")}),
        # Yhat needs D >= 2; K = 0, degree 0 and index 0 cannot tell the
        # middle factor apart (the dropped-middle control vanishes there)
        "tensor-bilinear": (_verify_tensor_bilinear, {
            "D": (3, 2), "order": (1, 1), "nsize": (1, 1), "deg": (1, 1),
            "pmax": (2, 1)}),
    }),
    # free-energy output starts at t4^1
    "compute": ("print exact computed values", {
        "tutte": (_compute_tutte, {"order": (4, 0)}),
        "free-energy": (_compute_free_energy, {"order": (3, 1)})}),
    "graph": ("coloured-graph invariants", {
        "degree": (_graph_degree, {"file": (None, None)}),
        "jackets": (_graph_jackets, {"file": (None, None)})}),
    "moment": ("exact Gaussian moments", {
        "matrix": (_moment_matrix, {}),
        "tensor": (_moment_tensor, {"file": (None, None)})}),
}


def _flag_help(dest, default, least, note=None):
    if note is None and least is not None:
        note = "default %s; at least %d" % (
            " then ".join(map(str, default)) if isinstance(default, tuple)
            else default, least)
    return "%s (%s)" % (_FLAGS[dest][2], note) if note else _FLAGS[dest][2]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; no parser accepts a prefix of
    a flag for the flag."""
    p = argparse.ArgumentParser(
        prog="melontau", allow_abbrev=False,
        description="exact order-by-order checks for the melonic tensor "
                    "model and its matrix-model decomposition")
    sub = p.add_subparsers(dest="cmd", required=True)
    for cmd, (help_, subs) in _COMMANDS.items():
        ss = sub.add_parser(cmd, help=help_, allow_abbrev=False
                            ).add_subparsers(dest="sub", required=True)
        for name, (handler, flags) in subs.items():
            sp = ss.add_parser(name, allow_abbrev=False)
            sp.set_defaults(run=handler, flags=flags)
            if handler is _moment_matrix:
                sp.add_argument("powers", nargs="+", type=int, metavar="P",
                                help="trace powers of the moment word")
            for dest, spec in flags.items():
                opts, type_, _ = _FLAGS[dest]
                sp.add_argument(*opts, dest=dest, type=type_,
                                help=_flag_help(dest, *spec))
            sp.add_argument("--format", choices=("json", "text"),
                            default="json", help="output (default json)")
    return p


def _parse(argv=None) -> argparse.Namespace:
    """The command line, each declared flag at its value or default.

    ValueError names a shared flag this subcommand does not read (also
    when written -K3 or --order=3) or a value below its least; any other
    stray argument, a prefix of a flag included, is an argparse error."""
    parser = _build_parser()
    args, extras = parser.parse_known_args(argv)
    for token in extras:
        opt = token.split("=")[0]
        dest = _DEST.get(opt if opt.startswith("--") else opt[:2])
        if dest is not None:
            raise ValueError("--%s is not read by %s %s"
                             % (dest, args.cmd, args.sub))
    if extras:
        parser.error("unrecognized arguments: %s" % " ".join(extras))
    for dest, (default, least, *_) in args.flags.items():
        value = getattr(args, dest)
        if value is None:
            setattr(args, dest, default)
        elif least is not None:
            _at_least("--" + dest, value, least)
            if isinstance(default, tuple):
                setattr(args, dest, (value,))
    return args


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        out = args.run(args)
        if args.cmd == "verify":
            return emit(out, args.format)
        payload, text = out
        print(text if args.format == "text"
              else json.dumps(payload, sort_keys=True))
        return 0
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
