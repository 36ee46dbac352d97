"""Command-line interface.

Compositions are written as comma-separated parts (``1,4,3``); the empty
composition is the literal ``empty``.  Tableaux travel as JSON files in the
format produced by :func:`qschur.tableaux.to_json_dict`.  Output is JSON by
default; commands whose result is a single graded element also accept
``--format tsv`` and then emit one ``index<TAB>coefficient`` row per term.

Each command is one entry of :data:`COMMANDS`: its help, the function that
adds its arguments and its handler.  :func:`main` parses a named command's
arguments with that command's parser alone, no top-level parser holding a
sub-parser; ``-h``, a missing or an unknown command get the parser of
every command.  Only the ``verify`` command imports :mod:`qschur.verify`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .applications import (
    descent_pieri_K,
    ncqsym_to_polynomial,
    pr_product,
    project,
    qs_rs,
)
from .compositions import covers, interval_chains, leq
from .nsym import lr_coeff, pieri, product_nc_schur, strip_report
from .qsym import (
    TruncatedPolynomial,
    convert,
    element_to_json,
    qs_schur,
    skew_qs_schur,
    to_polynomial,
)
from .tableaux import (
    COMPOSITION,
    PARTITION,
    enumerate_semistandard,
    enumerate_standard,
    skew_shape,
    tableau_from_json,
    to_json_dict,
)
from .transforms import (
    pack_columns,
    rect,
    rsk,
    unpack_columns,
)


def _parse_positive_ints(text: str, noun: str) -> tuple[int, ...]:
    if text == "empty":
        return ()
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token.isdecimal() or int(token) < 1:
            raise argparse.ArgumentTypeError(
                f"{noun} {token!r} is not a positive integer"
            )
        values.append(int(token))
    return tuple(values)


def parse_composition(text: str) -> tuple[int, ...]:
    return _parse_positive_ints(text, "composition part")


def parse_word(text: str) -> tuple[int, ...]:
    return _parse_positive_ints(text, "letter")


def load_tableau(path: str):
    with open(path) as handle:
        return tableau_from_json(json.load(handle))


def emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def index_label(index: tuple) -> str:
    return ",".join(str(p) for p in index) if index else "empty"


def emit_element(element, fmt: str) -> None:
    if fmt == "tsv":
        for index, coeff in element.sorted_terms():
            print(f"{index_label(index)}\t{coeff}")
    else:
        emit(element_to_json(element))


def poly_json(p: TruncatedPolynomial) -> dict:
    key = "exponents" if p.commutative else "word"
    return {
        "m": p.m,
        "commutative": p.commutative,
        "terms": [
            {key: list(idx), "coeff": coeff} for idx, coeff in p.sorted_terms()
        ],
    }


def step_json(step) -> dict:
    return {"kind": step.kind, "row": step.row, "column": step.column}


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "tsv"), default="json")


def _args_lr(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=parse_composition, required=True)
    p.add_argument("--beta", type=parse_composition, required=True)
    p.add_argument("--gamma", type=parse_composition, default=None)
    _add_format(p)


def _cmd_lr(args) -> int:
    if args.gamma is not None:
        print(lr_coeff(args.alpha, args.beta, args.gamma))
        return 0
    emit_element(product_nc_schur(args.alpha, args.beta), args.format)
    return 0


def _args_product(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=parse_composition, required=True)
    p.add_argument("--beta", type=parse_composition, required=True)
    _add_format(p)


def _cmd_product(args) -> int:
    emit_element(product_nc_schur(args.alpha, args.beta), args.format)
    return 0


def _args_skew(p: argparse.ArgumentParser) -> None:
    p.add_argument("--outer", type=parse_composition, required=True)
    p.add_argument("--inner", type=parse_composition, default=())
    p.add_argument("--basis", choices=("M", "L", "S"), default="M")
    _add_format(p)


def _cmd_skew(args) -> int:
    f = skew_qs_schur(args.outer, args.inner)
    emit_element(convert(f, args.basis), args.format)
    return 0


def _args_enumerate(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "what", choices=("sct", "ssct", "srt", "chains"), help="family to list"
    )
    p.add_argument("--outer", type=parse_composition, required=True)
    p.add_argument("--inner", type=parse_composition, default=())
    p.add_argument("--max-entry", type=int, default=None)


def _cmd_enumerate(args) -> int:
    if args.what == "chains":
        chains = interval_chains(args.inner, args.outer)
        emit([[step_json(s) for s in chain] for chain in chains])
        return 0
    kind = PARTITION if args.what == "srt" else COMPOSITION
    shape = skew_shape(kind, args.outer, args.inner)
    if args.what == "ssct":
        if args.max_entry is None:
            raise ValueError("--max-entry is required for ssct")
        tableaux = enumerate_semistandard(shape, args.max_entry)
    else:
        tableaux = enumerate_standard(shape)
    emit([to_json_dict(t) for t in tableaux])
    return 0


def _args_poset(p: argparse.ArgumentParser) -> None:
    poset_sub = p.add_subparsers(dest="poset_command", required=True)
    q = poset_sub.add_parser("covers", help="covers above and below a composition")
    q.add_argument("--comp", type=parse_composition, required=True)
    q = poset_sub.add_parser("leq", help="compare two compositions")
    q.add_argument("--beta", type=parse_composition, required=True)
    q.add_argument("--gamma", type=parse_composition, required=True)
    q = poset_sub.add_parser("interval", help="saturated chains in an interval")
    q.add_argument("--beta", type=parse_composition, required=True)
    q.add_argument("--gamma", type=parse_composition, required=True)


def _cmd_poset(args) -> int:
    if args.poset_command == "covers":
        emit(
            [
                {"composition": list(gamma), "step": step_json(step)}
                for gamma, step in covers(args.comp)
            ]
        )
    elif args.poset_command == "leq":
        emit(leq(args.beta, args.gamma))
    else:
        chains = interval_chains(args.beta, args.gamma)
        emit([[step_json(s) for s in chain] for chain in chains])
    return 0


def _args_rect(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tableau", required=True, help="path to a tableau JSON file")


def _cmd_rect(args) -> int:
    emit(to_json_dict(rect(load_tableau(args.tableau))))
    return 0


def _args_rsk(p: argparse.ArgumentParser) -> None:
    p.add_argument("--word", type=parse_word, required=True)


def _cmd_rsk(args) -> int:
    p_tab, q_tab = rsk(args.word)
    emit({"P": to_json_dict(p_tab), "Q": to_json_dict(q_tab)})
    return 0


def _args_rho(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tableau", required=True, help="path to a tableau JSON file")
    p.add_argument("--inverse", action="store_true")
    p.add_argument(
        "--beta",
        type=parse_composition,
        default=None,
        help="inner composition for the inverse skew map",
    )


def _cmd_rho(args) -> int:
    if args.beta is not None and not args.inverse:
        raise ValueError("--beta applies only with --inverse")
    t = load_tableau(args.tableau)
    out = unpack_columns(t, args.beta or ()) if args.inverse else pack_columns(t)
    emit(to_json_dict(out))
    return 0


def _args_pieri(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=("row", "column"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=parse_composition, required=True)
    p.add_argument("--diagnostic", action="store_true")
    _add_format(p)


def _cmd_pieri(args) -> int:
    if args.diagnostic:
        report = strip_report(args.kind, args.n, args.beta)
        emit(
            {
                "kind": report.kind,
                "n": report.n,
                "beta": list(report.beta),
                "predicted": [list(g) for g in report.predicted],
                "support": [list(g) for g in report.support],
                "missing": [list(g) for g in report.missing],
                "extra": [list(g) for g in report.extra],
                "nonunit": [list(g) for g in report.nonunit],
                "consistent": report.consistent,
            }
        )
        return 0
    emit_element(pieri(args.kind, args.n, args.beta), args.format)
    return 0


def _args_pr_product(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t1", required=True, help="path to a tableau JSON file")
    p.add_argument("--t2", required=True, help="path to a tableau JSON file")


def _cmd_pr_product(args) -> int:
    terms = pr_product(load_tableau(args.t1), load_tableau(args.t2))
    emit({"terms": [to_json_dict(t) for t in terms], "count": len(terms)})
    return 0


def _args_ncqsym(p: argparse.ArgumentParser) -> None:
    nc_sub = p.add_subparsers(dest="ncqsym_command", required=True)
    q = nc_sub.add_parser("qs-rs", help="noncommutative analogue as a polynomial")
    q.add_argument("--alpha", type=parse_composition, required=True)
    q.add_argument("--vars", type=int, default=None)
    q = nc_sub.add_parser("chi-check", help="check projection onto commuting variables")
    q.add_argument("--alpha", type=parse_composition, required=True)
    q.add_argument("--vars", type=int, default=None)


def _cmd_ncqsym(args) -> int:
    n = sum(args.alpha)
    m = args.vars if args.vars is not None else max(n, 1)
    if m < 1:
        raise ValueError("--vars must be at least 1")
    if args.ncqsym_command == "qs-rs":
        emit(poly_json(ncqsym_to_polynomial(qs_rs(args.alpha), m)))
        return 0
    rhs = math.factorial(n) * to_polynomial(qs_schur(args.alpha), m)
    ok = to_polynomial(project(qs_rs(args.alpha)), m) == rhs
    emit({"alpha": list(args.alpha), "vars": m, "ok": ok})
    return 0 if ok else 1


def _args_pieri_operator(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma", type=parse_composition, required=True)
    p.add_argument("--beta", type=parse_composition, required=True)
    _add_format(p)


def _cmd_pieri_operator(args) -> int:
    emit_element(descent_pieri_K(args.gamma, args.beta), args.format)
    return 0


def _args_verify(p: argparse.ArgumentParser) -> None:
    from .verify import DEFAULT_SEED, SUITES

    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--max-degree", type=int, default=5)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--jobs", type=int, default=1, help="worker processes (default: 1)")


def _cmd_verify(args) -> int:
    from .verify import run_suite

    report = run_suite(args.suite, args.max_degree, args.seed, args.jobs)
    emit(report)
    return 0 if report["ok"] else 1


# name -> (help, argument adder, handler), in the order ``-h`` lists them.
COMMANDS = {
    "lr": ("structure constant of a dual Schur product", _args_lr, _cmd_lr),
    "product": (
        "expand a product of dual Schur functions",
        _args_product,
        _cmd_product,
    ),
    "skew": ("expand a skew quasisymmetric Schur function", _args_skew, _cmd_skew),
    "enumerate": (
        "list tableaux or saturated chains",
        _args_enumerate,
        _cmd_enumerate,
    ),
    "poset": ("composition poset queries", _args_poset, _cmd_poset),
    "rect": ("rectify a skew composition tableau", _args_rect, _cmd_rect),
    "rsk": ("insertion and recording tableaux of a word", _args_rsk, _cmd_rsk),
    "rho": ("column-sorting bijection and its inverse", _args_rho, _cmd_rho),
    "pieri": ("multiply by a single row or column", _args_pieri, _cmd_pieri),
    "pr-product": (
        "product of two standard reverse tableaux",
        _args_pr_product,
        _cmd_pr_product,
    ),
    "ncqsym": ("noncommutative analogues", _args_ncqsym, _cmd_ncqsym),
    "pieri-operator": (
        "chain-descent series of a poset interval",
        _args_pieri_operator,
        _cmd_pieri_operator,
    ),
    "verify": ("run an identity suite", _args_verify, _cmd_verify),
}


def build_parser() -> argparse.ArgumentParser:
    """The ``qschur`` parser with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="qschur", description="quasisymmetric Schur function toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _parse_command(command: str, rest: list) -> argparse.Namespace:
    """Parse the arguments after a named command with that command's parser
    alone, no top-level parser around it.  Its errors and ``-h`` read as
    the full parser's sub-parser would, and leftover arguments are reported
    by :func:`build_parser`'s parser, as ``parse_args`` would; only that
    error path builds every sub-parser."""
    add_arguments = COMMANDS[command][1]
    parser = argparse.ArgumentParser(prog=f"qschur {command}")
    add_arguments(parser)
    args, extras = parser.parse_known_args(rest)
    if extras:
        build_parser().error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = command
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in COMMANDS:
        args = _parse_command(argv[0], argv[1:])
    else:
        args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command][2](args)
    except FileNotFoundError as exc:
        print(f"cannot read {exc.filename}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
