"""Command-line front end.

Subcommands map onto the library one-to-one: check (sparsity verdicts,
single file or a directory of files), lift (write a symmetric cover as
text and DOT), construct / deconstruct (certificates), verify (replay a
certificate), dot (visualization).  Exit codes are part of the
contract: 0 success, 1 negative verdict (violation found or certificate
invalid), 2 usage or parse problem, 3 enumeration budget exceeded.
"""

import argparse
import os
import sys

from .errors import (UsageError, ParseError, CertificateError,
                     BudgetExceededError)
from .graphs import parse_colored_graph
from .sparsity import FAMILIES, DEFAULT_BUDGET, verdict_line
from .lifts import build_lift, colored_graph_to_dot, lift_to_dot, lift_to_text
from .henneberg import (CONSTRUCTIBLE, check, lift_applies, random_construct,
                        deconstruct, verify_certificate, parse_certificate,
                        serialize_certificate)
# Unused here: perfbench/spans.py patches these names on this module by
# name, and fails if they are missing.
from . import (check_colored_sparsity, cone_laman_via_lift,  # noqa: F401
               fundamental_circuit, is_kl_sparse, is_kl_spanning,
               reduce_colors)


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError("cannot read %s: %s" % (path, exc))


def _write(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError("cannot write %s: %s" % (path, exc))


def _load_graph(path):
    return parse_colored_graph(_read(path))


def _cmd_check(args):
    if os.path.isdir(args.file):
        names = sorted(f for f in os.listdir(args.file) if not f.startswith(".")
                       and not os.path.isdir(os.path.join(args.file, f)))
        if not names:
            raise UsageError("no files in %s" % args.file)
        inputs = [(name + ": ", os.path.join(args.file, name)) for name in names]
    else:
        inputs = [("", args.file)]
    status = 0
    for prefix, path in inputs:
        g = _load_graph(path)
        try:
            v = check(g, args.family, args.method, args.budget)
        except BudgetExceededError as exc:
            if lift_applies(g, args.family):
                raise BudgetExceededError(
                    "%s (try --method lift)" % exc) from None
            raise
        print(prefix + verdict_line(v))
        if not v.sparse:
            status = 1
    return status


def _cmd_lift(args):
    sg = build_lift(_load_graph(args.file))
    _write(args.out + ".txt", lift_to_text(sg))
    _write(args.out + ".dot", lift_to_dot(sg))
    return 0


def _cmd_construct(args):
    cert = random_construct(args.family, args.steps, args.seed)
    _write(args.out, serialize_certificate(cert))
    return 0


def _cmd_deconstruct(args):
    cert = deconstruct(_load_graph(args.file), args.family)
    _write(args.out, serialize_certificate(cert))
    return 0


def _cmd_verify(args):
    try:
        g = verify_certificate(parse_certificate(_read(args.certificate)))
    except CertificateError as exc:
        print("invalid certificate: %s" % exc, file=sys.stderr)
        return 1
    print("valid: replays to n=%d m=%d" % (g.n, g.m))
    return 0


def _cmd_dot(args):
    g = _load_graph(args.file)
    if args.lift:
        _write(args.out, lift_to_dot(build_lift(g)))
    else:
        _write(args.out, colored_graph_to_dot(g))
    return 0


def _parser():
    ap = argparse.ArgumentParser(
        prog="gainsparse",
        description="Recognize, lift, construct and deconstruct "
                    "group-colored sparse graphs.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="sparsity verdict for a graph file, "
                                     "or every file in a directory")
    p.add_argument("file", help="colored graph file, or a directory of them")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--method", choices=("brute", "lift"), default="brute")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="edge cap for brute subgraph enumeration "
                        "(default %(default)s)")
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("lift", help="write a symmetric cover as text and DOT")
    p.add_argument("file", help="colored graph file (finite group colors)")
    p.add_argument("out", help="output prefix; writes OUT.txt and OUT.dot")
    p.set_defaults(run=_cmd_lift)

    p = sub.add_parser("construct", help="random certificate for a family")
    p.add_argument("--family", required=True, choices=sorted(CONSTRUCTIBLE))
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("out", help="certificate file to write")
    p.set_defaults(run=_cmd_construct)

    p = sub.add_parser("deconstruct", help="strip a tight graph to a base "
                                           "and emit the certificate")
    p.add_argument("file", help="colored graph file")
    p.add_argument("--family", required=True, choices=sorted(CONSTRUCTIBLE))
    p.add_argument("out", help="certificate file to write")
    p.set_defaults(run=_cmd_deconstruct)

    p = sub.add_parser("verify", help="replay a certificate, checking "
                                      "every move")
    p.add_argument("certificate", help="certificate file")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("dot", help="write a DOT rendering of a graph "
                                   "or its lift")
    p.add_argument("file", help="colored graph file")
    p.add_argument("out", help="DOT file to write")
    p.add_argument("--lift", action="store_true",
                   help="render the symmetric cover instead of the base")
    p.set_defaults(run=_cmd_dot)
    return ap


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except BudgetExceededError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except (ParseError, UsageError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
