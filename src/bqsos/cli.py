"""Command-line front end: field classification, exact lengths, lower
bounds, length profiles, table verification, and family sweeps.

Exit codes: 0 success, 1 computation error, 2 usage error.  Data goes to
stdout as JSON (or CSV for profiles); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii as _quote

from .fields import Element, FieldError, UsageError, classify_field, fraction_str
from .decomposition import (
    DecompositionError,
    EXACT,
    NOT_SUM_OF_SQUARES,
    UNDETERMINED,
    length,
    length_profile,
    pythagoras_lower_bound,
)
from .orders import parse_order_description
from .parser import parse_element
from .verification import (Budget, BudgetExceeded, FAMILIES, LEMMA_ITEMS, sweep,
                           verify_table)

STATUS_NAMES = {
    EXACT: "Exact",
    NOT_SUM_OF_SQUARES: "NotSumOfSquares",
    UNDETERMINED: "Undetermined",
}


def _indented_json(payload):
    """json.dumps(payload, indent=2), byte for byte, for a tree of dicts
    with str keys, lists, tuples and scalars (subtrees may be shared, not
    cyclic); any other key raises TypeError.

    With an indent the stdlib runs its pure-Python encoder, one generator
    per container and one yield per token; this joins each container's
    children in one str.join.  Strings go through the C encoder, exact ints
    through int.__repr__, and every other scalar to json.dumps, so floats,
    bools, None and unsupported types behave as there.  A leaf dict (one
    with no dict value) is rendered once per indentation: the shared roots
    of a profile or lower-bound document recur many times, and holding
    only leaf texts keeps the memo small.  Each entry keeps its dict alive,
    so the id in its key cannot be reused while the memo lives.
    """
    memo = {}

    def render(obj, pad):
        # pad is a newline plus the indentation of obj's own line; each list
        # of child texts is freed by its join, so a document's text is held
        # at most twice
        if isinstance(obj, str):
            return _quote(obj)
        if type(obj) is int:
            return int.__repr__(obj)
        if isinstance(obj, (list, tuple)):
            if not obj:
                return "[]"
            inner = pad + "  "
            body = ("," + inner).join([
                _quote(v) if type(v) is str else render(v, inner) for v in obj])
            return f"[{inner}{body}{pad}]"
        if isinstance(obj, dict):
            if not obj:
                return "{}"
            key = (id(obj), pad)
            hit = memo.get(key)
            if hit is not None:
                return hit[1]
            inner = pad + "  "
            body = ("," + inner).join([
                f"{_quote(k)}: "
                f"{_quote(v) if type(v) is str else render(v, inner)}"
                for k, v in obj.items()])
            text = f"{{{inner}{body}{pad}}}"
            if dict not in map(type, obj.values()):
                memo[key] = (obj, text)
            return text
        return json.dumps(obj)

    return render(payload, "\n")


def _emit(payload):
    # one write per document; _indented_json prints json.dumps(payload,
    # indent=2) without the stdlib's pure-Python indented encoder
    sys.stdout.write(_indented_json(payload) + "\n")


def _resolve_target(args):
    """The order named by --order, in the field of --p/--q."""
    if args.order.startswith(("quad:", "quad-half:")):
        return parse_order_description(args.order, None)
    if args.p is None or args.q is None:
        raise UsageError("--p and --q are required unless --order is quad:N form")
    return parse_order_description(args.order, classify_field(args.p, args.q))


def _fraction(text):
    """argparse type for an exact rational such as 8, 15/2 or 7.5."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from None


def _int_range(text):
    """argparse type for an inclusive integer range such as 17..21."""
    lo, _, hi = text.partition("..")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer range A..B: {text!r}") from None


def _cap_from_args(args, field):
    if args.atr_cap is not None:
        return args.atr_cap
    cap = args.tr_cap / field.degree
    print(
        f"note: --tr-cap {args.tr_cap} interpreted as --atr-cap {cap}"
        " (trace divided by the degree)",
        file=sys.stderr,
    )
    return cap


def cmd_classify(args):
    field = classify_field(args.p, args.q)
    _emit(field.to_json())
    return 0


def cmd_length(args):
    order = _resolve_target(args)
    alpha = parse_element(args.elem, order.field)
    result = length(order, alpha, max_n=args.max_n)
    payload = {
        "field": order.field.to_json(),
        "order": order.label,
        "alpha": alpha.to_json(),
        "status": STATUS_NAMES[result.status],
        "nodes": result.nodes,
        "millis": round(result.millis, 3),
    }
    if result.k is not None:
        payload["length"] = result.k
    if result.witness is not None:
        payload["witness"] = [w.to_json() for w in result.witness]
    _emit(payload)
    return 0


def cmd_lower_bound(args):
    order = _resolve_target(args)
    cap = _cap_from_args(args, order.field)
    n, witnesses = pythagoras_lower_bound(order, cap, cache_dir=args.cache)
    as_json = cache(Element.to_json)  # witnesses share their roots
    _emit({
        "field": order.field.to_json(),
        "order": order.label,
        "atr_cap": str(cap),
        "lower_bound": n,
        "witnesses": [
            {
                "alpha": alpha.to_json(),
                "decomposition": list(map(as_json, roots)),
            }
            for alpha, roots in witnesses
        ],
    })
    return 0


def cmd_profile(args):
    order = _resolve_target(args)
    cap = _cap_from_args(args, order.field)
    rows = length_profile(order, cap, cache_dir=args.cache)
    # rows share their roots, so each root is rendered once per call
    if args.format == "csv":
        pretty = cache(str)
        lines = ["length,abs_trace,alpha,witness\n"]
        for row in rows:
            e = row.element
            witness = " + ".join(f"({pretty(w)})^2" for w in row.witness)
            lines.append(f'{row.length},{fraction_str(e.num[0], e.den)},"{e}","{witness}"\n')
        sys.stdout.write("".join(lines))
    else:
        as_json = cache(Element.to_json)
        _emit({
            "field": order.field.to_json(),
            "order": order.label,
            "atr_cap": str(cap),
            "rows": [
                {
                    "alpha": row.element.to_json(),
                    "length": row.length,
                    "witness": list(map(as_json, row.witness)),
                }
                for row in rows
            ],
        })
    return 0


def _budget_from_args(args):
    if args.time_budget is None and args.node_budget is None:
        return None
    return Budget(seconds=args.time_budget, nodes=args.node_budget)


def _emit_rows(run, emit):
    """Emit the rows of run() and return 1 if emit counts a failed row,
    else 0; a budget stop emits the rows finished so far, then re-raises."""
    try:
        rows = run()
    except BudgetExceeded as exc:
        emit(exc.partial)
        raise
    return 0 if emit(rows) == 0 else 1


def cmd_verify(args):
    def emit(rows):
        failures = sum(1 for r in rows if r["status"] != "PASS")
        _emit({"table": args.table, "rows": rows, "failures": failures})
        return failures

    return _emit_rows(lambda: verify_table(
        args.table,
        item=args.item,
        scaled=not args.full,
        budget=_budget_from_args(args),
        s_max=args.s_max,
    ), emit)


def cmd_sweep(args):
    def emit(rows):
        for row in rows:
            sys.stdout.write(json.dumps(row) + "\n")
        return sum(1 for r in rows if r["status"] == "FAIL")

    return _emit_rows(lambda: sweep(
        args.family,
        args.m_range,
        args.s_range,
        budget=_budget_from_args(args),
        jobs=args.jobs,
        resume_path=args.resume,
    ), emit)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bqsos",
        description="Exact lengths of sums of squares in totally real "
        "quadratic and biquadratic orders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_field_args(p, order=True):
        # without --order the generators name the field, so they are required
        p.add_argument("--p", type=int, default=None, required=not order,
                       help="first generator radicand")
        p.add_argument("--q", type=int, default=None, required=not order,
                       help="second generator radicand")
        if order:
            p.add_argument(
                "--order",
                default="maximal",
                help="maximal | quad:N | quad-half:N | gen:EXPR;EXPR;...",
            )

    def add_cap_args(p):
        caps = p.add_mutually_exclusive_group(required=True)
        caps.add_argument("--atr-cap", type=_fraction, default=None,
                          help="cap on trace/degree, as an exact rational")
        caps.add_argument("--tr-cap", type=_fraction, default=None,
                          help="cap on the trace; divided by the degree")
        p.add_argument("--cache", default=None, help="level-set cache directory")

    p = sub.add_parser("classify", help="canonical field data as JSON")
    add_field_args(p, order=False)
    p.set_defaults(func=cmd_classify, parser=p)

    p = sub.add_parser("length", help="exact length of an element")
    add_field_args(p)
    p.add_argument("--elem", required=True, help="element expression")
    p.add_argument("--max-n", type=int, default=None)
    p.set_defaults(func=cmd_length, parser=p)

    p = sub.add_parser("lower-bound", help="Pythagoras-number lower bound")
    add_field_args(p)
    add_cap_args(p)
    p.set_defaults(func=cmd_lower_bound, parser=p)

    p = sub.add_parser("profile", help="length of every bounded element")
    add_field_args(p)
    add_cap_args(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_profile, parser=p)

    p = sub.add_parser("verify", help="recompute a table of known lengths")
    p.add_argument("--table", required=True,
                   choices=("lemma4.3", "prop4.4", "thm3.1"))
    p.add_argument("--item", type=int, default=None, choices=sorted(LEMMA_ITEMS),
                   help="one item of lemma 4.3 (that table only)")
    p.add_argument("--full", action="store_true",
                   help="full published ranges and caps")
    p.add_argument("--s-max", type=int, default=None,
                   help="largest s for the open-ended item of lemma 4.3")
    p.add_argument("--time-budget", type=float, default=None)
    p.add_argument("--node-budget", type=int, default=None)
    p.set_defaults(func=cmd_verify, parser=p)

    p = sub.add_parser("sweep", help="run a witness family over a field grid")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--m-range", required=True, type=_int_range, metavar="A..B")
    p.add_argument("--s-range", required=True, type=_int_range, metavar="C..D")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--resume", default=None, help="JSON-lines file of done rows")
    p.add_argument("--time-budget", type=float, default=None)
    p.add_argument("--node-budget", type=int, default=None)
    p.set_defaults(func=cmd_sweep, parser=p)

    return parser


# main parses with one parser per process: building one takes about 0.7 ms
# (2-core Xeon, CPython 3.11), a fixed cost of every in-process call
_shared_parser = cache(build_parser)


def main(argv=None):
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        # exits 2, with the subcommand's usage line on stderr
        args.parser.error(str(exc))
    except BrokenPipeError:
        sys.stderr.close()
        return 0
    except (FieldError, DecompositionError, ValueError, OSError) as exc:
        # the OSError of a --resume or --cache path that cannot be opened;
        # BrokenPipeError, an OSError, is caught above
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
