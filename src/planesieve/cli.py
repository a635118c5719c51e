"""Command-line surface.

Subcommands replay the elimination ledger, run the order sieve, and
answer exact-arithmetic queries (orders, parabolic indices, involution
class sizes, factorizations).  Every record and summary goes through
one writer, `_write`, which prints the text form or, under `--format
structured`, the record as sorted-key JSON; only scan rows, up to 10^6
a run, have a writer of their own that gives the same bytes.
Structured output is a line-delimited record stream with a trailing
summary record.  `verify-all` writes and flushes each case's record as
soon as that case ends, in registry order at any `--jobs`.  `scan`
writes each row as soon as it is sieved, but does not flush per row, so
on a pipe rows arrive a buffer at a time.  Summaries are tallied as
records are written; `sieve_orders` still builds the list of every row,
and a stream that stops without its summary record is incomplete.  Exit
codes: 0 success, 1 verdict failure, 2 usage error (a ValueError), 3
internal error, such as a group value past Python's int-to-str digit
limit.  The argument parser is built on the first `main` call and
reused by every later call in the process.  Subcommands import their
layers when they run, so importing `planesieve.cli` loads no
computation module.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import TYPE_CHECKING, Sequence

from . import __version__

if TYPE_CHECKING:
    from .exactmath import Factorization
    from .groups import GroupSpec
    from .scan import SieveRow

Q_CAP = 2**10
RANK_CAP = 50


def _fmt_factors(f: Factorization) -> str:
    if not f.factors:
        return "1"
    return " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in f.factors)


def _check_caps(spec: GroupSpec) -> GroupSpec:
    if spec.q is not None and spec.q > Q_CAP:
        raise ValueError(f"q = {spec.q} exceeds the cap {Q_CAP}")
    if spec.n is not None and spec.n > RANK_CAP:
        raise ValueError(f"n = {spec.n} exceeds the cap {RANK_CAP}")
    return spec


def _parse_candidates(text: str) -> list[GroupSpec]:
    from .groups import parse_group
    return [_check_caps(parse_group(part.split()))
            for part in text.split(",") if part.strip()]


def _write(args: argparse.Namespace, record: dict, text: str) -> None:
    if args.format == "structured":
        import json
        text = json.dumps(record, sort_keys=True)
    print(text)


def _cmd_verify_all(args: argparse.Namespace) -> int:
    from . import ledger
    from .plane import U_CAP
    if args.u_max is not None and not 1 <= args.u_max <= U_CAP:
        raise ValueError(f"--u-max must be in [1, {U_CAP}]")
    if args.q_max is not None and not 1 <= args.q_max <= Q_CAP:
        raise ValueError(f"--q-max must be in [1, {Q_CAP}]")
    counts = {"eliminated": 0, "violated": 0, "inconclusive": 0}
    for res in ledger.verify_all(jobs=args.jobs, u_max=args.u_max, q_max=args.q_max):
        counts[res.verdict.value] += 1
        bound = "" if res.bound is None else f"  bound={res.bound}"
        _write(args, ledger.report_record(res),
               f"{res.verdict.value.upper():12s} {res.id:16s} ({res.elapsed_ms:8.1f} ms){bound}")
        # each record goes out as its case ends, even into a pipe
        sys.stdout.flush()
    cases = sum(counts.values())
    ok = counts["eliminated"] == cases
    _write(args, {"record": "summary", "cases": cases, "ok": ok, **counts},
           f"{cases} cases: {counts['eliminated']} eliminated, "
           f"{counts['violated']} violated, {counts['inconclusive']} inconclusive")
    return 0 if ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import ledger
    res = ledger.replay(args.case_id, bound=args.bound)
    record = ledger.report_record(res)
    lines = [f"{res.id}: {res.verdict.value.upper()}  ({res.elapsed_ms:.1f} ms)",
             f"  section:    {res.case.section}",
             f"  claim:      {res.case.anchor}",
             f"  parameters: {res.case.parameters}"]
    if res.bound is not None:
        lines.append(f"  bound:      {res.bound}")
    lines += [f"  witness:    {w}" for w in record["witnesses"]]
    _write(args, record, "\n".join(lines))
    return 0 if res.verdict is ledger.Verdict.ELIMINATED else 1


def _cmd_scan(args: argparse.Namespace) -> int:
    import json
    from .scan import sieve_orders
    candidates = _parse_candidates(args.candidates) if args.candidates else None
    structured = args.format == "structured"
    # Few distinct filter traces occur in one scan, so each is encoded once.
    encoded: dict[tuple[tuple[str, bool], ...], str] = {}
    rows = survivors = 0
    put = sys.stdout.write  # one call per row line, newline included

    def write(row: SieveRow) -> None:
        nonlocal rows, survivors
        rows += 1
        survivors += row.survived
        trace = encoded.get(row.filter_trace)
        if trace is None:
            trace = encoded[row.filter_trace] = (
                json.dumps(row.filter_trace) if structured else
                " ".join(f"{name}{'+' if passed else '-'}" for name, passed in row.filter_trace))
        if structured:
            # json.dumps(record, sort_keys=True), written out key by key
            factors = ", ".join([f"[{p}, {e}]" for p, e in row.v_factors.factors])
            put(f'{{"filters": {trace}, "record": "row", '
                f'"survived": {"true" if row.survived else "false"}, '
                f'"u": {row.u}, "v": {row.v}, "v_factors": [{factors}]}}\n')
        else:
            tag = "survives" if row.survived else "ELIMINATED"
            put(f"u={row.u} v={row.v}={_fmt_factors(row.v_factors)} [{trace}] {tag}\n")

    sieve_orders(args.u_min, args.u_max, candidates, emit=write)
    _write(args, {"record": "summary", "rows": rows, "survivors": survivors},
           f"{rows} rows, {survivors} survive")
    return 0


def _digits(value: int) -> str:
    # str() refuses a value past the int-to-str digit limit with a
    # ValueError, which main would report as a usage error
    try:
        return str(value)
    except ValueError:
        raise OverflowError(f"the value has more than {sys.get_int_max_str_digits()} "
                            "digits, past the int-to-str conversion limit") from None


# order and index format the value before anything is factored, so a value
# past the int-to-str digit limit fails at once.
def _cmd_order(args: argparse.Namespace) -> int:
    from .groups import order, order_factorization, parse_group
    spec = _check_caps(parse_group(args.group))
    head = f"|{spec}| = {_digits(order(spec))} = "
    print(head + _fmt_factors(order_factorization(spec)))
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    from .groups import parabolic_index, parabolic_index_factorization, parse_group
    spec = _check_caps(parse_group(args.group))
    index = parabolic_index(spec, args.parabolic)
    head = f"[{spec} : P{args.parabolic}] = {_digits(index)} = "
    print(head + _fmt_factors(parabolic_index_factorization(spec, args.parabolic)))
    return 0


def _cmd_factor(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ValueError(f"n must be >= 1, got {args.n}")
    from .exactmath import factorize
    print(f"{args.n} = {_fmt_factors(factorize(args.n))}")
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    from .catalog import catalog_records
    records = catalog_records()
    for rec in records:
        _write(args, {"record": "class", **rec},
               f"{rec['label']:18s} {rec['family']:8s} parity={rec['parity']:6s} "
               f"exact={str(rec['exact']):5s} {rec['anchor']}")
    _write(args, {"record": "summary", "classes": len(records)},
           f"{len(records)} involution classes")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planesieve",
        description="Exact-integer sieve for transitive group actions on "
                    "projective planes of square order.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-all", help="replay every registered elimination")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.add_argument("--u-max", type=int, default=None)
    p.add_argument("--q-max", type=int, default=None)
    p.set_defaults(fn=_cmd_verify_all)

    p = sub.add_parser("verify", help="replay one elimination by id")
    p.add_argument("case_id")
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("scan", help="run the order sieve over a u range")
    p.add_argument("--u-min", type=int, required=True)
    p.add_argument("--u-max", type=int, required=True)
    p.add_argument("--candidates", default=None,
                   help='comma-separated group descriptions, e.g. "PSL 2 13,G2 7"')
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.set_defaults(fn=_cmd_scan)

    p = sub.add_parser("order", help="exact group order")
    p.add_argument("group", nargs="+", metavar="TOKEN")
    p.set_defaults(fn=_cmd_order)

    p = sub.add_parser("index", help="exact parabolic subgroup index")
    p.add_argument("group", nargs="+", metavar="TOKEN")
    p.add_argument("--parabolic", type=int, required=True, metavar="M")
    p.set_defaults(fn=_cmd_index)

    p = sub.add_parser("factor", help="factor an integer")
    p.add_argument("n", type=int)
    p.set_defaults(fn=_cmd_factor)

    p = sub.add_parser("catalog", help="dump the involution class catalog")
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.set_defaults(fn=_cmd_catalog)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Keep the interpreter from complaining when it flushes the
        # already-closed stream at shutdown.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
