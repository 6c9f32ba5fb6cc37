"""
Command-line front end.

Subcommands: map, fertility, preimages, construct, spectrum, verify.
Exit status is 0 on success, 1 when the verify subcommand finds a failing
claim, and 2 on usage errors (malformed permutation, unknown pattern,
out-of-range n, empty claim selection, enumeration guard without --force,
unwritable --out path).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import constructions, verify
from .fertility import (
    EnumerationLimitError,
    FertilityReport,
    SpectrumTable,
    fertility,
    preimages,
    spectrum,
)
from .perm_core import Perm, format_perm, parse_perm
from .sc_machine import format_trace, sc_map, sc_trace

_SIGMA_STRINGS = ("123", "132", "213", "231", "312", "321")


def _sigma_arg(text: str) -> Perm:
    if text not in _SIGMA_STRINGS:
        raise ValueError(f"--sigma: must be one of {', '.join(_SIGMA_STRINGS)}, got {text!r}")
    return tuple(int(c) for c in text)


def _perm_arg(text: str) -> Perm:
    try:
        return parse_perm(text)
    except ValueError as exc:
        raise ValueError(f"--perm: {exc}") from None


def _emit(text: str, out: str | None) -> None:
    """Send finished output (newline-terminated) to stdout or to --out."""
    if out:
        Path(out).write_text(text)
        print(f"wrote {out}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _cmd_map(args: argparse.Namespace) -> int:
    sigma = _sigma_arg(args.sigma)
    tau = _perm_arg(args.perm)
    if args.trace:
        text = format_trace(sc_trace(sigma, tau)) + "\n"
    else:
        trace = sc_trace(sigma, tau) if args.cro else None
        output = trace.output if trace else sc_map(sigma, tau)
        text = format_perm(output) + "\n"
        if trace:
            text += f"CRO {trace.cro}\n"
    _emit(text, args.out)
    return 0


def _report_text(report: FertilityReport, with_list: bool) -> str:
    if with_list:
        return "".join(format_perm(p) + "\n" for p in report.preimages or ())
    return f"{report.count}\n"


def _report_json(report: FertilityReport, with_list: bool) -> str:
    obj: dict = {
        "sigma": format_perm(report.sigma),
        "target": format_perm(report.target),
        "count": report.count,
    }
    if with_list:
        obj["preimages"] = [format_perm(p) for p in report.preimages or ()]
    return json.dumps(obj, indent=2) + "\n"


def _cmd_fertility(args: argparse.Namespace) -> int:
    sigma = _sigma_arg(args.sigma)
    pi = _perm_arg(args.perm)
    with_list = getattr(args, "list", False) or args.command == "preimages"
    kwargs = dict(use_pruning=not args.no_prune, force=args.force)
    if with_list:
        report = preimages(sigma, pi, **kwargs)
    else:
        report = FertilityReport(sigma, pi, fertility(sigma, pi, **kwargs))
    if args.format == "json":
        text = _report_json(report, with_list)
    else:
        text = _report_text(report, with_list)
    _emit(text, args.out)
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    sigma = _sigma_arg(args.sigma)
    target = constructions.construct(sigma, args.n)
    if args.format == "json":
        obj: dict = {
            "sigma": format_perm(sigma),
            "n": args.n,
            "target": format_perm(target),
        }
        if args.preimages:
            obj["preimages"] = [
                format_perm(p) for p in constructions.construct_preimages(sigma, args.n)
            ]
        text = json.dumps(obj, indent=2) + "\n"
    else:
        text = format_perm(target) + "\n"
        if args.preimages:
            text += "".join(
                format_perm(p) + "\n"
                for p in constructions.construct_preimages(sigma, args.n)
            )
    _emit(text, args.out)
    return 0


def _spectrum_format(args: argparse.Namespace) -> str:
    if args.format:
        return args.format
    if args.out:
        if args.out.endswith(".csv"):
            return "csv"
        if args.out.endswith(".json"):
            return "json"
    return "text"


def _spectrum_text(table: SpectrumTable) -> str:
    lines = [
        f"sigma: {format_perm(table.sigma)}",
        f"n: {table.n}",
        "fertility histogram:",
    ]
    lines.extend(f"  {f}: {c}" for f, c in sorted(table.histogram.items()))
    return "\n".join(lines) + "\n"


def _cmd_spectrum(args: argparse.Namespace) -> int:
    sigma = _sigma_arg(args.sigma)
    table = spectrum(sigma, args.n, force=args.force)
    fmt = _spectrum_format(args)
    if fmt == "csv":
        if args.out:
            _emit(table.counts_csv(), args.out)
            companion = Path(args.out)
            companion = companion.with_name(companion.stem + "_histogram.csv")
            _emit(table.histogram_csv(), str(companion))
        else:
            _emit(table.counts_csv(), None)
    elif fmt == "json":
        _emit(json.dumps(table.to_json_obj(), indent=2) + "\n", args.out)
    else:
        _emit(_spectrum_text(table), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    selection = None
    if args.claims != "all":
        selection = [c.strip() for c in args.claims.split(",") if c.strip()]
        if not selection:
            raise ValueError(f"--claims: no claim ids in {args.claims!r}")
    results = verify.run_claims(args.max_n, selection)
    if args.format == "json":
        text = verify.results_json(results) + "\n"
    else:
        text = verify.format_report(results) + "\n"
    _emit(text, args.out)
    return 0 if all(r.passed for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scsort",
        description="Pattern-triggered stack sorting: run the machine, count "
                    "preimages, generate witness targets, verify claims.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, perm: bool = False, n: bool = False,
                   enum: bool = False, formats: tuple[str, ...] = ()) -> None:
        p.add_argument("--sigma", required=True, help="length-3 pattern, e.g. 213")
        if perm:
            p.add_argument("--perm", required=True, help="permutation (compact or separated form)")
        if n:
            p.add_argument("--n", type=int, required=True, help="family parameter n")
        if enum:
            p.add_argument("--no-prune", action="store_true",
                           help="scan all of S_n instead of searching (the oracle)")
            p.add_argument("--force", action="store_true",
                           help="override the n <= 11 enumeration guard")
        if formats:
            p.add_argument("--format", choices=formats, default=None)
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("map", help="run the machine on one permutation")
    add_common(p, perm=True)
    p.add_argument("--trace", action="store_true", help="print the full event trace")
    p.add_argument("--cro", action="store_true", help="append the CRO line")
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("fertility", help="count preimages of a permutation")
    add_common(p, perm=True, enum=True, formats=("text", "json"))
    p.add_argument("--list", action="store_true", help="print the preimages, one per line")
    p.set_defaults(func=_cmd_fertility)

    p = sub.add_parser("preimages", help="list all preimages of a permutation")
    add_common(p, perm=True, enum=True, formats=("text", "json"))
    p.set_defaults(func=_cmd_fertility)

    p = sub.add_parser("construct", help="build the witness target for a pattern")
    add_common(p, n=True, formats=("text", "json"))
    p.add_argument("--preimages", action="store_true",
                   help="also print the explicit preimage list")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("spectrum", help="fertility of every permutation of S_n")
    add_common(p, n=True, formats=("text", "json", "csv"))
    p.add_argument("--force", action="store_true",
                   help="override the n <= 11 enumeration guard")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("verify", help="run the claim verification suite")
    p.add_argument("--max-n", type=int, default=7,
                   help="bound for exhaustive sweeps (3..9, default 7)")
    p.add_argument("--claims", default="all",
                   help="comma-separated claim ids, or 'all'")
    p.add_argument("--format", choices=("text", "json"), default=None)
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already printed its message
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, EnumerationLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
