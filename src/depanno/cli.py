"""Command line front end: validate, infer, solve, export, check-trace.

Reports go to standard output, diagnostics and notices to standard error.
Exit codes: 0 success/consistent, 1 inconsistent annotations or trace
violations, 2 parse/structural/input errors, 3 usage errors. JSON reports
are byte-stable: keys sorted, arrays canonically ordered.
"""

from __future__ import annotations

import argparse
import enum
import json
import sys
from pathlib import Path

from .dsl import parse_spec
from .exports import UnsupportedExportError, emit_asp_program, emit_dot
from .model import DependencyType
from .reasoner import (
    Conflict,
    check_consistency,
    entailed_annotations,
    solve,
    solve_or_explain,
)
from .trace import TraceFormatError, check_trace, parse_trace, warn_sameas_candidates


class ExitStatus(enum.IntEnum):
    OK = 0
    INCONSISTENT = 1
    INVALID = 2
    USAGE = 3


class _Failure(Exception):
    """Abort the command with a diagnostic and a specific exit code."""

    def __init__(self, code: ExitStatus, message: str = ""):
        super().__init__(message)
        self.code = code
        self.message = message


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(int(ExitStatus.USAGE))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _Failure(ExitStatus.INVALID, f"cannot read {path}: {exc.strerror or exc}")


def _load_workflow(path: str):
    result = parse_spec(_read_text(path))
    for diag in result.diagnostics:
        print(
            f"{path}:{diag.span.line}:{diag.span.column}: "
            f"{diag.severity}: {diag.message}",
            file=sys.stderr,
        )
    if result.spec is None:
        raise _Failure(ExitStatus.INVALID)
    return result.spec, list(result.annotations)


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _pair_key(pair: tuple[str, str]) -> str:
    return f"{pair[0]}->{pair[1]}"


def _achievable_text(achievable) -> str:
    if len(achievable) == 1:
        return achievable[0].display
    return f"{achievable[0].display}..{achievable[-1].display}"


def _print_conflict(conflict: Conflict) -> None:
    print(
        f"conflict: {conflict.pair[0]} -> {conflict.pair[1]} asserted "
        f"{conflict.asserted.display} [{conflict.reason.value}]"
    )
    for witness in conflict.witnesses:
        print(
            f"  path {' -> '.join(witness.labels)} "
            f"achievable {_achievable_text(witness.achievable)}"
        )


def _conflict_payload(conflict: Conflict) -> dict:
    return {
        "pair": list(conflict.pair),
        "asserted": conflict.asserted.display,
        "reason": conflict.reason.value,
        "witnesses": [
            {
                "path": list(w.labels),
                "achievable": [t.display for t in w.achievable],
            }
            for w in conflict.witnesses
        ],
    }


def _report_consistency(name: str, conflicts: list[Conflict], fmt: str) -> int:
    if fmt == "json":
        _print_json(
            {
                "workflow": name,
                "consistent": not conflicts,
                "conflicts": [_conflict_payload(c) for c in conflicts],
            }
        )
    elif conflicts:
        print(f"inconsistent: {name}")
        for conflict in conflicts:
            _print_conflict(conflict)
    else:
        print(f"consistent: {name}")
    return ExitStatus.INCONSISTENT if conflicts else ExitStatus.OK


def cmd_validate(args) -> int:
    spec, annotations = _load_workflow(args.workflow)
    conflicts = check_consistency(spec, annotations)
    return _report_consistency(spec.name, conflicts, args.format)


def cmd_infer(args) -> int:
    spec, annotations = _load_workflow(args.workflow)
    result, conflicts = solve_or_explain(spec, annotations, args.max_models)
    if not result.consistent:
        return _report_consistency(spec.name, conflicts, args.format)
    if result.truncated:
        print(
            f"note: stopped after {args.max_models} answer sets; "
            "option sets may be incomplete",
            file=sys.stderr,
        )
    user_pairs = {
        a.pair for a in annotations if isinstance(a.assertion, DependencyType)
    }
    if args.format == "json":
        payload = {}
        for pair in sorted(result.options):
            entailed = result.entailed.get(pair)
            if entailed is not None:
                payload[_pair_key(pair)] = {"entailed": entailed.display}
            else:
                payload[_pair_key(pair)] = {
                    "options": [t.display for t in result.options[pair]]
                }
        _print_json(payload)
    else:
        for pair in sorted(result.options):
            entailed = result.entailed.get(pair)
            if entailed is not None:
                line = f"{pair[0]} -> {pair[1]}: {entailed.display}"
            else:
                options = "|".join(t.display for t in result.options[pair])
                line = f"{pair[0]} -> {pair[1]}: options {options}"
            if pair in user_pairs:
                line += " (user)"
            print(line)
    return ExitStatus.OK


def cmd_solve(args) -> int:
    spec, annotations = _load_workflow(args.workflow)
    result = solve(spec, annotations, max_models=args.max_models)
    if result.truncated:
        print(
            f"note: enumeration truncated at {args.max_models} answer sets",
            file=sys.stderr,
        )
    if args.format == "json":
        _print_json(
            {
                "workflow": spec.name,
                "count": len(result.answer_sets),
                "truncated": result.truncated,
                "answer_sets": [
                    {_pair_key(p): t.display for p, t in model.items()}
                    for model in result.answer_sets
                ],
                "entailed": {
                    _pair_key(p): t.display for p, t in sorted(result.entailed.items())
                },
                "options": {
                    _pair_key(p): [t.display for t in opts]
                    for p, opts in sorted(result.options.items())
                },
            }
        )
    else:
        for k, model in enumerate(result.answer_sets, start=1):
            print(f"answer set {k}:")
            for pair in sorted(model):
                print(f"  {pair[0]} -> {pair[1]}: {model[pair].display}")
        if result.consistent:
            suffix = " (truncated)" if result.truncated else ""
            count = len(result.answer_sets)
            plural = "" if count == 1 else "s"
            print(f"{count} answer set{plural}{suffix}")
            entailed = sorted(result.entailed.items())
            if entailed:
                print("entailed:")
                for pair, t in entailed:
                    print(f"  {pair[0]} -> {pair[1]}: {t.display}")
            open_pairs = [p for p in sorted(result.options) if p not in result.entailed]
            if open_pairs:
                print("open:")
                for pair in open_pairs:
                    options = "|".join(t.display for t in result.options[pair])
                    print(f"  {pair[0]} -> {pair[1]}: {options}")
        else:
            print("0 answer sets (inconsistent)")
    return ExitStatus.OK if result.consistent else ExitStatus.INCONSISTENT


def cmd_export(args) -> int:
    if not args.dot and not args.asp:
        raise _Failure(ExitStatus.USAGE, "export requires --dot and/or --asp")
    spec, annotations = _load_workflow(args.workflow)
    if args.dot:
        result = solve(spec, annotations)
        if not result.consistent:
            print(
                "note: annotations are inconsistent; drawing user annotations only",
                file=sys.stderr,
            )
        drawn = entailed_annotations(result, annotations)
        Path(args.dot).write_text(emit_dot(spec, drawn), encoding="utf-8")
        print(f"wrote {args.dot}")
    if args.asp:
        try:
            program = emit_asp_program(spec, annotations)
        except UnsupportedExportError as exc:
            raise _Failure(ExitStatus.INVALID, str(exc))
        Path(args.asp).write_text(program, encoding="utf-8")
        print(f"wrote {args.asp}")
    return ExitStatus.OK


def cmd_check_trace(args) -> int:
    spec, annotations = _load_workflow(args.workflow)
    try:
        trace = parse_trace(_read_text(args.trace), spec)
    except TraceFormatError as exc:
        raise _Failure(ExitStatus.INVALID, f"{args.trace}: {exc}")
    violations = check_trace(spec, annotations, trace)
    warnings = warn_sameas_candidates(spec, annotations, trace)
    if args.format == "json":
        _print_json(
            {
                "workflow": spec.name,
                "violations": [
                    {
                        "invocation": v.invocation,
                        "pair": list(v.pair),
                        "annotation": v.annotation.display,
                        "kind": v.kind,
                        "offending": [
                            {"id": item.id, "value": item.value}
                            for item in v.offending
                        ],
                    }
                    for v in violations
                ],
                "warnings": [
                    {"pair": list(w.pair), "message": w.message} for w in warnings
                ],
            }
        )
    else:
        for v in violations:
            ids = ", ".join(item.id for item in v.offending)
            print(
                f"violation: invocation {v.invocation} {v.pair[0]} -> {v.pair[1]} "
                f"{v.annotation.display} {v.kind}: {ids}"
            )
        for w in warnings:
            print(f"warning: {w.message}")
        count = len(violations)
        if count:
            plural = "" if count == 1 else "s"
            print(f"{count} violation{plural}")
        else:
            print("no violations")
    return ExitStatus.INCONSISTENT if violations else ExitStatus.OK


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="depanno",
        description=(
            "Validate, infer, and enumerate dependency-type annotations "
            "over dataflow workflow specs."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", metavar="command")
    subparsers.required = True

    p = subparsers.add_parser(
        "validate", help="check structure and annotation consistency"
    )
    p.add_argument("workflow", help="workflow spec file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_validate)

    p = subparsers.add_parser(
        "infer", help="report entailed types and option sets per pair"
    )
    p.add_argument("workflow", help="workflow spec file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--max-models", type=_positive_int, default=1024)
    p.set_defaults(func=cmd_infer)

    p = subparsers.add_parser("solve", help="enumerate answer sets")
    p.add_argument("workflow", help="workflow spec file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--max-models", type=_positive_int, default=1024)
    p.set_defaults(func=cmd_solve)

    p = subparsers.add_parser(
        "export", help="write DOT and/or logic-program renderings"
    )
    p.add_argument("workflow", help="workflow spec file")
    p.add_argument("--dot", metavar="PATH", help="write Graphviz DOT here")
    p.add_argument("--asp", metavar="PATH", help="write the logic program here")
    p.set_defaults(func=cmd_export)

    p = subparsers.add_parser(
        "check-trace", help="check a recorded trace against the annotations"
    )
    p.add_argument("workflow", help="workflow spec file")
    p.add_argument("trace", help="trace JSON file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_check_trace)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return int(args.func(args))
    except _Failure as failure:
        if failure.message:
            print(f"depanno: error: {failure.message}", file=sys.stderr)
        return int(failure.code)


if __name__ == "__main__":
    sys.exit(main())
