"""Text format for workflow specs, with a diagnostics-carrying parser.

Grammar (whitespace insensitive, ``#`` starts a comment running to end of
line, files are UTF-8)::

    spec    := "workflow" IDENT program* dep*
    program := "program" IDENT port*
    port    := "in" IDENT "from" IDENT
             | "out" IDENT "to" IDENT
    dep     := "dep" IDENT "->" IDENT ":" TYPE
    TYPE    := "FlowsFrom" | "DependsOn" | "DerivedFrom" | "ValueOf"
             | "SameAs" | "NotFlowsFrom"
    IDENT   := [A-Za-z_][A-Za-z0-9_]*

``in x from d`` declares input edge x reading data block d; ``out y to e``
declares output edge y writing data block e. Data blocks are declared
implicitly by the ports that touch them. Edge labels are global, so dep
lines name edges without naming blocks.

The parser never throws on bad input. It collects diagnostics with source
spans, recovers at the next statement keyword, and keeps going; the
returned spec is None whenever any error was seen. The structural rules
(one writer per data block, dep labels naming an existing in-edge and
out-edge, annotations only on pairs joined by a dataflow path) come from
``model.validate_structure``; the parser maps each violation to the
offending token. Duplicate edge labels are the one rule checked here, since
a port line repeated verbatim would vanish into the spec's edge set.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional

from .model import (
    Annotation,
    AssertionType,
    WorkflowSpec,
    Edge,
    _SpecIndex,
    _assertion_rank,
    assertion_from_name,
    validate_structure,
)


@dataclass(frozen=True)
class SourceSpan:
    """1-based position of a token in the source text."""

    line: int
    column: int
    length: int


@dataclass(frozen=True)
class ParseDiagnostic:
    span: SourceSpan
    severity: str
    message: str


@dataclass(frozen=True)
class ParseResult:
    """Outcome of parse_spec: spec is None whenever errors were reported."""

    spec: Optional[WorkflowSpec]
    annotations: tuple[Annotation, ...]
    diagnostics: tuple[ParseDiagnostic, ...]

    @property
    def ok(self) -> bool:
        return self.spec is not None

    def errors(self) -> list[ParseDiagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    def warnings(self) -> list[ParseDiagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]


@dataclass(frozen=True)
class _Token:
    text: str
    kind: str
    line: int
    column: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.column, max(len(self.text), 1))


_TOKEN_RE = re.compile(r"(->)|(:)|([A-Za-z_][A-Za-z0-9_]*)|(\S)")

_KEYWORDS = frozenset({"workflow", "program", "dep", "in", "out", "from", "to"})


def _lex(text: str, diagnostics: list[ParseDiagnostic]) -> list[_Token]:
    tokens: list[_Token] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for match in _TOKEN_RE.finditer(body):
            column = match.start() + 1
            if match.group(1):
                kind = "arrow"
            elif match.group(2):
                kind = "colon"
            elif match.group(3):
                kind = "ident"
            else:
                diagnostics.append(
                    ParseDiagnostic(
                        SourceSpan(lineno, column, 1),
                        "error",
                        f"unexpected character {match.group(0)!r}",
                    )
                )
                continue
            tokens.append(_Token(match.group(0), kind, lineno, column))
    return tokens


@dataclass
class _DepLine:
    annotation: Annotation
    input_span: SourceSpan
    output_span: SourceSpan


class _Parser:
    def __init__(self, tokens: list[_Token], diagnostics: list[ParseDiagnostic]):
        self.tokens = tokens
        self.pos = 0
        self.diagnostics = diagnostics
        self.name: Optional[str] = None
        self.programs: list[str] = []
        self.edges: list[Edge] = []
        self.edge_spans: dict[str, SourceSpan] = {}
        self.deps: list[_DepLine] = []

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> Optional[_Token]:
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def here(self) -> SourceSpan:
        tok = self.peek()
        if tok is not None:
            return tok.span
        if self.tokens:
            last = self.tokens[-1]
            return SourceSpan(last.line, last.column + len(last.text), 1)
        return SourceSpan(1, 1, 1)

    def error(self, span: SourceSpan, message: str) -> None:
        self.diagnostics.append(ParseDiagnostic(span, "error", message))

    def warn(self, span: SourceSpan, message: str) -> None:
        self.diagnostics.append(ParseDiagnostic(span, "warning", message))

    def expect_ident(self, what: str) -> Optional[_Token]:
        tok = self.peek()
        if tok is None or tok.kind != "ident" or tok.text in _KEYWORDS:
            got = "end of input" if tok is None else repr(tok.text)
            self.error(self.here(), f"expected {what}, got {got}")
            return None
        return self.take()

    def expect(self, text: str, context: str) -> bool:
        tok = self.peek()
        if tok is None or tok.text != text:
            got = "end of input" if tok is None else repr(tok.text)
            self.error(self.here(), f"expected {text!r} {context}, got {got}")
            return False
        self.take()
        return True

    def sync(self) -> None:
        # skip to the next statement keyword so one mistake reports once
        while True:
            tok = self.peek()
            if tok is None or tok.text in ("program", "dep", "in", "out"):
                return
            self.take()

    def parse(self) -> None:
        tok = self.peek()
        if tok is not None and tok.text == "workflow":
            self.take()
            name_tok = self.expect_ident("workflow name")
            if name_tok is not None:
                self.name = name_tok.text
        else:
            self.error(self.here(), "expected 'workflow' header")

        current_program: Optional[str] = None
        while True:
            tok = self.peek()
            if tok is None:
                return
            if tok.text == "program":
                self.take()
                name_tok = self.expect_ident("program name")
                if name_tok is None:
                    self.sync()
                    continue
                if name_tok.text in self.programs:
                    self.warn(
                        name_tok.span,
                        f"program {name_tok.text!r} was already declared; "
                        "ports are merged",
                    )
                else:
                    self.programs.append(name_tok.text)
                current_program = name_tok.text
            elif tok.text in ("in", "out"):
                if current_program is None:
                    self.error(tok.span, f"{tok.text!r} port before any program")
                    self.take()
                    self.sync()
                    continue
                self.parse_port(current_program)
            elif tok.text == "dep":
                self.parse_dep()
            else:
                self.error(
                    tok.span,
                    f"expected 'program', 'dep', 'in' or 'out', got {tok.text!r}",
                )
                self.take()
                self.sync()

    def parse_port(self, program: str) -> None:
        direction_tok = self.take()
        assert direction_tok is not None
        direction = direction_tok.text
        label_tok = self.expect_ident("edge label")
        if label_tok is None:
            self.sync()
            return
        connective = "from" if direction == "in" else "to"
        side = "input" if direction == "in" else "output"
        if not self.expect(connective, f"after {side} label"):
            self.sync()
            return
        data_tok = self.expect_ident("data block name")
        if data_tok is None:
            self.sync()
            return
        label = label_tok.text
        if label in self.edge_spans:
            self.error(
                label_tok.span,
                f"edge label {label!r} is used by more than one edge",
            )
            return
        self.edge_spans[label] = label_tok.span
        self.edges.append(Edge(label, program, data_tok.text, direction))

    def parse_dep(self) -> None:
        self.take()
        in_tok = self.expect_ident("input edge label")
        if in_tok is None:
            self.sync()
            return
        if not self.expect("->", "after input edge label"):
            self.sync()
            return
        out_tok = self.expect_ident("output edge label")
        if out_tok is None:
            self.sync()
            return
        if not self.expect(":", "after output edge label"):
            self.sync()
            return
        type_tok = self.peek()
        if type_tok is None or type_tok.kind != "ident":
            got = "end of input" if type_tok is None else repr(type_tok.text)
            self.error(self.here(), f"expected dependency type, got {got}")
            self.sync()
            return
        self.take()
        try:
            assertion = assertion_from_name(type_tok.text)
        except ValueError as exc:
            self.error(type_tok.span, str(exc))
            return
        annotation = Annotation(in_tok.text, out_tok.text, assertion)
        self.deps.append(_DepLine(annotation, in_tok.span, out_tok.span))


def parse_spec(text: str) -> ParseResult:
    """Parse workflow text; never raises, reports diagnostics with spans.

    The spec field is None when any error diagnostic was produced; warnings
    alone leave it usable. Structural rules come from validate_structure,
    each violation reported at the token that caused it.
    """
    diagnostics: list[ParseDiagnostic] = []
    parser = _Parser(_lex(text, diagnostics), diagnostics)
    parser.parse()

    kept: list[_DepLine] = []
    seen: set[Annotation] = set()
    first_type: dict[tuple[str, str], AssertionType] = {}
    for dep in parser.deps:
        ann = dep.annotation
        names = f"{ann.input_edge!r} -> {ann.output_edge!r}"
        if ann in seen:
            parser.warn(dep.input_span, f"duplicate annotation {names}; ignored")
            continue
        seen.add(ann)
        if first_type.setdefault(ann.pair, ann.assertion) != ann.assertion:
            parser.warn(
                dep.input_span,
                f"{names} is annotated more than once with different types; "
                "no assignment can satisfy both",
            )
        kept.append(dep)

    annotations = tuple(dep.annotation for dep in kept)
    if parser.name is None:
        return ParseResult(None, annotations, tuple(diagnostics))
    syntax_ok = not any(d.severity == "error" for d in diagnostics)
    spec = WorkflowSpec(
        parser.name, parser.programs, {e.data for e in parser.edges}, parser.edges
    )
    by_label = {e.label: e for e in parser.edges}
    reported: set[int] = set()
    for err in validate_structure(spec, annotations):
        if err.annotation is None:
            # Repeated labels never reach the spec and every port declares
            # its program and block, so only the one-writer rule is left:
            # point at the block's second writer.
            writers = [
                e for e in parser.edges if e.direction == "out" and e.data == err.subject
            ]
            span = parser.edge_spans[writers[1].label]
        elif err.kind == "annotation-not-upstream":
            if not syntax_ok:
                # a port lost to a syntax error may be the missing path
                continue
            span = kept[err.annotation].input_span
        else:
            # An annotation's label errors come input side first, and the
            # input side errs exactly when its label is not an in-edge.
            dep = kept[err.annotation]
            edge = by_label.get(dep.annotation.input_edge)
            input_errs = edge is None or edge.direction != "in"
            first = err.annotation not in reported
            reported.add(err.annotation)
            span = dep.input_span if first and input_errs else dep.output_span
        parser.error(span, err.message)
    failed = any(d.severity == "error" for d in diagnostics)
    return ParseResult(None if failed else spec, annotations, tuple(diagnostics))


def emit_spec(spec: WorkflowSpec, annotations: Iterable[Annotation] = ()) -> str:
    """Render a spec as canonical text: sorted programs, ports, and deps.

    parse_spec(emit_spec(s, anns)) reproduces s and anns exactly, provided
    every name matches the IDENT pattern and every data block is referenced
    by at least one port (the format has no standalone block declaration).
    Inferred annotations are emitted as ordinary dep lines.
    """
    index = _SpecIndex(spec)
    lines = [f"workflow {spec.name}"]
    for program in sorted(spec.programs):
        lines.append("")
        lines.append(f"program {program}")
        for label in index.block_ins.get(program, ()):
            lines.append(f"  in {label} from {index.by_label[label].data}")
        for label in index.block_outs.get(program, ()):
            lines.append(f"  out {label} to {index.by_label[label].data}")
    ordered = sorted(
        annotations,
        key=lambda a: (a.input_edge, a.output_edge, _assertion_rank(a.assertion)),
    )
    if ordered:
        lines.append("")
    for ann in ordered:
        lines.append(
            f"dep {ann.input_edge} -> {ann.output_edge} : {ann.assertion.display}"
        )
    return "\n".join(lines) + "\n"
