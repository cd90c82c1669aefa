"""Dependency-type annotations over dataflow workflow specs.

The package models workflows as programs and data blocks joined by labeled
edges, annotates (input, output) edge pairs with one of five strength-ordered
dependency types (or the NotFlowsFrom reachability denial), and reasons about
complete assignments: every pair's type must equal the strongest of its
simple-path types, where a path's type is the weakest direct annotation along
it. On top of that sit a text format, DOT and logic-program exports, answer
set enumeration with conflict explanations, and a trace conformance checker.
"""

from .model import (
    ASSERTION_NAMES,
    Annotation,
    AssertionType,
    DependencyType,
    Edge,
    NOT_FLOWS_FROM,
    ReachabilityAssertion,
    StructuralError,
    StructuralValidationError,
    UnknownLabelError,
    WorkflowSpec,
    assertion_from_name,
    compose,
    connected,
    up_stream_pairs,
    validate_structure,
    weaker,
)
from .dsl import (
    ParseDiagnostic,
    ParseResult,
    SourceSpan,
    emit_spec,
    parse_spec,
)
from .exports import (
    ASP_RULES,
    UnsupportedExportError,
    emit_asp_program,
    emit_dot,
)
from .reasoner import (
    Conflict,
    ConflictReason,
    InconsistentWorkflowError,
    MissingDirectTypeError,
    PairReport,
    SolveResult,
    WitnessPath,
    check_consistency,
    entailed_annotations,
    infer,
    path_type,
    simple_paths,
    solve,
    solve_or_explain,
)
from .trace import (
    DataItem,
    Invocation,
    Trace,
    TraceFormatError,
    TraceViolation,
    TraceWarning,
    check_trace,
    parse_trace,
    warn_sameas_candidates,
)

__version__ = "0.1.0"

__all__ = [
    "ASP_RULES",
    "ASSERTION_NAMES",
    "Annotation",
    "AssertionType",
    "Conflict",
    "ConflictReason",
    "DataItem",
    "DependencyType",
    "Edge",
    "InconsistentWorkflowError",
    "Invocation",
    "MissingDirectTypeError",
    "NOT_FLOWS_FROM",
    "PairReport",
    "ParseDiagnostic",
    "ParseResult",
    "ReachabilityAssertion",
    "SolveResult",
    "SourceSpan",
    "StructuralError",
    "StructuralValidationError",
    "Trace",
    "TraceFormatError",
    "TraceViolation",
    "TraceWarning",
    "UnknownLabelError",
    "UnsupportedExportError",
    "WitnessPath",
    "WorkflowSpec",
    "assertion_from_name",
    "check_consistency",
    "check_trace",
    "compose",
    "connected",
    "emit_asp_program",
    "emit_dot",
    "emit_spec",
    "entailed_annotations",
    "infer",
    "parse_spec",
    "parse_trace",
    "path_type",
    "simple_paths",
    "solve",
    "solve_or_explain",
    "up_stream_pairs",
    "validate_structure",
    "warn_sameas_candidates",
    "weaker",
]
