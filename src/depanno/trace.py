"""Execution traces and conformance checks against annotations.

A trace records block invocations. Each invocation maps edge labels to the
ordered data items read or written there; an item carries an identity and a
value, both opaque strings.

Only necessary conditions are checked, and only for annotations whose two
edges sit on the same block, where one invocation exposes both sides:

* SameAs: every item written on the output must carry an id that appeared
  among the items read on the input (identity violation otherwise).
* ValueOf: every value written must appear among the values read (value
  violation otherwise).

The other three types assert things a finite trace can neither confirm nor
refute (dependences over unobserved invocations, or existential claims over
all possible runs), so they produce no checks. For the same reason a clean
report is evidence, not proof.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional

from .model import (
    Annotation,
    DependencyType,
    StructuralValidationError,
    WorkflowSpec,
    validate_structure,
)


class TraceFormatError(ValueError):
    """The trace text is not valid trace JSON or does not match the spec."""


@dataclass(frozen=True)
class DataItem:
    """One observed item: identity plus value, both opaque strings."""

    id: str
    value: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("data item id must be nonempty")


@dataclass(frozen=True)
class Invocation:
    """One recorded run of a block: items read and written per edge label."""

    block: str
    reads: dict
    writes: dict


@dataclass(frozen=True)
class Trace:
    workflow: str
    invocations: tuple[Invocation, ...]


@dataclass(frozen=True)
class TraceViolation:
    """One falsified necessary condition, with the items that falsify it."""

    invocation: int
    pair: tuple[str, str]
    annotation: DependencyType
    kind: str
    offending: tuple[DataItem, ...]


@dataclass(frozen=True)
class TraceWarning:
    """Advisory only: observed behavior consistent with a stronger type."""

    pair: tuple[str, str]
    message: str


def _parse_items(raw, where: str) -> tuple[DataItem, ...]:
    if not isinstance(raw, list):
        raise TraceFormatError(f"{where}: expected a list of items")
    items = []
    for k, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise TraceFormatError(f"{where}[{k}]: expected an object")
        item_id = entry.get("id")
        value = entry.get("value")
        if not isinstance(item_id, str) or not item_id:
            raise TraceFormatError(f"{where}[{k}]: 'id' must be a nonempty string")
        if not isinstance(value, str):
            raise TraceFormatError(f"{where}[{k}]: 'value' must be a string")
        items.append(DataItem(item_id, value))
    return tuple(items)


def _parse_port_map(raw, where: str) -> dict:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise TraceFormatError(f"{where}: expected an object mapping labels to items")
    return {
        label: _parse_items(items, f"{where}.{label}")
        for label, items in raw.items()
    }


def parse_trace(text: str, spec: Optional[WorkflowSpec] = None) -> Trace:
    """Parse trace JSON; optionally resolve every reference against a spec.

    The format is ``{"workflow": name, "invocations": [{"block": name,
    "reads": {label: [{"id", "value"}]}, "writes": {...}}]}``; reads and
    writes may be omitted. With a spec, the workflow name must match, every
    block must be a program, and every label must be an edge of that block
    with the right direction. Raises TraceFormatError otherwise.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise TraceFormatError("top level: expected an object")
    workflow = doc.get("workflow")
    if not isinstance(workflow, str) or not workflow:
        raise TraceFormatError("'workflow' must be a nonempty string")
    raw_invocations = doc.get("invocations")
    if not isinstance(raw_invocations, list):
        raise TraceFormatError("'invocations' must be a list")

    invocations = []
    for k, raw in enumerate(raw_invocations):
        where = f"invocations[{k}]"
        if not isinstance(raw, dict):
            raise TraceFormatError(f"{where}: expected an object")
        block = raw.get("block")
        if not isinstance(block, str) or not block:
            raise TraceFormatError(f"{where}: 'block' must be a nonempty string")
        reads = _parse_port_map(raw.get("reads"), f"{where}.reads")
        writes = _parse_port_map(raw.get("writes"), f"{where}.writes")
        invocations.append(Invocation(block, reads, writes))
    trace = Trace(workflow, tuple(invocations))
    if spec is not None:
        _resolve(trace, spec)
    return trace


def _resolve(trace: Trace, spec: WorkflowSpec) -> None:
    """Check every trace reference against the spec; raise on mismatch."""
    if trace.workflow != spec.name:
        raise TraceFormatError(
            f"trace is for workflow {trace.workflow!r}, spec is {spec.name!r}"
        )
    by_label = {e.label: e for e in spec.edges}
    for k, inv in enumerate(trace.invocations):
        where = f"invocations[{k}]"
        if inv.block not in spec.programs:
            raise TraceFormatError(f"{where}: unknown block {inv.block!r}")
        for mapping, direction, word in ((inv.reads, "in", "reads"), (inv.writes, "out", "writes")):
            for label in mapping:
                edge = by_label.get(label)
                if edge is None:
                    raise TraceFormatError(f"{where}.{word}: unknown edge label {label!r}")
                if edge.program != inv.block:
                    raise TraceFormatError(
                        f"{where}.{word}: edge {label!r} belongs to block "
                        f"{edge.program!r}, not {inv.block!r}"
                    )
                if edge.direction != direction:
                    raise TraceFormatError(
                        f"{where}.{word}: edge {label!r} is an "
                        f"{edge.direction}-edge"
                    )


def _checkable_pairs(
    spec: WorkflowSpec, annotations: Iterable[Annotation], trace: Trace
):
    """Validate spec, annotations and trace; group same-block SameAs/ValueOf
    (input, output, type) triples by block, sorted and deduplicated.

    Raises StructuralValidationError, then TraceFormatError, like check_trace.
    """
    annotations = list(annotations)
    errors = validate_structure(spec, annotations)
    if errors:
        raise StructuralValidationError(errors)
    _resolve(trace, spec)
    by_label = {e.label: e for e in spec.edges}
    triples: dict[str, list[tuple[str, str, DependencyType]]] = {}
    for ann in annotations:
        if not isinstance(ann.assertion, DependencyType):
            continue
        if ann.assertion not in (DependencyType.SAME_AS, DependencyType.VALUE_OF):
            continue
        in_edge = by_label[ann.input_edge]
        out_edge = by_label[ann.output_edge]
        if in_edge.program != out_edge.program:
            continue
        triples.setdefault(in_edge.program, []).append(
            (ann.input_edge, ann.output_edge, ann.assertion)
        )
    for block in triples:
        triples[block] = sorted(set(triples[block]))
    return triples


def check_trace(
    spec: WorkflowSpec,
    annotations: Iterable[Annotation],
    trace: Trace,
) -> list[TraceViolation]:
    """Falsify SameAs/ValueOf conditions against every recorded invocation.

    Returns violations ordered by invocation index, then pair. Raises
    StructuralValidationError for a bad spec or annotation list and
    TraceFormatError when the trace does not resolve against the spec.
    """
    triples = _checkable_pairs(spec, annotations, trace)

    violations: list[TraceViolation] = []
    for k, inv in enumerate(trace.invocations):
        for input_edge, output_edge, dep_type in triples.get(inv.block, ()):
            written = inv.writes.get(output_edge, ())
            read = inv.reads.get(input_edge, ())
            if dep_type is DependencyType.SAME_AS:
                read_ids = {item.id for item in read}
                offending = tuple(w for w in written if w.id not in read_ids)
                kind = "identity-violation"
            else:
                read_values = {item.value for item in read}
                offending = tuple(w for w in written if w.value not in read_values)
                kind = "value-violation"
            if offending:
                violations.append(
                    TraceViolation(k, (input_edge, output_edge), dep_type, kind, offending)
                )
    return violations


def warn_sameas_candidates(
    spec: WorkflowSpec,
    annotations: Iterable[Annotation],
    trace: Trace,
) -> list[TraceWarning]:
    """Flag ValueOf pairs whose observed writes all reuse input identities.

    ValueOf allows output items to be fresh copies; when every witnessed
    write kept an input id, the run so far is also consistent with SameAs,
    which may mean the annotation is weaker than it could be. Requires at
    least one witnessed write: an empty trace warns about nothing.
    """
    triples = _checkable_pairs(spec, annotations, trace)
    candidates: dict[tuple[str, str], tuple[bool, bool]] = {}
    for k, inv in enumerate(trace.invocations):
        for input_edge, output_edge, dep_type in triples.get(inv.block, ()):
            if dep_type is not DependencyType.VALUE_OF:
                continue
            pair = (input_edge, output_edge)
            wrote_any, all_reused = candidates.get(pair, (False, True))
            read_ids = {item.id for item in inv.reads.get(input_edge, ())}
            for item in inv.writes.get(output_edge, ()):
                wrote_any = True
                if item.id not in read_ids:
                    all_reused = False
            candidates[pair] = (wrote_any, all_reused)

    warnings = []
    for pair in sorted(candidates):
        wrote_any, all_reused = candidates[pair]
        if wrote_any and all_reused:
            warnings.append(
                TraceWarning(
                    pair,
                    f"{pair[0]} -> {pair[1]} is annotated ValueOf, but every "
                    "observed written item reuses an input id; the recorded "
                    "behavior is also consistent with SameAs",
                )
            )
    return warnings
