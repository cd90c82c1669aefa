"""Workflow dataflow model and the dependency-type strength lattice.

A workflow is a bipartite graph: program blocks and data blocks joined by
uniquely labeled input and output edges. An input edge reads a data block,
an output edge writes one, and each data block has at most one writer.

Dependency annotations relate an input edge to an output edge. Five
annotation kinds form a total order by strength, from FlowsFrom (the input
was merely available when the block ran) up to SameAs (the output items are
the very items that arrived on the input). A sixth kind, NotFlowsFrom,
asserts the absence of any dataflow path between the two edges; it takes
part in no strength comparison and never composes.
"""

from __future__ import annotations

import enum
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Optional, Union


class DependencyType(enum.IntEnum):
    """The five dependency kinds, ordered by strength.

    The integer value is the strength rank, so builtin comparisons agree
    with the weaker-or-equal relation used by the reasoner.
    """

    FLOWS_FROM = 0
    DEPENDS_ON = 1
    DERIVED_FROM = 2
    VALUE_OF = 3
    SAME_AS = 4

    @property
    def display(self) -> str:
        return _TYPE_DISPLAY[self]

    @classmethod
    def from_name(cls, name: str) -> "DependencyType":
        try:
            return _TYPE_BY_NAME[name]
        except KeyError:
            raise ValueError(f"unknown dependency type {name!r}") from None


_TYPE_DISPLAY = {
    DependencyType.FLOWS_FROM: "FlowsFrom",
    DependencyType.DEPENDS_ON: "DependsOn",
    DependencyType.DERIVED_FROM: "DerivedFrom",
    DependencyType.VALUE_OF: "ValueOf",
    DependencyType.SAME_AS: "SameAs",
}
_TYPE_BY_NAME = {name: t for t, name in _TYPE_DISPLAY.items()}


class ReachabilityAssertion(enum.Enum):
    """Assertion that an input edge is not upstream of an output edge.

    NOT_FLOWS_FROM is user-assertable only. It is outside the strength
    order: comparing or composing it with the five dependency types is a
    type error by construction.
    """

    NOT_FLOWS_FROM = "NotFlowsFrom"

    @property
    def display(self) -> str:
        return self.value


NOT_FLOWS_FROM = ReachabilityAssertion.NOT_FLOWS_FROM

AssertionType = Union[DependencyType, ReachabilityAssertion]

# All six legal annotation names, weakest first, NotFlowsFrom last.
ASSERTION_NAMES: tuple[str, ...] = tuple(
    _TYPE_DISPLAY[t] for t in sorted(DependencyType)
) + (NOT_FLOWS_FROM.value,)


def assertion_from_name(name: str) -> AssertionType:
    """Resolve one of the six annotation names to its enum value."""
    if name == NOT_FLOWS_FROM.value:
        return NOT_FLOWS_FROM
    if name in _TYPE_BY_NAME:
        return _TYPE_BY_NAME[name]
    legal = ", ".join(ASSERTION_NAMES)
    raise ValueError(f"unknown dependency type {name!r} (expected one of {legal})")


def _assertion_rank(assertion: AssertionType) -> int:
    """Sort rank: the five types weakest first, then NotFlowsFrom."""
    if isinstance(assertion, ReachabilityAssertion):
        return len(DependencyType)
    return int(assertion)


def weaker(t1: DependencyType, t2: DependencyType) -> bool:
    """True iff t1 is weaker than or equally strong as t2."""
    return t1 <= t2


def compose(t1: DependencyType, t2: DependencyType) -> DependencyType:
    """Dependency type across two consecutive hops: the weaker of the two."""
    return t1 if t1 <= t2 else t2


@dataclass(frozen=True, order=True)
class Edge:
    """One labeled port. Direction "in" reads the data block, "out" writes it."""

    label: str
    program: str
    data: str
    direction: str

    def __post_init__(self) -> None:
        if self.direction not in ("in", "out"):
            raise ValueError(
                f"edge {self.label!r}: direction must be 'in' or 'out', "
                f"got {self.direction!r}"
            )
        for field_name in ("label", "program", "data"):
            if not getattr(self, field_name):
                raise ValueError(f"edge field {field_name!r} must be nonempty")


@dataclass(frozen=True)
class WorkflowSpec:
    """A named dataflow graph of program blocks, data blocks, and edges.

    Collections are stored as frozensets, so equality and hashing ignore
    declaration order. Any iterable is accepted for construction.
    """

    name: str
    programs: frozenset[str] = frozenset()
    data_blocks: frozenset[str] = frozenset()
    edges: frozenset[Edge] = frozenset()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("workflow name must be nonempty")
        object.__setattr__(self, "programs", frozenset(self.programs))
        object.__setattr__(self, "data_blocks", frozenset(self.data_blocks))
        object.__setattr__(self, "edges", frozenset(self.edges))


@dataclass(frozen=True)
class Annotation:
    """A dependency assertion from an input edge label to an output edge label."""

    input_edge: str
    output_edge: str
    assertion: AssertionType
    origin: str = "user"

    def __post_init__(self) -> None:
        if self.origin not in ("user", "inferred"):
            raise ValueError(f"origin must be 'user' or 'inferred', got {self.origin!r}")
        if not isinstance(self.assertion, (DependencyType, ReachabilityAssertion)):
            raise TypeError(f"assertion must be a dependency kind, got {self.assertion!r}")

    @property
    def pair(self) -> tuple[str, str]:
        return (self.input_edge, self.output_edge)


@dataclass(frozen=True)
class StructuralError:
    """One violated structural rule, identified by kind and offending subject.

    ``annotation`` is the index, in the list passed to validate_structure,
    of the annotation an ``unknown-edge``, ``annotation-direction`` or
    ``annotation-not-upstream`` error is about; None for graph errors.
    """

    kind: str
    subject: str
    message: str
    annotation: Optional[int] = None


class UnknownLabelError(LookupError):
    """An edge label does not exist in the workflow."""

    def __init__(self, label: str):
        super().__init__(f"unknown edge label {label!r}")
        self.label = label


class StructuralValidationError(ValueError):
    """Raised by operations that require a structurally valid workflow."""

    def __init__(self, errors: Iterable[StructuralError]):
        self.errors = list(errors)
        summary = "; ".join(e.message for e in self.errors) or "unknown error"
        super().__init__(f"workflow is structurally invalid: {summary}")


class _SpecIndex:
    """Adjacency maps for one spec. Assumes unique edge labels.

    All listings are sorted so every traversal built on top of this index
    is deterministic. ``outs_reached`` is the package's one unweighted
    reachability walk: upstream pairs, annotation reachability and the
    path-type corridor are all answered from it.
    """

    def __init__(self, spec: WorkflowSpec):
        self.by_label: dict[str, Edge] = {}
        block_ins: dict[str, list[str]] = defaultdict(list)
        block_outs: dict[str, list[str]] = defaultdict(list)
        readers: dict[str, list[str]] = defaultdict(list)
        writers: dict[str, list[str]] = defaultdict(list)
        for edge in sorted(spec.edges):
            self.by_label[edge.label] = edge
            if edge.direction == "in":
                block_ins[edge.program].append(edge.label)
                readers[edge.data].append(edge.label)
            else:
                block_outs[edge.program].append(edge.label)
                writers[edge.data].append(edge.label)
        self.block_ins: dict[str, tuple[str, ...]] = {
            p: tuple(labels) for p, labels in block_ins.items()
        }
        self.block_outs: dict[str, tuple[str, ...]] = {
            p: tuple(labels) for p, labels in block_outs.items()
        }
        self.readers_of: dict[str, tuple[str, ...]] = {
            d: tuple(labels) for d, labels in readers.items()
        }
        self.writers_of: dict[str, tuple[str, ...]] = {
            d: tuple(labels) for d, labels in writers.items()
        }
        self.in_labels: tuple[str, ...] = tuple(
            e.label for e in sorted(spec.edges) if e.direction == "in"
        )
        # Direct pairs: every (in, out) combination within one block.
        pairs = []
        for program in sorted(set(self.block_ins) & set(self.block_outs)):
            for i in self.block_ins[program]:
                for o in self.block_outs[program]:
                    pairs.append((i, o))
        self.direct_pairs: tuple[tuple[str, str], ...] = tuple(sorted(pairs))

    def ins_of_out(self, out_label: str) -> tuple[str, ...]:
        """In-edges that read the data block this out-edge writes."""
        return self.readers_of.get(self.by_label[out_label].data, ())

    def outs_reached(self, in_label: str) -> set[str]:
        """Out-labels a dataflow path joins to in_label; a fresh set per call."""
        seen_ins = {in_label}
        seen_outs: set[str] = set()
        stack = [in_label]
        while stack:
            label = stack.pop()
            for out in self.block_outs.get(self.by_label[label].program, ()):
                if out in seen_outs:
                    continue
                seen_outs.add(out)
                for nxt in self.ins_of_out(out):
                    if nxt not in seen_ins:
                        seen_ins.add(nxt)
                        stack.append(nxt)
        return seen_outs

    def up_stream_pairs(self) -> set[tuple[str, str]]:
        """All upstream pairs: one walk per in-label."""
        return {(i, o) for i in self.in_labels for o in self.outs_reached(i)}


def connected(output_label: str, input_label: str, spec: WorkflowSpec) -> bool:
    """True iff the named output edge writes the data block the input edge reads."""
    by_label = {e.label: e for e in spec.edges}
    for label in (output_label, input_label):
        if label not in by_label:
            raise UnknownLabelError(label)
    out_edge = by_label[output_label]
    in_edge = by_label[input_label]
    return (
        out_edge.direction == "out"
        and in_edge.direction == "in"
        and out_edge.data == in_edge.data
    )


def up_stream_pairs(spec: WorkflowSpec) -> set[tuple[str, str]]:
    """All (input label, output label) pairs joined by a dataflow path.

    A pair is included when the two edges sit on the same block, or when a
    chain of blocks joined through shared data blocks leads from the input
    to the output. Materializes all pairs, one ``_SpecIndex.outs_reached``
    walk per in-label; cyclic workflows terminate.
    """
    return _SpecIndex(spec).up_stream_pairs()


def _annotation_edge_errors(
    by_label: dict[str, Edge], annotation: Annotation, k: int
) -> list[StructuralError]:
    """Label and direction errors of annotation number k, input side first."""
    errors = []
    for label, want in ((annotation.input_edge, "in"), (annotation.output_edge, "out")):
        edge = by_label.get(label)
        if edge is None:
            kind = "unknown-edge"
            message = f"annotation references unknown edge label {label!r}"
        elif edge.direction != want:
            kind = "annotation-direction"
            message = (
                f"annotation uses {edge.direction}-edge {label!r} "
                f"where an {want}-edge is required"
            )
        else:
            continue
        errors.append(StructuralError(kind, label, message, k))
    return errors


def _require_annotation_edges(
    spec: WorkflowSpec, annotations: Iterable[Annotation]
) -> dict[str, Edge]:
    """Check each annotation names an in-edge and an out-edge; return edges by label.

    Raises UnknownLabelError for the first unknown label, otherwise
    StructuralValidationError with every annotation-direction error.
    """
    by_label = {e.label: e for e in spec.edges}
    errors = []
    for k, ann in enumerate(annotations):
        errors.extend(_annotation_edge_errors(by_label, ann, k))
    for err in errors:
        if err.kind == "unknown-edge":
            raise UnknownLabelError(err.subject)
    if errors:
        raise StructuralValidationError(errors)
    return by_label


def validate_structure(
    spec: WorkflowSpec, annotations: Iterable[Annotation] = ()
) -> list[StructuralError]:
    """Check the structural rules; return all violations, empty when valid.

    Rules: edge labels are globally unique, edges reference declared
    programs and data blocks, and each data block has at most one writer.
    Annotations must name an existing in-edge and out-edge, and a five-type
    annotation must sit on a pair joined by a dataflow path. The
    reachability check runs only when the graph rules all pass, and only
    per annotated pair: a same-block pair is upstream by definition, and a
    cross-block pair costs one ``_SpecIndex.outs_reached`` walk per
    distinct input label. The full upstream set is never built.
    """
    annotations = list(annotations)
    index = _SpecIndex(spec)
    errors: list[StructuralError] = []

    label_counts = Counter(e.label for e in spec.edges)
    for label in sorted(l for l, n in label_counts.items() if n > 1):
        errors.append(
            StructuralError(
                "duplicate-label",
                label,
                f"edge label {label!r} is used by more than one edge",
            )
        )

    for edge in sorted(spec.edges):
        if edge.program not in spec.programs:
            errors.append(
                StructuralError(
                    "unknown-program",
                    edge.label,
                    f"edge {edge.label!r} references undeclared program {edge.program!r}",
                )
            )
        if edge.data not in spec.data_blocks:
            errors.append(
                StructuralError(
                    "unknown-data-block",
                    edge.label,
                    f"edge {edge.label!r} references undeclared data block {edge.data!r}",
                )
            )

    for data, labels in sorted(index.writers_of.items()):
        if len(labels) > 1:
            errors.append(
                StructuralError(
                    "multiple-writers",
                    data,
                    f"data block {data!r} is written by multiple edges: "
                    + ", ".join(labels),
                )
            )

    for k, ann in enumerate(annotations):
        errors.extend(_annotation_edge_errors(index.by_label, ann, k))

    if not errors:
        reached: dict[str, set[str]] = {}
        for k, ann in enumerate(annotations):
            if not isinstance(ann.assertion, DependencyType):
                continue
            i, o = ann.pair
            if index.by_label[i].program == index.by_label[o].program:
                continue
            if i not in reached:
                reached[i] = index.outs_reached(i)
            if o not in reached[i]:
                errors.append(
                    StructuralError(
                        "annotation-not-upstream",
                        f"{i}->{o}",
                        f"annotation {i!r} -> {o!r} "
                        f"({ann.assertion.display}) relates edges with no "
                        "dataflow path between them",
                        k,
                    )
                )
    return errors
