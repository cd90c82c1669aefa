"""Renderers: Graphviz DOT graphs and executable logic programs.

The DOT view draws programs as boxes, data blocks as ellipses, and labeled
dataflow edges between them. Annotations appear as extra edges from the
output edge's data block back to the input edge's data block: dashed red
for user assertions, dotted blue for inferred ones.

The logic-program view emits the annotation semantics as an answer set
program: a fixed rule block (choice of one type per upstream pair, path
composition by the weaker type, the two constraints tying every chosen
type to a strongest path) plus generated facts for the workflow at hand.
Stable models of the program, projected to dep_rule/3, correspond to the
native solver's answer sets. Atom names are lowercased and sanitized; a
comment block records any renamings so models can be mapped back.
"""

from __future__ import annotations

import re
from typing import Iterable

from .model import (
    Annotation,
    DependencyType,
    ReachabilityAssertion,
    WorkflowSpec,
    _assertion_rank,
    _require_annotation_edges,
)


class UnsupportedExportError(ValueError):
    """The workflow uses a feature the requested format cannot express."""


ASP_RULES = """\
{dep_rule(I,O,R) : dep_type(R)} = 1 :- up_stream(I,O).

up_stream(I,O) :- in(I,P,_), out(O,P,_).
up_stream(I,O) :- in(I,P1,_), out(O1,P1,D1), in(I2,P2,D1), up_stream(I2,O).

:- dep_rule(I,O,R), not valid_dep_path(I,O,R).

valid_dep_path(I,O,R) :- in(I,P,_), out(O,P,_), dep_rule(I,O,R).
valid_dep_path(I,O,R) :- in(I,P,_), out(O1,P,_), O != O1,
                         dep_rule(I,O1,R1), connected(O1,I1), I != I1,
                         valid_dep_path(I1,O,R2), compose(R1,R2,R).

connected(O,I) :- out(O,_,D), in(I,_,D).

compose(R1,R2,R1) :- weaker(R1,R2).
compose(R1,R2,R2) :- weaker(R2,R1).

:- dep_rule(I,O,R), valid_dep_path(I,O,R1), R != R1, weaker(R,R1).
"""


def _gvquote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_dot(spec: WorkflowSpec, annotations: Iterable[Annotation] = ()) -> str:
    """Render the workflow graph as deterministic Graphviz DOT text.

    Raises UnknownLabelError when an annotation names an unknown edge and
    StructuralValidationError when it names an edge of the wrong direction.
    """
    annotations = list(annotations)
    by_label = _require_annotation_edges(spec, annotations)
    lines = [f"digraph {_gvquote(spec.name)} {{"]
    lines.append("  rankdir=LR;")
    lines.append('  node [fontname="Helvetica"];')
    for program in sorted(spec.programs):
        lines.append(f"  {_gvquote('p:' + program)} [shape=box, label={_gvquote(program)}];")
    for data in sorted(spec.data_blocks):
        lines.append(f"  {_gvquote('d:' + data)} [shape=ellipse, label={_gvquote(data)}];")
    for edge in sorted(spec.edges):
        if edge.direction == "in":
            tail, head = "d:" + edge.data, "p:" + edge.program
        else:
            tail, head = "p:" + edge.program, "d:" + edge.data
        lines.append(
            f"  {_gvquote(tail)} -> {_gvquote(head)} [label={_gvquote(edge.label)}];"
        )

    def ann_rank(ann: Annotation) -> tuple:
        rank = _assertion_rank(ann.assertion)
        return (ann.origin != "user", ann.input_edge, ann.output_edge, rank)

    for ann in sorted(annotations, key=ann_rank):
        source = "d:" + by_label[ann.output_edge].data
        target = "d:" + by_label[ann.input_edge].data
        if ann.origin == "user":
            style = "style=dashed, color=red"
        else:
            style = "style=dotted, color=blue"
        lines.append(
            f"  {_gvquote(source)} -> {_gvquote(target)} "
            f"[label={_gvquote(ann.assertion.display)}, {style}, constraint=false];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _sanitize_names(names: Iterable[str]) -> dict[str, str]:
    """Map names to unique lowercase atoms, deterministically."""
    mapping: dict[str, str] = {}
    taken: set[str] = set()
    for name in sorted(names):
        atom = re.sub(r"[^a-z0-9_]", "_", name.lower())
        if not atom or not atom[0].isalpha():
            atom = "a_" + atom
        candidate = atom
        counter = 2
        while candidate in taken:
            candidate = f"{atom}_{counter}"
            counter += 1
        taken.add(candidate)
        mapping[name] = candidate
    return mapping


def emit_asp_program(spec: WorkflowSpec, annotations: Iterable[Annotation] = ()) -> str:
    """Emit the workflow and its annotations as an answer set program.

    Raises UnsupportedExportError when a NotFlowsFrom assertion is present:
    the rule block has no atom for reachability denial, so such a workflow
    cannot be cross-checked through this format. Annotation labels are
    checked as in emit_dot.
    """
    annotations = list(annotations)
    for ann in annotations:
        if isinstance(ann.assertion, ReachabilityAssertion):
            raise UnsupportedExportError(
                f"annotation {ann.input_edge!r} -> {ann.output_edge!r}: "
                "NotFlowsFrom assertions have no encoding in the exported program"
            )
    _require_annotation_edges(spec, annotations)

    edge_atoms = _sanitize_names(e.label for e in spec.edges)
    program_atoms = _sanitize_names(spec.programs)
    data_atoms = _sanitize_names(spec.data_blocks)
    type_atoms = {t: t.display.lower() for t in DependencyType}

    lines = [f"% workflow {spec.name}"]
    renamed = []
    for category, mapping in (
        ("edge", edge_atoms),
        ("program", program_atoms),
        ("data", data_atoms),
    ):
        for name in sorted(mapping):
            if mapping[name] != name:
                renamed.append(f"%   {category} {name!r} -> {mapping[name]}")
    if renamed:
        lines.append("% name mapping:")
        lines.extend(renamed)
    lines.append("")
    lines.append(ASP_RULES)

    lines.append("% dependency types, weakest first")
    for t in sorted(DependencyType):
        lines.append(f"dep_type({type_atoms[t]}).")
    lines.append("")
    lines.append("% strength order, reflexive")
    for t1 in sorted(DependencyType):
        for t2 in sorted(DependencyType):
            if t1 <= t2:
                lines.append(f"weaker({type_atoms[t1]},{type_atoms[t2]}).")
    lines.append("")
    lines.append("% dataflow facts")
    for edge in sorted(spec.edges):
        relation = "in" if edge.direction == "in" else "out"
        lines.append(
            f"{relation}({edge_atoms[edge.label]},"
            f"{program_atoms[edge.program]},{data_atoms[edge.data]})."
        )
    if annotations:
        lines.append("")
        lines.append("% user annotations")
        for ann in sorted(annotations, key=lambda a: (a.input_edge, a.output_edge, int(a.assertion))):
            lines.append(
                f"dep_rule({edge_atoms[ann.input_edge]},"
                f"{edge_atoms[ann.output_edge]},{type_atoms[ann.assertion]})."
            )
    lines.append("")
    lines.append("#show dep_rule/3.")
    return "\n".join(lines) + "\n"
