"""Export formats: Graphviz DOT and the answer-set-program encoding."""

from __future__ import annotations

import re

import pytest

from depanno import (
    Annotation,
    DependencyType,
    Edge,
    NOT_FLOWS_FROM,
    StructuralValidationError,
    UnknownLabelError,
    UnsupportedExportError,
    WorkflowSpec,
    emit_asp_program,
    emit_dot,
    infer,
    weaker,
)

SA = DependencyType.SAME_AS


class TestDot:
    def test_overall_shape(self, normalize_filter):
        spec, annotations = normalize_filter
        dot = emit_dot(spec, annotations)
        lines = dot.splitlines()
        assert lines[0] == 'digraph "normalize_filter" {'
        assert lines[1] == "  rankdir=LR;"
        assert lines[2] == '  node [fontname="Helvetica"];'
        assert lines[-1] == "}"
        assert dot.endswith("}\n")

    def test_node_and_edge_statements(self, normalize_filter):
        spec, annotations = normalize_filter
        dot = emit_dot(spec, annotations)
        assert '  "p:normalize" [shape=box, label="normalize"];' in dot
        assert '  "d:d3" [shape=ellipse, label="d3"];' in dot
        # in-edges point data -> program, out-edges program -> data
        assert '  "d:d1" -> "p:normalize" [label="x1"];' in dot
        assert '  "p:normalize" -> "d:d3" [label="x2"];' in dot

    def test_user_annotations_are_dashed_red(self, normalize_filter):
        spec, annotations = normalize_filter
        dot = emit_dot(spec, annotations)
        user_edges = [l for l in dot.splitlines() if "style=dashed, color=red" in l]
        assert len(user_edges) == 4
        assert (
            '  "d:d3" -> "d:d1" [label="DerivedFrom", style=dashed, color=red, '
            "constraint=false];" in dot
        )

    def test_inferred_annotations_are_dotted_blue(self, normalize_filter):
        spec, annotations = normalize_filter
        report = infer(spec, annotations)
        inferred = [
            Annotation(i, o, r.entailed, origin="inferred")
            for (i, o), r in report.items()
            if r.origin == "inferred" and r.entailed is not None
        ]
        dot = emit_dot(spec, list(annotations) + inferred)
        blue = [l for l in dot.splitlines() if "style=dotted, color=blue" in l]
        assert len(blue) == 2
        red = [l for l in dot.splitlines() if "style=dashed, color=red" in l]
        # user edges sort before inferred ones
        assert dot.index(red[-1]) < dot.index(blue[0])

    def test_deterministic(self, branch_merge):
        spec, annotations = branch_merge
        assert emit_dot(spec, annotations) == emit_dot(spec, annotations)

    def test_quoting(self):
        spec = WorkflowSpec(
            'we"ird',
            ["p"],
            ["d"],
            [Edge("a", "p", "d", "in")],
        )
        dot = emit_dot(spec)
        assert dot.splitlines()[0] == 'digraph "we\\"ird" {'

    def test_unknown_annotation_label_raises(self, normalize_filter):
        spec, _ = normalize_filter
        with pytest.raises(UnknownLabelError):
            emit_dot(spec, [Annotation("ghost", "x2", SA)])


@pytest.mark.parametrize("emit", [emit_dot, emit_asp_program])
def test_reversed_annotation_is_rejected(chain_span, emit):
    # x2 is an out-edge and x1 an in-edge: the annotation runs backwards
    spec, _ = chain_span
    with pytest.raises(StructuralValidationError) as info:
        emit(spec, [Annotation("x2", "x1", SA)])
    errors = info.value.errors
    assert [(e.kind, e.subject, e.annotation) for e in errors] == [
        ("annotation-direction", "x2", 0),
        ("annotation-direction", "x1", 0),
    ]


class TestAspProgram:
    def test_rule_block_is_embedded_verbatim(self, normalize_filter):
        spec, annotations = normalize_filter
        text = emit_asp_program(spec, annotations)
        assert "{dep_rule(I,O,R) : dep_type(R)} = 1 :- up_stream(I,O)." in text
        assert "up_stream(I,O) :- in(I,P,_), out(O,P,_)." in text
        assert (
            "up_stream(I,O) :- in(I,P1,_), out(O1,P1,D1), in(I2,P2,D1), "
            "up_stream(I2,O)." in text
        )
        assert ":- dep_rule(I,O,R), not valid_dep_path(I,O,R)." in text
        assert (
            "valid_dep_path(I,O,R) :- in(I,P,_), out(O,P,_), dep_rule(I,O,R)."
            in text
        )
        assert "O != O1," in text and "I != I1," in text
        assert "connected(O,I) :- out(O,_,D), in(I,_,D)." in text
        assert "compose(R1,R2,R1) :- weaker(R1,R2)." in text
        assert "compose(R1,R2,R2) :- weaker(R2,R1)." in text
        assert (
            ":- dep_rule(I,O,R), valid_dep_path(I,O,R1), R != R1, weaker(R,R1)."
            in text
        )
        assert text.rstrip().endswith("#show dep_rule/3.")

    def test_type_facts(self, normalize_filter):
        spec, annotations = normalize_filter
        text = emit_asp_program(spec, annotations)
        assert re.findall(r"^dep_type\((\w+)\)\.$", text, re.M) == [
            "flowsfrom",
            "dependson",
            "derivedfrom",
            "valueof",
            "sameas",
        ]

    def test_weaker_facts_encode_the_reflexive_order(self, normalize_filter):
        spec, annotations = normalize_filter
        text = emit_asp_program(spec, annotations)
        facts = re.findall(r"^weaker\((\w+),(\w+)\)\.$", text, re.M)
        assert len(facts) == 15
        rank = {t.display.lower(): int(t) for t in DependencyType}
        assert set(facts) == {
            (a, b)
            for a in rank
            for b in rank
            if weaker(DependencyType(rank[a]), DependencyType(rank[b]))
        }

    def test_dataflow_and_annotation_facts(self, normalize_filter):
        spec, annotations = normalize_filter
        text = emit_asp_program(spec, annotations)
        assert len(re.findall(r"^in\(", text, re.M)) == 4
        assert len(re.findall(r"^out\(", text, re.M)) == 2
        assert "in(x1,normalize,d1)." in text
        assert "out(x2,normalize,d3)." in text
        deps = re.findall(r"^dep_rule\((\w+),(\w+),(\w+)\)\.$", text, re.M)
        assert set(deps) == {
            ("x1", "x2", "derivedfrom"),
            ("x_range", "x2", "derivedfrom"),
            ("x3", "x4", "sameas"),
            ("x_cutoff", "x4", "dependson"),
        }

    def test_header_names_the_workflow(self, normalize_filter):
        spec, annotations = normalize_filter
        text = emit_asp_program(spec, annotations)
        assert text.splitlines()[0] == "% workflow normalize_filter"

    def test_notflowsfrom_cannot_be_exported(self, chain_span):
        spec, annotations = chain_span
        spaced = WorkflowSpec(
            spec.name,
            set(spec.programs) | {"island"},
            set(spec.data_blocks) | {"d8", "d9"},
            set(spec.edges)
            | {Edge("i1", "island", "d8", "in"), Edge("i2", "island", "d9", "out")},
        )
        with_nff = list(annotations) + [Annotation("x1", "i2", NOT_FLOWS_FROM)]
        with pytest.raises(UnsupportedExportError, match="NotFlowsFrom"):
            emit_asp_program(spaced, with_nff)

    def test_name_sanitizing_resolves_collisions(self):
        spec = WorkflowSpec(
            "odd names",
            ["Proc-1"],
            ["X R", "x_r", "9lives"],
            [
                Edge("X R", "Proc-1", "X R", "in"),
                Edge("out1", "Proc-1", "x_r", "out"),
                Edge("in9", "Proc-1", "9lives", "in"),
            ],
        )
        text = emit_asp_program(spec)
        assert "% name mapping:" in text
        assert "%   data 'X R' -> x_r" in text
        assert "%   data 'x_r' -> x_r_2" in text
        assert "%   data '9lives' -> a_9lives" in text
        assert "%   program 'Proc-1' -> proc_1" in text
        assert "in(x_r,proc_1,x_r)." in text
        assert "out(out1,proc_1,x_r_2)." in text
        assert "in(in9,proc_1,a_9lives)." in text

    def test_deterministic(self, branch_merge):
        spec, annotations = branch_merge
        assert emit_asp_program(spec, annotations) == emit_asp_program(
            spec, annotations
        )

    def test_unknown_annotation_label_raises(self, normalize_filter):
        spec, _ = normalize_filter
        with pytest.raises(UnknownLabelError):
            emit_asp_program(spec, [Annotation("ghost", "x2", SA)])
