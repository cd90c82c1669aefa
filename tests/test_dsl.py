"""DSL parser and emitter: grammar, diagnostics, spans, round trips."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depanno import (
    Annotation,
    DependencyType,
    Edge,
    NOT_FLOWS_FROM,
    WorkflowSpec,
    emit_spec,
    parse_spec,
)
from depanno.random_workflows import random_annotations, random_workflow

from conftest import load_workflow


class TestParseHappyPath:
    def test_fixture_parses_exactly(self, normalize_filter):
        spec, annotations = normalize_filter
        assert spec.name == "normalize_filter"
        assert spec.programs == {"normalize", "filter"}
        assert spec.data_blocks == {"d1", "d2", "d3", "d4", "d5"}
        assert Edge("x1", "normalize", "d1", "in") in spec.edges
        assert Edge("x4", "filter", "d5", "out") in spec.edges
        assert len(spec.edges) == 6
        assert (
            Annotation("x_cutoff", "x4", DependencyType.DEPENDS_ON) in annotations
        )
        assert len(annotations) == 4

    def test_whitespace_and_comments_are_insignificant(self):
        packed = "workflow w program p in a from d1 out b to d2 dep a -> b : SameAs"
        spaced = """
        # header
        workflow w   # trailing comment

        program p
          in a from d1     # port comment
          out b to d2
        dep a  ->  b : SameAs
        """
        left = parse_spec(packed)
        right = parse_spec(spaced)
        assert left.ok and right.ok
        assert left.spec == right.spec
        assert left.annotations == right.annotations

    def test_all_six_type_names_parse(self):
        for name in (
            "FlowsFrom",
            "DependsOn",
            "DerivedFrom",
            "ValueOf",
            "SameAs",
            "NotFlowsFrom",
        ):
            # NotFlowsFrom needs an unreachable pair; use separate blocks
            text = (
                "workflow w\n"
                "program p1\n  in a from d1\n  out b to d2\n"
                "program p2\n  in c from d3\n  out e to d4\n"
                f"dep a -> {'e' if name == 'NotFlowsFrom' else 'b'} : {name}\n"
            )
            result = parse_spec(text)
            assert result.ok, (name, [d.message for d in result.diagnostics])

    def test_program_with_no_ports(self):
        result = parse_spec("workflow w\nprogram idle\n")
        assert result.ok
        assert result.spec.programs == {"idle"}
        assert result.spec.edges == frozenset()


class TestParseDiagnostics:
    def test_empty_input(self):
        result = parse_spec("")
        assert not result.ok
        errors = result.errors()
        assert len(errors) == 1
        assert "expected 'workflow' header" in errors[0].message
        assert (errors[0].span.line, errors[0].span.column) == (1, 1)

    def test_unknown_dependency_type_lists_the_legal_names(self):
        text = "workflow w\nprogram p\n  in a from d1\n  out b to d2\ndep a -> b : Derived\n"
        result = parse_spec(text)
        assert not result.ok
        [error] = result.errors()
        assert "unknown dependency type 'Derived'" in error.message
        for name in (
            "FlowsFrom",
            "DependsOn",
            "DerivedFrom",
            "ValueOf",
            "SameAs",
            "NotFlowsFrom",
        ):
            assert name in error.message
        assert error.span.line == 5
        assert error.span.column == 14
        assert error.span.length == len("Derived")

    def test_unknown_edge_label_in_dep(self):
        text = "workflow w\nprogram p\n  in a from d1\n  out b to d2\ndep ghost -> b : SameAs\n"
        result = parse_spec(text)
        [error] = result.errors()
        assert "unknown edge label 'ghost'" in error.message

    def test_dep_direction_misuse(self):
        text = "workflow w\nprogram p\n  in a from d1\n  out b to d2\ndep b -> a : SameAs\n"
        result = parse_spec(text)
        messages = " | ".join(e.message for e in result.errors())
        assert "out-edge 'b'" in messages
        assert "in-edge 'a'" in messages

    def test_duplicate_label(self):
        text = "workflow w\nprogram p\n  in a from d1\n  out a to d2\n"
        result = parse_spec(text)
        [error] = result.errors()
        assert "used by more than one edge" in error.message
        assert error.span.line == 4

    def test_multiple_writers(self):
        text = (
            "workflow w\nprogram p1\n  out a to d\nprogram p2\n  out b to d\n"
        )
        result = parse_spec(text)
        [error] = result.errors()
        assert "written by multiple edges" in error.message

    def test_dep_on_unreachable_pair(self):
        text = (
            "workflow w\n"
            "program p1\n  in a from d1\n  out b to d2\n"
            "program p2\n  in c from d3\n  out e to d4\n"
            "dep a -> e : SameAs\n"
        )
        result = parse_spec(text)
        [error] = result.errors()
        assert "no dataflow path" in error.message

    def test_port_before_program(self):
        result = parse_spec("workflow w\nin a from d1\n")
        assert any("before any program" in e.message for e in result.errors())

    def test_unexpected_character(self):
        result = parse_spec("workflow w\nprogram p$\n")
        assert any("unexpected character" in e.message for e in result.errors())

    def test_recovery_collects_multiple_errors(self):
        text = (
            "workflow w\n"
            "program p\n"
            "  in a frm d1\n"
            "  out b to d2\n"
            "dep a -> b : Wrong\n"
        )
        result = parse_spec(text)
        messages = [e.message for e in result.errors()]
        assert len(messages) >= 2
        assert any("'from'" in m for m in messages)
        assert any("unknown dependency type" in m for m in messages)
        assert result.spec is None

    def test_missing_file_pieces(self):
        result = parse_spec("workflow\n")
        assert any("workflow name" in e.message for e in result.errors())
        result = parse_spec("workflow w\ndep a\n")
        assert any("'->'" in e.message for e in result.errors())


_ONE_BLOCK = "workflow w\nprogram p\n  in a from d1\n  out b to d2\n"
_TWO_BLOCKS = (
    "workflow w\n"
    "program p1\n  in a from d1\n  out b to d2\n"
    "program p2\n  in c from d3\n  out e to d4\n"
)

# (line, column, severity, message) of every diagnostic, in report order
DIAGNOSTIC_TABLE = {
    "dep-both-sides-reversed": (
        _ONE_BLOCK + "dep b -> a : SameAs\n",
        [
            (5, 5, "error", "annotation uses out-edge 'b' where an in-edge is required"),
            (5, 10, "error", "annotation uses in-edge 'a' where an out-edge is required"),
        ],
    ),
    "dep-in-edge-on-both-sides": (
        _ONE_BLOCK + "dep a -> a : SameAs\n",
        [(5, 10, "error", "annotation uses in-edge 'a' where an out-edge is required")],
    ),
    "dep-unknown-on-both-sides": (
        _ONE_BLOCK + "dep ghost -> ghost : SameAs\n",
        [
            (5, 5, "error", "annotation references unknown edge label 'ghost'"),
            (5, 14, "error", "annotation references unknown edge label 'ghost'"),
        ],
    ),
    "dep-on-unreachable-pair": (
        _TWO_BLOCKS + "dep a -> e : SameAs\n",
        [
            (
                8,
                5,
                "error",
                "annotation 'a' -> 'e' (SameAs) relates edges with no dataflow "
                "path between them",
            )
        ],
    ),
    "two-writers": (
        "workflow w\nprogram p1\n  out b to d\nprogram p2\n  out a to d\n",
        [(5, 7, "error", "data block 'd' is written by multiple edges: a, b")],
    ),
    "three-writers": (
        "workflow w\nprogram p1\n  out c to d\nprogram p2\n  out a to d\n"
        "  out b to d\n",
        [(5, 7, "error", "data block 'd' is written by multiple edges: a, b, c")],
    ),
    "port-line-repeated": (
        "workflow w\nprogram p\n  in a from d1\n  in a from d1\n  out b to d2\n",
        [(4, 6, "error", "edge label 'a' is used by more than one edge")],
    ),
    "syntax-error-hides-unreachable-dep": (
        _TWO_BLOCKS.replace("in c from d3", "in c frm d3") + "dep a -> e : SameAs\n",
        [(6, 8, "error", "expected 'from' after input label, got 'frm'")],
    ),
    "structural-after-syntax": (
        _ONE_BLOCK + "dep ghost -> b : SameAs\nprogram q\n  in c frm d3\n",
        [
            (7, 8, "error", "expected 'from' after input label, got 'frm'"),
            (5, 5, "error", "annotation references unknown edge label 'ghost'"),
        ],
    ),
    "bad-dep-line-repeated": (
        _ONE_BLOCK + "dep ghost -> b : SameAs\ndep ghost -> b : SameAs\n",
        [
            (6, 5, "warning", "duplicate annotation 'ghost' -> 'b'; ignored"),
            (5, 5, "error", "annotation references unknown edge label 'ghost'"),
        ],
    ),
    "no-structural-errors-without-header": (
        _ONE_BLOCK.replace("workflow w\n", "") + "dep ghost -> b : SameAs\n",
        [(1, 1, "error", "expected 'workflow' header")],
    ),
}


@pytest.mark.parametrize("case", sorted(DIAGNOSTIC_TABLE))
def test_diagnostics_table(case):
    text, expected = DIAGNOSTIC_TABLE[case]
    result = parse_spec(text)
    assert result.spec is None
    assert [
        (d.span.line, d.span.column, d.severity, d.message)
        for d in result.diagnostics
    ] == expected


class TestParseWarnings:
    def test_duplicate_annotation_warns_and_collapses(self):
        text = (
            "workflow w\nprogram p\n  in a from d1\n  out b to d2\n"
            "dep a -> b : SameAs\ndep a -> b : SameAs\n"
        )
        result = parse_spec(text)
        assert result.ok
        assert len(result.annotations) == 1
        assert any("duplicate annotation" in d.message for d in result.warnings())

    def test_conflicting_annotations_warn_but_are_kept(self):
        text = (
            "workflow w\nprogram p\n  in a from d1\n  out b to d2\n"
            "dep a -> b : SameAs\ndep a -> b : ValueOf\n"
        )
        result = parse_spec(text)
        assert result.ok
        assert len(result.annotations) == 2
        assert any("different types" in d.message for d in result.warnings())


class TestEmit:
    def test_emit_is_deterministic_and_canonical(self, normalize_filter):
        spec, annotations = normalize_filter
        text = emit_spec(spec, annotations)
        assert text == emit_spec(spec, annotations)
        assert text.startswith("workflow normalize_filter\n")
        # programs sorted: filter before normalize
        assert text.index("program filter") < text.index("program normalize")

    def test_round_trip_on_fixtures(self):
        for name in (
            "normalize_filter.wf",
            "chain_span.wf",
            "sampler_span.wf",
            "branch_merge.wf",
        ):
            spec, annotations = load_workflow(name)
            result = parse_spec(emit_spec(spec, annotations))
            assert result.spec == spec
            assert set(result.annotations) == set(annotations)

    def test_round_trip_keeps_notflowsfrom(self):
        spec = WorkflowSpec(
            "w",
            ["p1", "p2"],
            ["d1", "d2", "d3", "d4"],
            [
                Edge("a", "p1", "d1", "in"),
                Edge("b", "p1", "d2", "out"),
                Edge("c", "p2", "d3", "in"),
                Edge("e", "p2", "d4", "out"),
            ],
        )
        annotations = [Annotation("a", "e", NOT_FLOWS_FROM)]
        result = parse_spec(emit_spec(spec, annotations))
        assert result.ok
        assert set(result.annotations) == set(annotations)

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_on_random_specs(self, seed):
        rng = random.Random(seed)
        spec = random_workflow(rng, max_blocks=6, cycle_prob=0.2)
        annotations = random_annotations(rng, spec, notflowsfrom_prob=0.3)
        result = parse_spec(emit_spec(spec, annotations))
        assert result.spec == spec
        assert set(result.annotations) == set(annotations)
