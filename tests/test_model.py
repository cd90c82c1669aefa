"""Core model: lattice operations, structural validation, reachability."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depanno import (
    ASSERTION_NAMES,
    Annotation,
    DependencyType,
    Edge,
    InconsistentWorkflowError,
    NOT_FLOWS_FROM,
    Trace,
    UnknownLabelError,
    WorkflowSpec,
    assertion_from_name,
    check_consistency,
    check_trace,
    compose,
    connected,
    emit_asp_program,
    emit_dot,
    emit_spec,
    infer,
    parse_spec,
    solve,
    up_stream_pairs,
    validate_structure,
    weaker,
)
from depanno import reasoner
from depanno.cli import main
from depanno.model import _SpecIndex
from depanno.random_workflows import random_workflow

from conftest import WORKFLOWS, chain_spec, oracle_upstream

ALL_TYPES = list(DependencyType)


class TestLattice:
    def test_strength_order(self):
        ordered = [
            DependencyType.FLOWS_FROM,
            DependencyType.DEPENDS_ON,
            DependencyType.DERIVED_FROM,
            DependencyType.VALUE_OF,
            DependencyType.SAME_AS,
        ]
        assert ordered == sorted(ALL_TYPES)
        for k, t in enumerate(ordered):
            assert int(t) == k

    def test_weaker_is_total_order(self):
        for t1, t2 in itertools.product(ALL_TYPES, repeat=2):
            assert weaker(t1, t2) or weaker(t2, t1)
            if weaker(t1, t2) and weaker(t2, t1):
                assert t1 == t2
        for t in ALL_TYPES:
            assert weaker(t, t)

    def test_compose_is_the_weaker_type(self):
        for t1, t2 in itertools.product(ALL_TYPES, repeat=2):
            result = compose(t1, t2)
            assert result in (t1, t2)
            assert weaker(result, t1) and weaker(result, t2)

    def test_compose_commutative_associative_idempotent(self):
        for t1, t2 in itertools.product(ALL_TYPES, repeat=2):
            assert compose(t1, t2) == compose(t2, t1)
        for t1, t2, t3 in itertools.product(ALL_TYPES, repeat=3):
            assert compose(compose(t1, t2), t3) == compose(t1, compose(t2, t3))
        for t in ALL_TYPES:
            assert compose(t, t) == t

    def test_compose_identity_and_absorbing(self):
        for t in ALL_TYPES:
            assert compose(t, DependencyType.SAME_AS) == t
            assert compose(t, DependencyType.FLOWS_FROM) == DependencyType.FLOWS_FROM

    def test_names_round_trip(self):
        for t in ALL_TYPES:
            assert DependencyType.from_name(t.display) == t
        assert assertion_from_name("NotFlowsFrom") is NOT_FLOWS_FROM
        assert ASSERTION_NAMES == (
            "FlowsFrom",
            "DependsOn",
            "DerivedFrom",
            "ValueOf",
            "SameAs",
            "NotFlowsFrom",
        )

    def test_unknown_name_lists_legal_names(self):
        with pytest.raises(ValueError) as err:
            assertion_from_name("Derived")
        for name in ASSERTION_NAMES:
            assert name in str(err.value)
        with pytest.raises(ValueError):
            DependencyType.from_name("NotFlowsFrom")


class TestTypes:
    def test_edge_rejects_bad_direction(self):
        with pytest.raises(ValueError):
            Edge("x", "p", "d", "sideways")
        with pytest.raises(ValueError):
            Edge("", "p", "d", "in")

    def test_spec_equality_ignores_declaration_order(self):
        e1 = Edge("x1", "p", "d1", "in")
        e2 = Edge("x2", "p", "d2", "out")
        a = WorkflowSpec("w", ["p"], ["d1", "d2"], [e1, e2])
        b = WorkflowSpec("w", ("p",), ("d2", "d1"), (e2, e1))
        assert a == b
        assert hash(a) == hash(b)

    def test_annotation_origin_checked(self):
        with pytest.raises(ValueError):
            Annotation("a", "b", DependencyType.SAME_AS, origin="guessed")
        ann = Annotation("a", "b", NOT_FLOWS_FROM)
        assert ann.pair == ("a", "b")


def two_block_chain() -> WorkflowSpec:
    return WorkflowSpec(
        "chain",
        ["p1", "p2"],
        ["d1", "d2", "d3"],
        [
            Edge("x1", "p1", "d1", "in"),
            Edge("x2", "p1", "d2", "out"),
            Edge("x3", "p2", "d2", "in"),
            Edge("x4", "p2", "d3", "out"),
        ],
    )


class TestValidateStructure:
    def test_valid_spec_has_no_errors(self):
        assert validate_structure(two_block_chain()) == []

    def test_duplicate_label(self):
        spec = WorkflowSpec(
            "w",
            ["p"],
            ["d1", "d2"],
            [Edge("x", "p", "d1", "in"), Edge("x", "p", "d2", "out")],
        )
        kinds = [e.kind for e in validate_structure(spec)]
        assert "duplicate-label" in kinds

    def test_unknown_program_and_data_block(self):
        spec = WorkflowSpec("w", [], [], [Edge("x", "ghost", "d", "in")])
        kinds = {e.kind for e in validate_structure(spec)}
        assert kinds == {"unknown-program", "unknown-data-block"}

    def test_multiple_writers(self):
        spec = WorkflowSpec(
            "w",
            ["p1", "p2"],
            ["d"],
            [Edge("a", "p1", "d", "out"), Edge("b", "p2", "d", "out")],
        )
        errors = validate_structure(spec)
        assert [e.kind for e in errors] == ["multiple-writers"]
        assert "a" in errors[0].message and "b" in errors[0].message

    def test_annotation_unknown_edge_and_direction(self):
        spec = two_block_chain()
        errors = validate_structure(
            spec, [Annotation("nope", "x1", DependencyType.SAME_AS)]
        )
        kinds = {e.kind for e in errors}
        assert kinds == {"unknown-edge", "annotation-direction"}

    def test_annotation_must_be_on_a_reachable_pair(self):
        spec = two_block_chain()
        # x3 cannot reach x2: the flow direction is x2 -> x3
        errors = validate_structure(
            spec, [Annotation("x3", "x2", DependencyType.FLOWS_FROM)]
        )
        assert [e.kind for e in errors] == ["annotation-not-upstream"]

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=80, deadline=None)
    def test_not_upstream_errors_match_oracle_on_random_workflows(self, seed):
        rng = random.Random(seed)
        spec = random_workflow(rng, max_blocks=6, cycle_prob=0.3)
        ins = sorted(e.label for e in spec.edges if e.direction == "in")
        outs = sorted(e.label for e in spec.edges if e.direction == "out")
        if not ins or not outs:
            return
        kinds = list(DependencyType) + [NOT_FLOWS_FROM]
        annotations = [
            Annotation(rng.choice(ins), rng.choice(outs), rng.choice(kinds))
            for _ in range(rng.randint(1, 10))
        ]
        upstream = oracle_upstream(spec)
        errors = validate_structure(spec, annotations)
        assert {e.kind for e in errors} <= {"annotation-not-upstream"}
        assert [e.annotation for e in errors] == [
            k
            for k, a in enumerate(annotations)
            if isinstance(a.assertion, DependencyType) and a.pair not in upstream
        ]

    def test_notflowsfrom_is_not_a_structural_matter(self):
        spec = two_block_chain()
        assert validate_structure(spec, [Annotation("x3", "x2", NOT_FLOWS_FROM)]) == []
        assert validate_structure(spec, [Annotation("x1", "x4", NOT_FLOWS_FROM)]) == []


class TestReachability:
    def test_connected(self):
        spec = two_block_chain()
        assert connected("x2", "x3", spec)
        assert not connected("x2", "x1", spec)
        assert not connected("x4", "x3", spec)
        with pytest.raises(UnknownLabelError):
            connected("x2", "nope", spec)

    def test_upstream_pairs_fixture(self, normalize_filter):
        spec, _ = normalize_filter
        assert up_stream_pairs(spec) == {
            ("x1", "x2"),
            ("x1", "x4"),
            ("x_range", "x2"),
            ("x_range", "x4"),
            ("x3", "x4"),
            ("x_cutoff", "x4"),
        }

    def test_upstream_terminates_on_cycles(self):
        spec = WorkflowSpec(
            "loop",
            ["p1", "p2"],
            ["d1", "d2"],
            [
                Edge("a_in", "p1", "d2", "in"),
                Edge("a_out", "p1", "d1", "out"),
                Edge("b_in", "p2", "d1", "in"),
                Edge("b_out", "p2", "d2", "out"),
            ],
        )
        assert up_stream_pairs(spec) == {
            ("a_in", "a_out"),
            ("a_in", "b_out"),
            ("b_in", "b_out"),
            ("b_in", "a_out"),
        }

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_upstream_matches_path_enumeration_oracle(self, seed):
        rng = random.Random(seed)
        spec = random_workflow(rng, max_blocks=5, cycle_prob=0.25)
        assert up_stream_pairs(spec) == oracle_upstream(spec)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_direct_pairs_are_upstream(self, seed):
        rng = random.Random(seed)
        spec = random_workflow(rng, max_blocks=5, cycle_prob=0.25)
        upstream = up_stream_pairs(spec)
        by_program: dict[str, dict[str, list[str]]] = {}
        for e in spec.edges:
            by_program.setdefault(e.program, {"in": [], "out": []})[
                e.direction
            ].append(e.label)
        for ports in by_program.values():
            for i in ports["in"]:
                for o in ports["out"]:
                    assert (i, o) in upstream


class TestOneWalk:
    """Only solving materializes the upstream set; everything else walks
    at most once per distinct input of an annotated cross-block pair."""

    @pytest.fixture
    def walks(self, monkeypatch):
        calls = []
        original = _SpecIndex.outs_reached

        def counting(index, in_label):
            calls.append(in_label)
            return original(index, in_label)

        monkeypatch.setattr(_SpecIndex, "outs_reached", counting)
        return calls

    @staticmethod
    def same_block_chain():
        spec = chain_spec(4)
        annotations = [
            Annotation(f"i{k}", f"o{k}", DependencyType.SAME_AS) for k in (1, 2, 3)
        ]
        return spec, annotations

    @staticmethod
    def count(walks, call) -> int:
        walks.clear()
        call()
        return len(walks)

    def test_validation_trace_and_exports_never_walk_same_block_pairs(self, walks):
        spec, annotations = self.same_block_chain()
        text = emit_spec(spec, annotations)
        trace = Trace(spec.name, ())
        assert self.count(walks, lambda: parse_spec(text)) == 0
        assert self.count(walks, lambda: validate_structure(spec, annotations)) == 0
        assert self.count(walks, lambda: check_trace(spec, annotations, trace)) == 0
        assert self.count(walks, lambda: emit_dot(spec, annotations)) == 0
        assert self.count(walks, lambda: emit_asp_program(spec, annotations)) == 0

    def test_one_span_annotation_adds_one_walk(self, walks):
        spec, annotations = self.same_block_chain()
        annotations.append(Annotation("i1", "o4", DependencyType.SAME_AS))
        text = emit_spec(spec, annotations)
        trace = Trace(spec.name, ())
        assert self.count(walks, lambda: parse_spec(text)) == 1
        assert self.count(walks, lambda: validate_structure(spec, annotations)) == 1
        assert self.count(walks, lambda: check_trace(spec, annotations, trace)) == 1
        assert self.count(walks, lambda: emit_dot(spec, annotations)) == 0

    def test_reasoning_walks_once_per_in_label(self, walks):
        spec, annotations = self.same_block_chain()
        assert self.count(walks, lambda: solve(spec, annotations)) == 4
        assert self.count(walks, lambda: check_consistency(spec, annotations)) == 4
        assert self.count(walks, lambda: infer(spec, annotations)) == 4

    def test_infer_explains_from_its_own_search(
        self, walks, monkeypatch, capsys, sampler_span
    ):
        """On inconsistent input, infer (library and CLI) validates, indexes,
        walks and searches exactly as much as check_consistency alone."""
        builds = []
        build = _SpecIndex.__init__
        searches = []
        search = reasoner._enumerate

        def counting_build(index, spec):
            builds.append(spec.name)
            build(index, spec)

        def counting_search(ctx, pinned, max_models):
            searches.append(len(pinned))
            return search(ctx, pinned, max_models)

        monkeypatch.setattr(_SpecIndex, "__init__", counting_build)
        monkeypatch.setattr(reasoner, "_enumerate", counting_search)
        spec, annotations = sampler_span

        def costs(call):
            walks.clear()
            builds.clear()
            searches.clear()
            call()
            return len(walks), len(builds), searches[:]

        def infer_inconsistent():
            with pytest.raises(InconsistentWorkflowError):
                infer(spec, annotations)

        path = str(WORKFLOWS / "sampler_span.wf")
        alone = costs(lambda: check_consistency(spec, annotations))
        assert alone[:2] == (3, 2)
        assert costs(infer_inconsistent) == alone
        assert costs(lambda: main(["infer", path])) == costs(
            lambda: main(["validate", path])
        )
        capsys.readouterr()
