"""Reasoner: path enumeration, strongest-path values, answer sets, conflicts."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depanno import (
    Annotation,
    Conflict,
    ConflictReason,
    DependencyType,
    Edge,
    InconsistentWorkflowError,
    MissingDirectTypeError,
    NOT_FLOWS_FROM,
    StructuralValidationError,
    UnknownLabelError,
    WitnessPath,
    WorkflowSpec,
    check_consistency,
    infer,
    path_type,
    simple_paths,
    solve,
    solve_or_explain,
    up_stream_pairs,
)
from depanno.random_workflows import random_annotations, random_workflow

from conftest import (
    BruteForceCapError,
    brute_force_solve,
    chain_spec,
    oracle_path_type,
    oracle_simple_paths,
    oracle_upstream,
    sample_oracle_case,
)

FF = DependencyType.FLOWS_FROM
DO = DependencyType.DEPENDS_ON
DF = DependencyType.DERIVED_FROM
VO = DependencyType.VALUE_OF
SA = DependencyType.SAME_AS


def cyclic_spec() -> WorkflowSpec:
    # p1 and p2 feed each other; d0 seeds the loop, d3 leaves it
    return WorkflowSpec(
        "loop",
        ["p1", "p2"],
        ["d0", "d1", "d2", "d3"],
        [
            Edge("a", "p1", "d0", "in"),
            Edge("b", "p1", "d2", "in"),
            Edge("c", "p1", "d1", "out"),
            Edge("e", "p2", "d1", "in"),
            Edge("f", "p2", "d2", "out"),
            Edge("g", "p2", "d3", "out"),
        ],
    )


class TestSimplePaths:
    def test_single_block_path(self, normalize_filter):
        spec, _ = normalize_filter
        assert simple_paths("x1", "x2", spec) == [("x1", "x2")]

    def test_two_block_path(self, normalize_filter):
        spec, _ = normalize_filter
        assert simple_paths("x1", "x4", spec) == [("x1", "x2", "x3", "x4")]

    def test_unreachable_pair_has_no_paths(self, normalize_filter):
        spec, _ = normalize_filter
        assert simple_paths("x3", "x2", spec) == []
        assert simple_paths("x_cutoff", "x2", spec) == []

    def test_wrong_direction_labels_have_no_paths(self, normalize_filter):
        spec, _ = normalize_filter
        assert simple_paths("x2", "x4", spec) == []
        assert simple_paths("x1", "x3", spec) == []

    def test_unknown_label_raises(self, normalize_filter):
        spec, _ = normalize_filter
        with pytest.raises(UnknownLabelError) as info:
            simple_paths("ghost", "x2", spec)
        assert info.value.label == "ghost"

    def test_branch_merge_has_two_paths(self, branch_merge):
        spec, _ = branch_merge
        assert simple_paths("x1", "x9", spec) == [
            ("x1", "x2", "x3", "x4", "x7", "x9"),
            ("x1", "x2", "x5", "x6", "x8", "x9"),
        ]

    def test_cycle_paths_never_repeat_labels(self):
        spec = cyclic_spec()
        for i in ("a", "b", "e"):
            for o in ("c", "f", "g"):
                for path in simple_paths(i, o, spec):
                    assert len(set(path)) == len(path)
                    assert path[0] == i and path[-1] == o

    def test_matches_oracle_on_random_specs(self):
        for seed in range(60):
            rng = random.Random(seed)
            spec = random_workflow(rng, max_blocks=5, cycle_prob=0.3)
            ins = sorted(e.label for e in spec.edges if e.direction == "in")
            outs = sorted(e.label for e in spec.edges if e.direction == "out")
            for i in ins:
                for o in outs:
                    assert simple_paths(i, o, spec) == oracle_simple_paths(
                        spec, i, o
                    )

    def test_long_chain_does_not_exhaust_the_stack(self):
        spec = chain_spec(1500)
        paths = simple_paths("i1", "o1500", spec)
        assert len(paths) == 1
        assert len(paths[0]) == 3000


class TestPathType:
    def test_weakest_link_then_strongest_path(self, branch_merge):
        spec, annotations = branch_merge
        direct = {a.pair: a.assertion for a in annotations}
        assert path_type("x1", "x4", direct, spec) == FF
        assert path_type("x1", "x6", direct, spec) == DF
        assert path_type("x1", "x9", direct, spec) == DF
        assert path_type("x3", "x9", direct, spec) == FF
        assert path_type("x5", "x9", direct, spec) == SA

    def test_unreachable_pair_is_none(self, normalize_filter):
        spec, _ = normalize_filter
        assert path_type("x3", "x2", {}, spec) is None

    def test_missing_direct_assignment_raises(self, normalize_filter):
        spec, _ = normalize_filter
        with pytest.raises(MissingDirectTypeError) as info:
            path_type("x1", "x4", {("x1", "x2"): DF}, spec)
        assert info.value.pair == ("x3", "x4")

    def test_assignments_outside_the_corridor_are_not_needed(
        self, normalize_filter
    ):
        spec, _ = normalize_filter
        assert path_type("x1", "x2", {("x1", "x2"): VO}, spec) == VO

    def test_unknown_label_raises(self, normalize_filter):
        spec, _ = normalize_filter
        with pytest.raises(UnknownLabelError):
            path_type("x1", "nope", {}, spec)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle_on_random_workflows(self, seed):
        rng = random.Random(seed)
        spec = random_workflow(rng, max_blocks=6, cycle_prob=0.25)
        ins = {e.label for e in spec.edges if e.direction == "in"}
        outs = {e.label for e in spec.edges if e.direction == "out"}
        direct = {}
        by_program_ins = {}
        by_program_outs = {}
        for e in spec.edges:
            target = by_program_ins if e.direction == "in" else by_program_outs
            target.setdefault(e.program, []).append(e.label)
        for program, block_ins in by_program_ins.items():
            for i in block_ins:
                for o in by_program_outs.get(program, ()):
                    direct[(i, o)] = DependencyType(rng.randrange(5))
        for i in sorted(ins):
            for o in sorted(outs):
                assert path_type(i, o, direct, spec) == oracle_path_type(
                    spec, i, o, direct
                )

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=80, deadline=None)
    def test_partial_maps_raise_exactly_on_the_corridor(self, seed):
        rng = random.Random(seed)
        spec = random_workflow(rng, max_blocks=6, cycle_prob=0.3)
        upstream = oracle_upstream(spec)
        data_of = {e.label: e.data for e in spec.edges}
        ins = sorted(e.label for e in spec.edges if e.direction == "in")
        outs = sorted(e.label for e in spec.edges if e.direction == "out")
        direct_pairs = sorted(
            (e.label, f.label)
            for e in spec.edges
            for f in spec.edges
            if e.direction == "in" and f.direction == "out" and e.program == f.program
        )
        direct = {
            pair: DependencyType(rng.randrange(5))
            for pair in direct_pairs
            if rng.random() < 0.7
        }

        def on_corridor(pair, input_label, output_label):
            i, o = pair
            from_input = i == input_label or any(
                (input_label, w) in upstream and data_of[w] == data_of[i] for w in outs
            )
            to_output = o == output_label or any(
                (r, output_label) in upstream and data_of[r] == data_of[o] for r in ins
            )
            return from_input and to_output

        for i in ins:
            for o in outs:
                missing = [
                    pair
                    for pair in direct_pairs
                    if pair not in direct and on_corridor(pair, i, o)
                ]
                if missing:
                    with pytest.raises(MissingDirectTypeError) as info:
                        path_type(i, o, direct, spec)
                    assert info.value.pair == missing[0]
                else:
                    assert path_type(i, o, direct, spec) == oracle_path_type(
                        spec, i, o, direct
                    )


class TestSolveFixtures:
    def test_normalize_filter_single_model(self, normalize_filter):
        spec, annotations = normalize_filter
        result = solve(spec, annotations)
        assert result.consistent
        assert not result.truncated
        assert result.answer_sets == (
            {
                ("x1", "x2"): DF,
                ("x_range", "x2"): DF,
                ("x3", "x4"): SA,
                ("x_cutoff", "x4"): DO,
                ("x1", "x4"): DF,
                ("x_range", "x4"): DF,
            },
        )
        assert result.entailed == result.answer_sets[0]
        assert all(len(opts) == 1 for opts in result.options.values())

    def test_chain_span_five_models(self, chain_span):
        spec, annotations = chain_span
        result = solve(spec, annotations)
        assert len(result.answer_sets) == 5
        assert not result.truncated
        projections = {
            (m[("x1", "x2")], m[("x3", "x4")]) for m in result.answer_sets
        }
        assert projections == {(DF, DF), (DF, VO), (DF, SA), (VO, DF), (SA, DF)}
        assert all(m[("x1", "x4")] == DF for m in result.answer_sets)
        assert result.entailed == {("x1", "x4"): DF}
        assert result.options[("x1", "x2")] == (DF, VO, SA)
        assert result.options[("x3", "x4")] == (DF, VO, SA)

    def test_chain_span_matches_literal_enumeration(self, chain_span):
        spec, annotations = chain_span
        pins = {a.pair: a.assertion for a in annotations}
        expected = []
        for r1 in range(5):
            for r2 in range(5):
                direct = {
                    ("x1", "x2"): DependencyType(r1),
                    ("x3", "x4"): DependencyType(r2),
                }
                span = oracle_path_type(spec, "x1", "x4", direct)
                if span == pins[("x1", "x4")]:
                    expected.append({**direct, ("x1", "x4"): span})
        result = solve(spec, annotations)
        assert sorted(
            (tuple(sorted(m.items())) for m in expected)
        ) == sorted(tuple(sorted(m.items())) for m in result.answer_sets)

    def test_sampler_span_has_no_models(self, sampler_span):
        spec, annotations = sampler_span
        result = solve(spec, annotations)
        assert not result.consistent
        assert result.answer_sets == ()
        assert result.entailed == {}
        assert result.options == {}

    def test_branch_merge_single_model(self, branch_merge):
        spec, annotations = branch_merge
        result = solve(spec, annotations)
        assert result.answer_sets == (
            {
                ("x1", "x2"): DF,
                ("x3", "x4"): FF,
                ("x5", "x6"): SA,
                ("x7", "x9"): SA,
                ("x8", "x9"): SA,
                ("x1", "x4"): FF,
                ("x1", "x6"): DF,
                ("x1", "x9"): DF,
                ("x3", "x9"): FF,
                ("x5", "x9"): SA,
            },
        )


class TestSolveSemantics:
    def test_workflow_without_upstream_pairs_has_one_empty_model(self):
        spec = WorkflowSpec(
            "io_only",
            ["p"],
            ["d1"],
            [Edge("a", "p", "d1", "in")],
        )
        result = solve(spec)
        assert result.answer_sets == ({},)
        assert result.consistent
        assert result.entailed == {} and result.options == {}

    def test_truncation_returns_canonical_prefix(self, chain_span):
        spec, annotations = chain_span
        result = solve(spec, annotations, max_models=3)
        assert result.truncated
        assert len(result.answer_sets) == 3
        assert [m[("x3", "x4")] for m in result.answer_sets] == [DF, VO, SA]
        full = solve(spec, annotations)
        assert list(result.answer_sets) == list(full.answer_sets[:3])

    def test_truncated_result_follows_search_order(self):
        # P: a -> z; Q reads z's data block on q and writes b. The search
        # walks (a,z) before (q,b), so it finds (a,z)=1, (q,b)=1 before the
        # canonically earlier (a,z)=2, (q,b)=0.
        spec = WorkflowSpec(
            "two",
            ["P", "Q"],
            ["d0", "dz", "db"],
            [
                Edge("a", "P", "d0", "in"),
                Edge("z", "P", "dz", "out"),
                Edge("q", "Q", "dz", "in"),
                Edge("b", "Q", "db", "out"),
            ],
        )

        def ranks(result):
            return [
                tuple(int(m[p]) for p in (("a", "b"), ("a", "z"), ("q", "b")))
                for m in result.answer_sets
            ]

        full = solve(spec)
        assert len(full.answer_sets) == 25 and not full.truncated
        assert ranks(full)[5:7] == [(0, 1, 0), (0, 2, 0)]
        cut = solve(spec, max_models=7)
        assert cut.truncated
        assert ranks(cut) == [(0, 0, v) for v in range(5)] + [(0, 1, 0), (1, 1, 1)]

    def test_exact_model_count_is_not_truncated(self, chain_span):
        spec, annotations = chain_span
        result = solve(spec, annotations, max_models=5)
        assert len(result.answer_sets) == 5
        assert not result.truncated

    def test_max_models_must_be_positive(self, chain_span):
        spec, annotations = chain_span
        with pytest.raises(ValueError):
            solve(spec, annotations, max_models=0)
        with pytest.raises(ValueError):
            solve(spec, annotations, max_models=-4)

    def test_notflowsfrom_on_unreachable_pair_is_harmless(self, chain_span):
        spec, annotations = chain_span
        spaced = WorkflowSpec(
            spec.name,
            set(spec.programs) | {"island"},
            set(spec.data_blocks) | {"d8", "d9"},
            set(spec.edges)
            | {Edge("i1", "island", "d8", "in"), Edge("i2", "island", "d9", "out")},
        )
        with_nff = list(annotations) + [Annotation("x1", "i2", NOT_FLOWS_FROM)]
        plain = solve(spaced, annotations)
        asserted = solve(spaced, with_nff)
        assert plain.answer_sets == asserted.answer_sets

    def test_notflowsfrom_on_reachable_pair_kills_all_models(self, chain_span):
        spec, annotations = chain_span
        with_nff = list(annotations) + [Annotation("x1", "x4", NOT_FLOWS_FROM)]
        assert solve(spec, with_nff).answer_sets == ()

    def test_contradictory_pins_kill_all_models(self, chain_span):
        spec, _ = chain_span
        contra = [Annotation("x1", "x4", VO), Annotation("x1", "x4", SA)]
        assert solve(spec, contra).answer_sets == ()

    def test_exact_duplicate_annotations_collapse(self, chain_span):
        spec, annotations = chain_span
        doubled = list(annotations) + list(annotations)
        assert solve(spec, doubled).answer_sets == solve(spec, annotations).answer_sets

    def test_annotations_only_filter_models(self, chain_span):
        spec, annotations = chain_span
        base = solve(spec, annotations)
        extra = list(annotations) + [Annotation("x3", "x4", SA)]
        narrowed = solve(spec, extra)
        expected = [m for m in base.answer_sets if m[("x3", "x4")] == SA]
        assert list(narrowed.answer_sets) == expected

    def test_solve_is_deterministic(self, branch_merge):
        spec, annotations = branch_merge
        first = solve(spec, annotations)
        second = solve(spec, annotations)
        assert first == second

    def test_invalid_annotation_labels_raise(self, chain_span):
        spec, _ = chain_span
        with pytest.raises(StructuralValidationError):
            solve(spec, [Annotation("ghost", "x4", SA)])


class TestConflicts:
    def test_consistent_workflow_reports_no_conflicts(self, normalize_filter):
        spec, annotations = normalize_filter
        assert check_consistency(spec, annotations) == []

    def test_sampler_span_conflict_is_fully_described(self, sampler_span):
        spec, annotations = sampler_span
        conflicts = check_consistency(spec, annotations)
        assert conflicts == [
            Conflict(
                pair=("x_in", "x_out"),
                asserted=DF,
                witnesses=(
                    WitnessPath(("x_in", "x_s1", "x_s2", "x_out"), (DO,)),
                ),
                reason=ConflictReason.NOT_A_VALID_PATH_TYPE,
            )
        ]

    def test_stronger_path_wins_over_weak_assertion(self, chain_span):
        spec, _ = chain_span
        annotations = [
            Annotation("x1", "x2", SA),
            Annotation("x3", "x4", SA),
            Annotation("x1", "x4", FF),
        ]
        assert not solve(spec, annotations).consistent
        conflicts = check_consistency(spec, annotations)
        assert conflicts == [
            Conflict(
                pair=("x1", "x4"),
                asserted=FF,
                witnesses=(WitnessPath(("x1", "x2", "x3", "x4"), (SA,)),),
                reason=ConflictReason.STRONGER_PATH_EXISTS,
            )
        ]

    def test_violated_notflowsfrom_is_reported_first(self, chain_span):
        spec, annotations = chain_span
        with_nff = list(annotations) + [Annotation("x1", "x4", NOT_FLOWS_FROM)]
        conflicts = check_consistency(spec, with_nff)
        assert conflicts[0].pair == ("x1", "x4")
        assert conflicts[0].asserted == NOT_FLOWS_FROM
        assert conflicts[0].reason == ConflictReason.REACHABLE_BUT_NOT_FLOWS_FROM
        assert len(conflicts[0].witnesses) == 1

    def test_contradictory_pins_are_reported(self, chain_span):
        spec, _ = chain_span
        contra = [Annotation("x1", "x4", VO), Annotation("x1", "x4", SA)]
        conflicts = check_consistency(spec, contra)
        assert len(conflicts) == 1
        assert conflicts[0].pair == ("x1", "x4")
        assert conflicts[0].asserted == SA

    def test_random_inconsistent_cases_always_get_conflicts(self):
        checked = 0
        for seed in range(400):
            case = sample_oracle_case(seed)
            if case is None:
                continue
            spec, annotations = case
            result = solve(spec, annotations)
            conflicts = check_consistency(spec, annotations)
            if result.consistent:
                assert conflicts == []
            else:
                assert conflicts
                for conflict in conflicts:
                    assert isinstance(conflict.reason, ConflictReason)
                checked += 1
            if checked >= 12:
                break
        assert checked >= 5


class TestInfer:
    def test_normalize_filter_report(self, normalize_filter):
        spec, annotations = normalize_filter
        report = infer(spec, annotations)
        assert set(report) == set(up_stream_pairs(spec))
        assert report[("x1", "x4")].entailed == DF
        assert report[("x1", "x4")].origin == "inferred"
        assert report[("x_range", "x4")].entailed == DF
        assert report[("x_cutoff", "x4")].origin == "user"
        assert all(r.entailed is not None for r in report.values())

    def test_chain_span_report(self, chain_span):
        spec, annotations = chain_span
        report = infer(spec, annotations)
        assert report[("x1", "x2")].entailed is None
        assert report[("x1", "x2")].options == (DF, VO, SA)
        assert report[("x1", "x2")].origin == "inferred"
        assert report[("x1", "x4")].entailed == DF
        assert report[("x1", "x4")].origin == "user"

    def test_inconsistent_annotations_raise_with_conflicts(self, sampler_span):
        spec, annotations = sampler_span
        with pytest.raises(InconsistentWorkflowError) as info:
            infer(spec, annotations)
        assert info.value.conflicts == tuple(check_consistency(spec, annotations))
        assert "x_in -> x_out" in str(info.value)
        assert "not-a-valid-path-type" in str(info.value)

    def test_solve_or_explain_pairs_solve_with_its_conflicts(
        self, chain_span, sampler_span
    ):
        for spec, annotations in (chain_span, sampler_span):
            result, conflicts = solve_or_explain(spec, annotations, max_models=3)
            assert result == solve(spec, annotations, max_models=3)
            assert conflicts == check_consistency(spec, annotations)
        assert conflicts

    def test_annotations_given_as_a_generator(self, chain_span, sampler_span):
        spec, annotations = chain_span
        report = infer(spec, iter(annotations))
        assert report[("x1", "x4")].origin == "user"
        assert report == infer(spec, annotations)
        spec, annotations = sampler_span
        with pytest.raises(InconsistentWorkflowError) as info:
            infer(spec, iter(annotations))
        assert [c.reason for c in info.value.conflicts] == [
            ConflictReason.NOT_A_VALID_PATH_TYPE
        ]


def _cycle_shapes(spec: WorkflowSpec) -> tuple[bool, bool]:
    """(some block reads its own output, some cycle spans several blocks)."""
    writer = {e.data: e.program for e in spec.edges if e.direction == "out"}
    feeds = {p: set() for p in spec.programs}
    for e in spec.edges:
        if e.direction == "in" and e.data in writer:
            feeds[writer[e.data]].add(e.program)
    reach = {p: set(q) for p, q in feeds.items()}
    for k in spec.programs:
        for p in spec.programs:
            if k in reach[p]:
                reach[p] |= reach[k]
    self_loop = any(p in feeds[p] for p in spec.programs)
    spanning = any(q != p and p in reach[q] for p in spec.programs for q in reach[p])
    return self_loop, spanning


def cyclic_oracle_cases(spanning: int, self_loops: int):
    """Seeded cyclic draws small enough to brute force: ``spanning`` with a
    cycle through several blocks, then ``self_loops`` whose only cycles are
    blocks reading their own output. Each case is (seed, spec, annotations,
    rng), the rng left ready for further draws."""
    wanted = {True: spanning, False: self_loops}
    found: dict[bool, list] = {True: [], False: []}
    for seed in range(10_000):
        rng = random.Random(90_000 + seed)
        spec = random_workflow(rng, max_blocks=5, cycle_prob=(0.5, 0.8)[seed % 2])
        self_loop, spans = _cycle_shapes(spec)
        if not (self_loop or spans) or len(found[spans]) == wanted[spans]:
            continue
        upstream = up_stream_pairs(spec)
        if len(upstream) > 10:
            continue
        annotations = random_annotations(rng, spec)
        pinned = {a.pair for a in annotations if isinstance(a.assertion, DependencyType)}
        if 5 ** len(upstream - pinned) > 20_000:
            continue
        found[spans].append((seed, spec, annotations, rng))
        if all(len(found[k]) == wanted[k] for k in wanted):
            break
    return found[True] + found[False]


class TestBruteForceOracle:
    def test_cap_is_enforced(self, branch_merge):
        spec, annotations = branch_merge
        with pytest.raises(BruteForceCapError):
            brute_force_solve(spec, annotations, cap=9)
        assert brute_force_solve(spec, annotations, cap=10).consistent

    def test_agrees_with_solver_on_fixtures(
        self, normalize_filter, chain_span, sampler_span, branch_merge
    ):
        for spec, annotations in (
            normalize_filter,
            chain_span,
            sampler_span,
            branch_merge,
        ):
            fast = solve(spec, annotations)
            slow = brute_force_solve(spec, annotations)
            assert fast.answer_sets == slow.answer_sets
            assert fast.entailed == slow.entailed
            assert fast.options == slow.options

    def test_agrees_with_solver_on_random_cases(self):
        compared = 0
        for seed in range(1000, 1300):
            case = sample_oracle_case(seed)
            if case is None:
                continue
            spec, annotations = case
            # the sampler caps the space at 20000 combinations, so this
            # model limit can never truncate
            fast = solve(spec, annotations, max_models=20_000)
            slow = brute_force_solve(spec, annotations)
            assert not fast.truncated
            assert fast.answer_sets == slow.answer_sets, seed
            assert fast.entailed == slow.entailed, seed
            assert fast.options == slow.options, seed
            compared += 1
            if compared >= 80:
                break
        assert compared >= 50

    def test_agrees_with_solver_on_cyclic_draws(self):
        cases = cyclic_oracle_cases(spanning=20, self_loops=40)
        assert len(cases) == 60
        for seed, spec, annotations, rng in cases:
            slow = brute_force_solve(spec, annotations)
            fast = solve(spec, annotations, max_models=20_000)
            assert fast.answer_sets == slow.answer_sets, seed
            assert fast.truncated == slow.truncated, seed
            assert (check_consistency(spec, annotations) == []) == slow.consistent, seed
            direct = {
                (i.label, o.label): DependencyType(rng.randrange(5))
                for i in spec.edges
                for o in spec.edges
                if i.direction == "in" and o.direction == "out" and i.program == o.program
            }
            for i in sorted(e.label for e in spec.edges if e.direction == "in"):
                for o in sorted(e.label for e in spec.edges if e.direction == "out"):
                    expected = oracle_path_type(spec, i, o, direct)
                    assert path_type(i, o, direct, spec) == expected, (seed, i, o)
