"""Top-level acceptance checks, one test per criterion.

Run with ``python3 -m pytest tests/test_acceptance.py -v`` to get one
pass/fail line per criterion. Each criterion is exact (no tolerances) and
must finish well inside its ten second budget; the timed ones assert it.
"""

from __future__ import annotations

import random
import time

import pytest

from depanno import (
    Annotation,
    DataItem,
    DependencyType,
    InconsistentWorkflowError,
    Invocation,
    Trace,
    check_trace,
    compose,
    emit_asp_program,
    emit_spec,
    infer,
    parse_spec,
    path_type,
    solve,
)
from depanno.random_workflows import random_annotations, random_workflow

from conftest import (
    brute_force_solve,
    load_workflow,
    oracle_hops,
    oracle_simple_paths,
    sample_oracle_case,
)

FF = DependencyType.FLOWS_FROM
DO = DependencyType.DEPENDS_ON
DF = DependencyType.DERIVED_FROM
VO = DependencyType.VALUE_OF
SA = DependencyType.SAME_AS

FIXTURES = (
    "normalize_filter.wf",
    "chain_span.wf",
    "sampler_span.wf",
    "branch_merge.wf",
)


def test_01_two_block_pipeline_entails_the_span_annotations(normalize_filter):
    """Four user annotations determine one answer set; both cross-block
    pairs come out DerivedFrom."""
    spec, annotations = normalize_filter
    result = solve(spec, annotations)
    assert len(result.answer_sets) == 1
    report = infer(spec, annotations)
    cross_block = {
        pair: r.entailed for pair, r in report.items() if r.origin == "inferred"
    }
    assert cross_block == {
        ("x1", "x4"): DF,
        ("x_range", "x4"): DF,
    }


def test_02_spanning_annotation_alone_leaves_five_answer_sets(chain_span):
    """A single DerivedFrom across two chained blocks admits exactly the
    five block-pair combinations whose weakest member is DerivedFrom."""
    spec, annotations = chain_span
    result = solve(spec, annotations)
    assert len(result.answer_sets) == 5
    assert not result.truncated
    block_pairs = {
        (m[("x1", "x2")], m[("x3", "x4")]) for m in result.answer_sets
    }
    assert block_pairs == {(DF, DF), (DF, VO), (DF, SA), (VO, DF), (SA, DF)}
    assert result.options[("x1", "x2")] == (DF, VO, SA)
    assert result.options[("x3", "x4")] == (DF, VO, SA)


def test_03_overconstrained_chain_is_inconsistent_with_witness(sampler_span):
    """Pinned block types cap the composite at DependsOn, so the spanning
    DerivedFrom assertion yields zero answer sets and a witnessed conflict."""
    spec, annotations = sampler_span
    result = solve(spec, annotations)
    assert result.answer_sets == ()
    with pytest.raises(InconsistentWorkflowError) as info:
        infer(spec, annotations)
    conflicts = info.value.conflicts
    assert len(conflicts) == 1
    [conflict] = conflicts
    assert conflict.pair == ("x_in", "x_out")
    assert conflict.asserted == DF
    assert [w.achievable for w in conflict.witnesses] == [(DO,)]


def test_04_strongest_path_wins_across_a_diamond(branch_merge):
    """Two paths join the outer pair; the result is the stronger path type
    DerivedFrom, and the weaker FlowsFrom value admits no answer set."""
    spec, annotations = branch_merge
    report = infer(spec, annotations)
    assert report[("x1", "x9")].entailed == DF
    direct = {a.pair: a.assertion for a in annotations}
    top_path_min = min(
        direct[h] for h in oracle_hops(("x1", "x2", "x3", "x4", "x7", "x9"))
    )
    assert top_path_min == FF
    weaker_pin = list(annotations) + [Annotation("x1", "x9", FF)]
    assert solve(spec, weaker_pin).answer_sets == ()


def test_05_solver_matches_brute_force_on_200_random_workflows():
    """Answer-set families agree exactly with the exhaustive oracle."""
    start = time.perf_counter()
    compared = 0
    seed = 0
    while compared < 200:
        case = sample_oracle_case(seed)
        seed += 1
        if case is None:
            continue
        spec, annotations = case
        # the sampler bounds the assignment space at 20000 combinations,
        # so this cap can never truncate
        fast = solve(spec, annotations, max_models=20_000)
        slow = brute_force_solve(spec, annotations)
        assert not fast.truncated
        assert fast.answer_sets == slow.answer_sets, f"seed {seed - 1}"
        assert fast.entailed == slow.entailed, f"seed {seed - 1}"
        assert fast.options == slow.options, f"seed {seed - 1}"
        compared += 1
    elapsed = time.perf_counter() - start
    assert compared == 200
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_06_composition_is_a_lattice_meet():
    """Exhaustive 5x5 and 5x5x5 checks: commutative, associative,
    idempotent, SameAs is the identity, FlowsFrom absorbs."""
    types = list(DependencyType)
    for a in types:
        assert compose(a, a) == a
        assert compose(a, SA) == a
        assert compose(SA, a) == a
        assert compose(a, FF) == FF
        assert compose(FF, a) == FF
        for b in types:
            assert compose(a, b) == compose(b, a)
            assert compose(a, b) in (a, b)
            for c in types:
                assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_07_path_type_matches_exhaustive_enumeration_on_100_dags():
    """Strongest-path values from threshold reachability equal literal
    max-over-paths of min-over-hops on random acyclic workflows."""
    start = time.perf_counter()
    checked_pairs = 0
    for seed in range(100):
        rng = random.Random(60_000 + seed)
        spec = random_workflow(rng, max_blocks=6, cycle_prob=0.0)
        by_program: dict[str, tuple[list, list]] = {}
        for e in spec.edges:
            slot = by_program.setdefault(e.program, ([], []))
            slot[0 if e.direction == "in" else 1].append(e.label)
        direct = {}
        for ins, outs in by_program.values():
            for i in ins:
                for o in outs:
                    direct[(i, o)] = DependencyType(rng.randrange(5))
        ins = sorted(e.label for e in spec.edges if e.direction == "in")
        outs = sorted(e.label for e in spec.edges if e.direction == "out")
        for i in ins:
            for o in outs:
                paths = oracle_simple_paths(spec, i, o)
                expected = (
                    max(
                        min(int(direct[h]) for h in oracle_hops(p))
                        for p in paths
                    )
                    if paths
                    else None
                )
                got = path_type(i, o, direct, spec)
                assert (None if got is None else int(got)) == expected
                checked_pairs += 1
    elapsed = time.perf_counter() - start
    assert checked_pairs > 100
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_08_parse_after_emit_is_the_identity():
    """Round trip on every bundled fixture and 100 random specs."""
    for name in FIXTURES:
        spec, annotations = load_workflow(name)
        result = parse_spec(emit_spec(spec, annotations))
        assert result.spec == spec
        assert set(result.annotations) == set(annotations)
    for seed in range(100):
        rng = random.Random(70_000 + seed)
        spec = random_workflow(rng, max_blocks=6, cycle_prob=0.2)
        annotations = random_annotations(rng, spec, notflowsfrom_prob=0.2)
        result = parse_spec(emit_spec(spec, annotations))
        assert result.spec == spec
        assert set(result.annotations) == set(annotations)


def test_09_trace_mutations_each_produce_one_violation(normalize_filter):
    """A conforming synthesized trace checks clean; swapping in a fresh id
    under SameAs or a foreign value under ValueOf each yields exactly one
    violation of the matching kind."""
    spec, annotations = normalize_filter
    conforming = Trace(
        "normalize_filter",
        (
            Invocation(
                "normalize",
                {
                    "x1": (DataItem("n1", "10"),),
                    "x_range": (DataItem("r1", "0..100"),),
                },
                {"x2": (DataItem("m1", "0.10"),)},
            ),
            Invocation(
                "filter",
                {
                    "x3": (DataItem("m1", "0.10"),),
                    "x_cutoff": (DataItem("c1", "0.5"),),
                },
                {"x4": (DataItem("m1", "0.10"),)},
            ),
        ),
    )
    assert check_trace(spec, annotations, conforming) == []

    fresh_id = Trace(
        "normalize_filter",
        conforming.invocations[:1]
        + (
            Invocation(
                "filter",
                conforming.invocations[1].reads,
                {"x4": (DataItem("fresh", "0.10"),)},
            ),
        ),
    )
    violations = check_trace(spec, annotations, fresh_id)
    assert len(violations) == 1
    assert violations[0].pair == ("x3", "x4")
    assert violations[0].kind == "identity-violation"

    # retype the same-block filter pair to ValueOf to exercise value checks
    value_annotations = [
        a if a.pair != ("x3", "x4") else Annotation("x3", "x4", VO)
        for a in annotations
    ]
    assert check_trace(spec, value_annotations, fresh_id) == []
    foreign_value = Trace(
        "normalize_filter",
        conforming.invocations[:1]
        + (
            Invocation(
                "filter",
                conforming.invocations[1].reads,
                {"x4": (DataItem("m1", "999"),)},
            ),
        ),
    )
    violations = check_trace(spec, value_annotations, foreign_value)
    assert len(violations) == 1
    assert violations[0].pair == ("x3", "x4")
    assert violations[0].kind == "value-violation"


def test_10_exported_program_agrees_with_the_native_solver():
    """Optional cross-check: ground and solve the exported logic program
    with clingo and compare dep_rule atom sets to native answer sets."""
    clingo = pytest.importorskip(
        "clingo", reason="external answer-set solver not installed"
    )
    for name in FIXTURES:
        spec, annotations = load_workflow(name)
        native = solve(spec, annotations)
        expected = {
            frozenset(
                (pair[0], pair[1], t.display.lower()) for pair, t in model.items()
            )
            for model in native.answer_sets
        }
        control = clingo.Control(["0"])
        control.add("base", [], emit_asp_program(spec, annotations))
        control.ground([("base", [])])
        found = set()
        with control.solve(yield_=True) as handle:
            for model in handle:
                atoms = frozenset(
                    (
                        str(sym.arguments[0]),
                        str(sym.arguments[1]),
                        str(sym.arguments[2]),
                    )
                    for sym in model.symbols(shown=True)
                    if sym.name == "dep_rule"
                )
                found.add(atoms)
        assert found == expected, name
