"""Shared fixtures and independent oracles.

The oracle helpers below deliberately re-derive semantics from raw edge
lists with plain DFS enumeration, without touching the package's graph
indexes or solver internals, so tests compare two separately written
implementations of the same definitions. ``brute_force_solve`` builds the
whole answer-set family the same way, by raw enumeration.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

import pytest

from depanno import (
    DependencyType,
    Edge,
    SolveResult,
    WorkflowSpec,
    parse_spec,
    up_stream_pairs,
)
from depanno.random_workflows import random_annotations, random_workflow

WORKFLOWS = Path(__file__).resolve().parents[1] / "workflows"


def load_workflow(name: str):
    result = parse_spec((WORKFLOWS / name).read_text(encoding="utf-8"))
    assert result.spec is not None, [d.message for d in result.diagnostics]
    return result.spec, list(result.annotations)


@pytest.fixture(scope="session")
def normalize_filter():
    return load_workflow("normalize_filter.wf")


@pytest.fixture(scope="session")
def chain_span():
    return load_workflow("chain_span.wf")


@pytest.fixture(scope="session")
def sampler_span():
    return load_workflow("sampler_span.wf")


@pytest.fixture(scope="session")
def branch_merge():
    return load_workflow("branch_merge.wf")


def chain_spec(n: int, name: str = "chain") -> WorkflowSpec:
    """Blocks p1..pn in a line: block k reads d(k-1) on ik, writes dk on ok."""
    edges = []
    for k in range(1, n + 1):
        edges.append(Edge(f"i{k}", f"p{k}", f"d{k - 1}", "in"))
        edges.append(Edge(f"o{k}", f"p{k}", f"d{k}", "out"))
    return WorkflowSpec(
        name,
        [f"p{k}" for k in range(1, n + 1)],
        [f"d{k}" for k in range(n + 1)],
        edges,
    )


def oracle_simple_paths(spec: WorkflowSpec, input_label: str, output_label: str):
    """Exhaustive DFS over raw edges: alternating labels, no label repeats."""
    outs_of_program = {}
    readers_of_data = {}
    for e in spec.edges:
        if e.direction == "out":
            outs_of_program.setdefault(e.program, []).append(e.label)
        else:
            readers_of_data.setdefault(e.data, []).append(e.label)
    by_label = {e.label: e for e in spec.edges}
    if by_label[input_label].direction != "in":
        return []
    if by_label[output_label].direction != "out":
        return []
    found = []

    def extend(path):
        last = by_label[path[-1]]
        if last.direction == "in":
            for out in sorted(outs_of_program.get(last.program, [])):
                if out in path:
                    continue
                if out == output_label:
                    found.append(tuple(path) + (out,))
                else:
                    extend(path + [out])
        else:
            for nxt in sorted(readers_of_data.get(last.data, [])):
                if nxt not in path:
                    extend(path + [nxt])

    extend([input_label])
    return sorted(found)


def oracle_hops(path):
    return [(path[k], path[k + 1]) for k in range(0, len(path) - 1, 2)]


def oracle_path_type(spec, input_label, output_label, direct):
    """max over simple paths of (min of direct types along the path)."""
    paths = oracle_simple_paths(spec, input_label, output_label)
    if not paths:
        return None
    best = max(min(int(direct[h]) for h in oracle_hops(p)) for p in paths)
    return DependencyType(best)


def oracle_upstream(spec: WorkflowSpec):
    """Pairs with at least one simple path, by exhaustive enumeration."""
    ins = sorted(e.label for e in spec.edges if e.direction == "in")
    outs = sorted(e.label for e in spec.edges if e.direction == "out")
    return {
        (i, o)
        for i in ins
        for o in outs
        if oracle_simple_paths(spec, i, o)
    }


class BruteForceCapError(ValueError):
    """The workflow has more upstream pairs than the brute-force cap allows."""


def brute_force_solve(spec: WorkflowSpec, annotations=(), cap: int = 10):
    """Oracle enumeration: try every assignment over all upstream pairs.

    Tries all 5^n combinations (n = number of upstream pairs, a pinned pair
    keeps only its pinned value, a NotFlowsFrom on an upstream pair leaves
    no value) and keeps those satisfying the two path constraints stated
    literally: the assigned type is one of the per-path minimums, and no
    path minimum is strictly stronger. Raises BruteForceCapError when n
    exceeds ``cap``; never truncates.
    """
    upstream = sorted(oracle_upstream(spec))
    if len(upstream) > cap:
        raise BruteForceCapError(
            f"{len(upstream)} upstream pairs exceed the brute-force cap of {cap}"
        )
    domains = {pair: set(range(len(DependencyType))) for pair in upstream}
    for ann in annotations:
        if isinstance(ann.assertion, DependencyType):
            domains[ann.pair] &= {int(ann.assertion)}
        elif ann.pair in domains:
            domains[ann.pair] = set()
    pair_hops = {
        pair: [oracle_hops(p) for p in oracle_simple_paths(spec, *pair)]
        for pair in upstream
    }

    models = []
    # product over sorted domains yields the canonical answer-set order
    for combo in itertools.product(*(sorted(domains[p]) for p in upstream)):
        value = dict(zip(upstream, combo))
        ok = True
        for pair, paths in pair_hops.items():
            mins = [min(value[hop] for hop in hops) for hops in paths]
            assigned = value[pair]
            if assigned not in mins or any(m > assigned for m in mins):
                ok = False
                break
        if ok:
            models.append({p: DependencyType(v) for p, v in value.items()})

    options = {}
    entailed = {}
    if models:
        for pair in upstream:
            options[pair] = tuple(
                DependencyType(v) for v in sorted({int(m[pair]) for m in models})
            )
            if len(options[pair]) == 1:
                entailed[pair] = options[pair][0]
    return SolveResult(tuple(models), entailed, options, truncated=False)


def sample_oracle_case(seed: int, max_pairs: int = 10, max_combos: int = 20000):
    """One random (spec, annotations) pair small enough to brute force.

    Returns None when the draw is too large, so callers rejection-sample.
    """
    rng = random.Random(seed)
    spec = random_workflow(rng, max_blocks=6, cycle_prob=0.15)
    upstream = up_stream_pairs(spec)
    if len(upstream) > max_pairs:
        return None
    annotations = random_annotations(rng, spec)
    pinned = {
        a.pair for a in annotations if isinstance(a.assertion, DependencyType)
    }
    unpinned = len(upstream) - len(pinned & upstream)
    if 5**unpinned > max_combos:
        return None
    return spec, annotations
