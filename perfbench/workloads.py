"""The three workloads, each a fixed cycle of requests built from the seed.

A run repeats its workload's cycle as a closed loop, so every run issues the
same mix of requests and only their number of repetitions varies.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

import gen
from gen import Case
from reference import Expected, Graph, expect
from calls import KINDS


@dataclass
class Item:
    kind: str
    case: Case
    exp: Expected
    graph: Graph


# Pinned chain lengths; each gets all five requests and a large trace. A
# run holds one cycle, so each per-kind median is taken over the twelve
# equal 128-block chains (own pins and traces): equal costs let it pool
# twelve requests' times rather than stand on the one in the middle.
CHAIN_SIZES = (128,) * 12 + (400,)
# Invocations per chain trace. With 20,000 the check-trace requests' times
# moved between runs by a third against every other request kind's (their
# heap of tens of MB makes them track the machine's speed differently from
# the rest), which no run length on a shared host averaged out.
CHAIN_TRACE = 2_000
LADDER_STAGES = range(2, 9)
RANDOM_DRAWS = 100
RANDOM_MAX_PAIRS = 20


def _items(plan) -> list[Item]:
    """Expand (case, kinds) pairs into requests. Runs lazily over the plan,
    so each trace's raw invocations are dropped before the next is made."""
    items = []
    for case, kinds in plan:
        graph = Graph(case)
        exp = expect(case, graph, set(kinds))
        if case.trace is not None:
            case.trace.invocations = None
        items += [Item(kind, case, exp, graph) for kind in kinds]
    return items


def chain_scale(rng: random.Random):
    """Pinned chains with large traces, then the seed's defect cases: an
    unannotated 1200-block chain, a 40 x 30 block and a 6-block chain."""
    for k, n in enumerate(CHAIN_SIZES):
        case = gen.chain(rng, n, f"chain{n}n{k}", pinned=True)
        yield gen.attach_trace(rng, case, CHAIN_TRACE, plants=12), KINDS
    yield gen.chain(rng, 1200, "chain1200", pinned=False), ("validate",)
    yield gen.wide_block(40, 30, "wide40x30"), ("solve", "validate")
    yield gen.chain(rng, 6, "chain6", pinned=False), ("infer",)
    # One inconsistent verdict that needs no explanation: a NotFlowsFrom on
    # a connected pair.
    denied = gen.chain(rng, 6, "chain6nff", pinned=False)
    denied.nff = [("i1", "o6")]
    yield denied.render(), ("validate",)


def _ladder_pair(rng: random.Random, stages: int, copy: int) -> tuple[Case, Case]:
    """An inconsistent ladder and its consistent twin.

    The inconsistent one pins both fan-out hops to ``copy`` and the span
    x0 -> y to something stronger, which no path can carry; every other hop
    is free, so explaining it enumerates many models. The twin pins every
    hop except the last three to values drawn from a constant seed, and the
    span to its value under those draws, so it has at most 125 answer sets.

    The explanation's cost depends on the cap and the twin's on its pinned
    values, so both are fixed; ``rng`` picks the impossible span value,
    which leaves the work unchanged, and the twin's trace.
    """
    bad = gen.ladder(stages, f"ladder{stages}c{copy}x")
    bad.family = "ladder-conflict"
    bad.pins = {("x0", "u1"): copy, ("x0", "v1"): copy, ("x0", "y"): rng.randint(copy + 1, 4)}
    bad.render()

    twin = gen.ladder(stages, f"ladder{stages}c{copy}")
    twin.family = "ladder"
    graph = Graph(twin)
    values = random.Random(f"ladder twin {stages} {copy}")
    planted = {p: values.randrange(5) for p in graph.direct}
    free = set(graph.direct[-3:])
    twin.pins = {p: v for p, v in planted.items() if p not in free}
    twin.pins[("x0", "y")] = graph.values(planted)[("x0", "y")]
    twin.render()
    gen.attach_trace(rng, twin, 200, plants=2)
    return bad, twin


def ladder_explain(rng: random.Random):
    """Validate every inconsistent ladder and send its twin the other four
    requests. The 2- and 3-stage twins are validated too, so a consistent
    verdict is also measured; with them the cycle has 27 validates, and
    their median falls amid the three 4-stage explanations rather than
    between two stage lengths, whose costs differ by half."""
    for copy in range(3):
        for stages in LADDER_STAGES:
            bad, twin = _ladder_pair(rng, stages, copy)
            yield bad, ("validate",)
            yield twin, KINDS if stages <= 3 else KINDS[1:]


def random_draw(rng: random.Random, name: str) -> Case:
    """Rejection-sample one annotated random workflow with at most 20
    upstream pairs."""
    while True:
        case = gen.random_workflow(rng, name)
        upstream = Graph(case).upstream()
        if len(upstream) <= RANDOM_MAX_PAIRS:
            return gen.random_annotations(rng, case, upstream)


def random_mix(rng: random.Random):
    """A fixed pool of draws, in seeded order, each with a seeded trace.

    Request costs across draws span four orders of magnitude, so a pool
    redrawn per seed would move every metric by more than any useful bound
    (resampling 1000 measured draws, 150 fresh draws per seed gave an
    interquartile spread of requests per second of 0.37 of the median
    over ten seeds). The pool is
    therefore drawn once from a constant seed; ``--seed`` renames the
    workflows, orders them and generates their traces.
    """
    pool = random.Random("random_mix pool")
    cases = [random_draw(pool, f"d{k}") for k in range(RANDOM_DRAWS)]
    rng.shuffle(cases)
    tag = rng.randrange(16**4)
    for case in cases:
        case.name = f"r{tag:04x}{case.name}"
        yield gen.attach_trace(rng, case.render(), 30, plants=1), KINDS


WORKLOADS = {
    "chain_scale": chain_scale,
    "ladder_explain": ladder_explain,
    "random_mix": random_mix,
}


def build(workload: str, seed: int) -> list[Item]:
    return _items(WORKLOADS[workload](random.Random(f"{workload}:{seed}")))


def warmup(seed: int) -> list[Item]:
    """Small requests that touch every code path before timing starts:
    all five kinds, an explained conflict, and an unsupported export."""
    rng = random.Random(f"warmup:{seed}")
    small = gen.attach_trace(rng, gen.chain(rng, 8, "warm", pinned=True), 40, plants=2)
    bad, _twin = _ladder_pair(rng, 3, 1)
    nff = gen.chain(rng, 3, "warmnff", pinned=True)
    nff.nff = [("i3", "o1")]
    nff.render()
    return _items([(small, KINDS), (bad, ("validate", "infer")), (nff, ("export",))])


def digest(items: list[Item]) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item.kind.encode())
        h.update(item.case.text.encode())
        if item.case.trace is not None:
            h.update(item.case.trace.text.encode())
    return h.hexdigest()


def sizes(items: list[Item]) -> list[dict]:
    """Per distinct workflow: edges, upstream pairs, free direct pairs and
    trace invocations, all taken from the generator's own graph."""
    out = {}
    for item in items:
        case, graph = item.case, item.graph
        if case.name in out:
            continue
        if case.family == "chain":
            n = len(case.programs)
            upstream = n * (n + 1) // 2
        else:
            upstream = len(graph.upstream())
        out[case.name] = {
            "workflow": case.name,
            "edges": len(case.edges),
            "upstream_pairs": upstream,
            "free_direct_pairs": sum(1 for p in graph.direct if p not in case.pins),
            "trace_invocations": case.trace.count if case.trace else 0,
        }
    return list(out.values())
