"""Independent references: the answers the benchmark checks depanno against.

Nothing here imports ``depanno`` or copies its algorithms. Strongest-path
values come from a depth-first walk over every simple path (the semantics
stated literally: a path carries its weakest hop, a pair its strongest
path). Answer sets come either from a planted construction (pinned chains,
ladders) or from enumerating every assignment of the free direct pairs when
there are few enough of them. Trace expectations apply the documented
SameAs/ValueOf rules to the raw generated invocations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from gen import SAME_AS, VALUE_OF, Case, Pair

# Largest number of free-pair assignments the reference enumerator tries.
ENUMERATION_CAP = 5**6


class Graph:
    """Adjacency of one generated workflow, keyed by edge label."""

    def __init__(self, case: Case):
        self.program = {}
        self.direction = {}
        outs_of: dict[str, list[str]] = {}
        readers: dict[str, list[str]] = {}
        self.data = {}
        for label, program, data, direction in case.edges:
            self.program[label] = program
            self.direction[label] = direction
            self.data[label] = data
            if direction == "out":
                outs_of.setdefault(program, []).append(label)
            else:
                readers.setdefault(data, []).append(label)
        self.outs_of = {p: sorted(v) for p, v in outs_of.items()}
        self.readers = {d: sorted(v) for d, v in readers.items()}
        self.ins = sorted(l for l, d in self.direction.items() if d == "in")
        self.direct = sorted(
            (i, o) for i in self.ins for o in self.outs_of.get(self.program[i], ())
        )

    def next_labels(self, label: str) -> list[str]:
        if self.direction[label] == "in":
            return self.outs_of.get(self.program[label], [])
        return self.readers.get(self.data[label], [])

    def walk(self, source: str, rank=None) -> dict[str, int]:
        """Depth-first over every simple path from input ``source``.

        Returns, for each output label reached, the strongest over those
        paths of the weakest ``rank`` of their hops (5 stands in for "no
        hop yet"; with ``rank=None`` every hop counts as 4, giving plain
        reachability). Iterative, so long chains need no deep recursion.
        """
        best: dict[str, int] = {}
        used = {source}
        stack = [(source, 5, iter(self.next_labels(source)))]
        while stack:
            label, width, children = stack[-1]
            nxt = next(children, None)
            if nxt is None:
                stack.pop()
                used.discard(label)
                continue
            if nxt in used:
                continue
            if self.direction[label] == "in":
                width = min(width, 4 if rank is None else rank[(label, nxt)])
                if width > best.get(nxt, -1):
                    best[nxt] = width
            used.add(nxt)
            stack.append((nxt, width, iter(self.next_labels(nxt))))
        return best

    def upstream(self) -> list[Pair]:
        return sorted((i, o) for i in self.ins for o in self.walk(i))

    def simple_paths(self, source: str, target: str) -> list[tuple[str, ...]]:
        found = []
        path = [source]
        stack = [iter(self.next_labels(source))]
        while stack:
            nxt = next(stack[-1], None)
            if nxt is None:
                stack.pop()
                path.pop()
                continue
            if nxt in path:
                continue
            if nxt == target:
                found.append(tuple(path) + (nxt,))
                continue
            path.append(nxt)
            stack.append(iter(self.next_labels(nxt)))
        return sorted(found)

    def values(self, direct: dict[Pair, int]) -> dict[Pair, int]:
        """Strongest-path value of every upstream pair under ``direct``."""
        return {
            (i, o): v for i in self.ins for o, v in self.walk(i, direct).items()
        }


def is_answer_set(graph: Graph, case: Case, model: dict[Pair, int]) -> bool:
    """DFS path-minimum check of one complete assignment against the pins."""
    try:
        direct = {p: model[p] for p in graph.direct}
    except KeyError:
        return False
    values = graph.values(direct)
    if values != model:
        return False
    if any(model.get(p) != v for p, v in case.pins.items()):
        return False
    return not any(p in model for p in case.nff)


def enumerate_models(graph: Graph, case: Case, upstream: list[Pair]):
    """Every answer set, by trying each assignment of the free direct pairs.

    Each upstream pair's simple paths are listed once by DFS; an assignment
    is kept when every pair's strongest path minimum matches the direct
    choice (for direct pairs) and every pin. Returns None when there are
    more than ENUMERATION_CAP assignments.
    """
    if any(p in set(upstream) for p in case.nff):
        return []
    free = [p for p in graph.direct if p not in case.pins]
    if 5 ** len(free) > ENUMERATION_CAP:
        return None
    hop = {p: k for k, p in enumerate(graph.direct)}
    table = [
        [[hop[(path[k], path[k + 1])] for k in range(0, len(path) - 1, 2)]
         for path in graph.simple_paths(*pair)]
        for pair in upstream
    ]
    position = {pair: k for k, pair in enumerate(upstream)}
    checks = [(position[p], hop[p], None) for p in graph.direct]
    checks += [(position[p], None, v) for p, v in case.pins.items()]
    direct = [case.pins.get(p) for p in graph.direct]
    free_hops = [hop[p] for p in free]
    models = []
    for combo in itertools.product(range(5), repeat=len(free)):
        for k, v in zip(free_hops, combo):
            direct[k] = v
        values = [max(min(direct[h] for h in path) for path in paths) for paths in table]
        if all(values[at] == (want if h is None else direct[h]) for at, h, want in checks):
            models.append(dict(zip(upstream, values)))
    return models


@dataclass
class Expected:
    """What a correct run of each request returns for one case.

    ``models`` is the complete answer-set family when known and ``options``
    its per-pair projection; either is None when unknown. ``many`` is set
    when there are known to be more than 1024 answer sets. ``consistent``
    is None when unknown. ``conflict`` is the single planted conflict of an
    inconsistent ladder; ``violations`` and ``warnings`` describe the trace.
    """

    upstream: list[Pair]
    consistent: bool | None
    models: list[dict] | None = None
    options: dict[Pair, tuple[int, ...]] | None = None
    many: bool = False
    conflict: tuple | None = None
    violations: set | None = None
    warnings: set | None = None


def chain_values(case: Case) -> dict[Pair, int]:
    """Planted min rule for a fully pinned chain: (i_a, o_b) is the weakest
    direct pin among blocks a..b."""
    n = len(case.programs)
    direct = [case.pins[(f"i{k}", f"o{k}")] for k in range(1, n + 1)]
    values = {}
    for a in range(1, n + 1):
        low = 4
        for b in range(a, n + 1):
            low = min(low, direct[b - 1])
            values[(f"i{a}", f"o{b}")] = low
    return values


def expect(case: Case, graph: Graph, kinds: set[str]) -> Expected:
    """Reference answers for one case, from its construction where planted.

    ``kinds`` are the requests the case receives; an unannotated case that
    is only validated needs no per-pair answers, which keeps the 1200-block
    chain's 720k pairs out of memory.
    """
    if case.family == "chain" and case.pins:
        values = chain_values(case)
        exp = Expected(sorted(values), True, [values], {p: (v,) for p, v in values.items()})
    elif case.family in ("chain", "wide"):
        # Unannotated and acyclic: every assignment of the direct pairs is an
        # answer set, so each pair takes all five values, unless a
        # NotFlowsFrom on a connected pair rules every assignment out.
        upstream = [] if kinds == {"validate"} and not case.nff else graph.upstream()
        if any(p in set(upstream) for p in case.nff):
            exp = Expected(upstream, False)
        else:
            options = {p: tuple(range(5)) for p in upstream}
            exp = Expected(upstream, True, None, options, many=True)
    elif case.family == "ladder-conflict":
        exp = Expected(graph.upstream(), False, conflict=ladder_conflict(case, graph))
    else:
        upstream = graph.upstream()
        models = enumerate_models(graph, case, upstream)
        if models is not None:
            options = None
            if models:
                options = {p: tuple(sorted({m[p] for m in models})) for p in upstream}
            exp = Expected(upstream, bool(models), models, options, many=len(models) > 1024)
        else:
            known_bad = any(p in set(upstream) for p in case.nff)
            exp = Expected(upstream, False if known_bad else None)
    if case.trace is not None:
        exp.violations, exp.warnings = trace_expectations(case, graph)
    return exp


def ladder_conflict(case: Case, graph: Graph) -> tuple:
    """The one conflict a ladder with capped fan-out and a stronger span pin
    must report: the span pair, its asserted rank, the reason, and every
    simple path with the values it can still take (0 up to the cap)."""
    span = ("x0", "y")
    cap = min(v for p, v in case.pins.items() if p != span)
    witnesses = tuple(
        (path, tuple(range(cap + 1))) for path in graph.simple_paths(*span)
    )
    return (span, case.pins[span], "not-a-valid-path-type", witnesses)


def trace_expectations(case: Case, graph: Graph):
    """Violations and SameAs-candidate warnings by the documented rules,
    with the generator's planted corruptions as a cross-check."""
    rules = sorted(
        (i, o, r)
        for (i, o), r in case.pins.items()
        if graph.program[i] == graph.program[o] and r in (SAME_AS, VALUE_OF)
    )
    by_block: dict[str, list] = {}
    for rule in rules:
        by_block.setdefault(graph.program[rule[0]], []).append(rule)
    violations = set()
    seen: dict[Pair, bool] = {}
    for k, run in enumerate(case.trace.invocations):
        for i, o, rank in by_block.get(run["block"], ()):
            read = run["reads"].get(i, [])
            written = run["writes"].get(o, [])
            key = "id" if rank == SAME_AS else "value"
            allowed = {item[key] for item in read}
            bad = tuple((w["id"], w["value"]) for w in written if w[key] not in allowed)
            if bad:
                kind = "identity-violation" if rank == SAME_AS else "value-violation"
                violations.add((k, (i, o), rank, kind, bad))
            if rank == VALUE_OF and written:
                ids = {item["id"] for item in read}
                reused = all(w["id"] in ids for w in written)
                seen[(i, o)] = seen.get((i, o), True) and reused
    if {(k, pair[1]) for k, pair, *_ in violations} != case.trace.planted:
        raise RuntimeError(f"{case.name}: trace violations differ from the planted ones")
    warnings = {pair for pair, reused in seen.items() if reused}
    return violations, warnings
