"""Annotation reasoning: path semantics, model enumeration, consistency.

A complete assignment gives every upstream (input, output) pair exactly one
of the five dependency types. An assignment is an answer set when, for every
pair, the assigned type equals the pair's strongest path type: each simple
dataflow path from the input edge to the output edge carries the weakest
direct (same-block) type found along it, and the pair's type is the
strongest such value over all of its paths. User annotations pin their pairs
in every answer set; a NotFlowsFrom assertion is satisfiable only on a pair
with no dataflow path at all.

Only the direct pairs are free variables. Every multi-block pair's value is
a consequence of the direct choices, so the search walks direct assignments,
derives the rest, and checks user pins.

Strongest-path values come from threshold reachability: with five ranks, a
pair's value is at least t exactly when its output is reachable from its
input over direct hops of rank >= t. One pass over the in-labels, in
strongly-connected-component order, yields these closures for every source
and all four thresholds at once, as Python-int bitsets. Dropping a cycle
from a walk never lowers the walk's minimum, so reachability over walks
equals the simple-path optimum and the computation is safe on cyclic
workflows.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .model import (
    Annotation,
    AssertionType,
    DependencyType,
    NOT_FLOWS_FROM,
    ReachabilityAssertion,
    StructuralValidationError,
    UnknownLabelError,
    WorkflowSpec,
    _SpecIndex,
    validate_structure,
)

Pair = tuple[str, str]

# Rank to type by indexing, without an enum call per value.
_TYPES: tuple[DependencyType, ...] = tuple(DependencyType)

# Model cap while searching for a conflict explanation; only reason quality
# depends on it, never correctness of the consistency verdict.
_EXPLAIN_CAP = 1024


class ConflictReason(enum.Enum):
    NOT_A_VALID_PATH_TYPE = "not-a-valid-path-type"
    STRONGER_PATH_EXISTS = "stronger-path-exists"
    REACHABLE_BUT_NOT_FLOWS_FROM = "reachable-but-notflowsfrom"


@dataclass(frozen=True)
class WitnessPath:
    """One dataflow path plus the path types it can still take.

    ``achievable`` holds the values the path's minimum can reach given the
    user's direct-pair pins: a single value when every hop is pinned,
    otherwise everything up to the pinned cap.
    """

    labels: tuple[str, ...]
    achievable: tuple[DependencyType, ...]


@dataclass(frozen=True)
class Conflict:
    """Why one user annotation cannot hold, with witness paths."""

    pair: Pair
    asserted: AssertionType
    witnesses: tuple[WitnessPath, ...]
    reason: ConflictReason


@dataclass(frozen=True)
class PairReport:
    """Per-pair inference outcome: entailed value, options, and origin."""

    entailed: Optional[DependencyType]
    options: tuple[DependencyType, ...]
    origin: str


@dataclass(frozen=True)
class SolveResult:
    """Enumerated answer sets plus their per-pair projection.

    ``answer_sets`` are sorted canonically: pairs ordered lexicographically,
    sets compared by the tuple of type ranks over that pair order.
    ``options`` maps each upstream pair to the sorted distinct values it
    takes across the returned sets; ``entailed`` keeps the singletons.
    ``truncated`` is set when enumeration stopped at the model cap, in which
    case options may be incomplete. A truncated result is not the canonical
    prefix of the whole answer-set family: it holds the first ``max_models
    + 1`` models in search order, sorted canonically, with the first
    ``max_models`` of them kept.
    """

    answer_sets: tuple[dict, ...]
    entailed: dict
    options: dict
    truncated: bool

    @property
    def consistent(self) -> bool:
        return bool(self.answer_sets)


class InconsistentWorkflowError(ValueError):
    """Raised by infer when no answer set extends the user annotations."""

    def __init__(self, conflicts: Iterable[Conflict]):
        self.conflicts = tuple(conflicts)
        parts = []
        for c in self.conflicts:
            name = c.asserted.display
            parts.append(f"{c.pair[0]} -> {c.pair[1]} ({name}): {c.reason.value}")
        detail = "; ".join(parts) or "no answer set"
        super().__init__(f"annotations are inconsistent: {detail}")


class MissingDirectTypeError(LookupError):
    """A direct pair between the endpoints has no assigned type."""

    def __init__(self, pair: Pair):
        super().__init__(f"no dependency type for direct pair {pair[0]!r} -> {pair[1]!r}")
        self.pair = pair


def _require_label(index: _SpecIndex, label: str) -> None:
    if label not in index.by_label:
        raise UnknownLabelError(label)


def _simple_paths(index: _SpecIndex, input_label: str, output_label: str):
    """All simple paths as alternating in/out label tuples, sorted."""
    if index.by_label[input_label].direction != "in":
        return []
    if index.by_label[output_label].direction != "out":
        return []
    # Depth-first over partial paths kept on an explicit stack, so path
    # length is not bounded by the interpreter's recursion limit.
    paths: list[tuple[str, ...]] = []
    stack = [(input_label,)]
    while stack:
        path = stack.pop()
        for out in index.block_outs.get(index.by_label[path[-1]].program, ()):
            if out == output_label:
                paths.append(path + (out,))
            elif out not in path:
                for nxt in index.ins_of_out(out):
                    if nxt not in path:
                        stack.append(path + (out, nxt))
    return sorted(paths)


def simple_paths(input_label: str, output_label: str, spec: WorkflowSpec):
    """Enumerate simple dataflow paths from an input edge to an output edge.

    A path alternates in and out labels, starts at ``input_label``, ends at
    ``output_label``, and never repeats a label. Returns a sorted list of
    label tuples, empty when the pair is unreachable. Raises
    UnknownLabelError for labels not in the workflow.
    """
    index = _SpecIndex(spec)
    _require_label(index, input_label)
    _require_label(index, output_label)
    return _simple_paths(index, input_label, output_label)


def _path_hops(path: tuple[str, ...]) -> tuple[Pair, ...]:
    """Direct pairs along a path: consecutive (in, out) labels per block."""
    return tuple((path[k], path[k + 1]) for k in range(0, len(path) - 1, 2))


def _rank_map(direct: Mapping[Pair, DependencyType]) -> dict[Pair, int]:
    return {pair: int(DependencyType(t)) for pair, t in direct.items()}


def _sink_first_components(succ: list[list[int]]) -> list[list[int]]:
    """Strongly connected components of a graph on 0..n-1, sinks first.

    Tarjan's algorithm with an explicit work stack: a component is emitted
    only after every component it reaches, and graph depth is not bounded
    by the interpreter's recursion limit.
    """
    number = [0] * len(succ)
    low = [0] * len(succ)
    # A node placed in a component gets a number above every live one, so
    # it can no longer lower anyone's low-link.
    placed = len(succ) + 1
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(len(succ)):
        if number[root]:
            continue
        counter += 1
        number[root] = low[root] = counter
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            node, successors = work[-1]
            for nxt in successors:
                if not number[nxt]:
                    counter += 1
                    number[nxt] = low[nxt] = counter
                    stack.append(nxt)
                    work.append((nxt, iter(succ[nxt])))
                    break
                if number[nxt] < low[node]:
                    low[node] = number[nxt]
            else:
                work.pop()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] == number[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        number[member] = placed
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
    return components


class _Thresholds:
    """Threshold-reachability closures over one spec's in-labels.

    A pair's strongest-path value is at least t exactly when its output is
    reachable from its input over direct hops of rank >= t alone (the
    threshold decomposition of the bottleneck-path problem). ``reach``
    answers this for every in-label at once: one Python int per in-label,
    packing four lanes of one bit per out-label, where bit ``bit[o]`` of
    lane t (t = 1..4) says out-label o is reachable at threshold t.
    Threshold 0 is plain reachability, ``_SpecIndex.outs_reached``.

    In-labels are visited in strongly-connected-component order, sinks
    first, so an in-label off every cycle is final after one visit and only
    cyclic components iterate to a fixpoint.
    """

    def __init__(self, index: _SpecIndex):
        self.bit: dict[str, int] = {}
        for label, edge in index.by_label.items():
            if edge.direction == "out":
                self.bit[label] = len(self.bit)
        width = len(self.bit)
        self.at = {label: n for n, label in enumerate(index.in_labels)}
        # lanes[r]: lanes 1..r, the ones a hop of rank r feeds; above[r]:
        # lane r+1 alone, where a direct pair of rank r must stay unreached;
        # spread: the lowest bit of every lane, so a value is a bit count.
        self.lanes = tuple([(1 << r * width) - 1 for r in range(5)])
        self.above = tuple([self.lanes[r + 1] ^ self.lanes[r] for r in range(4)] + [0])
        self.spread = 1 | 1 << width | 1 << 2 * width | 1 << 3 * width
        # Per in-label, one hop per out of its block: (direct-pair index,
        # the out's bit in every lane, in-labels reading the out's block).
        hop = {pair: h for h, pair in enumerate(index.direct_pairs)}
        readers: dict[str, tuple[int, ...]] = {}
        self.hops: list[tuple[tuple[int, int, tuple[int, ...]], ...]] = []
        succ: list[list[int]] = []
        for i in index.in_labels:
            row = []
            successors: list[int] = []
            for o in index.block_outs.get(index.by_label[i].program, ()):
                if o not in readers:
                    readers[o] = tuple([self.at[j] for j in index.ins_of_out(o)])
                row.append((hop[(i, o)], self.spread << self.bit[o], readers[o]))
                successors.extend(readers[o])
            self.hops.append(tuple(row))
            succ.append(successors)
        # Components as (members, cyclic): cyclic when it has several
        # in-labels or its one in-label's block reads its own output.
        self.order = [
            (tuple(c), len(c) > 1 or c[0] in succ[c[0]])
            for c in _sink_first_components(succ)
        ]

    def reach(self, ranks: list[int], lanes: tuple[int, ...], exact: bool = False):
        """Packed closures per in-label, indexed like ``_SpecIndex.in_labels``.

        ``ranks`` holds one rank per direct pair, indexed like
        ``_SpecIndex.direct_pairs``; a hop of rank r feeds ``lanes[r]``, so
        masked lanes stay empty. With ``exact``, returns None as soon as a
        direct pair's strongest-path value exceeds its own rank.
        """
        closure = [0] * len(self.hops)
        hops = self.hops
        above = self.above
        for members, cyclic in self.order:
            # Closures only grow towards the fixpoint, so a pair found too
            # strong on any pass stays too strong at the end.
            changed = True
            while changed:
                changed = False
                for i in members:
                    reached = closure[i]
                    over = 0
                    for h, bits, readers in hops[i]:
                        rank = ranks[h]
                        over |= above[rank] & bits
                        for j in readers:
                            bits |= closure[j]
                        reached |= bits & lanes[rank]
                    if exact and reached & over:
                        return None
                    if reached != closure[i]:
                        closure[i] = reached
                        changed = cyclic
        return closure


def path_type(
    input_label: str,
    output_label: str,
    direct: Mapping[Pair, DependencyType],
    spec: WorkflowSpec,
) -> Optional[DependencyType]:
    """Strongest path type for one pair under the given direct assignments.

    Each simple path carries the weakest direct type along it and the result
    is the strongest value over all paths, or None when no path joins the
    pair. Raises UnknownLabelError for unknown labels and
    MissingDirectTypeError when a direct pair lying between the endpoints
    has no entry in ``direct``.
    """
    index = _SpecIndex(spec)
    _require_label(index, input_label)
    _require_label(index, output_label)
    if index.by_label[input_label].direction != "in":
        return None
    if index.by_label[output_label].direction != "out":
        return None
    ranks = _rank_map(direct)
    # A missing direct pair matters on the corridor: its input is reached
    # from input_label, and a reader of its output's block reaches output_label.
    reached = index.outs_reached(input_label)
    forward = {input_label}
    for out in reached:
        forward.update(index.ins_of_out(out))
    leads_to_output = functools.cache(lambda i: output_label in index.outs_reached(i))
    for pair in index.direct_pairs:
        if pair in ranks or pair[0] not in forward:
            continue
        if pair[1] == output_label or any(
            leads_to_output(reader) for reader in index.ins_of_out(pair[1])
        ):
            raise MissingDirectTypeError(pair)
    if output_label not in reached:
        return None
    # Every hop on a path between the endpoints has a rank now; a missing
    # pair off the corridor may take rank 0, which feeds no lane.
    thresholds = _Thresholds(index)
    closure = thresholds.reach(
        [ranks.get(pair, 0) for pair in index.direct_pairs], thresholds.lanes
    )
    lanes = closure[thresholds.at[input_label]] >> thresholds.bit[output_label]
    return _TYPES[(lanes & thresholds.spread).bit_count()]


class _Reasoning:
    """Per-spec solver context: adjacency, upstream pairs, threshold
    closures, path cache."""

    def __init__(self, spec: WorkflowSpec):
        self.index = _SpecIndex(spec)
        self.upstream_set = self.index.up_stream_pairs()
        self.upstream: tuple[Pair, ...] = tuple(sorted(self.upstream_set))
        self.direct: tuple[Pair, ...] = self.index.direct_pairs
        self.direct_set = set(self.direct)
        self.thresholds = _Thresholds(self.index)
        # Upstream pairs grouped for reading a model off a closure: per
        # source, its in-label index, its pairs and their out bits.
        at, bit = self.thresholds.at, self.thresholds.bit
        groups: dict[str, list[Pair]] = {}
        for pair in self.upstream:
            groups.setdefault(pair[0], []).append(pair)
        self.slots = tuple(
            [
                (at[source], tuple(pairs), tuple([bit[o] for _, o in pairs]))
                for source, pairs in groups.items()
            ]
        )
        self._paths: dict[Pair, tuple[tuple[str, ...], ...]] = {}

    def paths(self, pair: Pair) -> tuple[tuple[str, ...], ...]:
        cached = self._paths.get(pair)
        if cached is None:
            cached = tuple(_simple_paths(self.index, pair[0], pair[1]))
            self._paths[pair] = cached
        return cached


def _split_annotations(annotations: Iterable[Annotation]):
    """Partition annotations into pins, NotFlowsFrom pairs, contradictions.

    Exact duplicates collapse. A pair pinned to two different types is
    recorded as a contradiction (first value kept in the pin map).
    """
    pinned: dict[Pair, DependencyType] = {}
    nff: set[Pair] = set()
    contradictory: list[tuple[Pair, DependencyType, DependencyType]] = []
    for ann in annotations:
        if isinstance(ann.assertion, ReachabilityAssertion):
            nff.add(ann.pair)
        else:
            previous = pinned.get(ann.pair)
            if previous is not None and previous != ann.assertion:
                contradictory.append((ann.pair, previous, ann.assertion))
            else:
                pinned[ann.pair] = ann.assertion
    return pinned, nff, contradictory


def _enumerate(ctx: _Reasoning, pinned: Mapping[Pair, DependencyType], max_models: int):
    """Backtracking search over unpinned direct pairs.

    Returns (models, truncated): up to ``max_models + 1`` full assignments
    in discovery order, each mapping every upstream pair to its type;
    ``truncated`` says more than ``max_models`` were found.
    """
    th = ctx.thresholds
    # Direct-pair ranks under the two monotone envelopes: unassigned pairs
    # all-weakest in ``low``, all-strongest in ``high``; equal at a leaf.
    low = [0] * len(ctx.direct)
    high = [4] * len(ctx.direct)
    for h, pair in enumerate(ctx.direct):
        if pair in pinned:
            low[h] = high[h] = int(pinned[pair])
    free = [h for h, pair in enumerate(ctx.direct) if pair not in pinned]
    # A pin to t needs its output unreached in lane t+1 of the low envelope
    # and reached in lane t of the high one; lane 0 (plain reachability)
    # holds for every pin, since only upstream pairs can be pinned.
    too_strong: dict[int, int] = {}
    too_weak: dict[int, int] = {}
    low_lanes = high_lanes = 0
    indirect = []
    for (i, o), t in pinned.items():
        t = int(t)
        source, bit = th.at[i], th.spread << th.bit[o]
        over = bit & th.above[t]
        reach = bit & th.above[t - 1] if t else 0
        if over:
            too_strong[source] = too_strong.get(source, 0) | over
            low_lanes |= th.above[t]
        if reach:
            too_weak[source] = too_weak.get(source, 0) | reach
            high_lanes |= th.above[t - 1]
        if (i, o) not in ctx.direct_set:
            indirect.append((source, reach, over))
    low_lanes_by_rank = tuple([lanes & low_lanes for lanes in th.lanes])
    high_lanes_by_rank = tuple([lanes & high_lanes for lanes in th.lanes])
    spread = th.spread
    models: list[dict] = []
    limit = max_models + 1

    def bounds_ok() -> bool:
        if too_strong:
            closure = th.reach(low, low_lanes_by_rank)
            for source, over in too_strong.items():
                if closure[source] & over:
                    return False
        if too_weak:
            closure = th.reach(high, high_lanes_by_rank)
            for source, reach in too_weak.items():
                if closure[source] & reach != reach:
                    return False
        return True

    def leaf() -> None:
        closure = th.reach(low, th.lanes, exact=True)
        if closure is None:
            return
        for source, reach, over in indirect:
            if closure[source] & reach != reach or closure[source] & over:
                return
        model: dict[Pair, DependencyType] = {}
        for source, pairs, bits in ctx.slots:
            lanes = closure[source]
            for pair, bit in zip(pairs, bits):
                model[pair] = _TYPES[((lanes >> bit) & spread).bit_count()]
        models.append(model)

    def search(k: int) -> None:
        if len(models) >= limit:
            return
        if k == len(free):
            leaf()
            return
        h = free[k]
        for rank in range(5):
            low[h] = high[h] = rank
            if bounds_ok():
                search(k + 1)
            if len(models) >= limit:
                break
        low[h] = 0
        high[h] = 4

    if bounds_ok():
        search(0)
    truncated = len(models) > max_models
    return models, truncated


def _result(ctx: _Reasoning, models: list, truncated: bool, limit: Optional[int] = None):
    def key(model: dict) -> tuple[int, ...]:
        return tuple(int(model[p]) for p in ctx.upstream)

    ordered = sorted(models, key=key)
    if limit is not None:
        ordered = ordered[:limit]
    options: dict[Pair, tuple[DependencyType, ...]] = {}
    entailed: dict[Pair, DependencyType] = {}
    if ordered:
        for pair in ctx.upstream:
            seen = sorted({int(m[pair]) for m in ordered})
            opts = tuple(DependencyType(v) for v in seen)
            options[pair] = opts
            if len(opts) == 1:
                entailed[pair] = opts[0]
    return SolveResult(
        answer_sets=tuple(ordered),
        entailed=entailed,
        options=options,
        truncated=truncated,
    )


def _prepare(spec: WorkflowSpec, annotations: Iterable[Annotation]):
    annotations = list(annotations)
    errors = validate_structure(spec, annotations)
    if errors:
        raise StructuralValidationError(errors)
    ctx = _Reasoning(spec)
    pinned, nff, contradictory = _split_annotations(annotations)
    return ctx, pinned, nff, contradictory


def solve(
    spec: WorkflowSpec,
    annotations: Iterable[Annotation] = (),
    max_models: int = 1024,
) -> SolveResult:
    """Enumerate the answer sets extending the user annotations.

    Searches only the unpinned direct pairs; multi-block values follow from
    the strongest-path rule and are checked against user pins. Returns at
    most ``max_models`` sets in canonical order with ``truncated`` set when
    more exist; a truncated result keeps the canonically first
    ``max_models`` of the first ``max_models + 1`` sets the search finds,
    not the first ``max_models`` of the whole family. A violated
    NotFlowsFrom assertion or a pair pinned to two types yields zero sets.
    Raises StructuralValidationError on an invalid workflow or annotation
    list.
    """
    return _solve(spec, annotations, max_models, explain=False)[0]


def solve_or_explain(
    spec: WorkflowSpec,
    annotations: Iterable[Annotation] = (),
    max_models: int = 1024,
) -> tuple[SolveResult, list[Conflict]]:
    """solve's result and, when it has no answer set, check_consistency's
    conflicts.

    Both come from one validation, one context and one search: the
    explanation starts from the search's empty verdict instead of searching
    for a first model again. The conflict list is empty when the result is
    consistent.
    """
    return _solve(spec, annotations, max_models, explain=True)


def _solve(
    spec: WorkflowSpec, annotations: Iterable[Annotation], max_models: int, explain: bool
) -> tuple[SolveResult, list[Conflict]]:
    """solve_or_explain, explaining an empty result only with ``explain``."""
    if max_models < 1:
        raise ValueError("max_models must be at least 1")
    ctx, pinned, nff, contradictory = _prepare(spec, annotations)
    if contradictory or any(pair in ctx.upstream_set for pair in nff):
        conflicts = _conflicts(ctx, pinned, nff, contradictory) if explain else []
        return _result(ctx, [], False), conflicts
    models, truncated = _enumerate(ctx, pinned, max_models)
    conflicts = []
    if explain and not models:
        conflicts = _conflicts(ctx, pinned, nff, contradictory, models)
    return _result(ctx, models, truncated, limit=max_models), conflicts


def entailed_annotations(
    result: SolveResult, annotations: Iterable[Annotation]
) -> list[Annotation]:
    """The user annotations plus one inferred annotation per entailed pair.

    ``result`` is the solve over the same annotations. Entailed pairs the
    user did not annotate are appended in pair order with origin
    "inferred"; an inconsistent result entails nothing and adds none.
    """
    drawn = list(annotations)
    user_pairs = {a.pair for a in drawn}
    drawn.extend(
        Annotation(pair[0], pair[1], t, origin="inferred")
        for pair, t in sorted(result.entailed.items())
        if pair not in user_pairs
    )
    return drawn


def _achievable(ctx: _Reasoning, path: tuple[str, ...], direct_pins: Mapping[Pair, int]):
    hops = _path_hops(path)
    caps = [direct_pins[h] for h in hops if h in direct_pins]
    cap = min(caps) if caps else 4
    if all(h in direct_pins for h in hops):
        return (cap,)
    return tuple(range(cap + 1))


def _witness_paths(ctx: _Reasoning, pair: Pair, direct_pins: Mapping[Pair, int]):
    witnesses = []
    for path in ctx.paths(pair):
        ach = _achievable(ctx, path, direct_pins)
        witnesses.append(
            WitnessPath(path, tuple(DependencyType(v) for v in ach))
        )
    return tuple(witnesses)


def _classify(
    ctx: _Reasoning,
    pair: Pair,
    asserted: DependencyType,
    direct_pins: Mapping[Pair, int],
    relaxed_options,
) -> Conflict:
    """Build a conflict for one rejected annotation.

    A path whose achievable minimum exceeds the asserted type forces a
    stronger value (stronger-path-exists). If no path can ever take the
    asserted value, the assertion names an impossible path type. Ties in
    joint conflicts fall back to the values seen after relaxation.
    """
    t = int(asserted)
    witnesses = _witness_paths(ctx, pair, direct_pins)
    union: set[int] = set()
    forced = False
    for w in witnesses:
        ach = [int(v) for v in w.achievable]
        union.update(ach)
        if min(ach) > t:
            forced = True
    if forced:
        reason = ConflictReason.STRONGER_PATH_EXISTS
    elif t not in union:
        reason = ConflictReason.NOT_A_VALID_PATH_TYPE
    elif relaxed_options and min(relaxed_options) > t:
        reason = ConflictReason.STRONGER_PATH_EXISTS
    else:
        reason = ConflictReason.NOT_A_VALID_PATH_TYPE
    return Conflict(pair, DependencyType(t), witnesses, reason)


def _explain(ctx: _Reasoning, pinned: Mapping[Pair, DependencyType]):
    """Greedy relaxation: drop annotations until satisfiable, report each drop.

    Multi-block annotations are tried before direct ones, lexicographically
    within each group, so explanations land on the span assertions that
    usually cause the clash.
    """
    conflicts: list[Conflict] = []
    remaining = dict(pinned)

    def order(items):
        return sorted(items, key=lambda kv: (kv[0] in ctx.direct_set, kv[0]))

    while remaining:
        models, _ = _enumerate(ctx, remaining, 1)
        if models:
            break
        dropped = False
        for pair, t in order(remaining.items()):
            trial = {q: v for q, v in remaining.items() if q != pair}
            trial_models, _ = _enumerate(ctx, trial, _EXPLAIN_CAP)
            if trial_models:
                pins = {q: int(v) for q, v in trial.items() if q in ctx.direct_set}
                opts = sorted({int(m[pair]) for m in trial_models})
                conflicts.append(_classify(ctx, pair, t, pins, opts))
                remaining = trial
                dropped = True
                break
        if not dropped:
            pair, t = order(remaining.items())[0]
            remaining = {q: v for q, v in remaining.items() if q != pair}
            pins = {q: int(v) for q, v in remaining.items() if q in ctx.direct_set}
            conflicts.append(_classify(ctx, pair, t, pins, None))
    return conflicts


def check_consistency(
    spec: WorkflowSpec, annotations: Iterable[Annotation] = ()
) -> list[Conflict]:
    """Explain why the annotations admit no answer set; empty means consistent.

    Violated NotFlowsFrom assertions are reported first, then pairs pinned
    to two types, then a greedy relaxation of the remaining pins where each
    drop that restores satisfiability yields one witnessed conflict. Raises
    StructuralValidationError on an invalid workflow or annotation list.
    """
    return _conflicts(*_prepare(spec, annotations))


def _conflicts(
    ctx: _Reasoning,
    pinned: Mapping[Pair, DependencyType],
    nff: set[Pair],
    contradictory: list,
    models: Optional[list] = None,
) -> list[Conflict]:
    """check_consistency's report on a prepared context. ``models`` is what
    a search over ``pinned`` already returned, if one was made; otherwise
    the first model is searched for here."""
    conflicts: list[Conflict] = []
    direct_pins = {p: int(t) for p, t in pinned.items() if p in ctx.direct_set}

    for pair in sorted(nff):
        if pair in ctx.upstream_set:
            conflicts.append(
                Conflict(
                    pair,
                    NOT_FLOWS_FROM,
                    _witness_paths(ctx, pair, direct_pins),
                    ConflictReason.REACHABLE_BUT_NOT_FLOWS_FROM,
                )
            )
    for pair, _first, second in contradictory:
        conflicts.append(_classify(ctx, pair, second, direct_pins, None))

    if models is None:
        models, _ = _enumerate(ctx, pinned, 1)
    if models:
        return conflicts
    conflicts.extend(_explain(ctx, pinned))
    return conflicts


def infer(
    spec: WorkflowSpec,
    annotations: Iterable[Annotation] = (),
    max_models: int = 1024,
) -> dict[Pair, PairReport]:
    """Per-pair inference over all answer sets extending the annotations.

    Returns a report for every upstream pair: the entailed type when all
    answer sets agree, the full option tuple otherwise, and whether the pair
    was pinned by the user. Raises InconsistentWorkflowError (carrying the
    conflicts) when no answer set exists.
    """
    annotations = list(annotations)
    result, conflicts = solve_or_explain(spec, annotations, max_models)
    if not result.consistent:
        raise InconsistentWorkflowError(conflicts)
    user_pairs = {
        a.pair for a in annotations if isinstance(a.assertion, DependencyType)
    }
    report: dict[Pair, PairReport] = {}
    for pair in sorted(result.options):
        report[pair] = PairReport(
            entailed=result.entailed.get(pair),
            options=result.options[pair],
            origin="user" if pair in user_pairs else "inferred",
        )
    return report
