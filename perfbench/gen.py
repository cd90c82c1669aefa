"""Seeded input generators: workflow DSL text and trace JSON.

The generators write both formats directly and never import ``depanno``, so
a change to the package cannot change what the benchmark feeds it. Each
generator returns a ``Case``: the workflow text plus the graph and pins it
was rendered from, which ``reference.py`` uses to derive planted answers.
All names are lowercase identifiers, so they are also valid logic-program
atoms and the exported program can be predicted exactly.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

TYPES = ("FlowsFrom", "DependsOn", "DerivedFrom", "ValueOf", "SameAs")
SAME_AS = 4
VALUE_OF = 3

Pair = tuple[str, str]


@dataclass
class Case:
    """One generated workflow: its text, its graph, and its annotations.

    ``edges`` holds (label, program, data, direction) in declaration order;
    ``pins`` maps annotated (input, output) pairs to a type rank 0..4 and
    ``nff`` lists NotFlowsFrom pairs. ``trace`` is set by ``attach_trace``.
    """

    name: str
    programs: list[str]
    edges: list[tuple[str, str, str, str]]
    pins: dict[Pair, int] = field(default_factory=dict)
    nff: list[Pair] = field(default_factory=list)
    family: str = ""
    text: str = ""
    trace: "TraceCase | None" = None

    def render(self) -> "Case":
        lines = [f"workflow {self.name}"]
        ports: dict[str, list[str]] = {p: [] for p in self.programs}
        for label, program, data, direction in self.edges:
            word = "from" if direction == "in" else "to"
            ports[program].append(f"  {direction} {label} {word} {data}")
        for program in self.programs:
            lines.append(f"program {program}")
            lines.extend(ports[program])
        for (i, o), rank in self.pins.items():
            lines.append(f"dep {i} -> {o} : {TYPES[rank]}")
        for i, o in self.nff:
            lines.append(f"dep {i} -> {o} : NotFlowsFrom")
        self.text = "\n".join(lines) + "\n"
        return self


@dataclass
class TraceCase:
    """Trace JSON plus the raw invocations it was serialized from, which
    are dropped once the reference has read them."""

    text: str
    invocations: list[dict]
    planted: set[tuple[int, Pair]]
    count: int


def chain(rng: random.Random, n: int, name: str, pinned: bool) -> Case:
    """Linear chain p1 -> p2 -> ... -> pn, one input and one output per block.

    When ``pinned``, every direct pair gets a random type and three span
    pairs are pinned to the weakest type along them, so the workflow has
    exactly one answer set.
    """
    programs = [f"p{k}" for k in range(1, n + 1)]
    edges = []
    for k in range(1, n + 1):
        edges.append((f"i{k}", f"p{k}", f"d{k - 1}", "in"))
        edges.append((f"o{k}", f"p{k}", f"d{k}", "out"))
    case = Case(name, programs, edges, family="chain")
    if pinned:
        ranks = [rng.randrange(5) for _ in range(n)]
        case.pins = {(f"i{k}", f"o{k}"): ranks[k - 1] for k in range(1, n + 1)}
        for _ in range(3):
            a = rng.randrange(1, n)
            b = rng.randrange(a + 1, n + 1)
            case.pins[(f"i{a}", f"o{b}")] = min(ranks[a - 1 : b])
    return case.render()


def wide_block(n_in: int, n_out: int, name: str) -> Case:
    """One unannotated block with ``n_in`` inputs and ``n_out`` outputs."""
    edges = [(f"a{k}", "w", f"s{k}", "in") for k in range(1, n_in + 1)]
    edges += [(f"b{k}", "w", f"t{k}", "out") for k in range(1, n_out + 1)]
    return Case(name, ["w"], edges, family="wide").render()


def ladder(stages: int, name: str) -> Case:
    """Two-wide ladder: s1 fans ``x0`` out to two rails, s2..s(n-1) cross both
    rails, and sn merges them into ``y``. There are 2^(n-1) simple paths
    from ``x0`` to ``y``. Returned without annotations."""
    programs = [f"s{k}" for k in range(1, stages + 1)]
    edges = [
        ("x0", "s1", "src", "in"),
        ("u1", "s1", "a1", "out"),
        ("v1", "s1", "b1", "out"),
    ]
    for k in range(2, stages + 1):
        edges.append((f"p{k}", f"s{k}", f"a{k - 1}", "in"))
        edges.append((f"q{k}", f"s{k}", f"b{k - 1}", "in"))
        if k < stages:
            edges.append((f"u{k}", f"s{k}", f"a{k}", "out"))
            edges.append((f"v{k}", f"s{k}", f"b{k}", "out"))
    edges.append(("y", f"s{stages}", "sink", "out"))
    return Case(name, programs, edges, family="ladder")


def random_workflow(rng: random.Random, name: str) -> Case:
    """Random cyclic workflow, same distribution as the package's defaults.

    Up to 6 blocks with 0..2 outputs (each to a fresh data block) and 0..2
    inputs. An input reads any block's output with probability 0.15 (which
    can close a cycle), an earlier block's output up to 0.85, and a fresh
    source otherwise.
    """
    n_blocks = rng.randint(1, 6)
    programs = [f"b{k}" for k in range(1, n_blocks + 1)]
    counter = {"e": 0, "d": 0}

    def fresh(kind: str) -> str:
        counter[kind] += 1
        return f"{kind}{counter[kind]}"

    edges = []
    outs_of: dict[str, list[str]] = {}
    for program in programs:
        outs_of[program] = [fresh("d") for _ in range(rng.randint(0, 2))]
        for data in outs_of[program]:
            edges.append((fresh("e"), program, data, "out"))
    for k, program in enumerate(programs):
        earlier = [d for p in programs[:k] for d in outs_of[p]]
        anywhere = [d for p in programs for d in outs_of[p]]
        for _ in range(rng.randint(0, 2)):
            roll = rng.random()
            if anywhere and roll < 0.15:
                data = rng.choice(anywhere)
            elif earlier and roll < 0.85:
                data = rng.choice(earlier)
            else:
                data = fresh("d")
            edges.append((fresh("e"), program, data, "in"))
    return Case(name, programs, edges, family="random")


def random_annotations(rng: random.Random, case: Case, upstream: list[Pair]) -> Case:
    """Pin each upstream pair with probability 0.35 to a uniform type, then
    with probability 0.1 add one NotFlowsFrom on any (input, output) pair."""
    for pair in sorted(upstream):
        if rng.random() < 0.35:
            case.pins[pair] = rng.randrange(5)
    ins = sorted(e[0] for e in case.edges if e[3] == "in")
    outs = sorted(e[0] for e in case.edges if e[3] == "out")
    if ins and outs and rng.random() < 0.1:
        case.nff.append((rng.choice(ins), rng.choice(outs)))
    return case.render()


def attach_trace(rng: random.Random, case: Case, invocations: int, plants: int) -> Case:
    """Record ``invocations`` random block runs that honour every same-block
    SameAs/ValueOf pin, then corrupt ``plants`` writes so they break one.

    Every input of a run reads the same item; an output with a SameAs pin
    copies it, one with only ValueOf pins copies its value under a fresh id
    or (chosen per output) under the input's id, and any other output writes
    a fresh item. A planted corruption gives a SameAs output a fresh id or a
    ValueOf output a fresh value.
    """
    ins_of: dict[str, list[str]] = {p: [] for p in case.programs}
    outs_of: dict[str, list[str]] = {p: [] for p in case.programs}
    block = {}
    for label, program, _data, direction in case.edges:
        (ins_of if direction == "in" else outs_of)[program].append(label)
        block[label] = program
    strongest: dict[str, int] = {}
    for (i, o), rank in case.pins.items():
        if block[i] == block[o] and rank >= VALUE_OF:
            strongest[o] = max(strongest.get(o, 0), rank)
    reuse = {o: rng.random() < 0.3 for o in strongest}
    active = [p for p in case.programs if ins_of[p] or outs_of[p]]
    tag = f"{rng.randrange(16**6):06x}"

    runs = []
    for k in range(invocations if active else 0):
        program = rng.choice(active)
        item = {"id": f"{tag}.{k}", "value": f"v{k}"}
        writes = {}
        for o in outs_of[program]:
            rank = strongest.get(o)
            if rank == SAME_AS or (rank == VALUE_OF and reuse[o]):
                writes[o] = [dict(item)]
            elif rank == VALUE_OF:
                writes[o] = [{"id": f"{tag}.{k}.{o}", "value": item["value"]}]
            else:
                writes[o] = [{"id": f"{tag}.{k}.{o}", "value": f"w{k}"}]
        runs.append(
            {
                "block": program,
                "reads": {i: [dict(item)] for i in ins_of[program]},
                "writes": writes,
            }
        )

    planted: set[tuple[int, Pair]] = set()
    targets = [(k, o) for k, run in enumerate(runs) for o in run["writes"] if o in strongest]
    for k, o in rng.sample(targets, min(plants, len(targets))):
        written = runs[k]["writes"][o][0]
        if strongest[o] == SAME_AS:
            written["id"] = f"{tag}.{k}.forged"
        else:
            written["value"] = f"forged{k}"
        planted.add((k, o))
    doc = {"workflow": case.name, "invocations": runs}
    case.trace = TraceCase(json.dumps(doc), runs, planted, len(runs))
    return case
