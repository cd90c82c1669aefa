"""The five request kinds, issued as the public calls ``depanno.cli`` makes,
and the checks that compare each outcome with the reference.

Every call into the package goes through ``call(name, fn, *args)`` so the
traced run can put a span around it; the untraced run passes ``direct``.
Only public names and default arguments are used.
"""

from __future__ import annotations

import re

from gen import TYPES, Case
from reference import Expected, is_answer_set

KINDS = ("validate", "infer", "solve", "export", "check-trace")


def direct(_name, fn, *args):
    return fn(*args)


def _parse(api, call, case: Case):
    parsed = call("dsl.parse_spec", api.parse_spec, case.text)
    if parsed.spec is None:
        raise ValueError(f"{case.name}: generated text did not parse")
    return parsed.spec, list(parsed.annotations)


def run_validate(api, call, case):
    spec, annotations = _parse(api, call, case)
    return call("reasoner.check_consistency", api.check_consistency, spec, annotations)


def run_infer(api, call, case):
    spec, annotations = _parse(api, call, case)
    try:
        return call("reasoner.infer", api.infer, spec, annotations)
    except api.InconsistentWorkflowError as exc:
        return exc


def run_solve(api, call, case):
    spec, annotations = _parse(api, call, case)
    return call("reasoner.solve", api.solve, spec, annotations)


def run_export(api, call, case):
    spec, annotations = _parse(api, call, case)
    result = call("reasoner.solve", api.solve, spec, annotations)
    drawn = list(annotations)
    if result.consistent:
        user_pairs = {a.pair for a in annotations}
        drawn.extend(
            api.Annotation(pair[0], pair[1], t, origin="inferred")
            for pair, t in sorted(result.entailed.items())
            if pair not in user_pairs
        )
    dot = call("exports.emit_dot", api.emit_dot, spec, drawn)
    try:
        program = call("exports.emit_asp_program", api.emit_asp_program, spec, annotations)
    except api.UnsupportedExportError as exc:
        program = exc
    return result, dot, program


def run_check_trace(api, call, case):
    spec, annotations = _parse(api, call, case)
    trace = call("trace.parse_trace", api.parse_trace, case.trace.text, spec)
    violations = call("trace.check_trace", api.check_trace, spec, annotations, trace)
    warnings = call(
        "trace.warn_sameas_candidates", api.warn_sameas_candidates, spec, annotations, trace
    )
    return violations, warnings


RUNNERS = {
    "validate": run_validate,
    "infer": run_infer,
    "solve": run_solve,
    "export": run_export,
    "check-trace": run_check_trace,
}


# --- checks -----------------------------------------------------------------
#
# Each check returns (ok, full): ``ok`` is False only for a result that the
# reference shows to be wrong; ``full`` says whether the reference knew the
# complete answer, or could only test what it knew.


def _ranks(model) -> dict:
    return {pair: int(t) for pair, t in model.items()}


def check_validate(case, exp: Expected, graph, conflicts, api):
    if exp.consistent is None:
        return all(c.pair in case.pins or c.pair in case.nff for c in conflicts), False
    if exp.consistent:
        return not conflicts, True
    if not conflicts:
        return False, True
    if exp.conflict is not None:
        if len(conflicts) != 1:
            return False, True
        c = conflicts[0]
        got = (
            c.pair,
            int(c.asserted),
            c.reason.value,
            tuple(sorted((w.labels, tuple(int(v) for v in w.achievable)) for w in c.witnesses)),
        )
        return got == exp.conflict, True
    return all(c.pair in case.pins or c.pair in case.nff for c in conflicts), True


def check_infer(case, exp: Expected, graph, result, api):
    if isinstance(result, api.InconsistentWorkflowError):
        return exp.consistent is not True, exp.consistent is not None
    if exp.consistent is False or set(result) != set(exp.upstream):
        return False, True
    for pair, report in result.items():
        options = tuple(int(t) for t in report.options)
        entailed = None if report.entailed is None else int(report.entailed)
        if entailed != (options[0] if len(options) == 1 else None):
            return False, True
        if report.origin != ("user" if pair in case.pins else "inferred"):
            return False, True
        if pair in case.pins and options != (case.pins[pair],):
            return False, True
    expected = exp.options
    if expected is None:
        return True, False
    ok = all(
        tuple(int(t) for t in result[p].options) == expected[p] for p in exp.upstream
    )
    return ok, True


def check_solve(case, exp: Expected, graph, result, api):
    models = [_ranks(m) for m in result.answer_sets]
    keys = {tuple(sorted(m.items())) for m in models}
    if len(keys) != len(models) or len(models) > 1024:
        return False, True
    projected = {
        p: tuple(sorted({m[p] for m in models})) for p in (models[0] if models else ())
    }
    if {p: tuple(int(t) for t in v) for p, v in result.options.items()} != projected:
        return False, True
    if {p: int(t) for p, t in result.entailed.items()} != {
        p: v[0] for p, v in projected.items() if len(v) == 1
    }:
        return False, True
    if exp.models is not None:
        want = {tuple(sorted(m.items())) for m in exp.models}
        if len(want) <= 1024:
            return keys == want and not result.truncated, True
        return keys <= want and result.truncated and len(keys) == 1024, True
    if exp.consistent is False:
        return not models, True
    ok = all(is_answer_set(graph, case, m) for m in models)
    if exp.consistent is True and not models:
        ok = False
    if exp.many:
        ok = ok and result.truncated and len(models) == 1024
    return ok, False


_DOT_ANNOTATION = re.compile(
    r'^  "d:(\w+)" -> "d:(\w+)" \[label="(\w+)", style=(dashed|dotted), '
)


def check_export(case, exp: Expected, graph, outcome, api):
    result, dot, program = outcome
    ok, full = check_solve(case, exp, graph, result, api)
    if not ok:
        return False, full
    lines = dot.splitlines()
    present = set(lines)
    for label, prog, data, direction in case.edges:
        tail, head = (f"d:{data}", f"p:{prog}") if direction == "in" else (f"p:{prog}", f"d:{data}")
        if f'  "{tail}" -> "{head}" [label="{label}"];' not in present:
            return False, full
    drawn = sorted(m.groups() for m in map(_DOT_ANNOTATION.match, lines) if m)
    want = [(graph.data[o], graph.data[i], TYPES[r], "dashed") for (i, o), r in case.pins.items()]
    want += [(graph.data[o], graph.data[i], "NotFlowsFrom", "dashed") for i, o in case.nff]
    if result.consistent:
        entailed = exp.options
        if entailed is None:
            entailed = {p: tuple(int(t) for t in v) for p, v in result.options.items()}
            full = False
        user = set(case.pins) | set(case.nff)
        want += [
            (graph.data[o], graph.data[i], TYPES[v[0]], "dotted")
            for (i, o), v in entailed.items()
            if len(v) == 1 and (i, o) not in user
        ]
    if drawn != sorted(want):
        return False, full
    if case.nff:
        return isinstance(program, api.UnsupportedExportError), full
    if isinstance(program, Exception):
        return False, full
    facts = {l for l in program.splitlines() if l.startswith(("in(", "out(", "dep_rule("))}
    want_facts = {f"{d}({l},{p},{data})." for l, p, data, d in case.edges}
    want_facts |= {f"dep_rule({i},{o},{TYPES[r].lower()})." for (i, o), r in case.pins.items()}
    return facts == want_facts, full


def check_check_trace(case, exp: Expected, graph, outcome, api):
    violations, warnings = outcome
    got = [
        (v.invocation, v.pair, int(v.annotation), v.kind, tuple((x.id, x.value) for x in v.offending))
        for v in violations
    ]
    ordered = got == sorted(got, key=lambda v: (v[0], v[1]))
    return ordered and set(got) == exp.violations and {w.pair for w in warnings} == exp.warnings, True


CHECKS = {
    "validate": check_validate,
    "infer": check_infer,
    "solve": check_solve,
    "export": check_export,
    "check-trace": check_check_trace,
}
