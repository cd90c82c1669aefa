"""Closed-loop benchmark of depanno, timed from outside the package.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload chain_scale --seed 1 --seconds 25 --trace 0

One client in one process issues its workload's cycle of requests (see
``workloads.py``) back to back, repeating whole cycles until the time spent
in requests reaches ``--seconds``. Each outcome is checked against the
independent reference. With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics; with ``--trace 1`` the run
spends half its time untraced and then repeats the same cycles with a span
around every package call, and reports per-layer metrics. Every time is
scaled to a reference machine speed sampled between requests (see
``speed.py``). Earlier lines are a readable report; the full record (run
context, every request's outcome, spans) goes to
``.perfbench/<workload>-s<seed>-t<trace>.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import workloads
from calls import CHECKS, KINDS, RUNNERS, direct
from speed import REFERENCE_NS, Speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 5
SETUP_SPEED_SAMPLES = 16
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
KIND_METRIC = {kind: kind.replace("-", "_") + "_p50_ms" for kind in KINDS}


@dataclass
class Record:
    request: int
    kind: str
    workflow: str
    start: int
    ns: int
    outcome: str
    full: bool
    scaled_ns: float = 0.0

    @property
    def failed(self) -> bool:
        return self.outcome not in ("ok", "expected-error")


class Tracer:
    """Spans kept in memory as [name, start_ns, end_ns, parent, request],
    plus counts taken from each call's result at the same boundary."""

    def __init__(self):
        self.spans: list[list] = []
        self.parent: int | None = None
        self.request = None
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.inconsistent: set[int] = set()

    def begin(self, name: str, request) -> int:
        self.spans.append([name, time.perf_counter_ns(), None, self.parent, request])
        self.request = request
        self.parent = len(self.spans) - 1
        return self.parent

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self.parent = self.spans[index][3]

    def call(self, name, fn, *args):
        index = self.begin(name, self.request)
        try:
            result = fn(*args)
        finally:
            self.end(index)
        c = self.counts
        if name == "dsl.parse_spec":
            c["parsed_kb"] += len(args[0].encode()) / 1024
        elif name == "reasoner.check_consistency":
            if result:
                self.inconsistent.add(index)
            c["conflicts"] += len(result)
            c["witness_paths"] += sum(len(conflict.witnesses) for conflict in result)
        elif name == "reasoner.solve":
            c["answer_sets"] += len(result.answer_sets)
            c["truncated"] += result.truncated
        elif name == "trace.check_trace":
            c["violations"] += len(result)
            c["invocations"] += len(args[2].invocations)
        return result


def import_package():
    sys.path.insert(0, str(SRC))
    import depanno

    if Path(depanno.__file__).resolve().parent != SRC / "depanno":
        raise RuntimeError(f"imported depanno from {depanno.__file__}, not from {SRC}")
    return depanno


def issue(api, item, number: int, tracer: Tracer | None = None, speed: Speed | None = None) -> Record:
    """Time one request, then check its outcome outside the timed region."""
    if speed is not None:
        # Collect first, so that neither the speed kernel nor the request
        # pays for the previous request's garbage: every measured request
        # starts with none pending, as in a fresh CLI process.
        gc.collect()
        speed.between()
        gc.collect()
    call = direct if tracer is None else tracer.call
    span = None if tracer is None else tracer.begin("bench.request", number)
    start = time.perf_counter_ns()
    try:
        result = RUNNERS[item.kind](api, call, item.case)
        outcome = None
    except Exception as exc:  # the loop must go on: record the failure
        outcome = f"error:{type(exc).__name__}"
    ns = time.perf_counter_ns() - start
    if span is not None:
        tracer.end(span)
    if outcome is not None:
        return Record(number, item.kind, item.case.name, start, ns, outcome, False)
    try:
        ok, full = CHECKS[item.kind](item.case, item.exp, item.graph, result, api)
    except Exception:  # the benchmark cannot vouch for this outcome
        traceback.print_exc()
        return Record(number, item.kind, item.case.name, start, ns, "check-error", False)
    documented = isinstance(result, api.InconsistentWorkflowError) or (
        item.kind == "export" and isinstance(result[2], api.UnsupportedExportError)
    )
    outcome = ("expected-error" if documented else "ok") if ok else "wrong"
    return Record(number, item.kind, item.case.name, start, ns, outcome, full)


def run_cycles(api, items, speed: Speed, budget_s: float, cycles: int | None = None,
               tracer=None, first=0):
    """Repeat whole cycles until the raw request time is as close to
    ``budget_s`` as whole cycles allow (at least one), or exactly ``cycles``.
    Returns the records, with their scaled times, and the number of cycles
    run."""
    records: list[Record] = []
    busy = 0
    done = 0
    while done < (cycles or 1) or (cycles is None and busy * (done + 0.5) / done <= budget_s * 1e9):
        for item in items:
            record = issue(api, item, first + len(records), tracer, speed)
            records.append(record)
            busy += record.ns
        done += 1
    speed.sample()
    for r in records:
        r.scaled_ns = r.ns * speed.scale_at(r.start, r.start + r.ns)
    return records, done


def setup(seed: int):
    """Import the package and run the warm-up requests; returns the package
    and the set-up time in seconds, raw and scaled by the machine's speed
    sampled just before and after."""
    warm = workloads.warmup(seed)
    speed = Speed()
    speed.sample(SETUP_SPEED_SAMPLES)
    start = time.perf_counter()
    api = import_package()
    for number, item in enumerate(warm):
        issue(api, item, number)
    raw = time.perf_counter() - start
    speed.sample(SETUP_SPEED_SAMPLES)
    return api, raw, raw * speed.scale()


def probe_setups(args, count: int) -> list[list[float]]:
    """Set up again in fresh interpreters, one after another; returns
    [raw, scaled] seconds per set-up."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--seed", str(args.seed)],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def tail_percentile(cycle: int) -> float:
    """Highest ladder percentile with at least ten of one cycle's requests
    beyond it (nearest rank), so every run has ten beyond it."""
    for p in TAIL_LADDER:
        if cycle - math.ceil(p / 100 * cycle) >= 10:
            return p
    raise ValueError(f"a cycle of {cycle} requests has no tail percentile")


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100 * len(ordered))) - 1]


def end_to_end(records: list[Record], ns: list[float], setup_s: float, cycle: int) -> tuple[dict, dict]:
    """Metrics from the requests' times ``ns`` (raw or scaled).

    Each request of the cycle runs once per cycle; its latency is the
    median over the run's cycles (a failed run of it counts as +inf). The
    percentiles are taken over the cycle's requests, so they pick the same
    request ranks however many cycles a run fits."""
    runs: list[list[float]] = [[] for _ in range(cycle)]
    for number, (x, r) in enumerate(zip(ns, records)):
        runs[number % cycle].append(x / 1e6 if not r.failed else math.inf)
    lat = [statistics.median(times) for times in runs]
    kinds = [r.kind for r in records[:cycle]]
    busy = sum(ns) / 1e9
    p = tail_percentile(cycle)
    metrics = {
        "setup_s": (setup_s, "s"),
        "requests_per_s": (sum(not r.failed for r in records) / busy, "1/s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_tail_ms": (percentile(lat, p), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for kind in KINDS:
        mine = [x for x, k in zip(lat, kinds) if k == kind]
        metrics[KIND_METRIC[kind]] = (statistics.median(mine), "ms")
    failed = sum(r.failed for r in records)
    extra = {
        "failure_share": failed / len(records),
        "tail_percentile": p,
        "tail_beyond": cycle - math.ceil(p / 100 * cycle),
    }
    return metrics, extra


def per_layer(api, traced, cycles: int, untraced_s: float, tracer: Tracer, items,
              speed: Speed) -> dict:
    """Per-layer self time (scaled) and counts from the traced pass, per
    cycle; the model probes are totals over one call per distinct
    workflow."""
    pairs, free = model_probes(api, items, tracer)
    speed.sample(SETUP_SPEED_SAMPLES)
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for index, (name, start, end, _, _) in enumerate(spans):
        own = (end - start - child_ns[index]) * speed.scale_at(start, end) / 1e9
        total[name] += own
        calls[name] += 1
        if name == "reasoner.check_consistency":
            total["inconsistent" if index in tracer.inconsistent else "consistent"] += own

    def s(name):
        return (total.get(name, 0.0) / cycles, "s")

    def n(name):
        return (calls.get(name, 0) / cycles, "count")

    def ratio(part, whole, unit="share"):
        return (part / whole if whole else 0.0, unit)

    c = tracer.counts
    infer_checked = [r for r in traced if r.kind == "infer" and r.full]
    traced_s = sum(r.scaled_ns for r in traced) / 1e9
    return {
        "dsl.parse_spec.s": s("dsl.parse_spec"),
        "dsl.parse_spec.calls": n("dsl.parse_spec"),
        "dsl.parse_spec.kb_per_s": ratio(c["parsed_kb"], total.get("dsl.parse_spec"), "KB/s"),
        "model.up_stream_pairs.s": (total.get("model.up_stream_pairs", 0.0), "s"),
        "model.validate_structure.s": (total.get("model.validate_structure", 0.0), "s"),
        "model.upstream_pairs": (pairs, "count"),
        "model.free_direct_pairs": (free, "count"),
        "reasoner.check_consistency.s": s("reasoner.check_consistency"),
        "reasoner.check_consistency.calls": n("reasoner.check_consistency"),
        "reasoner.check_consistency.consistent_s": (total["consistent"] / cycles, "s"),
        "reasoner.check_consistency.inconsistent_s": (total["inconsistent"] / cycles, "s"),
        "reasoner.conflicts": (c["conflicts"] / cycles, "count"),
        "reasoner.witness_paths": (c["witness_paths"] / cycles, "count"),
        "reasoner.solve.s": s("reasoner.solve"),
        "reasoner.solve.calls": n("reasoner.solve"),
        "reasoner.solve.answer_sets": (c["answer_sets"] / cycles, "count"),
        "reasoner.solve.truncated_share": ratio(c["truncated"], calls.get("reasoner.solve")),
        "reasoner.infer.s": s("reasoner.infer"),
        "reasoner.infer.calls": n("reasoner.infer"),
        "reasoner.infer.exact_share": ratio(
            sum(not r.failed for r in infer_checked), len(infer_checked)),
        "reasoner.recursion_errors": (
            sum(r.outcome == "error:RecursionError" for r in traced) / cycles, "count"),
        "exports.emit_dot.s": s("exports.emit_dot"),
        "exports.emit_asp_program.s": s("exports.emit_asp_program"),
        "trace.parse_trace.s": s("trace.parse_trace"),
        "trace.check_trace.s": s("trace.check_trace"),
        "trace.warn_sameas_candidates.s": s("trace.warn_sameas_candidates"),
        "trace.invocations_per_s": ratio(c["invocations"], total.get("trace.check_trace"), "1/s"),
        "trace.violations": (c["violations"] / cycles, "count"),
        "bench.unattributed.s": s("bench.request"),
        "bench.trace_overhead_share": ratio(traced_s - untraced_s, untraced_s),
    }


def model_probes(api, items, tracer: Tracer) -> tuple[int, int]:
    """Call the model layer once per distinct workflow, outside any request;
    returns the upstream pairs and free direct pairs it reports in total."""
    cases = {item.case.name: item.case for item in items}
    pairs = free = 0
    tracer.request = "probe"
    for case in cases.values():
        parsed = api.parse_spec(case.text)
        spec, annotations = parsed.spec, list(parsed.annotations)
        upstream = tracer.call("model.up_stream_pairs", api.up_stream_pairs, spec)
        tracer.call("model.validate_structure", api.validate_structure, spec, annotations)
        program = {e.label: e.program for e in spec.edges}
        pinned = {a.pair for a in annotations}
        pairs += len(upstream)
        free += sum(1 for i, o in upstream if program[i] == program[o] and (i, o) not in pinned)
    return pairs, free


def commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "depanno").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.setup_probe and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "depanno" / "__init__.py").is_file():
        print(f"perfbench: no depanno package under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps(setup(args.seed)[1:]))
        return 0

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }
    started = time.perf_counter()
    items = workloads.build(args.workload, args.seed)
    context["input_sha256"] = workloads.digest(items)
    context["inputs"] = workloads.sizes(items)
    context["generate_s"] = time.perf_counter() - started

    api, *own_setup = setup(args.seed)
    # The inputs and references live for the whole run; keep the collector
    # from rescanning them during requests.
    gc.collect()
    gc.freeze()
    speed = Speed()
    report = {"context": context}
    if args.trace == 0:
        setups = [own_setup] + probe_setups(args, SETUP_SAMPLES - 1)
        records, cycles = run_cycles(api, items, speed, args.seconds)
        metrics, extra = end_to_end(
            records, [r.scaled_ns for r in records],
            statistics.median(scaled for _, scaled in setups), len(items))
        raw, _ = end_to_end(
            records, [r.ns for r in records], statistics.median(raw for raw, _ in setups), len(items))
        report.update(setup_samples=setups, extra=extra,
                      raw_metrics={k: {"value": v, "unit": u} for k, (v, u) in raw.items()})
    else:
        records, cycles = run_cycles(api, items, speed, args.seconds / 2)
        untraced_s = sum(r.scaled_ns for r in records) / 1e9
        tracer = Tracer()
        traced, _ = run_cycles(api, items, speed, 0, cycles=cycles, tracer=tracer,
                               first=len(records))
        records += traced
        metrics = per_layer(api, traced, cycles, untraced_s, tracer, items, speed)
        report["spans"] = tracer.spans
    report["speed_samples"] = [speed.times, speed.samples]
    failed = sum(r.failed for r in records)
    report.update(
        cycles=cycles,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        requests=[[r.request, r.kind, r.workflow, r.start, r.ns, r.scaled_ns, r.outcome, r.full]
                  for r in records],
    )
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    out.write_text(json.dumps(report))

    outcomes: dict[str, int] = {}
    for r in records:
        outcomes[r.outcome] = outcomes.get(r.outcome, 0) + 1
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} cycles={cycles} "
          f"requests={len(records)} inputs={context['input_sha256'][:12]}")
    print(f"  commit={context['commit']} source={context['source_sha256'][:12]} "
          f"python={context['python']} nproc={context['nproc']} "
          f"loadavg={context['loadavg_start'][0]:.2f}")
    print(f"  outcomes: {json.dumps(outcomes, sort_keys=True)}; "
          f"fully checked {sum(r.full for r in records)} of {len(records)}")
    raw = report.get("raw_metrics", {})
    print(f"  speed kernel: median {statistics.median(speed.samples):.0f} ns over "
          f"{len(speed.samples)} samples; times below are scaled to {REFERENCE_NS} ns")
    for name, (value, unit) in metrics.items():
        unscaled = f"  (raw {raw[name]['value']:.6g})" if name in raw else ""
        print(f"  {name:44s} {value:14.6g} {unit}{unscaled}")
    if args.trace == 0:
        extra = report["extra"]
        print(f"  {'failure_share':44s} {extra['failure_share']:14.6g} share "
              f"({failed} of {len(records)} requests)")
        print(f"  latency_tail_ms is p{extra['tail_percentile']:g} "
              f"({extra['tail_beyond']} requests beyond it)")
    print(f"  record: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not outcomes.get("check-error"),
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
