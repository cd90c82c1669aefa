"""Solve every bundled workflow and write its DOT and logic-program views.

For each .wf file in workflows/ this parses the spec, enumerates answer
sets, and emits two renderings into the output directory: a Graphviz graph
(with inferred annotations drawn when the workflow is consistent) and the
equivalent answer set program. A summary table goes to standard output.

Usage: python3 scripts/render_workflows.py [--out DIR] [--workflows DIR]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from depanno import (
    UnsupportedExportError,
    emit_asp_program,
    emit_dot,
    entailed_annotations,
    parse_spec,
    solve,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def render_one(path: Path, out_dir: Path) -> dict:
    result = parse_spec(path.read_text(encoding="utf-8"))
    if result.spec is None:
        reasons = "; ".join(d.message for d in result.errors())
        return {"name": path.stem, "status": f"parse error: {reasons}"}
    spec, annotations = result.spec, list(result.annotations)

    solved = solve(spec, annotations)
    drawn = entailed_annotations(solved, annotations)

    dot_path = out_dir / f"{path.stem}.dot"
    dot_path.write_text(emit_dot(spec, drawn), encoding="utf-8")
    written = [dot_path.name]
    try:
        asp_path = out_dir / f"{path.stem}.lp"
        asp_path.write_text(emit_asp_program(spec, annotations), encoding="utf-8")
        written.append(asp_path.name)
    except UnsupportedExportError as exc:
        written.append(f"(no program: {exc})")

    sets = len(solved.answer_sets)
    status = f"{sets} answer set{'s' if sets != 1 else ''}"
    if solved.truncated:
        status += " (truncated)"
    if not solved.consistent:
        status = "inconsistent"
    return {
        "name": spec.name,
        "status": status,
        "entailed": len(solved.entailed),
        "files": ", ".join(written),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "build" / "renders"), metavar="DIR"
    )
    parser.add_argument(
        "--workflows", default=str(REPO_ROOT / "workflows"), metavar="DIR"
    )
    args = parser.parse_args(argv)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sources = sorted(Path(args.workflows).glob("*.wf"))
    if not sources:
        print(f"no .wf files under {args.workflows}")
        return 1

    rows = [render_one(path, out_dir) for path in sources]
    width = max(len(r["name"]) for r in rows)
    for row in rows:
        entailed = row.get("entailed")
        suffix = f", {entailed} entailed" if entailed is not None else ""
        files = row.get("files", "")
        print(f"{row['name']:<{width}}  {row['status']}{suffix}  -> {files}")
    print(f"renderings written to {out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
