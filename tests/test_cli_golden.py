"""Golden CLI output: every bundled workflow through every report.

Each case runs ``depanno.cli.main`` in-process and compares exit code,
stdout, stderr and any written files with ``cli_golden.json``. Paths are
written relative (``workflows/...``, ``<out>/...``) so the expected file
does not depend on where the checkout lives. A change that alters CLI
output on purpose regenerates the file with::

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from depanno.cli import main

ROOT = Path(__file__).resolve().parents[1]
WORKFLOWS = ROOT / "workflows"
GOLDEN = Path(__file__).with_name("cli_golden.json")


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for path in sorted(WORKFLOWS.glob("*.wf")):
        wf = f"workflows/{path.name}"
        for command in ("validate", "infer", "solve"):
            for fmt in ("text", "json"):
                cases[f"{command}-{fmt}-{path.stem}"] = [command, wf, "--format", fmt]
        cases[f"export-{path.stem}"] = [
            "export", wf, "--dot", "<out>/graph.dot", "--asp", "<out>/program.lp"
        ]
    for trace in sorted(WORKFLOWS.glob("normalize_filter_trace_*.json")):
        for fmt in ("text", "json"):
            cases[f"check-trace-{fmt}-{trace.stem}"] = [
                "check-trace",
                "workflows/normalize_filter.wf",
                f"workflows/{trace.name}",
                "--format",
                fmt,
            ]
    return cases


CASES = _cases()


def run_case(argv: list[str]) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)

        def absolute(arg: str) -> str:
            if arg.startswith("<out>/"):
                return str(out_dir / arg[len("<out>/"):])
            if arg.startswith("workflows/"):
                return str(ROOT / arg)
            return arg

        def relative(text: str) -> str:
            return text.replace(str(out_dir), "<out>").replace(str(ROOT) + "/", "")

        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([absolute(arg) for arg in argv])
        files = {
            path.name: path.read_text(encoding="utf-8")
            for path in sorted(out_dir.iterdir())
        }
    return {
        "argv": argv,
        "exit": code,
        "stdout": relative(stdout.getvalue()),
        "stderr": relative(stderr.getvalue()),
        "files": files,
    }


def _expected() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case():
    assert sorted(_expected()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case):
    assert run_case(CASES[case]) == _expected()[case]


if __name__ == "__main__":
    golden = {case: run_case(argv) for case, argv in sorted(CASES.items())}
    GOLDEN.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(golden)} cases to {GOLDEN}")
