"""Command line behavior: exit codes, report shapes, stream separation."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import depanno
from depanno.cli import main

from conftest import WORKFLOWS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def wf(name: str) -> str:
    return str(WORKFLOWS / name)


class TestValidate:
    def test_consistent_workflow(self, capsys):
        code, out, err = run(capsys, "validate", wf("normalize_filter.wf"))
        assert code == 0
        assert out == "consistent: normalize_filter\n"
        assert err == ""

    def test_inconsistent_workflow(self, capsys):
        code, out, err = run(capsys, "validate", wf("sampler_span.wf"))
        assert code == 1
        assert out.splitlines() == [
            "inconsistent: sampler_span",
            "conflict: x_in -> x_out asserted DerivedFrom [not-a-valid-path-type]",
            "  path x_in -> x_s1 -> x_s2 -> x_out achievable DependsOn",
        ]

    def test_json_report(self, capsys):
        code, out, err = run(
            capsys, "validate", wf("sampler_span.wf"), "--format", "json"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["workflow"] == "sampler_span"
        assert payload["consistent"] is False
        assert payload["conflicts"] == [
            {
                "pair": ["x_in", "x_out"],
                "asserted": "DerivedFrom",
                "reason": "not-a-valid-path-type",
                "witnesses": [
                    {
                        "path": ["x_in", "x_s1", "x_s2", "x_out"],
                        "achievable": ["DependsOn"],
                    }
                ],
            }
        ]

    def test_unparsable_workflow(self, capsys, tmp_path):
        bad = tmp_path / "bad.wf"
        bad.write_text("workflow w\ndep a -> b : SameAs\n", encoding="utf-8")
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert out == ""
        assert f"{bad}:2:5: error: annotation references unknown edge label 'a'" in err

    def test_missing_file(self, capsys, tmp_path):
        missing = tmp_path / "nope.wf"
        code, out, err = run(capsys, "validate", str(missing))
        assert code == 2
        assert out == ""
        assert f"depanno: error: cannot read {missing}:" in err


class TestInfer:
    def test_text_report(self, capsys):
        code, out, err = run(capsys, "infer", wf("chain_span.wf"))
        assert code == 0
        assert out.splitlines() == [
            "x1 -> x2: options DerivedFrom|ValueOf|SameAs",
            "x1 -> x4: DerivedFrom (user)",
            "x3 -> x4: options DerivedFrom|ValueOf|SameAs",
        ]
        assert err == ""

    def test_json_report_is_a_bare_pair_map(self, capsys):
        code, out, err = run(
            capsys, "infer", wf("chain_span.wf"), "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {
            "x1->x2": {"options": ["DerivedFrom", "ValueOf", "SameAs"]},
            "x1->x4": {"entailed": "DerivedFrom"},
            "x3->x4": {"options": ["DerivedFrom", "ValueOf", "SameAs"]},
        }

    def test_inconsistent_exits_one(self, capsys):
        code, out, err = run(capsys, "infer", wf("sampler_span.wf"))
        assert code == 1
        assert out.startswith("inconsistent: sampler_span\n")

    def test_truncation_note_goes_to_stderr(self, capsys):
        code, out, err = run(
            capsys, "infer", wf("chain_span.wf"), "--max-models", "3"
        )
        assert code == 0
        assert "note: stopped after 3 answer sets" in err
        assert "note:" not in out

    def test_max_models_must_be_positive(self, capsys):
        code, out, err = run(
            capsys, "infer", wf("chain_span.wf"), "--max-models", "0"
        )
        assert code == 3
        assert "must be at least 1" in err


class TestSolve:
    def test_text_report(self, capsys):
        code, out, err = run(capsys, "solve", wf("normalize_filter.wf"))
        assert code == 0
        assert out.splitlines() == [
            "answer set 1:",
            "  x1 -> x2: DerivedFrom",
            "  x1 -> x4: DerivedFrom",
            "  x3 -> x4: SameAs",
            "  x_cutoff -> x4: DependsOn",
            "  x_range -> x2: DerivedFrom",
            "  x_range -> x4: DerivedFrom",
            "1 answer set",
            "entailed:",
            "  x1 -> x2: DerivedFrom",
            "  x1 -> x4: DerivedFrom",
            "  x3 -> x4: SameAs",
            "  x_cutoff -> x4: DependsOn",
            "  x_range -> x2: DerivedFrom",
            "  x_range -> x4: DerivedFrom",
        ]

    def test_open_pairs_are_listed(self, capsys):
        code, out, err = run(capsys, "solve", wf("chain_span.wf"))
        assert code == 0
        lines = out.splitlines()
        assert "5 answer sets" in lines
        start = lines.index("open:")
        assert lines[start + 1 :] == [
            "  x1 -> x2: DerivedFrom|ValueOf|SameAs",
            "  x3 -> x4: DerivedFrom|ValueOf|SameAs",
        ]

    def test_inconsistent_report(self, capsys):
        code, out, err = run(capsys, "solve", wf("sampler_span.wf"))
        assert code == 1
        assert out == "0 answer sets (inconsistent)\n"

    def test_truncation(self, capsys):
        code, out, err = run(
            capsys, "solve", wf("chain_span.wf"), "--max-models", "3"
        )
        assert code == 0
        assert "3 answer sets (truncated)" in out
        assert "note: enumeration truncated at 3 answer sets" in err

    def test_json_report(self, capsys):
        code, out, err = run(
            capsys, "solve", wf("chain_span.wf"), "--format", "json"
        )
        payload = json.loads(out)
        assert payload["workflow"] == "chain_span"
        assert payload["count"] == 5
        assert payload["truncated"] is False
        assert len(payload["answer_sets"]) == 5
        assert payload["answer_sets"][0] == {
            "x1->x2": "DerivedFrom",
            "x1->x4": "DerivedFrom",
            "x3->x4": "DerivedFrom",
        }
        assert payload["entailed"] == {"x1->x4": "DerivedFrom"}
        assert payload["options"]["x1->x2"] == ["DerivedFrom", "ValueOf", "SameAs"]

    def test_json_is_byte_stable(self, capsys):
        first = run(capsys, "solve", wf("branch_merge.wf"), "--format", "json")
        second = run(capsys, "solve", wf("branch_merge.wf"), "--format", "json")
        assert first == second


class TestExport:
    def test_requires_a_target(self, capsys):
        code, out, err = run(capsys, "export", wf("chain_span.wf"))
        assert code == 3
        assert "export requires --dot and/or --asp" in err

    def test_writes_dot_with_inferred_annotations(self, capsys, tmp_path):
        target = tmp_path / "graph.dot"
        code, out, err = run(
            capsys, "export", wf("normalize_filter.wf"), "--dot", str(target)
        )
        assert code == 0
        assert out == f"wrote {target}\n"
        text = target.read_text(encoding="utf-8")
        assert text.count("style=dashed, color=red") == 4
        assert text.count("style=dotted, color=blue") == 2

    def test_inconsistent_workflow_still_exports_dot(self, capsys, tmp_path):
        target = tmp_path / "graph.dot"
        code, out, err = run(
            capsys, "export", wf("sampler_span.wf"), "--dot", str(target)
        )
        assert code == 0
        assert "drawing user annotations only" in err
        assert target.read_text(encoding="utf-8").count("color=red") == 3

    def test_writes_asp_program(self, capsys, tmp_path):
        target = tmp_path / "program.lp"
        code, out, err = run(
            capsys, "export", wf("chain_span.wf"), "--asp", str(target)
        )
        assert code == 0
        text = target.read_text(encoding="utf-8")
        assert "#show dep_rule/3." in text
        assert "dep_rule(x1,x4,derivedfrom)." in text

    def test_writes_both_targets(self, capsys, tmp_path):
        dot = tmp_path / "graph.dot"
        asp = tmp_path / "program.lp"
        code, out, err = run(
            capsys,
            "export",
            wf("branch_merge.wf"),
            "--dot",
            str(dot),
            "--asp",
            str(asp),
        )
        assert code == 0
        assert out == f"wrote {dot}\nwrote {asp}\n"
        assert dot.exists() and asp.exists()


class TestCheckTrace:
    def test_conforming_trace(self, capsys):
        code, out, err = run(
            capsys,
            "check-trace",
            wf("normalize_filter.wf"),
            wf("normalize_filter_trace_ok.json"),
        )
        assert code == 0
        assert out == "no violations\n"

    def test_violating_trace(self, capsys):
        code, out, err = run(
            capsys,
            "check-trace",
            wf("normalize_filter.wf"),
            wf("normalize_filter_trace_bad.json"),
        )
        assert code == 1
        assert out.splitlines() == [
            "violation: invocation 1 x3 -> x4 SameAs identity-violation: f9",
            "1 violation",
        ]

    def test_json_report(self, capsys):
        code, out, err = run(
            capsys,
            "check-trace",
            wf("normalize_filter.wf"),
            wf("normalize_filter_trace_bad.json"),
            "--format",
            "json",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["violations"] == [
            {
                "invocation": 1,
                "pair": ["x3", "x4"],
                "annotation": "SameAs",
                "kind": "identity-violation",
                "offending": [{"id": "f9", "value": "0.20"}],
            }
        ]
        assert payload["warnings"] == []

    def test_malformed_trace(self, capsys, tmp_path):
        bad = tmp_path / "trace.json"
        bad.write_text("{", encoding="utf-8")
        code, out, err = run(
            capsys, "check-trace", wf("normalize_filter.wf"), str(bad)
        )
        assert code == 2
        assert f"depanno: error: {bad}: invalid JSON" in err

    def test_mismatched_trace(self, capsys, tmp_path):
        wrong = tmp_path / "trace.json"
        wrong.write_text(
            json.dumps({"workflow": "other", "invocations": []}), encoding="utf-8"
        )
        code, out, err = run(
            capsys, "check-trace", wf("normalize_filter.wf"), str(wrong)
        )
        assert code == 2
        assert "trace is for workflow 'other'" in err


class TestUsage:
    def test_no_arguments(self, capsys):
        code, out, err = run(capsys)
        assert code == 3
        assert "usage:" in err

    def test_unknown_command(self, capsys):
        code, out, err = run(capsys, "frobnicate")
        assert code == 3

    def test_unknown_flag(self, capsys):
        code, out, err = run(capsys, "solve", wf("chain_span.wf"), "--nope")
        assert code == 3

    def test_module_entry_point(self):
        # run the package copy this test imported, not whatever is installed
        package_root = Path(depanno.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "depanno", "validate", wf("chain_span.wf")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(package_root)},
        )
        assert proc.returncode == 0
        assert proc.stdout == "consistent: chain_span\n"
