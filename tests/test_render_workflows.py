"""scripts/render_workflows.py writes what ``depanno export`` writes."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "render_workflows.py"
GOLDEN = Path(__file__).with_name("cli_golden.json")


def load_script():
    spec = importlib.util.spec_from_file_location("render_workflows", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_renderings_match_the_golden_cli_exports(tmp_path, capsys):
    assert load_script().main(["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    compared = 0
    for key, case in golden.items():
        if not key.startswith("export-"):
            continue
        stem = key[len("export-"):]
        for golden_name, suffix in (("graph.dot", ".dot"), ("program.lp", ".lp")):
            if golden_name in case["files"]:
                written = tmp_path / f"{stem}{suffix}"
                assert written.read_text(encoding="utf-8") == case["files"][golden_name]
                compared += 1
    assert compared == len(list(tmp_path.iterdir())) > 0
