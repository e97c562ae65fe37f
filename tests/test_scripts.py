"""Smoke tests of the experiment drivers in scripts/: each runs to the end
in its own process and prints its summary table."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True, timeout=300
    )


def test_labelprop_sweep_quick(tmp_path):
    proc = run_script("run_labelprop_sweep.py", "--quick", "--out", str(tmp_path / "result.json"))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["mixture", "length", "logistic", "JS", "sparsemax", "JS", "logistic", "MSE", "sparsemax", "MSE"]
    rows = [line.split() for line in lines[1:3]]
    assert [row[:2] for row in rows] == [["uniform", "100"], ["uniform", "400"]]
    assert all(0.0 <= float(v) for row in rows for v in row[2:])
    # The script's --seed (default 1) reaches the run through the config it writes.
    assert json.loads((tmp_path / "result.json").read_text())["config_echo"]["seed"] == 1


def test_multilabel_demo(tmp_path):
    proc = run_script(
        "run_multilabel_demo.py", "--n-train", "40", "--n-test", "40", "--n-labels", "4", "--out-dir", str(tmp_path)
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["method", "lambda", "rule", "param", "micro", "F1", "macro", "F1"]
    rows = [line.split() for line in lines[1:4]]
    assert [row[0] for row in rows] == ["logistic", "softmax", "sparsemax"]
    assert all(0.0 <= float(v) <= 1.0 for row in rows for v in row[3:5])
