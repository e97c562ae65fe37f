"""Boundaries of the package: what its modules import from each other, and
what the benchmark's tracer needs of its public API."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import sparsemax

PACKAGE_DIR = Path(sparsemax.__file__).parent
REPO = Path(__file__).resolve().parents[1]


def private_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        sibling = node.level > 0 or (node.module or "").split(".")[0] == "sparsemax"
        if not sibling:
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{path.name}:{node.lineno} imports {alias.name} from {'.' * node.level}{node.module or ''}")
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) >= 8
    problems = [p for path in modules for p in private_imports(path)]
    assert problems == []


def test_the_check_sees_a_private_import(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from .simplex import _shifted_threshold, softmax\nfrom sparsemax.metrics import _check_pair\n")
    assert len(private_imports(bad)) == 2


def loss_kind_names(path: Path) -> list[str]:
    """The LOSS_* and *_jacobian_rows names a module imports or uses, by AST."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            continue
        if name.startswith("LOSS_") or name.endswith("_jacobian_rows"):
            names.append(f"{path.name}:{getattr(node, 'lineno', '?')} names {name}")
    return names


def test_the_trainer_names_no_loss_kind(tmp_path):
    # linear_model takes each loss's values, gradients and Hessian factors from
    # losses by the kind its caller passes, so a new loss needs no edit there.
    assert loss_kind_names(PACKAGE_DIR / "linear_model.py") == []
    bad = tmp_path / "bad.py"
    bad.write_text("from .losses import LOSS_SPARSEMAX\nfrom . import jacobians\njacobians.softmax_jacobian_rows\n")
    assert len(loss_kind_names(bad)) == 2


# Installs the benchmark's tracer on a fresh import of the package and
# prints the names of the per-layer metrics it reports.
METRIC_NAMES_SCRIPT = """
import json
import sparsemax
import sparsemax.cli
from tracing import Tracer, per_layer_metrics
tracer = Tracer()
tracer.install(sparsemax)
print(json.dumps(sorted(per_layer_metrics(tracer, 1, {}, 0.0))))
"""


def test_benchmark_per_layer_metrics_find_their_functions():
    # The tracer reads each metric off a public function by name, so deleting
    # or renaming one the benchmark reports raises KeyError here.  It runs in
    # a subprocess because installing the tracer rebinds the package's names.
    path = os.pathsep.join([str(REPO / "perfbench"), str(PACKAGE_DIR.parent)])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", METRIC_NAMES_SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    declared = [metric["name"] for metric in json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"]]
    assert json.loads(done.stdout) == sorted(declared)
