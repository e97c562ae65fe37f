"""No module of the package imports a private (underscore) name from a sibling."""

import ast
from pathlib import Path

import sparsemax

PACKAGE_DIR = Path(sparsemax.__file__).parent


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
