"""The package's public surface has callers, and its declared scripts exist.

Every public top-level function and class of ``src/fusioncast``, and every
public method, must be referenced from ``src/`` or ``bench/`` somewhere other
than its own definition; a name only tests call gets a caller or goes. The
persistence helpers are exempt: the command-line driver that will call them
is not written yet.
"""

import ast
import tomllib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fusioncast"
# Qualified, so that one class's exemption does not cover another's method.
AWAITING_CLI = {"save_model", "load_model", "EvalReport.to_json", "DatasetSplit.to_json",
                "DatasetSplit.from_json", "CorpusConfig.to_dict", "CorpusConfig.from_dict"}


def _references(node: ast.AST) -> Counter:
    """Identifiers ``node`` uses: names, attributes and imported names."""
    used = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            used[child.id] += 1
        elif isinstance(child, ast.Attribute):
            used[child.attr] += 1
        elif isinstance(child, ast.alias):
            used[child.name.rpartition(".")[2]] += 1
    return used


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of each public function, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{m.name}", m) for m in node.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))


def test_public_names_have_a_caller_outside_tests():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in files}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    uncalled = [
        f"{path.name}:{node.lineno} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, node in _public_definitions(trees[path])
        if name not in AWAITING_CLI and used[node.name] <= _references(node)[node.name]
    ]
    assert uncalled == []


def test_declared_scripts_name_existing_modules():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    missing = []
    for name, target in project.get("scripts", {}).items():
        module = target.partition(":")[0].replace(".", "/")
        if not ((ROOT / "src" / f"{module}.py").is_file()
                or (ROOT / "src" / module / "__init__.py").is_file()):
            missing.append(f"{name} = {target}")
    assert missing == []
