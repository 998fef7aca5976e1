"""Source hygiene checks that need no linter: every name a module in
``src/`` or ``tests/`` imports is used in it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _annotation_names(tree: ast.AST) -> set[str]:
    """The names inside string annotations such as ``-> "Policy"``."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:  # a string value, as in Literal["a b"]
                    continue
                names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that ``source`` never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _annotation_names(tree)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom typing import Literal, Sequence\nfrom x import y\n" \
             "def f(a: 'Sequence[int]', b: Literal['a b']) -> None:\n    return np.zeros(1)\n"
    assert unused_imports(source) == [(1, "os"), (4, "y")]


def test_no_unused_imports():
    files = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py")
    assert files
    found = {str(p.relative_to(ROOT)): unused_imports(p.read_text()) for p in files}
    assert not {path: names for path, names in found.items() if names}
