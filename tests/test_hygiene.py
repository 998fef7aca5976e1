"""Source hygiene checks that need no linter: every name a module in
``src/`` or ``tests/`` imports is used in it, and every function, class and
method ``src/recoverylab`` defines is named somewhere besides its
definition."""

import ast
import re
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


def _docstrings(tree: ast.AST) -> set[int]:
    """The ids of the docstring nodes of ``tree``."""
    bodies = [node.body for node in ast.walk(tree)
              if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    return {id(body[0].value) for body in bodies
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)}


def named(source: str) -> set[str]:
    """The names ``source`` reads: names, attributes, imported names, and
    the words of every string other than a docstring, since a harness may
    name a function as ``"module.function"``."""
    tree = ast.parse(source)
    docstrings = _docstrings(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            names |= set(re.findall(r"\w+", node.value))
    return names


def definitions(source: str) -> list[tuple[int, str]]:
    """(line, name) of each function, class and method ``source`` defines,
    dunders left out."""
    return sorted((node.lineno, node.name) for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and not (node.name.startswith("__") and node.name.endswith("__")))


def test_dead_definitions_are_found():
    source = "class A:\n    def __init__(self):\n        pass\n    def used(self):\n        \"dead\"\n" \
             "    def dead(self):\n        pass\ndef f():\n    return A().used(), 'x.g'\ndef g():\n    pass\nf()\n"
    assert [(line, name) for line, name in definitions(source) if name not in named(source)] == [(6, "dead")]


def test_no_dead_definitions():
    # A definition named only in docstrings or by its own definition is dead.
    used = set().union(*(named(p.read_text()) for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")))
    found = {str(p.relative_to(ROOT)): [(line, name) for line, name in definitions(p.read_text()) if name not in used]
             for p in sorted((ROOT / "src" / "recoverylab").rglob("*.py"))}
    assert not {path: dead for path, dead in found.items() if dead}
