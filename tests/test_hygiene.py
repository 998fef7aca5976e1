"""Source hygiene checks that need no linter: every name a module in
``src/`` or ``tests/`` imports is used in it, every function, class,
method and top-level assigned name ``src/recoverylab`` defines is read
somewhere besides its definition, and outside the tests unless listed in
``TEST_ONLY``, every ``module.name`` and ``Class.attr`` the README names is
defined, every bare name a docstring or comment of ``src/recoverylab``
puts in double backticks is one its code reads, and ``src/recoverylab``
imports nothing outside the standard library but numpy."""

import ast
import io
import keyword
import re
import sys
import tokenize
from pathlib import Path
from typing import Collection

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


def imported_packages(source: str) -> set[str]:
    """The top-level package of every absolute import in ``source``."""
    packages = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            packages |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            packages.add(node.module.split(".")[0])
    return packages


def test_imported_packages_are_found():
    source = "import os.path\nimport numpy as np\nfrom .world import step\nfrom scipy.linalg import norm\n"
    assert imported_packages(source) == {"os", "numpy", "scipy"}


def test_numpy_is_the_only_runtime_dependency():
    packages = set().union(*(imported_packages(p.read_text()) for p in (ROOT / "src" / "recoverylab").rglob("*.py")))
    assert "numpy" in packages
    assert packages - set(sys.stdlib_module_names) == {"numpy"}


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


def named(source: str, left_out: Collection[str] = ()) -> set[str]:
    """The names ``source`` reads: names other than assignment targets,
    attributes, imported names, and the words of every string other than a
    docstring, since a harness may name a function as ``"module.function"``.
    What the definitions named in ``left_out`` read is not counted."""
    tree = ast.parse(source)
    docstrings = _docstrings(tree)
    skipped = {id(inner) for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name in left_out
               for inner in ast.walk(node)}
    names = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            names |= set(re.findall(r"\w+", node.value))
    return names


def definitions(source: str) -> list[tuple[int, str]]:
    """(line, name) of each function, class and method ``source`` defines
    and of each name its top-level assignments bind, dunders left out."""
    tree = ast.parse(source)
    found = [(node.lineno, node.name) for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(name.lineno, name.id) for target in targets for name in ast.walk(target)
                      if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)]
    return sorted((line, name) for line, name in found if not (name.startswith("__") and name.endswith("__")))


def test_dead_definitions_are_found():
    source = "class A:\n    def __init__(self):\n        pass\n    def used(self):\n        \"dead\"\n" \
             "    def dead(self):\n        pass\ndef f():\n    return A().used(), 'x.g', LIMIT\ndef g():\n    pass\n" \
             "f()\n__all__ = ['f']\nLIMIT, BLOCK = 3, 16\nBLOCK = 32\n"
    assert [(line, name) for line, name in definitions(source) if name not in named(source)] == \
        [(6, "dead"), (14, "BLOCK"), (15, "BLOCK")]


def test_no_dead_definitions():
    # A definition named only in docstrings or by its own definition is dead.
    used = set().union(*(named(p.read_text()) for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")))
    found = {str(p.relative_to(ROOT)): [(line, name) for line, name in definitions(p.read_text()) if name not in used]
             for p in sorted((ROOT / "src" / "recoverylab").rglob("*.py"))}
    assert not {path: dead for path, dead in found.items() if dead}


# The src/recoverylab definitions only tests name, each with its reason.
TEST_ONLY = {
    "episode_to_dict": "the reference that store._episode_text is held to",
    "similarity_curve": "A6's measurement",
}


def test_names_read_by_left_out_definitions_are_not_named():
    source = "def helper():\n    pass\ndef measure():\n    return helper()\nmeasure\n"
    assert {"helper", "measure"} <= named(source)
    assert named(source, {"measure"}) == {"measure"}


def test_no_test_only_definitions():
    # Each definition is named by the program, src/ or perfbench/, or listed;
    # what a listed definition reads does not count as the program's.
    used = set().union(*(named(p.read_text(), TEST_ONLY) for d in ("src", "perfbench")
                         for p in (ROOT / d).rglob("*.py")))
    assert not TEST_ONLY.keys() & used
    found = {str(p.relative_to(ROOT)): [(line, name) for line, name in definitions(p.read_text())
                                        if name not in used and name not in TEST_ONLY]
             for p in sorted((ROOT / "src" / "recoverylab").rglob("*.py"))}
    assert not {path: names for path, names in found.items() if names}


def live_names(sources: dict[str, str]) -> tuple[dict[str, set[str]], dict[str, set[str]]]:
    """The top-level names each module of ``sources`` (module name to
    source) defines, and the attributes of each class they define: its
    methods, its class-level and dataclass fields, the ``self.x`` its
    methods assign, and those of its bases in ``sources``."""
    modules, classes, bases = {}, {}, {}
    for module, source in sources.items():
        tree = ast.parse(source)
        names = modules[module] = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            attrs = classes.setdefault(node.name, set())
            bases.setdefault(node.name, set()).update(b.id for b in node.bases if isinstance(b, ast.Name))
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    attrs.add(item.name)
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                    attrs |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            attrs |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                      and isinstance(n.value, ast.Name) and n.value.id == "self"}

    def inherited(name: str, seen: frozenset = frozenset()) -> set[str]:
        own = set(classes.get(name, ()))
        for base in bases.get(name, set()) - seen:
            own |= inherited(base, seen | {name})
        return own

    return modules, {name: inherited(name) for name in classes}


def dead_references(text: str, sources: dict[str, str]) -> list[str]:
    """Each backticked ``module.name`` (or ``recoverylab.module``) and
    ``Class.attr`` in ``text`` that names no live definition of
    ``sources``."""
    modules, classes = live_names(sources)
    dead = []
    for owner, name in re.findall(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)`", text):
        if owner == "recoverylab":
            live = name in modules
        elif owner in modules:
            live = name in modules[owner]
        elif owner in classes:
            live = name in classes[owner]
        else:  # another library, or a variable
            continue
        if not live:
            dead.append(f"{owner}.{name}")
    return dead


def test_dead_references_are_found():
    sources = {"m": "import os\nX = 1\nclass A:\n    y: int = 0\n    def f(self):\n        self.z = 1\n"
                    "class B(A):\n    pass\n"}
    text = "`m.X` `m.A` `m.os` `m.gone` `A.y` `A.f` `A.z` `B.z` `A.w` `recoverylab.m` `recoverylab.n` `np.zeros`"
    assert dead_references(text, sources) == ["m.os", "m.gone", "A.w", "recoverylab.n"]


def test_readme_names_live_definitions():
    sources = {p.stem: p.read_text() for p in (ROOT / "src" / "recoverylab").glob("*.py") if p.name != "__init__.py"}
    assert dead_references((ROOT / "README.md").read_text(), sources) == []


def backticked(source: str) -> list[tuple[int, str]]:
    """(line, name) of each bare identifier that a docstring or comment of
    ``source`` puts in double backticks; a docstring counts from its first
    line."""
    tree = ast.parse(source)
    docstrings = _docstrings(tree)
    texts = [(node.lineno, node.value) for node in ast.walk(tree)
             if id(node) in docstrings and isinstance(node.value, str)]
    texts += [(token.start[0], token.string) for token in tokenize.generate_tokens(io.StringIO(source).readline)
              if token.type == tokenize.COMMENT]
    return sorted((line, name) for line, text in texts for name in re.findall(r"``([A-Za-z_]\w*)``", text))


def stale_backticks(source: str, names: set[str]) -> list[tuple[int, str]]:
    """``backticked`` names of ``source`` that are neither in ``names`` nor
    Python keywords."""
    return [(line, name) for line, name in backticked(source) if name not in names and not keyword.iskeyword(name)]


def test_stale_backticks_are_found():
    source = 'def f(a):\n    """Reads ``a``, not ``g``; returns ``None`` or ``m.x``."""\n' \
             '    # see ``busy``, ``b`` and ``f``\n    return a, "b"\nf(1)\n'
    assert stale_backticks(source, named(source)) == [(2, "g"), (3, "busy")]


def test_backticked_names_are_live():
    # A docstring that names a removed attribute sends its reader after it.
    files = sorted((ROOT / "src" / "recoverylab").glob("*.py"))
    names = set().union(*(named(p.read_text()) for p in files))
    found = {p.name: stale_backticks(p.read_text(), names) for p in files}
    assert not {path: stale for path, stale in found.items() if stale}
