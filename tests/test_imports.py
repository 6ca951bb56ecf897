"""Every import in the package is at the top of its module and is used
(stdlib ast; no linter)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gyromodem"


def _annotation_names(tree: ast.AST) -> set:
    """Names inside quoted annotations, e.g. -> "GyroTrace"."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs
            every += [a for a in (args.vararg, args.kwarg) if a is not None]
            annotations += [a.annotation for a in every] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for ann in filter(None, annotations):
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names |= {n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                          if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list:
    """Names bound by top-level imports that nothing else in the module reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _annotation_names(tree)
    return [name for name in bound if name not in used]


def function_imports(source: str) -> list:
    """Names of the functions that contain an import statement."""
    return sorted({fn.name for fn in ast.walk(ast.parse(source))
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_checker_sees_string_annotations():
    source = ("import os\nimport sys\nfrom typing import List\n"
              "def f(x: 'List[sys.Path]') -> None: pass\n")
    assert unused_imports(source) == ["os"]


# __init__ imports only to re-export
@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []


def test_checker_sees_function_imports():
    source = ("import os\n"
              "def f():\n    from pathlib import Path\n    return Path\n"
              "class C:\n    def g(self):\n        if os:\n            import sys\n")
    assert function_imports(source) == ["f", "g"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    assert function_imports(path.read_text()) == []
