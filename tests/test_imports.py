"""Every import in the library's modules is used, as a linter's F401 rule
would check: a name bound by an import must be read somewhere in its module,
listed in its __all__, or marked `# noqa: F401` on the line that binds it."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fastweight"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}  # name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    bound[name] = alias.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):  # names inside string annotations, e.g. -> "Model"
        ann = [getattr(node, "returns", None), getattr(node, "annotation", None)]
        for a in ann:
            if isinstance(a, ast.Constant) and isinstance(a.value, str):
                read |= {n.id for n in ast.walk(ast.parse(a.value, mode="eval"))
                         if isinstance(n, ast.Name)}
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "__all__"):
            read |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import():
    source = ("from collections.abc import Iterable\nimport numpy as np\n"
              "from x import (a,  # noqa: F401\n    b)\n"
              "def f(m: 'np.ndarray') -> None:\n    return None\n")
    assert unused_imports(source) == ["line 1: Iterable", "line 4: b"]
