"""No dead helpers: every function and class the library defines, dunders
aside, is read somewhere in src/, perfbench/ or demos/ outside its own
definition, as a name or as an attribute. The match is by name, as a
linter's unused-code rule would make it, so a read of any attribute of that
name counts; a function that only calls itself is unread."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "fastweight").glob("*.py"))
READERS = [p for d in ("src", "perfbench", "demos") for p in sorted((ROOT / d).rglob("*.py"))]


def unread_definitions(sources: dict[str, str], defining) -> list[str]:
    """The definitions in the files `defining` (keys of `sources`) that no
    source reads outside their own lines, as "file:line name"."""
    reads: dict[str, list[tuple[str, int]]] = {}
    defs = []
    for path, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append((path, node.lineno))
            elif (path in defining
                  and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and not (node.name.startswith("__") and node.name.endswith("__"))):
                defs.append((path, node))
    return [f"{path}:{d.lineno} {d.name}" for path, d in defs
            if all(p == path and d.lineno <= line <= d.end_lineno
                   for p, line in reads.get(d.name, []))]


def test_every_definition_has_a_reader():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in READERS}
    defining = {str(p.relative_to(ROOT)) for p in LIBRARY}
    assert unread_definitions(sources, defining) == []


def test_the_check_finds_an_unread_definition():
    lib = ("def used():\n    return 1\n\n\ndef orphan():\n    return orphan()\n\n\n"
           "class K:\n    def method(self):\n        return used()\n\n"
           "    def __len__(self):\n        return 0\n")
    demo = "import lib\nlib.K().method()\n"
    assert unread_definitions({"lib.py": lib, "demo.py": demo}, {"lib.py"}) == ["lib.py:5 orphan"]
    # a reader outside the defining files is what keeps `K` and `method`
    assert unread_definitions({"lib.py": lib}, {"lib.py"}) == [
        "lib.py:5 orphan", "lib.py:9 K", "lib.py:10 method"]
