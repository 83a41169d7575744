"""No module of the package or the test suite imports a name it never reads."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The package's __init__ imports only to re-export, so it is left out.
SOURCES = ([p for p in sorted((ROOT / "src" / "fsgl").glob("*.py"))
            if p.name != "__init__.py"]
           + sorted((ROOT / "tests").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    """Names that an import in `source` binds and no expression reads.

    `import a.b` binds `a`; imports inside functions count too.
    """
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_no_unused_imports():
    assert unused_imports("import os\nimport a.b as c\nfrom x import y\ny()\n") == [
        "os (line 1)", "c (line 2)"]
    assert SOURCES
    found = {}
    for path in SOURCES:
        unused = unused_imports(path.read_text())
        if unused:
            found[str(path.relative_to(ROOT))] = unused
    assert found == {}
