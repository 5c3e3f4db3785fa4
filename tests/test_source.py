"""Source hygiene of the package."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "probtrace"


def unused_imports(source: str) -> list[str]:
    """Names an import statement binds that no expression reads; quoted
    annotations count as expressions."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in filter(None, annotations):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                quoted = ast.parse(n.value, mode="eval")
                used |= {m.id for m in ast.walk(quoted) if isinstance(m, ast.Name)}
    return sorted(bound - used)


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports names to re-export them
    assert unused_imports("import os\nfrom a import B, C\nx: 'B' = os.sep\n") == ["C"]
    found = {
        path.name: unused_imports(path.read_text())
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in found.items() if names} == {}
