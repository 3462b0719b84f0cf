"""Every module-level name in src/tqd3d has a caller in src/.

A function, class or constant that nothing in the package uses is dead weight:
it must be used, or removed together with its tests.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tqd3d"

# perfbench/tracing.py patches model.make_h_of_t by name until it traces the runs'
# own telemetry (ROADMAP item 6); __all__ is read by `from tqd3d import *`.
ALLOWED = {("model", "make_h_of_t"), ("__init__", "__all__")}


def _defined(stmt: ast.stmt) -> list[str]:
    """Names a module-level statement binds: a def, a class or assignment targets."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def _referenced(stmt: ast.stmt) -> set[str]:
    """Names a statement reads by name, as an attribute or through an import."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_module_level_name_has_a_caller_in_src():
    statements = [(path.stem, stmt, _referenced(stmt)) for path in sorted(SRC.glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    # How many module-level statements read each name; a definition's own body (a
    # recursive call, say) does not count as a caller.
    readers = Counter(name for _, _, names in statements for name in names)
    unused = [f"{module}.{name}" for module, stmt, names in statements
              for name in _defined(stmt)
              if readers[name] == (name in names) and (module, name) not in ALLOWED]
    assert unused == []
