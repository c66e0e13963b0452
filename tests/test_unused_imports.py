"""No module of ``src/repro`` imports a name it never uses.

``ruff`` (F401) is the lint for this, but it is not installed everywhere
tier-1 runs, and moving imports between modules is exactly how a stale
one survives.  A module-level import — an ``if TYPE_CHECKING:`` block
included — must bind a name the module mentions: in code, in a string
annotation, or in ``__all__``.  Package ``__init__`` modules re-export by
design and are skipped; an import kept for its side effect carries
``# noqa: F401`` on its line.
"""

import ast
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent


def module_level_imports(tree):
    """Import statements that run (or type-check) at module level."""
    for block in tree.body:
        body = [block]
        if isinstance(block, ast.If):
            body = block.body + block.orelse
        elif isinstance(block, ast.Try):
            body = [*block.body, *(node for handler in block.handlers
                                   for node in handler.body),
                    *block.orelse, *block.finalbody]
        yield from (node for node in body
                    if isinstance(node, (ast.Import, ast.ImportFrom)))


def mentioned(tree):
    """Every name the module uses: code, string annotations, ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotation = None
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        for part in ast.walk(annotation) if annotation else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                names |= {name.id for name in ast.walk(
                    ast.parse(part.value, mode="eval"))
                    if isinstance(name, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__"
                for target in node.targets):
            names |= {element.value for element in node.value.elts}
    return names


@pytest.mark.parametrize(
    "path", sorted(path for path in SRC.rglob("*.py")
                   if path.name != "__init__.py"),
    ids=lambda path: str(path.relative_to(SRC)))
def test_every_module_level_import_is_used(path):
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = mentioned(tree)
    unused = [
        f"line {node.lineno}: {alias.asname or alias.name.split('.')[0]}"
        for node in module_level_imports(tree)
        if not (isinstance(node, ast.ImportFrom)
                and node.module == "__future__")
        and not any("noqa: F401" in line
                    for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names
        if (alias.asname or alias.name.split(".")[0]) not in used
    ]
    assert not unused, (
        f"{path.relative_to(SRC)} imports names it never uses: {unused}"
    )
