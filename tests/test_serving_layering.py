"""Import layering of the serving and api packages, checked on the source.

``coordinator.py`` sits on top: it wires the pending queues, the
preemptor and (through the substrate) the broker together, and none of
them may reach back into it — that back-edge is how the coordinator grew
to own six concerns, and how ``substrate.py`` came to hide an import
cycle behind a function-level import.  ``repro.api`` sits *below*
``repro.experiments`` (the experiments are built on the scenario API),
so no api module may import it, not even inside a function.
"""

import ast
from pathlib import Path

import pytest

import repro.api
import repro.serving

SERVING = Path(repro.serving.__file__).parent
API = Path(repro.api.__file__).parent


def imports(path):
    """Every import statement in ``path``: ``(node, is_module_level)``."""
    tree = ast.parse(path.read_text())
    top_level = set(map(id, tree.body))
    for block in tree.body:
        # ``if TYPE_CHECKING:`` blocks are module level too
        if isinstance(block, ast.If):
            top_level.update(map(id, block.body))
    return [(node, id(node) in top_level) for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def imported_names(node):
    """Dotted-name parts an import statement mentions, module and names
    both (``from . import coordinator`` names it as an alias)."""
    names = [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        names.append(node.module)
    return {part for name in names for part in name.split(".")}


@pytest.mark.parametrize("module", ["pending", "preemption", "broker"])
def test_nothing_behind_the_coordinator_imports_it(module):
    for node, _top in imports(SERVING / f"{module}.py"):
        assert "coordinator" not in imported_names(node), (
            f"serving/{module}.py line {node.lineno} imports the "
            "coordinator: it must be handed what it uses instead"
        )


def test_the_substrate_defers_no_import():
    deferred = [node.lineno
                for node, top in imports(SERVING / "substrate.py") if not top]
    assert not deferred, (
        f"serving/substrate.py has function-level imports at lines "
        f"{deferred}: a deferred import hides an import cycle — break the "
        "cycle instead (the broker lives in serving/broker.py for this)"
    )


@pytest.mark.parametrize("path", sorted(API.glob("*.py")),
                         ids=lambda path: path.name)
def test_the_api_never_imports_the_experiments(path):
    for node, _top in imports(path):
        assert "experiments" not in imported_names(node), (
            f"api/{path.name} line {node.lineno} imports "
            "repro.experiments: dependencies point downwards only"
        )
