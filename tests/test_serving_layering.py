"""Import layering of the serving and api packages, checked on the source.

``coordinator.py`` sits on top: it wires the pending queues, the
preemptor and (through the substrate) the broker together, and none of
them may reach back into it — that back-edge is how the coordinator grew
to own six concerns, and how ``substrate.py`` came to hide an import
cycle behind a function-level import.  ``repro.api`` sits *below*
``repro.experiments`` (the experiments are built on the scenario API),
so no api module may import it, not even inside a function.  At the
bottom, ``repro.engine`` and ``repro.sim`` import nothing above them —
the scheduler used to fetch its two trace events from ``serving`` inside
a function — and hardware is built in exactly one module outside
``sim/``: ``engine/substrate.py``.  Inside ``repro.experiments`` a query
is executed from exactly one module, ``methodology.py``: a figure is a
point builder and a table layout, not another measurement loop.
"""

import ast
from pathlib import Path

import pytest

import repro.api
import repro.serving

SERVING = Path(repro.serving.__file__).parent
API = Path(repro.api.__file__).parent
SRC = SERVING.parent


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


@pytest.mark.parametrize("module", ["serving/substrate.py",
                                    "engine/substrate.py"])
def test_the_substrate_defers_no_import(module):
    deferred = [node.lineno
                for node, top in imports(SRC / module) if not top]
    assert not deferred, (
        f"{module} has function-level imports at lines "
        f"{deferred}: a deferred import hides an import cycle — break the "
        "cycle instead (the broker lives in serving/broker.py for this)"
    )


UPPER_LAYERS = {"serving", "cluster", "placement", "api", "experiments"}


@pytest.mark.parametrize(
    "path", sorted([*(SRC / "engine").rglob("*.py"),
                    *(SRC / "sim").rglob("*.py")]),
    ids=lambda path: str(path.relative_to(SRC)))
def test_the_engine_and_the_kernel_import_nothing_above_them(path):
    for node, _top in imports(path):
        above = UPPER_LAYERS & imported_names(node)
        assert not above, (
            f"{path.relative_to(SRC)} line {node.lineno} imports "
            f"{sorted(above)}: the engine is handed a substrate and "
            "reaches the upper layers through its slots only"
        )


def call_sites(name):
    """Modules of ``src/repro`` outside ``sim/`` that call ``name(...)``."""
    sites = set()
    for path in SRC.rglob("*.py"):
        if path.is_relative_to(SRC / "sim"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                called = (func.id if isinstance(func, ast.Name)
                          else getattr(func, "attr", None))
                if called == name:
                    sites.add(str(path.relative_to(SRC)))
    return sites


@pytest.mark.parametrize("constructor", [
    "Environment", "Machine", "make_processors", "make_disks", "NetworkLink",
])
def test_hardware_is_built_in_one_place(constructor):
    assert call_sites(constructor) == {"engine/substrate.py"}, (
        f"{constructor}(...) is the substrate's to call: a second builder "
        "is a second machine model that can drift (a lone SP run once "
        "ignored its disciplines this way)"
    )


@pytest.mark.parametrize("path", sorted(API.glob("*.py")),
                         ids=lambda path: path.name)
def test_the_api_never_imports_the_experiments(path):
    for node, _top in imports(path):
        assert "experiments" not in imported_names(node), (
            f"api/{path.name} line {node.lineno} imports "
            "repro.experiments: dependencies point downwards only"
        )


def names(path):
    """Every identifier ``path`` mentions in code: names, attributes and
    imports (docstrings and comments do not count)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= imported_names(node)
    return found


def test_the_experiments_execute_queries_in_one_place():
    mentions = {path.name: names(path)
                for path in (SRC / "experiments").glob("*.py")}
    executing = {name for name, found in mentions.items()
                 if {"QueryExecutor", "run_query"} & found}
    assert executing == {"methodology.py"}, (
        f"{sorted(executing)} execute queries: a graph point is measured "
        "by methodology.measure, a serving cell by api.sweep.run_scenarios"
    )
    compiling = {name for name, found in mentions.items()
                 if "build_workload" in found}
    assert not compiling, (
        f"{sorted(compiling)} compile the 5.1.2 workload by hand: the "
        "one spelling of the population is ExperimentOptions.plan_mix()"
    )
