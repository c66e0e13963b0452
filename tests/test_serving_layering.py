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
Scenario value types live in ``spec`` modules that load no runtime, so a
cold ``mode="single"`` run never imports the serving, cluster or
placement machinery — checked in a fresh interpreter after the run.
"""

import ast
import os
import subprocess
import sys
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
        "by methodology.measure, a serving cell by its module's measure "
        "over repro.run"
    )
    compiling = {name for name, found in mentions.items()
                 if "build_workload" in found}
    assert not compiling, (
        f"{sorted(compiling)} compile the 5.1.2 workload by hand: the "
        "one spelling of the population is ExperimentOptions.plan_mix()"
    )


# -- a single-query cold start loads only what it runs -----------------------

REPO = SRC.parent.parent

#: what a ``mode="single"`` run never executes, so never imports.
SERVING_ONLY = (
    *(f"repro.serving.{name}" for name in (
        "driver", "coordinator", "admission", "broker", "preemption",
        "pending", "substrate", "trace")),
    "repro.cluster.runtime", "repro.cluster.rebalance",
    "repro.cluster.membership",
    "repro.placement.base", "repro.placement.policies",
    "repro.workloads.tracegen",
)


def cold(code):
    """Run ``code`` in a fresh interpreter on this tree; its stdout."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", code], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_a_cold_single_run_never_imports_the_serving_runtime():
    # Checked after the run, not after set-up: a deferred import would
    # only move the cost into the first repetition.
    loaded = cold(
        "import pathlib, sys, repro\n"
        "from repro.api import ScenarioSpec\n"
        "text = pathlib.Path('examples/scenarios/single_query.json')"
        ".read_text()\n"
        "result = repro.run(ScenarioSpec.from_json(text))\n"
        "print(result.execution.metrics.result_tuples)\n"
        "print(*sorted(sys.modules))\n"
    ).splitlines()
    assert int(loaded[0]) > 0
    assert sorted(set(SERVING_ONLY) & set(loaded[1].split())) == []


def test_a_cold_serving_set_up_leaves_its_run_nothing_to_import():
    # The serving runtime loads in set-up (``build_plans``), so a serving
    # run's first repetition pays no import either; the sweep API still
    # imports from the package.
    lines = cold(
        "import pathlib, sys, repro\n"
        "from repro.api import ScenarioSpec, build_plans, run_sweep\n"
        "def set_up(name):\n"
        "    path = pathlib.Path(f'examples/scenarios/{name}.json')\n"
        "    spec = ScenarioSpec.from_json(path.read_text())\n"
        "    build_plans(spec)\n"
        "    return spec\n"
        "spec = set_up('quickstart')\n"
        "before = set(sys.modules)\n"
        "print(repro.run(spec).workload.admitted, callable(run_sweep))\n"
        "print('new:', *sorted(set(sys.modules) - before))\n"
        "set_up('elastic_surge')\n"
        "set_up('trace_storm')\n"
        "print(*sorted(sys.modules))\n"
    ).splitlines()
    admitted, sweep = lines[0].split()
    assert int(admitted) > 0 and sweep == "True"
    assert lines[1] == "new:"
    loaded = set(lines[2].split())
    assert set(SERVING_ONLY) <= loaded


def runtime_imports(path):
    """Absolute ``repro`` modules ``path`` imports when it is loaded:
    module-level statements, ``if TYPE_CHECKING:`` blocks excluded."""
    package = path.relative_to(SRC.parent).with_suffix("").parts[:-1]
    statements = []
    for block in ast.parse(path.read_text()).body:
        if isinstance(block, ast.If):
            if getattr(block.test, "id", None) != "TYPE_CHECKING":
                statements += block.body + block.orelse
        else:
            statements.append(block)
    found = set()
    for node in statements:
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = (list(package[:len(package) - node.level + 1])
                    if node.level else [])
            if node.module:
                found.add(".".join(base + [node.module]))
            else:  # ``from . import policies`` imports the submodule
                found |= {".".join(base + [alias.name])
                          for alias in node.names}
    return {module for module in found if module.startswith("repro")}


#: the modules a spec tree may load: value types and knob sets only.
SPEC_LAYER = ("repro.sim.machine", "repro.engine.params", "repro.api.serde")


@pytest.mark.parametrize(
    "path", sorted([*SRC.glob("*/spec.py"), API / "serde.py",
                    *(SRC / name / "__init__.py"
                      for name in ("serving", "cluster", "placement"))]),
    ids=lambda path: str(path.relative_to(SRC)))
def test_spec_modules_import_only_spec_modules(path):
    runtime = {module for module in runtime_imports(path)
               if not module.endswith(".spec") and module not in SPEC_LAYER}
    assert not runtime, (
        f"{path.relative_to(SRC)} imports {sorted(runtime)} at module "
        "level: loading a scenario must not load a runtime (a single-"
        "mode run would pay for it); import it where it is used"
    )
