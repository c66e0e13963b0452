"""The one JSON writer (``repro.api.serde.dumps``) against ``json.dumps``.

``reference`` below is the slow path the writer replaced: every document
the API emits was ``json.dumps(obj, indent=indent, default=list) + "\\n"``,
and the writer must reproduce it byte for byte — on arbitrary trees
(hypothesis), on every shipped example's run result, and with ``json``'s
own handling wherever a value is not an exact JSON scalar.  The guard at
the end keeps the reason the writer exists: on a small serving run,
``to_json`` allocates under a stated multiple of the text it returns
(the ``json.dumps`` path took over 5x, holding every token at once).
"""

import enum
import json
import math
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.api import ScenarioSpec, SweepSpec, replace_path
from repro.api.serde import dumps
from repro.engine.metrics import ShedRecord
from repro.serving.trace import TraceQuery

REPO = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO / "examples" / "scenarios"


def reference(obj, indent):
    return json.dumps(obj, indent=indent, default=list) + "\n"


class Count(int):
    """An ``int`` subclass: not a row scalar, so it takes ``json``'s path."""


class Ratio(float):
    pass


class Colour(enum.IntEnum):
    RED = 1


special_floats = st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, -1e-300, 5e-324])
special_text = st.sampled_from(
    ["", '"', "\\", "\n\t\r\x00\x1f", "é", "Ωmega", "\U0001f600", "a\"b\\c"])
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(1 << 70), max_value=1 << 70),
    st.floats(allow_nan=True, allow_infinity=True),
    special_floats,
    st.text(),
    special_text,
    st.integers().map(Count),
    st.floats(allow_nan=False).map(Ratio),
    st.just(Colour.RED),
    # Not JSON at all: ``default=list`` turns it into an array.
    st.frozensets(st.integers(min_value=0, max_value=9), max_size=3),
)
trees = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(st.text(max_size=4) | special_text, children,
                        max_size=5),
        # Non-str keys: json converts them; the writer hands them over.
        st.dictionaries(st.integers() | st.booleans() | st.none(), children,
                        max_size=3),
    ),
    max_leaves=40,
)


class TestByteIdentity:
    @given(tree=trees, indent=st.sampled_from([0, 2, 4, None]))
    def test_any_tree_reads_as_json_wrote_it(self, tree, indent):
        assert dumps(tree, indent=indent) == reference(tree, indent)

    @given(rows=st.lists(st.tuples(st.integers(), st.text(), st.floats(),
                                   st.booleans(), st.none()), max_size=8),
           indent=st.sampled_from([0, 2, 4]))
    def test_rows_of_scalars(self, rows, indent):
        # The shape of a run's ``per_query`` and ``shed`` entries.
        document = {"metrics": {"per_query": rows, "shed": []}}
        assert dumps(document, indent=indent) == reference(document, indent)

    @pytest.mark.parametrize("value", [
        [], (), {}, [[]], [{}], {"a": []}, [1, [2.5, "x"], {"k": None}],
        (Count(3), 4), [Ratio(0.5), 1.0], [Colour.RED], [True, 1, 1.0],
        [float("nan"), float("inf"), -float("inf"), -0.0],
        {1: "int key", 2.5: "float key", None: "null key", True: "bool"},
    ])
    @pytest.mark.parametrize("indent", [0, 2, 4, None])
    def test_edge_cases(self, value, indent):
        assert dumps(value, indent=indent) == reference(value, indent)

    def test_a_value_json_cannot_encode_still_fails(self):
        with pytest.raises(TypeError):
            dumps({"rows": [(1, object())]})

    def test_specs_and_sweeps_write_as_json_did(self):
        spec = ScenarioSpec.from_json((SCENARIO_DIR / "quickstart.json").read_text())
        sweep = SweepSpec(base=spec, axes=(("mpl", (2, 8)),), label="mpl")
        assert sweep.to_json() == reference(sweep.to_dict(), 2)
        assert spec.to_json(indent=4) == reference(spec.to_dict(), 4)


#: examples that run for more than a second go to the slow tier.
SLOW_EXAMPLES = {"elastic_surge", "overload_retry", "placement_sweep",
                 "trace_storm"}


@pytest.mark.parametrize("name", [
    pytest.param(path.stem, marks=[pytest.mark.slow]
                 if path.stem in SLOW_EXAMPLES else [])
    for path in sorted(SCENARIO_DIR.glob("*.json"))
])
def test_every_example_run_writes_as_json_did(name):
    spec = ScenarioSpec.from_json((SCENARIO_DIR / f"{name}.json").read_text())
    result = repro.run(spec)
    assert result.to_json() == reference(result.to_dict(), 2)


@pytest.fixture(scope="module")
def miniature_replay():
    """``replay_tiny`` cut to 600 queries: 434 complete and 166 shed."""
    text = (REPO / "benchmarks" / "ledger" / "workloads" / "replay_tiny.json")
    spec = ScenarioSpec.from_json(text.read_text())
    return repro.run(replace_path(spec, "trace.generate.queries", 600))


#: ``to_json``'s traced allocation above what it started with, per byte of
#: text, on the miniature run: 2.8 with the writer, 5.4 through
#: ``json.dumps`` (which holds every token of the document at once).
MAX_BYTES_PER_TEXT_BYTE = 3.5


class TestLeanResults:
    def test_to_json_allocates_a_small_multiple_of_its_text(
            self, miniature_replay):
        result = miniature_replay
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            text = result.to_json()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.metrics.completed == 434
        assert text == reference(result.to_dict(), 2)
        assert (peak - before) / len(text) < MAX_BYTES_PER_TEXT_BYTE

    def test_per_query_records_hold_each_value_once(self, miniature_replay):
        metrics = miniature_replay.metrics
        completions, shed = metrics.completions, metrics.shed
        assert completions and shed
        # One string object each, shared by every query, not one per query.
        assert len({id(c.strategy) for c in completions}
                   | {id(c.result.strategy) for c in completions}) == 1
        assert len({id(c.result.config_label) for c in completions}) == 1
        for record in (shed[0], TraceQuery(0, 0.0, 0, "DP", None, 1)):
            assert not hasattr(record, "__dict__")
        assert isinstance(shed[0], ShedRecord)
