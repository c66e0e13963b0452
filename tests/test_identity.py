"""The identity gate (``scripts/identity.py``) on stub rows, plus one real row.

The stubs simulate nothing, so these tests pin the gate's own contract
cheaply: a changed, missing or extra row fails with exit 1 and names the
row and its first differing field; ``--update`` names the rows it moves,
then a check passes; and the check runs a fanning row at
``processes=2``, which is how it proves parallel == sequential.
"""

import sys
from functools import partial
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import identity  # noqa: E402

STUB = {
    "alpha": "a: 1\nb: 2",
    "beta": "Table title\n1  2",
}


def stub_rows(rows: dict) -> list:
    # ``partial(str, ...)`` pickles by reference into the spawned pool.
    return [identity.Row(name, partial(str, fields))
            for name, fields in rows.items()]


def by_processes(processes=None) -> str:
    return f"processes: {processes}"


class TestCompare:
    def test_identical_rows_pass(self):
        assert identity.compare(STUB, dict(STUB)) == []

    def test_a_changed_row_names_its_first_differing_field(self):
        fresh = {**STUB, "alpha": "a: 1\nb: 3"}
        assert identity.compare(STUB, fresh) == [
            "alpha: field 'b'\n  baseline: b: 2\n  fresh:    b: 3"
        ]

    def test_a_line_without_a_name_is_numbered(self):
        (problem,) = identity.compare(STUB, {**STUB, "beta": "Table title\n1  3"})
        assert problem.startswith("beta: field 'line 2'")

    def test_a_longer_row_names_the_extra_field(self):
        (problem,) = identity.compare(STUB, {**STUB, "alpha": "a: 1\nb: 2\nc: 3"})
        assert problem == ("alpha: field 'c'\n  baseline: (absent)\n"
                           "  fresh:    c: 3")

    def test_render_and_parse_round_trip(self):
        with_blank_line = {**STUB, "gamma": "first table\n\nsecond table"}
        text = identity.render(with_blank_line)
        assert identity.parse(text) == with_blank_line
        assert text.endswith("second table\n")


class TestGate:
    @pytest.fixture
    def gate(self, tmp_path, monkeypatch):
        monkeypatch.setattr(identity, "BASELINE", tmp_path / "identity.txt")

        def run(rows, *argv):
            monkeypatch.setattr(identity, "identity_rows", lambda: rows)
            return identity.main(list(argv))
        return run

    def test_update_then_check_passes(self, gate, capsys):
        assert gate(stub_rows(STUB), "--update") == 0
        assert identity.parse(identity.BASELINE.read_text()) == STUB
        assert gate(stub_rows(STUB)) == 0
        assert "identity passed: 2 rows" in capsys.readouterr().out

    def test_update_names_the_rows_it_moves(self, gate, capsys):
        gate(stub_rows(STUB), "--update")
        assert "MOVED" not in capsys.readouterr().out
        moved = {**STUB, "alpha": "a: 1\nb: 3"}
        assert gate(stub_rows(moved), "--update") == 0
        out = capsys.readouterr().out
        assert ("MOVED alpha: field 'b'\n"
                "  baseline: b: 2\n  fresh:    b: 3") in out
        assert "beta" not in out
        assert identity.parse(identity.BASELINE.read_text()) == moved

    def test_a_changed_row_exits_1_naming_row_and_field(self, gate, capsys):
        gate(stub_rows(STUB), "--update")
        assert gate(stub_rows({**STUB, "alpha": "a: 1\nb: 3"})) == 1
        err = capsys.readouterr().err
        assert "FAIL alpha: field 'b'" in err
        assert "beta" not in err

    @pytest.mark.parametrize("rows, message", [
        ({"alpha": STUB["alpha"]}, "FAIL beta: in the baseline, not computed"),
        ({**STUB, "gamma": "c: 3"}, "FAIL gamma: computed, not in the baseline"),
    ])
    def test_a_missing_or_extra_row_exits_1(self, gate, capsys, rows, message):
        gate(stub_rows(STUB), "--update")
        assert gate(stub_rows(rows)) == 1
        assert message in capsys.readouterr().err

    def test_the_check_runs_a_fanning_row_at_two_processes(self, gate, capsys):
        rows = [identity.Row("fanned", by_processes, fans_out=True)]
        gate(rows, "--update")
        assert identity.BASELINE.read_text() == "== fanned ==\nprocesses: None\n"
        assert gate(rows) == 1
        assert "fresh:    processes: 2" in capsys.readouterr().err


class TestRealRow:
    def test_a_perturbed_input_is_reported_at_its_row_only(self):
        baseline = identity.parse(identity.BASELINE.read_text())
        assert identity.scenarios() == baseline["scenarios"]
        fresh = {**baseline, "scenarios": identity.scenarios(seed=8)}
        (problem,) = identity.compare(baseline, fresh)
        assert problem.startswith("scenarios: field 'chain DP'")
