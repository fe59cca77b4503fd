"""The one reporting path: speedup arithmetic, baselines, sweep == store."""

from types import SimpleNamespace

import pytest

from repro.experiments import run_suite
from repro.experiments.report import (
    compare_rows, compare_table, format_table, stored_baselines,
    stored_histories, sweep_rows,
)
from repro.store import RunStore
from repro.training import History


def _history(label, points):
    """A history with ``u`` errors at known wall times: ``[(t, err)]``."""
    history = History(label=label)
    for step, (t, err) in enumerate(points):
        history.record(step, t, 1.0, errors={"u": err})
    return history


def _histories():
    return {
        # reaches its best (0.2) at t=4
        "BASE": _history("BASE", [(1.0, 1.0), (2.0, 0.5), (4.0, 0.2)]),
        # reaches 0.2 at t=1, four times sooner
        "FAST": _history("FAST", [(0.5, 0.8), (1.0, 0.2), (2.0, 0.1)]),
        # never gets down to 0.2
        "SLOW": _history("SLOW", [(1.0, 0.9), (3.0, 0.6), (6.0, 0.3)]),
    }


def test_speedup_and_time_rows_are_exact():
    columns, rows = compare_rows(_histories(), baseline="BASE")
    assert columns == ["BASE", "FAST", "SLOW"]
    rows = dict(rows)
    assert rows["Min(u)"] == {"BASE": 0.2, "FAST": 0.1, "SLOW": 0.3}
    assert rows["T(BASE_u)"] == {"BASE": 4.0, "FAST": 1.0, "SLOW": None}
    assert rows["train wall [s]"] == {"BASE": 4.0, "FAST": 2.0, "SLOW": 6.0}
    assert rows["speedup(u) vs BASE"] == {"BASE": 1.0, "FAST": 4.0,
                                          "SLOW": None}
    assert list(rows) == ["Min(u)", "T(BASE_u)", "train wall [s]",
                          "speedup(u) vs BASE"]


def test_unreached_threshold_renders_as_dash():
    text = format_table("t", *compare_rows(_histories(), baseline="BASE"))
    lines = {line.split()[0]: line.split()[-3:] for line in
             text.splitlines()[3:]}
    assert lines["T(BASE_u)"] == ["4.0000", "1.0000", "-"]
    assert lines["speedup(u)"] == ["1.0000", "4.0000", "-"]


def test_baseline_defaults_to_first_column_and_rejects_unknown():
    rows = dict(compare_rows(_histories())[1])
    assert "speedup(u) vs BASE" in rows
    rows = dict(compare_rows(_histories(), baseline="FAST")[1])
    # FAST's best (0.1) is reached by nobody else
    assert rows["speedup(u) vs FAST"] == {"BASE": None, "FAST": 1.0,
                                          "SLOW": None}
    with pytest.raises(KeyError):
        compare_rows(_histories(), baseline="nope")


def _record(run_id, label, history, problem="p"):
    return SimpleNamespace(run_id=run_id, label=label,
                           meta={"problem": problem},
                           history=lambda: history)


def _records():
    histories = _histories()
    return [
        _record("p-uniform-0001-aaaaaa", "U32", histories["BASE"]),
        _record("p-sgm-0002-bbbbbb", "SGM32", histories["SLOW"]),
        _record("p-uniform-0003-cccccc", "U32", histories["FAST"]),
        _record("q-uniform-0004-dddddd", "U32", histories["SLOW"],
                problem="q"),
    ]


def test_stored_histories_disambiguate_repeated_labels_per_problem():
    grouped = stored_histories(_records())
    assert list(grouped) == ["p", "q"]
    assert list(grouped["p"]) == ["U32", "SGM32", "U32#cccccc"]
    assert list(grouped["q"]) == ["U32"]


@pytest.mark.parametrize("baseline, expected", [
    (None, {"p": "U32", "q": "U32"}),
    ("p-sgm-0002-bbbbbb", {"p": "SGM32", "q": "U32"}),       # run id
    ("SGM32", {"p": "SGM32", "q": "U32"}),                   # label
    ("U32", {"p": "U32", "q": "U32"}),                       # first match
    ("U32#cccccc", {"p": "U32#cccccc", "q": "U32"}),         # label#idtail
    ("p-uniform-0003-cccccc", {"p": "U32#cccccc", "q": "U32"}),
])
def test_stored_baseline_selection(baseline, expected):
    records = _records()
    bases = stored_baselines(records, baseline)
    assert bases == expected
    text = compare_table(stored_histories(records), bases)
    assert f"speedup(u) vs {expected['p']} " in text


def test_unknown_stored_baseline_lists_the_columns():
    with pytest.raises(KeyError) as info:
        stored_baselines(_records(), "nope")
    message = info.value.args[0]
    assert "'nope'" in message
    assert "p: U32, SGM32, U32#cccccc" in message and "q: U32" in message


def test_sweep_table_equals_table_from_its_stored_records(tmp_path):
    store = RunStore(tmp_path / "runs")
    suite = run_suite("burgers", ["uniform", "sgm"], backend="serial",
                      scale="smoke", steps=6, store=store)
    live = sweep_rows(suite.histories())
    records = [store.open(m.run_id) for m in suite]
    (stored,) = stored_histories(records).values()
    assert list(stored) == suite.labels
    # row for row, value for value: the wall row too is the History clock
    assert sweep_rows(stored) == live
