"""Convergence-vs-time figures must render from stored records alone.

Stored runs enter :mod:`repro.experiments.report` through
:func:`stored_histories`; the curve functions are the ones live sweeps use.
"""

import csv

import numpy as np
import pytest

import repro
from repro.experiments.report import (history_curves, render_curves,
                                      stored_histories, write_curves_csv)
from repro.store import RunStore


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """Two recorded smoke runs (different samplers) in one store."""
    root = tmp_path_factory.mktemp("figure-store")
    store = RunStore(root)
    session = (repro.problem("burgers", scale="smoke")
               .config(record_every=2).n_interior(300))
    for sampler in ("uniform", "sgm"):
        session.sampler(sampler).train(steps=8, store=store,
                                       label=f"{sampler}-col")
    return store


def _fresh_histories(store):
    """Reload through a brand-new RunStore: no live objects survive."""
    grouped = stored_histories(
        reversed(RunStore(store.root).runs(status="completed")))
    assert list(grouped) == ["burgers"]
    return grouped["burgers"]


def test_loss_curves_from_store_alone(store):
    curves = history_curves(_fresh_histories(store))
    assert set(curves) == {"uniform-col", "sgm-col"}
    for times, losses in curves.values():
        assert len(times) == len(losses) > 0
        assert all(np.isfinite(losses))
        assert times == sorted(times)


def test_error_variable_curves(store):
    curves = history_curves(_fresh_histories(store), var="u")
    for times, errors in curves.values():
        assert len(times) == len(errors) > 0
        assert all(e >= 0 for e in errors)


def test_unvalidated_variable_gives_empty_series(store):
    curves = history_curves(_fresh_histories(store), var="not_a_var")
    assert all(len(times) == 0 for times, _ in curves.values())


def test_render_curves_ascii(store):
    text = render_curves(_fresh_histories(store), title="demo (burgers)")
    assert "demo (burgers)" in text
    assert "uniform-col" in text and "sgm-col" in text
    assert "log10(loss)" in text
    text_u = render_curves(_fresh_histories(store), var="u")
    assert "err(u)" in text_u


def test_render_handles_empty_series(store):
    text = render_curves(_fresh_histories(store), var="not_a_var")
    assert "no data" in text


def test_write_curves_csv_roundtrip(store, tmp_path):
    path = tmp_path / "fig.csv"
    grouped = stored_histories(RunStore(store.root).runs())
    write_curves_csv(grouped, path, var="loss")
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["problem", "label", "wall_time", "loss"]
    assert {row[0] for row in rows[1:]} == {"burgers"}
    labels = {row[1] for row in rows[1:]}
    assert labels == {"uniform-col", "sgm-col"}
    # every data row is (problem, label, float, float)
    for row in rows[1:]:
        float(row[2]), float(row[3])


def test_duplicate_labels_disambiguated_by_id_tail(tmp_path):
    store = RunStore(tmp_path / "dupes")
    session = (repro.problem("burgers", scale="smoke")
               .config(record_every=2).n_interior(300).validators([]))
    for _ in range(2):
        session.train(steps=4, store=store, label="same")
    (histories,) = stored_histories(RunStore(store.root).runs()).values()
    assert len(histories) == 2
    assert any(label.startswith("same#") for label in histories)


def test_no_records_raises():
    with pytest.raises(ValueError, match="no runs"):
        stored_histories([])
