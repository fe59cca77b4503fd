"""The solution cache."""

import numpy as np

from repro.solvers import get_or_compute


class TestCache:
    def test_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        calls = []

        def builder():
            calls.append(1)
            return {"a": np.arange(5.0), "b": np.eye(2)}

        first = get_or_compute("unit", builder)
        second = get_or_compute("unit", builder)
        assert len(calls) == 1
        assert np.array_equal(first["a"], second["a"])
        assert np.array_equal(first["b"], np.eye(2))
        assert (tmp_path / "unit.npz").exists()

    def test_distinct_keys(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        get_or_compute("k1", lambda: {"x": np.zeros(1)})
        get_or_compute("k2", lambda: {"x": np.ones(1)})
        assert np.array_equal(
            get_or_compute("k2", lambda: {"x": np.full(1, 9.0)})["x"],
            np.ones(1))
