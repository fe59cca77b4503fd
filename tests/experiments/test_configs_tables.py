"""Config presets and table/figure formatters (no training required)."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.api import problem_registry
from repro.experiments import (
    annular_ring_config, format_table, ldc_config, table1_rows, table2_rows,
    history_curves, render_curves, write_curves_csv,
)
from repro.training import History


class TestConfigs:
    @pytest.mark.parametrize("factory", (ldc_config, annular_ring_config))
    @pytest.mark.parametrize("scale", ("paper", "repro", "smoke"))
    def test_presets_constructible(self, factory, scale):
        config = factory(scale)
        assert config.scale == scale

    @pytest.mark.parametrize("factory", (ldc_config, annular_ring_config))
    def test_unknown_scale_rejected(self, factory):
        with pytest.raises(ValueError):
            factory("gigantic")

    @pytest.mark.parametrize("factory", (ldc_config, annular_ring_config))
    @pytest.mark.parametrize("scale", ("paper", "repro", "smoke"))
    def test_structural_ratios_preserved(self, factory, scale):
        config = factory(scale)
        assert config.batch_small < config.batch_large
        assert config.n_interior_small < config.n_interior_large
        assert config.tau_e < config.tau_G <= config.steps
        assert 0.0 < config.probe_ratio < 1.0

    def test_paper_preset_matches_paper_hyperparameters(self):
        ldc = ldc_config("paper")
        assert ldc.batch_small == 500 and ldc.batch_large == 4000
        assert ldc.tau_e == 7000 and ldc.tau_G == 25_000
        assert ldc.knn_k == 30 and ldc.lrd_level == 10
        ar = annular_ring_config("paper")
        assert ar.batch_small == 1024 and ar.batch_large == 4096
        assert ar.knn_k == 7 and ar.lrd_level == 6
        assert ar.r_inner_range == (0.75, 1.1)
        assert ar.validation_radii == (1.0, 0.875, 0.75)

    def test_presets_match_snapshot(self):
        """Every registered problem's paper/repro/smoke preset, field for
        field: the goldens pin only smoke-scale losses, so this is what pins
        the repro presets the perfbench workloads train."""
        presets = {f"{name}/{scale}": dataclasses.asdict(
                       problem_registry.get(name).config_factory(scale))
                   for name in problem_registry.names()
                   for scale in ("paper", "repro", "smoke")}
        blob = json.dumps(presets, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "e518e6c69d94f1d3b6a0056ff5433942a252b6807ba3e8f764774cf9d9659d7e")


def synthetic_history(label, best, n=10, extra=("nu",)):
    history = History(label=label)
    for i in range(n):
        err = best + (1.0 - best) * (1.0 - i / (n - 1.0))
        errors = {"u": err, "v": err * 1.1, "p": err * 1.2}
        for var in extra:
            errors[var] = err * 0.9
        history.record(i * 10, float(i), 1.0 / (i + 1.0), errors=errors)
    return history


class TestTables:
    def make_ldc_histories(self):
        return {
            "U128": synthetic_history("U128", 0.30),
            "U320": synthetic_history("U320", 0.20),
            "MIS128": synthetic_history("MIS128", 0.18),
            "SGM128": synthetic_history("SGM128", 0.12),
        }

    def test_table1_structure(self):
        columns, rows = table1_rows(self.make_ldc_histories())
        labels = [r[0] for r in rows]
        assert labels[:3] == ["Min(u)", "Min(v)", "Min(nu)"]
        assert any(l.startswith("T(U320_u") for l in labels)
        assert any(l.startswith("T(SGM128_v") for l in labels)
        assert columns == ["U128", "U320", "MIS128", "SGM128"]

    def test_table1_min_values(self):
        columns, rows = table1_rows(self.make_ldc_histories())
        min_u = dict(rows)["Min(u)"]
        assert np.isclose(min_u["SGM128"], 0.12)
        assert np.isclose(min_u["U320"], 0.20)

    def test_table1_time_blanks_for_unreached(self):
        histories = self.make_ldc_histories()
        columns, rows = table1_rows(histories)
        t_sgm_u = dict(rows)["T(SGM128_u)"]
        # only SGM reaches its own best error
        assert t_sgm_u["SGM128"] is not None
        assert t_sgm_u["U128"] is None

    def test_table2_structure(self):
        histories = {
            "U128": synthetic_history("U128", 0.30, extra=()),
            "U320": synthetic_history("U320", 0.20, extra=()),
            "MIS128": synthetic_history("MIS128", 0.25, extra=()),
            "SGM-S128": synthetic_history("SGM-S128", 0.15, extra=()),
        }
        columns, rows = table2_rows(histories)
        labels = [r[0] for r in rows]
        assert "p at Min(v)" in labels
        value = dict(rows)["p at Min(v)"]["SGM-S128"]
        assert np.isclose(value, 0.15 * 1.2, atol=1e-9)

    def test_table2_single_uniform_column_has_one_time_block(self):
        histories = {
            "U32": synthetic_history("U32", 0.30, extra=()),
            "MIS32": synthetic_history("MIS32", 0.25, extra=()),
        }
        columns, rows = table2_rows(histories)
        labels = [r[0] for r in rows]
        assert len(labels) == len(set(labels))
        assert [l for l in labels if l.startswith("T(")] == [
            "T(U32_u)", "T(MIS32_u)", "T(U32_v)", "T(MIS32_v)"]

    def test_format_table_renders_blanks(self):
        text = format_table("demo", ["A", "B"],
                            [("row", {"A": 1.0, "B": None})])
        assert "demo" in text and "-" in text and "1.0000" in text


class TestFigures:
    def test_history_curves_and_render(self):
        histories = {"U128": synthetic_history("U128", 0.3)}
        curves = history_curves(histories, var="v")
        times, errors = curves["U128"]
        assert len(times) == 10
        assert errors == list(histories["U128"].error_series("v")[1])
        chart = render_curves(histories, var="v", title="demo fig")
        assert "demo fig" in chart and "log10(err(v))" in chart

    def test_curves_csv(self, tmp_path):
        histories = {"A": synthetic_history("A", 0.3, n=5)}
        path = tmp_path / "fig.csv"
        write_curves_csv({"ldc": histories}, path, var="u")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "problem,label,wall_time,err_u"
        assert len(lines) == 6
        assert all(line.startswith("ldc,A,") for line in lines[1:])
