"""Experiment-file loading and the resolved-config round-trip."""

import dataclasses
import json

import pytest

from repro.experiments import burgers_config, ldc_config
from repro.store import (RunConfig, config_from_tables, config_to_tables,
                         load_run_config)
from repro.store.toml_compat import dumps

EXPERIMENT = """
[run]
problem = "burgers"
sampler = "mis"
scale = "smoke"
steps = 25
seed = 7
n_interior = 500
batch_size = 16

[config]
record_every = 5
tau_e = 10

[config.network]
width = 8

[store]
root = "my-runs"
checkpoint_every = 10

[suite]
samplers = ["uniform", "mis"]
backend = "process"
"""


def _write(tmp_path, text, name="exp.toml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_run_config_toml(tmp_path):
    rc = load_run_config(_write(tmp_path, EXPERIMENT))
    assert rc.problem == "burgers" and rc.sampler == "mis"
    assert rc.steps == 25 and rc.seed == 7
    assert rc.store_root == "my-runs" and rc.checkpoint_every == 10
    assert rc.samplers == ["uniform", "mis"] and rc.backend == "process"


def test_load_run_config_json(tmp_path):
    data = {"run": {"problem": "poisson3d"}, "config": {"steps": 11}}
    path = _write(tmp_path, json.dumps(data), name="exp.json")
    rc = load_run_config(path)
    assert rc.problem == "poisson3d"
    assert rc.overrides == {"steps": 11}


def test_build_config_applies_overrides(tmp_path):
    rc = load_run_config(_write(tmp_path, EXPERIMENT))
    config = rc.build_config()
    base = burgers_config("smoke")
    assert config.record_every == 5 and config.tau_e == 10
    assert config.network.width == 8
    # untouched fields keep the scale preset's values
    assert config.network.depth == base.network.depth
    assert config.nu == base.nu


def test_session_carries_run_settings(tmp_path):
    rc = load_run_config(_write(tmp_path, EXPERIMENT))
    session = rc.session()
    assert session.name == "burgers"
    assert session._sampler == "mis"
    assert session._seed == 7
    assert session._n_interior == 500 and session._batch_size == 16
    assert session._steps == 25


def test_unknown_keys_rejected():
    with pytest.raises(ValueError, match="run"):
        RunConfig.from_dict({"config": {}})
    with pytest.raises(ValueError, match="bogus"):
        RunConfig.from_dict({"run": {"problem": "ldc", "bogus": 1}})
    with pytest.raises(ValueError, match="typo"):
        RunConfig.from_dict({"run": {"problem": "ldc"}, "store": {"typo": 1}})
    with pytest.raises(ValueError, match=r"\[suite\].*executor"):
        RunConfig.from_dict({"run": {"problem": "ldc"},
                             "suite": {"executor": "process"}})
    with pytest.raises(ValueError, match="mystery"):
        RunConfig.from_dict({"run": {"problem": "ldc"}, "mystery": {}})


def test_unknown_config_fields_rejected_at_build():
    rc = RunConfig.from_dict(
        {"run": {"problem": "ldc"}, "config": {"not_a_field": 1}})
    with pytest.raises(ValueError, match="not_a_field"):
        rc.build_config()


def test_unknown_problem_and_sampler_rejected_at_build():
    with pytest.raises(KeyError, match="unknown problem"):
        RunConfig.from_dict({"run": {"problem": "nope"}}).build_config()
    with pytest.raises(KeyError, match="unknown sampler"):
        RunConfig.from_dict(
            {"run": {"problem": "ldc", "sampler": "nope"}}).build_config()


def test_every_shipped_example_config_resolves():
    """examples/configs/*.toml: one per registered problem, all loadable."""
    from pathlib import Path
    from repro.api import list_problems
    directory = Path(__file__).resolve().parents[2] / "examples" / "configs"
    configs = sorted(directory.glob("*.toml"))
    problems = set()
    for path in configs:
        rc = load_run_config(path)
        rc.build_config()                 # validates names + overrides
        assert rc.store_root is not None  # examples showcase the store
        problems.add(rc.problem)
    assert problems == set(list_problems())


class TestResolvedConfigRoundTrip:
    def test_every_field_survives(self):
        config = ldc_config("smoke")
        config = dataclasses.replace(config, reynolds=123.0, tau_e=17)
        tables = config_to_tables("ldc", config)
        rebuilt = config_from_tables(tables)
        assert rebuilt == config

    def test_roundtrip_through_toml_text(self):
        from repro.store.toml_compat import loads
        from repro.experiments import annular_ring_config
        config = annular_ring_config("smoke")      # has tuple-typed fields
        tables = loads(dumps(config_to_tables("annular_ring", config)))
        rebuilt = config_from_tables(tables)
        assert rebuilt == config
        assert isinstance(rebuilt.r_inner_range, tuple)
