"""Problem/sampler registries: registration, lookup, and error paths."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import (
    Registry, list_problems, list_samplers, make_sampler, problem_registry,
    register_problem, register_sampler, sampler_registry,
)
from repro.experiments import ldc_config
from repro.geometry import PointCloud

import numpy as np


class TestBuiltinRegistrations:
    def test_builtin_problems_registered(self):
        assert list_problems() == ["advection_diffusion", "annular_ring",
                                   "burgers", "inverse_burgers", "ldc",
                                   "ns3d", "poisson3d"]

    def test_all_four_samplers_registered(self):
        assert list_samplers() == ["mis", "sgm", "sgm_s", "uniform"]

    def test_problem_entries_carry_config_factories(self):
        for name in list_problems():
            entry = problem_registry.get(name)
            config = entry.config_factory("smoke")
            assert config.scale == "smoke"
            assert config.n_interior_small > 0

    @pytest.mark.parametrize("first_import", (
        "import repro.experiments.burgers",
        "import repro.experiments",
        "from repro.experiments.configs import burgers_config",
    ))
    def test_any_first_import_registers_every_problem(self, first_import):
        """In a fresh interpreter, reaching the experiments layer first
        (before ``repro.api``) still registers all seven problems."""
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        code = (f"{first_import}\n"
                "from repro.api import list_problems\n"
                "print(','.join(list_problems()))\n")
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip().split(",") == [
            "advection_diffusion", "annular_ring", "burgers",
            "inverse_burgers", "ldc", "ns3d", "poisson3d"]

    def test_entries_have_descriptions(self):
        for _, entry in problem_registry.items():
            assert entry.description
        for _, entry in sampler_registry.items():
            assert entry.description


class TestLookupErrors:
    def test_unknown_problem_names_alternatives(self):
        with pytest.raises(KeyError, match="ldc"):
            problem_registry.get("heat_equation")

    def test_unknown_sampler_names_alternatives(self):
        with pytest.raises(KeyError, match="uniform"):
            sampler_registry.get("bogus")

    def test_duplicate_registration_rejected(self):
        registry = Registry("thing")
        registry.register("a", object())
        with pytest.raises(ValueError, match="already registered"):
            registry.register("a", object())
        registry.register("a", "replacement", overwrite=True)
        assert registry.get("a") == "replacement"

    def test_contains_and_len(self):
        assert "sgm" in sampler_registry
        assert "nope" not in sampler_registry
        assert len(sampler_registry) == 4
        assert list(iter(sampler_registry)) == list_samplers()


class TestDecorators:
    def test_register_and_resolve_custom_entries(self):
        @register_sampler("test_only_sampler", description="test")
        def build(config, cloud, seed):
            from repro.sampling import UniformSampler
            return UniformSampler(len(cloud), seed=seed)

        try:
            cloud = PointCloud(coords=np.zeros((10, 2)))
            sampler = make_sampler("test_only_sampler", ldc_config("smoke"),
                                   cloud, seed=0)
            assert sampler.n_points == 10
        finally:
            # registries are module-global; don't leak into other tests
            del sampler_registry._entries["test_only_sampler"]

    def test_decorator_returns_the_function(self):
        @register_problem("test_only_problem", config_factory=ldc_config,
                          description="test")
        def build(config, n_interior, rng):
            return None

        try:
            assert callable(build)
            assert problem_registry.get("test_only_problem").builder is build
        finally:
            del problem_registry._entries["test_only_problem"]


class TestMakeSampler:
    def test_kinds_map_to_expected_classes(self):
        from repro.sampling import MISSampler, SGMSampler, UniformSampler
        config = ldc_config("smoke")
        cloud = PointCloud(
            coords=np.random.default_rng(0).uniform(size=(200, 2)))
        assert isinstance(make_sampler("uniform", config, cloud),
                          UniformSampler)
        assert isinstance(make_sampler("mis", config, cloud), MISSampler)
        sgm = make_sampler("sgm", config, cloud)
        sgm_s = make_sampler("sgm_s", config, cloud)
        assert isinstance(sgm, SGMSampler) and not sgm.use_isr
        assert isinstance(sgm_s, SGMSampler) and sgm_s.use_isr

    def test_isr_options_come_from_the_config_or_the_sampler(self):
        import inspect
        from dataclasses import replace
        from repro.experiments import annular_ring_config, burgers_config
        from repro.sampling import SGMSampler
        cloud = PointCloud(
            coords=np.random.default_rng(0).uniform(size=(200, 2)))
        defaults = inspect.signature(SGMSampler).parameters
        burgers = make_sampler("sgm_s", burgers_config("smoke"), cloud)
        for name in ("isr_weight", "isr_k", "isr_rank"):
            assert getattr(burgers, name) == defaults[name].default
        annular = replace(annular_ring_config("smoke"), isr_weight=2.5,
                          isr_k=7, isr_rank=3)
        sampler = make_sampler("sgm_s", annular, cloud)
        assert (sampler.isr_weight, sampler.isr_k, sampler.isr_rank) == (
            2.5, 7, 3)
