"""The registry-driven suite engine: resolution, parity, ordering."""

import numpy as np
import pytest

import repro
from repro.api import MethodSpec
from repro.experiments import (
    SuiteResult, annular_ring_config, burgers_config, format_table, ldc_config, method_label,
    methods_from_samplers, resolve_methods, run_suite, sweep_rows,
)

SAMPLERS = ("uniform", "mis", "sgm", "sgm_s")


# ----------------------------------------------------------------------
# Method resolution
# ----------------------------------------------------------------------
def test_method_label_follows_paper_columns():
    assert method_label("uniform", 500) == "U500"
    assert method_label("mis", 500) == "MIS500"
    assert method_label("sgm", 500) == "SGM500"
    assert method_label("sgm_s", 1024) == "SGM-S1024"
    assert method_label("my_rule", 64) == "MY-RULE64"


def test_methods_from_samplers_defaults_to_registry():
    config = burgers_config("smoke")
    specs = methods_from_samplers(config)
    assert [s.kind for s in specs] == sorted(SAMPLERS)
    assert all(s.n_interior == config.n_interior_small for s in specs)
    assert all(s.batch_size == config.batch_small for s in specs)


def test_resolve_methods_accepts_names_specs_and_mixtures():
    config = burgers_config("smoke")
    explicit = MethodSpec("U-big", "uniform", 600, 48)
    specs = resolve_methods(config, ["sgm", explicit])
    assert [s.label for s in specs] == [f"SGM{config.batch_small}", "U-big"]
    assert specs[1] is explicit


def test_resolve_methods_rejects_unknown_sampler_and_duplicates():
    config = burgers_config("smoke")
    with pytest.raises(KeyError, match="unknown sampler"):
        resolve_methods(config, ["not_a_sampler"])
    with pytest.raises(KeyError, match="unknown sampler"):
        resolve_methods(config, [MethodSpec("x", "bogus", 100, 8)])
    with pytest.raises(ValueError, match="duplicate"):
        resolve_methods(config, ["sgm", "sgm"])
    with pytest.raises(ValueError, match="at least one"):
        resolve_methods(config, [])


# ----------------------------------------------------------------------
# Serial execution + SuiteResult surface
# ----------------------------------------------------------------------
def test_run_suite_serial_returns_ordered_suiteresult():
    suite = run_suite("burgers", ["uniform", "sgm"], backend="serial",
                      scale="smoke", steps=4)
    assert isinstance(suite, SuiteResult)
    assert suite.problem == "burgers" and suite.backend == "serial"
    assert suite.labels == ["U32", "SGM32"]
    assert len(suite) == 2
    assert set(suite.histories()) == {"U32", "SGM32"}
    assert all(m.wall_seconds > 0 for m in suite)
    assert suite.total_seconds >= max(m.wall_seconds for m in suite)
    with pytest.raises(KeyError, match="unknown method label"):
        suite["nope"]


def test_run_suite_rejects_unknown_problem_and_backend():
    with pytest.raises(KeyError, match="unknown problem"):
        run_suite("not_a_problem", scale="smoke")
    with pytest.raises(ValueError, match="unknown backend"):
        run_suite("burgers", ["uniform"], backend="threads", scale="smoke",
                  steps=1)


def test_method_results_carry_trained_networks():
    from repro.api.problems import build_problem
    from repro.api.session import run_problem
    config = burgers_config("smoke")
    suite = run_suite("burgers", ["uniform"], backend="serial",
                      config=config, steps=4)
    (method,) = suite
    # the shipped net carries exactly the parameters a direct run trains
    prob = build_problem("burgers", config, method.spec.n_interior,
                         np.random.default_rng(method.seed))
    direct = run_problem(prob, config, sampler="uniform",
                         batch_size=method.spec.batch_size, seed=method.seed,
                         steps=4)
    state = direct.net.state_dict()
    for key, value in method.net_state.items():
        assert np.array_equal(state[key], value)
    assert method.probe_points == direct.sampler.probe_points


def test_suite_table_renders_all_columns():
    suite = run_suite("burgers", ["uniform", "mis"], backend="serial",
                      scale="smoke", steps=4)
    columns, rows = sweep_rows(suite.histories())
    text = format_table("sweep", columns, rows)
    assert "U32" in text and "MIS32" in text
    # the wall row is the History clock, the one the T(...) rows use
    assert dict(rows)["train wall [s]"] == {
        m.label: m.history.wall_times[-1] for m in suite}


@pytest.mark.parametrize("problem", sorted(repro.list_problems()))
def test_run_suite_works_for_every_registered_problem(problem):
    suite = run_suite(problem, ["uniform", "sgm"], backend="serial",
                      scale="smoke", steps=3)
    assert suite.problem == problem and len(suite) == 2
    for method in suite:
        assert len(method.history.losses) >= 1
        assert np.all(np.isfinite(method.history.losses))


# ----------------------------------------------------------------------
# Serial vs process parity (the scaling subsystem's core invariant)
# ----------------------------------------------------------------------
def _assert_method_parity(serial, parallel):
    assert serial.labels == parallel.labels
    for s, p in zip(serial, parallel):
        assert s.label == p.label and s.seed == p.seed
        assert np.array_equal(s.history.losses, p.history.losses), s.label
        assert s.history.steps == p.history.steps
        assert sorted(s.history.errors) == sorted(p.history.errors)
        for var in s.history.errors:
            np.testing.assert_array_equal(s.history.errors[var],
                                          p.history.errors[var])
        assert s.probe_points == p.probe_points
        if s.sampler_stats.labels is not None:
            assert np.array_equal(s.sampler_stats.labels,
                                  p.sampler_stats.labels)
        for key in s.net_state:
            assert np.array_equal(s.net_state[key], p.net_state[key]), (
                s.label, key)


def test_serial_and_process_backends_are_bit_identical():
    config = burgers_config("smoke")
    methods = ["uniform", "mis", "sgm"]
    serial = run_suite("burgers", methods, backend="serial", config=config,
                       steps=6)
    parallel = run_suite("burgers", methods, backend="process",
                         config=config, steps=6)
    _assert_method_parity(serial, parallel)


def test_sgm_s_on_the_eigsh_path_is_bit_identical_across_backends():
    # 3000 annular points probe 558 per refresh, so every SPADE call takes
    # the sparse eigsh path (above 400 nodes), unlike any smoke-scale run;
    # 25 steps span two refreshes (smoke tau_e is 20)
    config = annular_ring_config("smoke")
    methods = [MethodSpec("SGM-S3000", "sgm_s", 3000, 32)]
    serial = run_suite("annular_ring", methods, backend="serial",
                       config=config, steps=25, validators=[])
    parallel = run_suite("annular_ring", methods, backend="process",
                         config=config, steps=25, validators=[])
    stats = serial.methods[0].sampler_stats
    assert stats.refresh_count == 2
    assert serial.methods[0].probe_points / stats.refresh_count > 400
    _assert_method_parity(serial, parallel)


def test_process_results_keep_spec_order_not_completion_order():
    # heavier methods first: if results were appended in completion order,
    # the cheap uniform column would finish (and land) before SGM
    config = ldc_config("smoke")
    methods = [
        MethodSpec("SGM-S-heavy", "sgm_s", 900, 32),
        MethodSpec("SGM-heavy", "sgm", 900, 32),
        MethodSpec("U-light", "uniform", 120, 8),
    ]
    suite = run_suite("ldc", methods, backend="process", config=config,
                      steps=5, max_workers=3)
    assert suite.labels == ["SGM-S-heavy", "SGM-heavy", "U-light"]


def test_process_backend_respects_explicit_seed():
    a = run_suite("burgers", ["uniform"], backend="process", scale="smoke",
                  steps=5, seed=7)
    b = run_suite("burgers", ["uniform"], backend="serial", scale="smoke",
                  steps=5, seed=7)
    c = run_suite("burgers", ["uniform"], backend="serial", scale="smoke",
                  steps=5, seed=8)
    assert np.array_equal(a.methods[0].history.losses,
                          b.methods[0].history.losses)
    assert not np.allclose(b.methods[0].history.losses,
                           c.methods[0].history.losses)


# ----------------------------------------------------------------------
# Session front door
# ----------------------------------------------------------------------
def test_session_suite_applies_overrides():
    suite = (repro.problem("burgers", scale="smoke")
             .n_interior(300).batch_size(16).seed(3)
             .suite(["uniform", "sgm"], steps=4))
    assert suite.labels == ["U16", "SGM16"]
    assert suite.seed == 3
    assert all(m.spec.n_interior == 300 for m in suite)
    assert all(m.spec.batch_size == 16 for m in suite)


def test_session_suite_honours_validators_override():
    suite = (repro.problem("burgers", scale="smoke")
             .n_interior(200).validators([])
             .suite(["uniform"], backend="process", steps=4))
    # validators=[] must reach the workers: no errors recorded at all
    assert suite.methods[0].history.errors == {}


def test_run_suite_validators_override():
    serial = run_suite("burgers", ["uniform"], backend="serial",
                       scale="smoke", steps=4, validators=[])
    assert serial.methods[0].history.errors == {}


def test_session_suite_defaults_to_all_registered_samplers():
    suite = (repro.problem("burgers", scale="smoke")
             .n_interior(200).suite(steps=2))
    assert [m.kind for m in suite] == sorted(SAMPLERS)
