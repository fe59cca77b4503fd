"""Cross-problem benchmark matrix: grid resolution, per-cell parity with
the standalone suite, shared-pool failure handling."""

import numpy as np
import pytest

import repro
from repro.api import MethodSpec
from repro.experiments import (
    MatrixResult, burgers_config, matrix_table, resolve_problems, run_matrix,
    run_suite,
)
from repro.store import RunStore

PROBLEMS = ("burgers", "poisson3d")
SAMPLERS = ("uniform", "sgm")


# ----------------------------------------------------------------------
# Grid resolution
# ----------------------------------------------------------------------
def test_resolve_problems_all_and_none_expand_to_registry():
    assert resolve_problems() == sorted(repro.list_problems())
    assert resolve_problems("all") == sorted(repro.list_problems())


def test_resolve_problems_accepts_comma_string_and_list():
    assert resolve_problems("burgers, poisson3d") == ["burgers", "poisson3d"]
    assert resolve_problems(["poisson3d", "burgers"]) == ["poisson3d",
                                                         "burgers"]


def test_resolve_problems_rejects_unknown_duplicates_empty():
    with pytest.raises(KeyError, match="unknown problem"):
        resolve_problems(["not_a_problem"])
    with pytest.raises(ValueError, match="duplicate"):
        resolve_problems(["burgers", "burgers"])
    with pytest.raises(ValueError, match="at least one"):
        resolve_problems([])
    with pytest.raises(ValueError, match="at least one"):
        resolve_problems(",")


# ----------------------------------------------------------------------
# MatrixResult surface
# ----------------------------------------------------------------------
def test_run_matrix_serial_returns_grid_grouped_by_problem():
    matrix = run_matrix(PROBLEMS, SAMPLERS, backend="serial",
                        scale="smoke", steps=3)
    assert isinstance(matrix, MatrixResult)
    assert matrix.problems == list(PROBLEMS)
    assert matrix.n_cells == len(matrix) == 4
    assert matrix.labels() == {"burgers": ["U32", "SGM32"],
                               "poisson3d": ["U32", "SGM32"]}
    cells = list(matrix.cells())
    assert [(p, m.label) for p, m in cells] == [
        ("burgers", "U32"), ("burgers", "SGM32"),
        ("poisson3d", "U32"), ("poisson3d", "SGM32")]
    suite = matrix["burgers"]
    assert suite.problem == "burgers" and suite.labels == ["U32", "SGM32"]
    with pytest.raises(KeyError, match="unknown problem"):
        matrix["nope"]
    assert matrix.run_ids() == []       # no store attached
    for _, method in cells:
        assert np.all(np.isfinite(method.history.losses))


def test_matrix_table_renders_one_block_per_problem():
    matrix = run_matrix(PROBLEMS, ["uniform"], backend="serial",
                        scale="smoke", steps=3)
    text = matrix_table(matrix.histories(), "demo matrix")
    blocks = text.split("\n\n")
    assert blocks[0] == "demo matrix" and len(blocks) == 3
    assert blocks[1].startswith("[burgers]")
    assert blocks[2].startswith("[poisson3d]")
    assert all("train wall [s]" in block for block in blocks[1:])


def test_run_matrix_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown backend"):
        run_matrix(["burgers"], ["uniform"], backend="threads",
                   scale="smoke", steps=1)


# ----------------------------------------------------------------------
# Per-cell parity with the standalone suite (the tentpole invariant)
# ----------------------------------------------------------------------
def _assert_cell_parity(suite_method, matrix_method):
    assert suite_method.label == matrix_method.label
    assert suite_method.seed == matrix_method.seed
    assert np.array_equal(suite_method.history.losses,
                          matrix_method.history.losses)
    assert suite_method.history.steps == matrix_method.history.steps
    for var in suite_method.history.errors:
        np.testing.assert_array_equal(suite_method.history.errors[var],
                                      matrix_method.history.errors[var])
    assert suite_method.probe_points == matrix_method.probe_points
    for key in suite_method.net_state:
        assert np.array_equal(suite_method.net_state[key],
                              matrix_method.net_state[key]), (
            suite_method.label, key)


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_matrix_cells_bit_identical_to_standalone_suites(backend):
    matrix = run_matrix(PROBLEMS, SAMPLERS, backend=backend,
                        scale="smoke", steps=5)
    for problem in PROBLEMS:
        suite = run_suite(problem, SAMPLERS, backend="serial",
                          scale="smoke", steps=5)
        assert suite.labels == matrix[problem].labels
        for s, m in zip(suite, matrix[problem]):
            _assert_cell_parity(s, m)


def test_matrix_honours_explicit_seed_and_config_overrides():
    config = burgers_config("smoke")
    a = run_matrix(["burgers"], ["uniform"], backend="serial",
                   scale="smoke", steps=4, seed=7,
                   configs={"burgers": config})
    b = run_suite("burgers", ["uniform"], backend="serial",
                  config=config, steps=4, seed=7)
    _assert_cell_parity(b.methods[0], a["burgers"].methods[0])


def test_matrix_accepts_explicit_method_specs():
    spec = MethodSpec("U-big", "uniform", 300, 16)
    matrix = run_matrix(["burgers"], [spec], backend="serial",
                        scale="smoke", steps=3)
    assert matrix.labels() == {"burgers": ["U-big"]}


# ----------------------------------------------------------------------
# One store for the whole grid
# ----------------------------------------------------------------------
def test_matrix_records_every_cell_into_one_store(tmp_path):
    store = RunStore(tmp_path / "matrix-runs")
    matrix = run_matrix(PROBLEMS, ["uniform"], backend="process",
                        scale="smoke", steps=4, store=store)
    run_ids = matrix.run_ids()
    assert len(run_ids) == 2
    assert matrix.store_root == str(store.root)
    recorded = {store.open(run_id).meta["problem"] for run_id in run_ids}
    assert recorded == set(PROBLEMS)
    for run_id in run_ids:
        assert store.open(run_id).status == "completed"


# ----------------------------------------------------------------------
# Failure handling on the shared pool
# ----------------------------------------------------------------------
class ExplodingValidator:
    """Picklable validator that fails the first cell as soon as it runs."""

    def evaluate(self, net):
        raise RuntimeError("validator exploded")


def test_process_failure_attaches_cell_label_and_cancels_siblings(tmp_path):
    store = RunStore(tmp_path / "doomed")
    with pytest.raises(RuntimeError) as excinfo:
        # the full registry grid (5 problems x 4 samplers = 20 cells):
        # every cell would fail at its first validation, but the first
        # failure must cancel the pending queue instead of letting all
        # twenty train/fail to completion
        run_matrix(None, None, backend="process", scale="smoke",
                   steps=4, max_workers=1, store=store,
                   validators=[ExplodingValidator()])
    message = str(excinfo.value)
    assert ":smoke:" in message                  # the failing cell's label
    assert "validator exploded" in message
    assert excinfo.value.__cause__ is not None
    # with max_workers=1 only the cells the pool had already fed to
    # the worker can have started; the cancelled majority never records.
    # (the exact count depends on the pool's prefetch, hence the margin)
    n_cells = len(repro.list_problems()) * len(repro.list_samplers())
    assert len(store.runs()) < n_cells / 2


def test_serial_failure_propagates_immediately():
    with pytest.raises(RuntimeError, match="validator exploded"):
        run_matrix(["burgers"], ["uniform"], backend="serial",
                   scale="smoke", steps=4,
                   validators=[ExplodingValidator()])


# ----------------------------------------------------------------------
# Session front door
# ----------------------------------------------------------------------
def test_session_matrix_applies_overrides_across_problems():
    matrix = (repro.problem("burgers", scale="smoke")
              .n_interior(300).batch_size(16).seed(3)
              .matrix(PROBLEMS, ["uniform"], steps=3))
    assert matrix.labels() == {"burgers": ["U16"], "poisson3d": ["U16"]}
    for _, method in matrix.cells():
        assert method.seed == 3
        assert method.spec.n_interior == 300


def test_session_matrix_defaults_to_all_registered_problems():
    matrix = (repro.problem("burgers", scale="smoke")
              .n_interior(200).validators([]).matrix(samplers=["uniform"],
                                                     steps=2))
    assert matrix.problems == sorted(repro.list_problems())
