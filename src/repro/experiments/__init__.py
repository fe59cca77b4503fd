"""Experiment harness: configs, problems, sweeps, and the one reporting
path (:mod:`repro.experiments.report`) for their tables and figures."""

from .configs import (
    LDCConfig, AnnularRingConfig, BurgersConfig, Poisson3DConfig,
    AdvectionDiffusionConfig, InverseBurgersConfig, NS3DConfig,
    ldc_config, annular_ring_config, burgers_config, poisson3d_config,
    advection_diffusion_config, inverse_burgers_config, ns3d_config,
    SCALES,
)
from .ldc import build_ldc_problem, ldc_reference, ldc_validator
from .annular_ring import (
    annular_ring_geometry, build_ar_problem, ar_validators, ar_reference,
)
from .burgers import build_burgers_problem, burgers_validator
from .poisson3d import build_poisson3d_problem, poisson3d_validator
from .advection_diffusion import (
    build_advection_diffusion_problem, advection_diffusion_validator,
)
from .inverse_burgers import (
    build_inverse_burgers_problem, inverse_burgers_validators,
)
from .ns3d import build_ns3d_problem, ns3d_validator
from .runner import MethodSpec, RunResult, ldc_methods, ar_methods
from .suite import (
    MethodResult, SamplerStats, SuiteResult, method_label,
    methods_from_samplers, resolve_methods, run_suite,
)
from .matrix import MatrixResult, resolve_problems, run_matrix
from .report import (
    compare_rows, compare_table, format_table, history_curves, matrix_table,
    render_curves, stored_baselines, stored_histories, sweep_rows,
    table1_rows, table2_rows, write_curves_csv,
)
from .figures import pressure_error_fields

__all__ = [
    "LDCConfig", "AnnularRingConfig", "BurgersConfig", "Poisson3DConfig",
    "AdvectionDiffusionConfig", "InverseBurgersConfig", "NS3DConfig",
    "ldc_config", "annular_ring_config", "burgers_config", "poisson3d_config",
    "advection_diffusion_config", "inverse_burgers_config", "ns3d_config",
    "SCALES",
    "build_ldc_problem", "ldc_reference", "ldc_validator",
    "annular_ring_geometry", "build_ar_problem", "ar_validators",
    "ar_reference",
    "build_burgers_problem", "burgers_validator",
    "build_poisson3d_problem", "poisson3d_validator",
    "build_advection_diffusion_problem", "advection_diffusion_validator",
    "build_inverse_burgers_problem", "inverse_burgers_validators",
    "build_ns3d_problem", "ns3d_validator",
    "MethodSpec", "RunResult",
    "ldc_methods", "ar_methods",
    "MethodResult", "SamplerStats", "SuiteResult",
    "method_label", "methods_from_samplers", "resolve_methods", "run_suite",
    "MatrixResult", "resolve_problems", "run_matrix",
    "compare_rows", "compare_table", "format_table", "history_curves",
    "matrix_table", "render_curves", "stored_baselines", "stored_histories",
    "sweep_rows", "table1_rows", "table2_rows", "write_curves_csv",
    "pressure_error_fields",
]
