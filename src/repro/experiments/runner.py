"""The paper's Table 1 / Table 2 method columns and their sweeps.

Each method trains an identically initialised network on the same problem;
only the sampler (and, per the paper, dataset/batch size) differs:

* ``U_small``  — uniform sampling, reduced batch & dataset (paper: U500/U1024)
* ``U_large``  — uniform sampling, large batch & dataset (paper: U4000/U4096)
* ``MIS``      — Modulus-style pointwise importance sampling, reduced sizes
* ``SGM``      — SGM-PINN without the stability term (S1+S2+S4)
* ``SGM-S``    — SGM-PINN with the ISR stability term (S1-S4)

:func:`ldc_methods` / :func:`ar_methods` list the columns, and
:func:`repro.experiments.run_suite` trains them
(``run_suite("ldc", ldc_methods(config), config=config)``).  A single
method trains through :class:`repro.api.Session`
(``repro run ldc --sampler mis``).
"""

from __future__ import annotations

from ..api.types import MethodSpec, RunResult

__all__ = ["MethodSpec", "RunResult", "ldc_methods", "ar_methods"]


def ldc_methods(config):
    """The four Table-1 columns at this config's scale."""
    return [
        MethodSpec(f"U{config.batch_small}", "uniform",
                   config.n_interior_small, config.batch_small),
        MethodSpec(f"U{config.batch_large}", "uniform",
                   config.n_interior_large, config.batch_large),
        MethodSpec(f"MIS{config.batch_small}", "mis",
                   config.n_interior_small, config.batch_small),
        MethodSpec(f"SGM{config.batch_small}", "sgm",
                   config.n_interior_small, config.batch_small),
    ]


def ar_methods(config, include_plain_sgm=False):
    """The Table-2 columns (+ the Figure-3-only plain SGM variant)."""
    methods = [
        MethodSpec(f"U{config.batch_small}", "uniform",
                   config.n_interior_small, config.batch_small),
        MethodSpec(f"U{config.batch_large}", "uniform",
                   config.n_interior_large, config.batch_large),
        MethodSpec(f"MIS{config.batch_small}", "mis",
                   config.n_interior_small, config.batch_small),
    ]
    if include_plain_sgm:
        methods.append(MethodSpec(f"SGM{config.batch_small}", "sgm",
                                  config.n_interior_small,
                                  config.batch_small))
    methods.append(MethodSpec(f"SGM-S{config.batch_small}", "sgm_s",
                              config.n_interior_small, config.batch_small))
    return methods
