"""Registered sampler factories: the open replacement for ``_make_sampler``.

Each factory takes ``(config, interior_cloud, seed)`` and returns a
:class:`repro.sampling.Sampler` over the interior cloud.  SGM-specific
hyper-parameters are read from the problem config (every config dataclass
carries the ``tau_e``/``tau_G``/``knn_k``/... block); ISR options fall back
to the paper's defaults when a config does not define them.
"""

from __future__ import annotations

from ..sampling import ClusterPlan, MISSampler, SGMSampler, UniformSampler
from .registry import register_sampler, sampler_registry

__all__ = ["make_sampler"]


def make_sampler(kind, config, interior_cloud, seed=0):
    """Instantiate the registered sampler ``kind`` for an interior cloud."""
    return sampler_registry.get(kind).factory(config, interior_cloud, seed)


@register_sampler("uniform")
def _uniform(config, interior_cloud, seed):
    """i.i.d. uniform mini-batches (the U_small / U_large baselines)."""
    return UniformSampler(len(interior_cloud), seed=seed)


@register_sampler("mis")
def _mis(config, interior_cloud, seed):
    """Modulus-style pointwise importance sampling (full-dataset
    refreshes)."""
    return MISSampler(len(interior_cloud), tau_e=config.tau_e,
                      measure="grad_norm", seed=seed)


def _sgm(config, interior_cloud, seed, use_isr):
    plan = ClusterPlan(interior_cloud.features(), 1, k=config.knn_k,
                       level=config.lrd_level, seed=seed)
    return SGMSampler(
        plan, tau_e=config.tau_e, tau_G=config.tau_G,
        probe_ratio=config.probe_ratio,
        use_isr=use_isr,
        isr_weight=getattr(config, "isr_weight", 1.0),
        isr_k=getattr(config, "isr_k", 10),
        isr_rank=getattr(config, "isr_rank", 6),
        seed=seed)


@register_sampler("sgm")
def _sgm_plain(config, interior_cloud, seed):
    """SGM-PINN cluster importance sampling without the stability term
    (S1+S2+S4)."""
    return _sgm(config, interior_cloud, seed, use_isr=False)


@register_sampler("sgm_s")
def _sgm_stability(config, interior_cloud, seed):
    """SGM-PINN with the ISR stability term (S1-S4)."""
    return _sgm(config, interior_cloud, seed, use_isr=True)
