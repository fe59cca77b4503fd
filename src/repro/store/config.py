"""Experiment files: TOML/JSON documents that resolve into registered runs.

Two layers share this module:

* :class:`RunConfig` — the *user-facing* experiment file (``repro run
  --config exp.toml``): names a registered problem/sampler, a scale preset,
  run sizes, and field-level overrides onto the problem's config dataclass.
* :func:`config_to_tables` / :func:`config_from_tables` — the *resolved*
  config round-trip the run store uses: every dataclass field is dumped into
  a run's ``config.toml`` so a resume rebuilds the exact configuration
  without re-reading the experiment file (which may have changed since).

Example experiment file::

    [run]
    problem = "burgers"
    sampler = "sgm"
    scale = "smoke"
    steps = 50
    seed = 0

    [config]            # overrides onto the problem's config dataclass
    record_every = 5

    [config.network]
    width = 32

    [store]
    root = "runs"
    checkpoint_every = 10

    [suite]             # optional: `repro suite --config`
    samplers = ["uniform", "sgm"]
    backend = "process"
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from . import toml_compat

__all__ = ["RunConfig", "load_run_config",
           "config_to_tables", "config_from_tables"]

_RUN_KEYS = {"problem", "sampler", "scale", "steps", "seed", "n_interior",
             "batch_size", "label"}
_STORE_KEYS = {"root", "checkpoint_every"}
_SUITE_KEYS = {"samplers", "backend", "max_workers"}


def _replace_validated(config, overrides, where):
    """``dataclasses.replace`` with unknown-field errors naming the file."""
    valid = {f.name for f in dataclasses.fields(config)}
    unknown = sorted(set(overrides) - valid)
    if unknown:
        raise ValueError(f"unknown {where} field(s) {unknown}; "
                         f"valid fields: {sorted(valid)}")
    coerced = {}
    for key, value in overrides.items():
        current = getattr(config, key)
        if isinstance(current, tuple) and isinstance(value, list):
            value = tuple(value)
        coerced[key] = value
    return dataclasses.replace(config, **coerced)


@dataclasses.dataclass
class RunConfig:
    """One parsed experiment file, ready to open a :class:`repro.Session`."""

    problem: str
    sampler: str = "sgm"
    scale: str = "repro"
    steps: int = None
    seed: int = None
    n_interior: int = None
    batch_size: int = None
    label: str = None
    overrides: dict = dataclasses.field(default_factory=dict)
    network: dict = dataclasses.field(default_factory=dict)
    store_root: str = None
    checkpoint_every: int = None
    samplers: list = None
    backend: str = "serial"
    max_workers: int = None
    path: str = None

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data, path=None):
        """Build from the parsed ``[run]/[config]/[store]/[suite]`` tables."""
        run = dict(data.get("run") or {})
        if "problem" not in run:
            raise ValueError("experiment file needs `problem = ...` in its "
                             "[run] table")
        unknown = sorted(set(run) - _RUN_KEYS)
        if unknown:
            raise ValueError(f"unknown [run] key(s) {unknown}; "
                             f"valid keys: {sorted(_RUN_KEYS)}")
        config = dict(data.get("config") or {})
        network = config.pop("network", {})
        store = dict(data.get("store") or {})
        unknown = sorted(set(store) - _STORE_KEYS)
        if unknown:
            raise ValueError(f"unknown [store] key(s) {unknown}; "
                             f"valid keys: {sorted(_STORE_KEYS)}")
        suite = dict(data.get("suite") or {})
        unknown = sorted(set(suite) - _SUITE_KEYS)
        if unknown:
            raise ValueError(f"unknown [suite] key(s) {unknown}; "
                             f"valid keys: {sorted(_SUITE_KEYS)}")
        extra = sorted(set(data) - {"run", "config", "store", "suite"})
        if extra:
            raise ValueError(f"unknown top-level table(s) {extra}; "
                             f"expected [run], [config], [store], [suite]")
        return cls(problem=run["problem"],
                   sampler=run.get("sampler", "sgm"),
                   scale=run.get("scale", "repro"),
                   steps=run.get("steps"), seed=run.get("seed"),
                   n_interior=run.get("n_interior"),
                   batch_size=run.get("batch_size"),
                   label=run.get("label"),
                   overrides=config, network=dict(network),
                   store_root=store.get("root"),
                   checkpoint_every=store.get("checkpoint_every"),
                   samplers=suite.get("samplers"),
                   backend=suite.get("backend", "serial"),
                   max_workers=suite.get("max_workers"),
                   path=str(path) if path is not None else None)

    # ------------------------------------------------------------------
    def build_config(self):
        """The problem's config dataclass at ``scale`` with overrides applied.

        Problem and sampler names are validated against the registries here,
        so a bad experiment file fails before any training starts.
        """
        from ..api.registry import problem_registry, sampler_registry
        entry = problem_registry.get(self.problem)
        sampler_registry.get(self.sampler)
        config = entry.config_factory(self.scale)
        where = self.path or "experiment"
        if self.overrides:
            config = _replace_validated(config, self.overrides,
                                        f"{where} [config]")
        if self.network:
            net = _replace_validated(config.network, self.network,
                                     f"{where} [config.network]")
            config = dataclasses.replace(config, network=net)
        return config

    def session(self):
        """Open a configured :class:`repro.Session` for this experiment."""
        from ..api.session import Session
        session = Session(self.problem, scale=self.scale,
                          config=self.build_config())
        session.sampler(self.sampler)
        if self.seed is not None:
            session.seed(self.seed)
        if self.n_interior is not None:
            session.n_interior(self.n_interior)
        if self.batch_size is not None:
            session.batch_size(self.batch_size)
        if self.steps is not None:
            session.steps(self.steps)
        return session


def load_run_config(path):
    """Parse a TOML (or ``.json``) experiment file into a :class:`RunConfig`.

    Parameters
    ----------
    path : str or Path
        Experiment file with ``[run]`` / ``[config]`` / ``[store]`` /
        ``[suite]`` tables (``.json`` files carry the same structure as
        nested objects).  Unknown tables, keys, and config fields are
        rejected with the valid alternatives named.

    Returns
    -------
    :class:`RunConfig`
        Ready to open a configured session via :meth:`RunConfig.session`,
        or to resolve the problem's config via
        :meth:`RunConfig.build_config`.

    Examples
    --------
    >>> import pathlib, tempfile
    >>> from repro.store import load_run_config
    >>> path = pathlib.Path(tempfile.mkdtemp()) / "exp.toml"
    >>> _ = path.write_text('''
    ... [run]
    ... problem = "burgers"
    ... sampler = "sgm"
    ... scale = "smoke"
    ... steps = 5
    ... ''')
    >>> rc = load_run_config(path)
    >>> (rc.problem, rc.sampler, rc.steps)
    ('burgers', 'sgm', 5)
    """
    path = Path(path)
    if path.suffix.lower() == ".json":
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    else:
        data = toml_compat.load(path)
    return RunConfig.from_dict(data, path=path)


# ----------------------------------------------------------------------
# Resolved-config round-trip (the run store's config.toml)
# ----------------------------------------------------------------------
def config_to_tables(problem, config):
    """Dump a problem-config dataclass into TOML-ready nested dicts."""
    fields = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            value = dataclasses.asdict(value)
        elif isinstance(value, tuple):
            value = list(value)
        fields[f.name] = value
    return {"problem": {"name": problem}, "config": fields}


def config_from_tables(data):
    """Rebuild the exact config dataclass from :func:`config_to_tables`."""
    from ..api.registry import problem_registry
    name = data["problem"]["name"]
    stored = dict(data["config"])
    network = stored.pop("network", {})
    entry = problem_registry.get(name)
    config = entry.config_factory(stored.get("scale", "repro"))
    config = _replace_validated(config, stored, f"stored config for {name}")
    if network:
        net = _replace_validated(config.network, network,
                                 f"stored network config for {name}")
        config = dataclasses.replace(config, network=net)
    return config
