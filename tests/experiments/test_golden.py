"""Golden-trajectory regression tests: every problem × sampler pair.

Short deterministic loss trajectories (6 steps, every step recorded) are
pinned in ``golden_trajectories.json`` for the full registry cross product,
so refactors of the trainer/sampler/problem wiring cannot silently change
numerics.  If a change is *intentionally* numeric-affecting, regenerate the
goldens and explain the shift in the commit::

    PYTHONPATH=src python tests/experiments/test_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import list_problems, list_samplers

GOLDEN_PATH = Path(__file__).parent / "golden_trajectories.json"

#: one deterministic, CI-sized run per registry pair
STEPS = 6
N_INTERIOR = 400
RTOL = 1e-5

#: the 20 problem × sampler pairs pinned before inverse_burgers/ns3d were
#: registered (PR 5); their trajectories must never change when the
#: registry grows — regeneration only *adds* entries for new pairs
LEGACY_PROBLEMS = ("advection_diffusion", "annular_ring", "burgers", "ldc",
                   "poisson3d")
LEGACY_KEYS = tuple(f"{p}:{s}" for p in LEGACY_PROBLEMS
                    for s in ("mis", "sgm", "sgm_s", "uniform"))
#: sha256 of the canonical JSON of the 20 legacy entries.  Re-pinned when
#: the float64 gradient-upcast fix (mask dtypes, sdf sample weights,
#: coefficient dtype) intentionally moved the ldc/annular_ring entries onto
#: float32-exact trajectories, and again when serial SGM became the
#: one-shard ClusterPlan (the LRD seed of rebuild ``i`` now comes from
#: ``SeedSequence([seed, _STREAM, i])``, not the sampler's stream), which
#: moved only the sgm/sgm_s entries and left the uniform/mis ones
#: byte-identical.
LEGACY_SHA256 = ("94bc168ee949eebd85ab3c431f90cb8c5a660f9dcca61cfd"
                 "a8c57e2da5c7ff32")


def _pairs():
    return [(prob, samp) for prob in list_problems()
            for samp in list_samplers()]


def _run_pair(problem, sampler):
    """The pinned scenario: smoke scale, tiny dataset, every step recorded,
    no validators (losses alone pin the numerics)."""
    result = (repro.problem(problem, scale="smoke")
              .config(record_every=1)
              .sampler(sampler)
              .n_interior(N_INTERIOR)
              .validators([])
              .train(steps=STEPS))
    return [float(loss) for loss in result.history.losses]


def _load_goldens():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_legacy_golden_entries_are_byte_identical():
    """Growing the registry must not touch the 20 pre-existing entries."""
    goldens = _load_goldens()["trajectories"]
    legacy = {key: goldens[key] for key in sorted(LEGACY_KEYS)}
    blob = json.dumps(legacy, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    assert digest == LEGACY_SHA256, (
        "the pre-existing golden trajectories changed; registering new "
        "problems must only ADD entries (regenerate() preserves existing "
        "keys — did something alter shared numerics?)")


def test_golden_file_covers_the_full_registry():
    goldens = _load_goldens()["trajectories"]
    assert sorted(goldens) == sorted(f"{p}:{s}" for p, s in _pairs()), (
        "registry changed: regenerate with "
        "`PYTHONPATH=src python tests/experiments/test_golden.py`")


@pytest.mark.parametrize("problem,sampler", _pairs())
def test_golden_trajectory(problem, sampler):
    goldens = _load_goldens()["trajectories"]
    key = f"{problem}:{sampler}"
    assert key in goldens, (f"no golden for {key}; regenerate with "
                            f"`python tests/experiments/test_golden.py`")
    losses = _run_pair(problem, sampler)
    expected = goldens[key]
    assert len(losses) == len(expected)
    np.testing.assert_allclose(
        losses, expected, rtol=RTOL, atol=1e-12,
        err_msg=f"{key} trajectory drifted from the pinned golden; if the "
                f"numeric change is intentional, regenerate the goldens")


def regenerate(all_pairs=False):
    """Pin trajectories for registry pairs missing from the golden file.

    Existing entries are preserved byte-identically (so growing the
    registry cannot silently shift old numerics); pass ``all_pairs=True``
    (CLI: ``--all``) after an *intentional* numeric change to re-pin
    everything — and update ``LEGACY_SHA256`` accordingly.
    """
    trajectories = {}
    if not all_pairs and GOLDEN_PATH.exists():
        trajectories = _load_goldens()["trajectories"]
        stale = sorted(set(trajectories) -
                       {f"{p}:{s}" for p, s in _pairs()})
        for key in stale:
            print(f"dropping stale entry {key}")
            del trajectories[key]
    for problem, sampler in _pairs():
        key = f"{problem}:{sampler}"
        if key in trajectories:
            continue
        trajectories[key] = _run_pair(problem, sampler)
        print(f"{key}: {trajectories[key]}")
    payload = {
        "scenario": {"scale": "smoke", "n_interior": N_INTERIOR,
                     "steps": STEPS, "record_every": 1, "validators": []},
        "trajectories": dict(sorted(trajectories.items())),
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(trajectories)} entries)")


if __name__ == "__main__":
    import sys
    regenerate(all_pairs="--all" in sys.argv)
