"""Effective-resistance computation and estimation (paper §3.3, Def. 3.1).

Two computations with a common interface:

* :func:`exact_effective_resistance` — dense pseudo-inverse, O(n^3); ground
  truth for tests and small graphs.
* :func:`approx_edge_resistance` — Spielman–Srivastava style Johnson-
  Lindenstrauss sketch: ``R(u,v) ≈ ||Z e_uv||²`` where the rows of ``Z`` are
  Laplacian solves against random signed edge combinations.  Near-linear
  when the grounded Laplacian factorizes sparsely (kNN graphs do).  This
  plays the role of the paper's linear-time Krylov-subspace estimator [1]
  and is the one LRD uses.

The sketch factors the grounded Laplacian with
:func:`~repro.graph.spd_factor`, the factor SPADE also uses, and solves
every sketch vector in one block solve.  The factor lives only for the
call: kept across a plan's rebuilds, it would hold its memory for the
whole run.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .laplacian import laplacian, spd_factor

__all__ = [
    "exact_effective_resistance",
    "approx_edge_resistance",
    "resistance_embedding",
]


def _pair_array(pairs):
    pairs = np.asarray(pairs, dtype=int)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("pairs must be (m, 2)")
    return pairs


def exact_effective_resistance(adjacency, pairs):
    """Exact ER via the Moore-Penrose pseudo-inverse (small graphs only)."""
    pairs = _pair_array(pairs)
    lap = laplacian(adjacency).toarray()
    pinv = np.linalg.pinv(lap)
    p, q = pairs[:, 0], pairs[:, 1]
    return pinv[p, p] + pinv[q, q] - 2.0 * pinv[p, q]


def resistance_embedding(adjacency, num_vectors=24, seed=0, solver="auto"):
    """JL sketch ``Z`` with ``R(u,v) ≈ ||Z[:, u] - Z[:, v]||²``.

    Each of the ``num_vectors`` rows solves one grounded-Laplacian system
    against a random ±1 combination of weighted incidence rows, following
    Spielman & Srivastava (2008).  One node per connected component is
    grounded (its column of ``Z`` is zero), so the grounded Laplacian is
    nonsingular on a disconnected graph too; distances within a component
    are exact in expectation, distances across components are meaningless.

    Parameters
    ----------
    adjacency:
        Symmetric CSR adjacency.
    num_vectors:
        Sketch depth ``t``; relative error concentrates like O(1/sqrt(t)).
    solver:
        ``"splu"`` (one :func:`~repro.graph.spd_factor` of the grounded
        Laplacian, then a single block solve of all ``t`` right-hand
        sides), ``"cg"`` (ILU-preconditioned conjugate gradients, one
        solve per vector, for very large graphs), or ``"auto"`` (``splu``
        up to 200k nodes).

    Returns
    -------
    ``(t, n)`` embedding matrix.
    """
    rng = np.random.default_rng(seed)
    n = adjacency.shape[0]
    coo = sp.triu(adjacency, k=1).tocoo()
    weights = coo.data
    m = len(weights)
    # imported here, not at module level: csgraph adds about 1 MB of RSS,
    # which runs that build no graph need not pay
    from scipy.sparse.csgraph import connected_components
    _, component = connected_components(adjacency, directed=False)
    free = np.ones(n, dtype=bool)
    free[np.unique(component, return_index=True)[1]] = False
    grounded = laplacian(adjacency).tocsc()[free][:, free]

    if solver == "auto":
        solver = "splu" if n <= 200_000 else "cg"
    if solver == "splu":
        solve = spd_factor(grounded).solve
    elif solver == "cg":
        ilu = spla.spilu(grounded.tocsc(), drop_tol=1e-4)
        precond = spla.LinearOperator(grounded.shape, ilu.solve)

        def solve_one(rhs):
            result, info = spla.cg(grounded, rhs, M=precond, rtol=1e-8,
                                   maxiter=2000)
            if info != 0:
                raise RuntimeError(f"CG failed to converge (info={info})")
            return result

        def solve(block):
            return np.column_stack([solve_one(rhs) for rhs in block.T])
    else:
        raise ValueError(f"unknown solver {solver!r}")

    rhs = np.zeros((num_vectors, n))
    sqrt_w = np.sqrt(weights)
    for t in range(num_vectors):
        signs = rng.choice([-1.0, 1.0], size=m) / np.sqrt(num_vectors)
        # y = B^T W^{1/2} q  accumulated sparsely
        contrib = signs * sqrt_w
        np.add.at(rhs[t], coo.row, contrib)
        np.add.at(rhs[t], coo.col, -contrib)
    # the grounded nodes fix the gauge, so distances are meaningful
    embedding = np.zeros((num_vectors, n))
    embedding[:, free] = solve(rhs[:, free].T).T
    return embedding


def approx_edge_resistance(adjacency, pairs=None, num_vectors=24, seed=0,
                           solver="auto"):
    """Approximate ER of ``pairs`` (default: every graph edge)."""
    if pairs is None:
        coo = sp.triu(adjacency, k=1).tocoo()
        pairs = np.stack([coo.row, coo.col], axis=1)
    pairs = _pair_array(pairs)
    z = resistance_embedding(adjacency, num_vectors=num_vectors, seed=seed,
                             solver=solver)
    diff = z[:, pairs[:, 0]] - z[:, pairs[:, 1]]
    return np.sum(diff * diff, axis=0)
