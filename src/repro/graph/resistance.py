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
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .laplacian import laplacian

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
    Spielman & Srivastava (2008).

    Parameters
    ----------
    adjacency:
        Symmetric CSR adjacency.
    num_vectors:
        Sketch depth ``t``; relative error concentrates like O(1/sqrt(t)).
    solver:
        ``"splu"`` (sparse LU of the grounded Laplacian), ``"cg"``
        (conjugate gradients, for very large graphs), or ``"auto"``.

    Returns
    -------
    ``(t, n)`` embedding matrix.
    """
    rng = np.random.default_rng(seed)
    n = adjacency.shape[0]
    coo = sp.triu(adjacency, k=1).tocoo()
    weights = coo.data
    m = len(weights)
    lap = laplacian(adjacency).tocsc()
    grounded = lap[1:, 1:]

    if solver == "auto":
        solver = "splu" if n <= 200_000 else "cg"
    if solver == "splu":
        try:
            factor = spla.splu(grounded.tocsc())
        except RuntimeError:
            # a disconnected graph grounds only node 0's component, leaving
            # the other components' blocks exactly singular; a tiny diagonal
            # shift (taken only on this degenerate path, so well-posed
            # graphs keep bit-identical results) makes the solve proceed
            shift = 1e-8 * (1.0 + abs(grounded.diagonal()).mean())
            regularised = grounded + shift * sp.eye(grounded.shape[0],
                                                    format="csc")
            factor = spla.splu(regularised.tocsc())
        solve = factor.solve
    elif solver == "cg":
        ilu = spla.spilu(grounded.tocsc(), drop_tol=1e-4)
        precond = spla.LinearOperator(grounded.shape, ilu.solve)

        def solve(rhs):
            result, info = spla.cg(grounded, rhs, M=precond, rtol=1e-8,
                                   maxiter=2000)
            if info != 0:
                raise RuntimeError(f"CG failed to converge (info={info})")
            return result
    else:
        raise ValueError(f"unknown solver {solver!r}")

    embedding = np.zeros((num_vectors, n))
    sqrt_w = np.sqrt(weights)
    for t in range(num_vectors):
        signs = rng.choice([-1.0, 1.0], size=m) / np.sqrt(num_vectors)
        # y = B^T W^{1/2} q  accumulated sparsely
        y = np.zeros(n)
        contrib = signs * sqrt_w
        np.add.at(y, coo.row, contrib)
        np.add.at(y, coo.col, -contrib)
        embedding[t, 1:] = solve(y[1:])
    # fix the gauge so distances are meaningful (node 0 grounded)
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
