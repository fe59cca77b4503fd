"""SPADE / Inverse Stability Rating (paper step S3, after Cheng et al. ICML'21).

Given matched input samples ``X`` and model outputs ``Y = F(X)``, SPADE builds
kNN graphs over both, forms the generalized eigenproblem

    L_X v = lambda (L_Y + eps I) v,

and reads off:

* ``ISR = lambda_max`` — an upper bound on the best Lipschitz constant of
  ``F`` over the data manifold (Lemma 2);
* per-edge scores ``||V_r^T e_pq||^2`` with ``V_r = [v_1 sqrt(l_1), ...]``
  (Lemma 3), a surrogate for the directional derivative of ``F`` between the
  two samples;
* per-node scores — the mean edge score over each node's input-graph
  neighbourhood (eq. 11), which upper-bounds ``||grad_x L||`` (eq. 12).

High node scores mark samples whose loss changes quickly under input
perturbations — exactly the clusters whose loss probes the SGM sampler should
distrust and over-sample (paper §3.4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..graph import knn_adjacency, laplacian

__all__ = ["SpadeResult", "spade_scores"]


@dataclass
class SpadeResult:
    """SPADE/ISR analysis of one (inputs, outputs) snapshot.

    Attributes
    ----------
    isr:
        ``lambda_max(L_Y^+ L_X)`` — the model-wide stability rating.
    node_scores:
        ``(n,)`` per-sample ISR scores (higher = less stable).
    edge_scores:
        ``(m,)`` scores for the input-graph edges in ``edges``.
    edges:
        ``(m, 2)`` input-graph edge list.
    eigenvalues:
        The ``r`` largest generalized eigenvalues, descending.
    """

    isr: float
    node_scores: np.ndarray
    edge_scores: np.ndarray
    edges: np.ndarray
    eigenvalues: np.ndarray


def _generalized_eigs(l_x, l_y, rank, regularization):
    """Top-``rank`` eigenpairs of ``L_Y^+ L_X`` via the symmetric-definite
    pencil ``(L_X, L_Y + eps I)``."""
    n = l_x.shape[0]
    l_y_reg = l_y + regularization * sp.eye(n)
    rank = min(rank, n - 1)
    if n <= 400:
        vals, vecs = scipy.linalg.eigh(l_x.toarray(), l_y_reg.toarray())
        vals, vecs = vals[::-1], vecs[:, ::-1]
        return vals[:rank], vecs[:, :rank]
    vals, vecs = spla.eigsh(l_x.tocsc(), k=rank, M=l_y_reg.tocsc(),
                            which="LM")
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def spade_scores(inputs, outputs, k=10, rank=8, regularization=1e-6):
    """Compute SPADE/ISR node and edge scores.

    Parameters
    ----------
    inputs:
        ``(n, d)`` input features (coordinates + geometry parameters).
    outputs:
        ``(n, q)`` model outputs at the same samples (velocities/pressure, or
        per-sample losses — the paper uses the NN losses).
    k:
        kNN size for both graphs.
    rank:
        Number of dominant eigenpairs ``r`` used in the edge scores.
    regularization:
        Diagonal shift making ``L_Y`` positive definite.

    Returns
    -------
    SpadeResult
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    outputs = np.asarray(outputs, dtype=np.float64)
    if outputs.ndim == 1:
        outputs = outputs.reshape(-1, 1)
    if len(inputs) != len(outputs):
        raise ValueError("inputs and outputs must have matching rows")
    if len(inputs) <= k + 1:
        raise ValueError(f"need more than k+1={k + 1} samples, "
                         f"got {len(inputs)}")

    adj_x = knn_adjacency(inputs, k)
    adj_y = knn_adjacency(outputs, k)
    l_x = laplacian(adj_x)
    l_y = laplacian(adj_y)

    vals, vecs = _generalized_eigs(l_x, l_y, rank, regularization)
    vals = np.maximum(vals, 0.0)
    # V_r = [v_i * sqrt(lambda_i)]; edge score = ||V_r^T e_pq||^2
    v_r = vecs * np.sqrt(vals)[None, :]

    coo = sp.triu(adj_x, k=1).tocoo()
    edges = np.stack([coo.row, coo.col], axis=1)
    diff = v_r[edges[:, 0], :] - v_r[edges[:, 1], :]
    edge_scores = np.sum(diff * diff, axis=1)

    # node score: mean score over incident input-graph edges (eq. 11)
    n = len(inputs)
    sums = np.zeros(n)
    counts = np.zeros(n)
    np.add.at(sums, edges[:, 0], edge_scores)
    np.add.at(sums, edges[:, 1], edge_scores)
    np.add.at(counts, edges[:, 0], 1.0)
    np.add.at(counts, edges[:, 1], 1.0)
    node_scores = sums / np.maximum(counts, 1.0)

    return SpadeResult(isr=float(vals[0]) if len(vals) else 0.0,
                       node_scores=node_scores, edge_scores=edge_scores,
                       edges=edges, eigenvalues=vals)
