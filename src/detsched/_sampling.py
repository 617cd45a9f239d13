"""Spectral DPP sampler (Kulesza & Taskar, Alg. 1).

Phase 1 keeps each eigenvector of the marginal kernel with probability its
eigenvalue; phase 2 selects one point per kept eigenvector from the
projection kernel they span, by incremental Gram-Schmidt on its rows
(Tremblay, Barthelme & Amblard, "Optimized algorithms to sample determinantal
point processes"), O(n k^2) for k kept eigenvectors.  Each step keeps the
squared residual norm of every row, picks the first row whose cumulative mass
exceeds u * total (so a zero-mass row is never picked), and projects the
picked row out of the rest.

Single draws (``draw_mask``) and blocks of draws (``select_block``) run the
same selection in two array shapes: the block form pays numpy's per-call
overhead once per step for the whole block, the single form avoids the
block's padding and per-block set-up, which cost more than they save for one
draw.  Both consume the uniforms identically.  The block form stores the
Gram-Schmidt vectors step-major, (draw, step, point), so a draw's first t
steps are one contiguous prefix and both projections of a step are
``np.matmul`` over the stack of draws; a step's update runs only for the
draws that select again (``live[t + 1]``), since a draw whose last pick is
step t never reads it.
"""

import math
from bisect import bisect_right
from itertools import accumulate

import numpy as np

# The sampler is numpy only; the benchmark's provenance line reads this name
# to report the backend.
njit = None


def _select(V: np.ndarray, u) -> list:
    """Phase 2 of one draw: indices picked from the projection kernel V V^T.

    ``V`` is (n, k) with orthonormal columns; step t is driven by ``u[t]``.
    """
    n, k = V.shape
    norms = (V * V).sum(axis=1)
    C = np.empty((n, k))
    chosen = []
    for t in range(k):
        cum = list(accumulate(norms.tolist()))
        x = bisect_right(cum, u[t] * cum[-1])
        chosen.append(x)
        if t + 1 == k:
            break
        c = V @ V[x]
        if t:
            c -= C[:, :t] @ C[x, :t]
        c /= math.sqrt(norms[x])
        C[:, t] = c
        norms -= c * c
        norms[x] = 0.0
        np.maximum(norms, 0.0, out=norms)
    return chosen


def draw_mask(mu: np.ndarray, vecs: np.ndarray, rng) -> np.ndarray:
    """One scheduling draw as a boolean mask over ground-set positions.

    ``mu``/``vecs`` are the eigendecomposition of the marginal kernel.
    Consumes n uniforms for the eigenvector coin flips, then one per
    selected point.
    """
    n = mu.shape[0]
    coins = rng.random(n)
    sel = coins < mu
    mask = np.zeros(n, dtype=bool)
    k = np.count_nonzero(sel)
    if k == 0:
        return mask
    for x in _select(vecs.compress(sel, axis=1), rng.random(k).tolist()):
        mask[x] = True
    return mask


def select_block(vecs: np.ndarray, sel: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Phase 2 of R draws at once, as an (R, n) boolean mask.

    ``sel`` is the (R, n) phase-1 outcome (which eigenvectors each draw
    kept) and draw r is driven by ``u[r, :k_r]`` for its k_r kept
    eigenvectors, exactly as ``draw_mask`` would be.  Dropped eigenvectors
    are zeroed rather than removed, so every draw is an (n, n) slice of one
    stack whose shape, and so whose arithmetic, does not depend on the other
    draws in the block.  Draws are processed in decreasing k so the ones
    still selecting at step t are a leading slice.  ``C[r, t]`` is draw r's
    Gram-Schmidt vector of step t over the n points.
    """
    R, n = sel.shape
    # 0/1 rows counted by matmuls: faster than reductions over n when rows
    # are many, as fast when they are few
    ones = np.ones(n, dtype=np.intp)
    k = sel @ ones
    order = np.argsort(-k, kind="stable")
    kmax = int(k[order[0]])
    live = np.searchsorted(-k[order], -np.arange(kmax + 1), side="left").tolist()  # draws with k > t
    order = order[:live[0]]  # the draws that select at all
    u = u.take(order, axis=0)
    V = vecs * sel.take(order, axis=0)[:, None, :]
    norms = (V * V).sum(axis=2)
    # a draw reads only the vectors of its own earlier steps
    C = np.empty((len(order), kmax, n))
    mask = np.zeros((R, n), dtype=bool)
    rows = np.arange(len(order))
    for t in range(kmax):
        m = live[t]
        cum = np.cumsum(norms[:m], axis=1)
        x = (cum <= u[:m, t:t + 1] * cum[:, -1:]) @ ones
        mask[order[:m], x] = True
        # only the draws that select again read this step's update
        m = live[t + 1]
        if not m:
            break
        r, x = rows[:m], x[:m]
        c = np.matmul(V[:m], V[r, x][:, :, None])[:, :, 0]
        if t:
            c -= np.matmul(C[r, None, :t, x], C[:m, :t])[:, 0]
        c /= np.sqrt(norms[r, x])[:, None]
        C[:m, t] = c
        norms[:m] -= c * c
        norms[r, x] = 0.0
        np.maximum(norms[:m], 0.0, out=norms[:m])
    return mask
