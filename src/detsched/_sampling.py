"""Spectral DPP sampler (Kulesza & Taskar, Alg. 1).

Phase 1 keeps each eigenvector of the marginal kernel with probability its
eigenvalue; phase 2 selects one point per kept eigenvector from the
projection kernel they span, by incremental Gram-Schmidt on its rows
(Tremblay, Barthelme & Amblard, "Optimized algorithms to sample determinantal
point processes"), O(n k^2) for k kept eigenvectors.  Each step keeps the
squared residual norm of every row, picks the first row whose cumulative mass
exceeds u * total (so a zero-mass row is never picked), and projects the
picked row out of the rest.

Single draws (``draw_mask``) and blocks of draws (``select_block``) pick the
same points from the same uniforms, summing in different orders.  The block
form pays numpy's per-call overhead once per step for the whole block and
copies no eigenvectors per draw: a step's first projection is one product of
the live draws' coin-weighted picked rows with the shared ``vecs``.  Its
Gram-Schmidt vectors are stored (draw, step, point), so the second projection
is ``np.matmul`` over the draws' contiguous prefixes of steps, and a step's
update runs only for the draws that select again (``live[t + 1]``).
"""

import math
from bisect import bisect_right
from itertools import accumulate

import numpy as np

# The sampler is numpy only; the benchmark's provenance line reads this name
# to report the backend.
njit = None


# The clamp's zero as a 0-d array: numpy converts a Python float operand on
# every call, which costs more than the clamp itself at small n.
_ZERO = np.zeros(())
_ZERO.flags.writeable = False


def _select(V: np.ndarray, u) -> list:
    """Phase 2 of one draw: indices picked from the projection kernel V V^T.

    ``V`` is (n, k) with orthonormal columns; step t is driven by ``u[t]``.
    Each step costs a fixed dozen numpy calls, so they take the routes with
    the least dispatch: ``ndarray.dot`` for ``@`` (the same gemv) and
    in-place updates.
    """
    n, k = V.shape
    norms = (V * V).sum(axis=1)
    C = np.empty((n, k))
    chosen = []
    for t in range(k):
        w = norms.tolist()
        cum = list(accumulate(w))
        x = bisect_right(cum, u[t] * cum[-1])
        chosen.append(x)
        if t + 1 == k:
            break
        c = V.dot(V[x])
        if t:
            c -= C[:, :t].dot(C[x, :t])
        c /= math.sqrt(w[x])
        C[:, t] = c
        c *= c
        norms -= c
        norms[x] = 0.0
        np.maximum(norms, _ZERO, out=norms)
    return chosen


def draw_mask(mu: np.ndarray, vecs: np.ndarray, rng) -> np.ndarray:
    """One scheduling draw as a boolean mask over ground-set positions.

    ``mu``/``vecs`` are the eigendecomposition of the marginal kernel.
    Consumes n uniforms for the eigenvector coin flips, then one per
    selected point.
    """
    n = mu.shape[0]
    V = vecs.compress(rng.random(n) < mu, axis=1)
    mask = np.zeros(n, dtype=bool)
    k = V.shape[1]
    if k == 0:
        return mask
    # k scalar stores cost less than one fancy-index store, which converts
    # the list first, below k of about 40
    for x in _select(V, rng.random(k).tolist()):
        mask[x] = True
    return mask


def select_block(vecs: np.ndarray, sel: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Phase 2 of R draws at once, as an (R, n) boolean mask.

    ``sel`` is the (R, n) phase-1 outcome and draw r is driven by
    ``u[r, :k_r]`` for its k_r kept eigenvectors, picking what ``draw_mask``
    would.  With S the coins as floats draw r keeps ``vecs * S[r]``, so the
    norms start at ``S @ (vecs * vecs).T`` and a step's first projection is
    ``(vecs[x] * S[:m]) @ vecs.T`` for all m live draws: the draws run in
    decreasing k, so the live ones are a leading slice.  ``C[r, t]`` is draw
    r's step-t Gram-Schmidt vector.
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
    S = sel.take(order, axis=0).astype(float)
    norms = S @ (vecs * vecs).T
    # a draw reads only the vectors of its own earlier steps
    C = np.empty((len(order), kmax, n))
    mask = np.zeros((R, n), dtype=bool)
    rows = np.arange(len(order))
    flat, base = norms.reshape(-1), rows * n  # norms[r, x] is flat[base[r] + x]
    for t in range(kmax):
        m = live[t]
        cum = norms[:m].cumsum(axis=1)
        x = (cum <= u[:m, t:t + 1] * cum[:, -1:]) @ ones
        mask[order[:m], x] = True
        # only the draws that select again read this step's update
        m = live[t + 1]
        if not m:
            break
        x = x[:m]
        i = base[:m] + x
        c = (vecs.take(x, axis=0) * S[:m]) @ vecs.T
        if t:
            c -= np.matmul(C[rows[:m], None, :t, x], C[:m, :t])[:, 0]
        c /= np.sqrt(flat.take(i))[:, None]
        C[:m, t] = c
        live_norms = norms[:m]
        live_norms -= c * c
        np.maximum(live_norms, _ZERO, out=live_norms)
        flat[i] = 0.0
    return mask
