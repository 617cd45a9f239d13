"""Probability calculus for determinantal scheduling laws.

Everything here operates on the kernel types from :mod:`detsched.kernels`:
containment and exact-outcome probabilities, full enumeration of the
outcome distribution, Palm conditioning (the law seen from a node known to
be scheduled), thinning-style kernel scaling, the Laplace functional of
the scheduled set, and exact sampling.
"""

from dataclasses import dataclass
from operator import itemgetter
from typing import Mapping, Union

import numpy as np

from . import _sampling
from .errors import (
    BadArgument,
    BadFunction,
    BadScaling,
    EnumerationTooLarge,
    NeverScheduled,
    SameNode,
)
from .kernels import LEnsemble, MarginalKernel, _NodeIndexed, _frozen

PALM_PIVOT_TOL = 1e-12
CLAMP_TOL = 1e-12
ENUMERATION_CAP = 20


@dataclass(frozen=True)
class PalmKernel(_NodeIndexed):
    """Marginal kernel of the scheduling law conditioned on given nodes.

    ``conditioned_on`` records the conditioning steps as (node, kind) pairs,
    where kind is "reduced" (node removed from the ground set) or
    "retained" (node kept, pinned as scheduled with probability one).
    """

    matrix: np.ndarray
    node_ids: tuple
    conditioned_on: tuple


AnyMarginal = Union[MarginalKernel, PalmKernel]


def _clamp01(x: float) -> float:
    if -CLAMP_TOL <= x < 0.0:
        return 0.0
    if 1.0 < x <= 1.0 + CLAMP_TOL:
        return 1.0
    return float(x)


def _minor(kernel, nodes) -> float:
    """Determinant of the kernel submatrix on ``nodes``; 1 for the empty set."""
    idx = kernel.indices(nodes)
    return float(np.linalg.det(kernel.matrix[np.ix_(idx, idx)])) if idx.size else 1.0


def inclusion_probability(K: AnyMarginal, nodes) -> float:
    """Probability that every node in ``nodes`` is scheduled together.

    The determinant of the kernel submatrix on ``nodes``; 1 for the empty
    set.
    """
    return _clamp01(_minor(K, nodes))


def subset_probability(L: LEnsemble, nodes) -> float:
    """Probability that the scheduled set is exactly ``nodes``.

    det(L restricted to nodes) / det(L + I).
    """
    return _clamp01(_minor(L, nodes) / L.normalization)


def exact_pmf_array(kernel, max_size: int = ENUMERATION_CAP) -> np.ndarray:
    """Exact outcome distribution as an array indexed by subset bitmask.

    Bit b of the index is position b of the kernel's node ordering.  All
    principal minors come from one Schur-complement recursion (Griffin &
    Tsatsomeros, Linear Algebra Appl. 419 (2006)): det(M[S + {b}]) is
    det(M[S]) times p, the leading entry of S's complement, held masks last
    in one (n - b, n - b, 2^b) array, and one rank-one downdate gives the
    complement of S + {b}.  Work is sum_k 2^k (n - k)^2; a pivot <= 0 marks
    a singular subset (in a PSD kernel, its supersets too).  Ground sets over
    ``max_size`` raise EnumerationTooLarge.
    """
    n = kernel.n
    if n > max_size:
        raise EnumerationTooLarge(f"ground set of {n} nodes exceeds cap {max_size}")
    out, comp = np.ones(1 << n), kernel.matrix[:, :, None]
    for b in range(n):
        m, prev = 1 << b, comp
        live = prev[0, 0] > 0.0
        out[m:2 * m] = np.where(live, out[:m] * prev[0, 0], 0.0)
        f = prev[1:, 0] / np.where(live, prev[0, 0], 1.0)
        comp = np.empty((n - b - 1, n - b - 1, 2 * m))
        comp[:, :, :m] = prev[1:, 1:]
        down = np.multiply(f[:, None], prev[0, 1:], out=comp[:, :, m:])
        np.subtract(prev[1:, 1:], down, out=down)
        down[:, :, ~live] = 0.0
    if isinstance(kernel, LEnsemble):
        out /= kernel.normalization
    else:
        # Moebius inversion: pair[:, 0] -= pair[:, 1], masks without and with bit b;
        # below bit 3 a pair fits a 64-byte line, so order F (a pass per column) wins
        for b in range(n):
            pair = out.reshape(-1, 2, 1 << b)
            np.subtract(pair[:, 0], pair[:, 1], out=pair[:, 0], order="F" if b < 3 else "K")
    out[(out < 0.0) & (out >= -CLAMP_TOL)] = 0.0
    return out


def exact_pmf(kernel, max_size: int = ENUMERATION_CAP) -> dict:
    """Exact outcome distribution as {sorted node-id tuple: probability}."""
    arr = exact_pmf_array(kernel, max_size)
    # subsets built over the ids in increasing order, so every key comes out
    # sorted, then placed in mask order (bit b is node_ids[b]); n >= 1, so
    # itemgetter gets at least two indices and returns a tuple
    ids = kernel.node_ids
    keys, masks = [()], np.zeros(1, dtype=np.intp)
    for b in sorted(range(len(ids)), key=ids.__getitem__):
        keys += [k + (ids[b],) for k in keys]
        masks = np.concatenate([masks, masks | (1 << b)])
    return dict(zip(itemgetter(*np.argsort(masks).tolist())(keys), arr.tolist()))


def _conditioning_of(kernel) -> tuple:
    return kernel.conditioned_on if isinstance(kernel, PalmKernel) else ()


def palm_reduced(kernel: AnyMarginal, node) -> PalmKernel:
    """Condition on ``node`` being scheduled and drop it from the ground set.

    Entries become K[z, z'] - K[z, x] K[z', x] / K[x, x] over the remaining
    nodes.  A node scheduled with probability below 1e-12 cannot be
    conditioned on and raises NeverScheduled.
    """
    idx = kernel.index(node)
    mat = kernel.matrix
    pivot = float(mat[idx, idx])
    if pivot <= PALM_PIVOT_TOL:
        raise NeverScheduled(
            f"node {node!r} has scheduling probability {pivot:.3g}, cannot condition on it"
        )
    keep = np.array([i for i in range(kernel.n) if i != idx], dtype=np.intp)
    col = mat[keep, idx]
    sub = mat[np.ix_(keep, keep)] - np.outer(col, col) / pivot
    sub = (sub + sub.T) / 2.0
    ids = tuple(kernel.node_ids[i] for i in keep)
    return PalmKernel(_frozen(sub), ids, _conditioning_of(kernel) + ((node, "reduced"),))


def palm_retained(kernel: AnyMarginal, node) -> PalmKernel:
    """Condition on ``node`` being scheduled but keep it in the ground set.

    Same off-node entries as the reduced form; the conditioned node keeps a
    diagonal entry of one and zero cross terms, pinning it as scheduled.
    """
    idx = kernel.index(node)
    reduced = palm_reduced(kernel, node).matrix
    out = np.insert(np.insert(reduced, idx, 0.0, axis=0), idx, 0.0, axis=1)
    out[idx, idx] = 1.0
    return PalmKernel(
        _frozen(out), kernel.node_ids, _conditioning_of(kernel) + ((node, "retained"),)
    )


def palm_semi_reduced(kernel: AnyMarginal, first, second) -> PalmKernel:
    """Two-fold Palm kernel: reduce at ``first``, then retain at ``second``.

    The result lives on the ground set without ``first``; ``second`` stays,
    pinned as scheduled.  Raises NeverScheduled if either conditioning
    pivot is below tolerance, SameNode if the two nodes coincide.
    """
    if first == second:
        raise SameNode(f"need two distinct nodes, got {first!r} twice")
    step1 = palm_reduced(kernel, first)
    return palm_retained(step1, second)


def _matrix_and_ids(kernel_or_matrix):
    if isinstance(kernel_or_matrix, _NodeIndexed):
        return kernel_or_matrix.matrix, kernel_or_matrix.node_ids
    a = np.asarray(kernel_or_matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise BadArgument(f"expected a square matrix, got shape {a.shape}")
    return a, tuple(range(a.shape[0]))


def _per_node_values(values, ids, n: int, what: str, err) -> np.ndarray:
    if isinstance(values, Mapping):
        try:
            vec = np.array([float(values[x]) for x in ids], dtype=float)
        except KeyError as e:
            raise err(f"no {what} value for node {e.args[0]!r}") from None
    else:
        vec = np.asarray(values, dtype=float)
        if vec.shape != (n,):
            raise err(f"expected {n} {what} values, got shape {vec.shape}")
    return vec


def scale_kernel(kernel_or_matrix, weights) -> np.ndarray:
    """Scale a marginal kernel by per-node weights in [0, 1].

    Entry (i, j) becomes sqrt(1 - w_i) * K_ij * sqrt(1 - w_j).  With w_i
    the probability of independently dropping node i, this is the marginal
    kernel of the thinned law; determinants of I minus the scaled kernel
    give averages of products of the weights over the scheduled set.
    Returns a plain array; weights outside [0, 1] (beyond a 1e-12 slack)
    raise BadScaling.
    """
    mat, ids = _matrix_and_ids(kernel_or_matrix)
    n = mat.shape[0]
    vec = _per_node_values(weights, ids, n, "scaling", BadScaling)
    outside = ~((vec >= -CLAMP_TOL) & (vec <= 1.0 + CLAMP_TOL))
    if outside.any():
        raise BadScaling(f"scaling values must lie in [0, 1], found {float(vec[outside][0])!r}")
    s = np.sqrt(1.0 - np.clip(vec, 0.0, 1.0))
    return mat * np.outer(s, s)


def laplace_functional(kernel_or_matrix, rates) -> float:
    """Expected value of exp(-sum of rates over the scheduled nodes).

    Computed as det(I - K') where K' scales the marginal kernel by factors
    sqrt(1 - exp(-rate)) per node.  Rates must be nonnegative; infinite
    rates are allowed and pin the factor at 1.
    """
    mat, ids = _matrix_and_ids(kernel_or_matrix)
    n = mat.shape[0]
    vec = _per_node_values(rates, ids, n, "rate", BadFunction)
    if np.any(np.isnan(vec)) or np.any(vec < 0):
        raise BadFunction("rates must be nonnegative")
    scaled = scale_kernel(mat, np.exp(-vec))
    return _clamp01(float(np.linalg.det(np.eye(n) - scaled)))


def sample_mask(L: LEnsemble, rng: np.random.Generator) -> np.ndarray:
    """One exact draw of the scheduled set, as a boolean mask over positions.

    Spectral two-phase sampler: a Bernoulli coin per eigenvector with
    success rate x / (1 + x), then sequential point selection inside the
    sampled eigenspace.  Consumes n uniforms plus one per scheduled node.
    """
    if not isinstance(L, LEnsemble):
        raise BadArgument("sampling needs a likelihood kernel (LEnsemble)")
    vals, vecs = L.eigh
    return _sampling.draw_mask(vals, vecs, rng)


def sample(L: LEnsemble, rng: np.random.Generator) -> tuple:
    """One exact draw of the scheduled set, as a sorted tuple of node ids."""
    mask = sample_mask(L, rng)
    return tuple(sorted(L.node_ids[i] for i in np.flatnonzero(mask)))
