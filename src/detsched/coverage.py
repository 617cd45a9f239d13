"""Closed-form SINR coverage under determinantal scheduling.

The central quantity: the probability a link's SINR clears the threshold,
averaged over both the random medium access (who transmits this slot) and
exponential fading.  Conditioning on the intended transmitter being
scheduled turns the access law into its Palm version, and the fading
average factors into one discount per interferer, so the whole coverage
probability collapses to a determinant of a scaled Palm kernel times a
noise discount.  Local delay statistics follow from coverage through the
geometric law of the first successful slot.

Every link is one row (transmitter, receiver slot, silent node) of the
geometry's link table.  ``full_report`` runs ``_evaluate`` on the whole
table and each public per-link function on the row that
``NetworkGeometry.link`` resolves its arguments to, after
``propagation._require`` checks the kernel.  In txrx mode
the receiving node belongs to the scheduled set and must stay silent.
In the Laplace functional that is an infinite rate at the node: its
discount is 0, so the same determinant gives the probability, given the
transmitter is scheduled, that the link is covered and the node silent,
and dividing by the probability the node is silent conditions on it.  A
pairs link has no silent node (-1), so neither step applies and the same
code computes the plain Palm determinant.

``_evaluate`` runs blocks of rows through three stages, ``_discounts``,
``_palms`` and ``_scaled``, then takes one stacked determinant, and
``coverage_kernel`` runs the same stages.  They repeat the floating-point
operations of the scalar functions they replace (``palm_reduced``,
``scale_kernel``, ``interferer_factor``, ``noise_factor``), so results
equal theirs bit for bit, and call them to re-raise a link's failure
with the same type and message.  perfbench's tracer wraps these names
here, so they stay module attributes, ``palm_semi_reduced`` too: nothing
here calls it, but ``perfbench/run.py --trace 1`` wraps it and fails
without it.
"""

import hashlib
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dpp import CLAMP_TOL, PALM_PIVOT_TOL, palm_reduced, palm_semi_reduced, scale_kernel
from .errors import AlwaysScheduledReceiver, BadArgument, DetschedError
from .kernels import MarginalKernel
from .propagation import (
    NetworkGeometry,
    PropagationParams,
    _channel,
    _is_int,
    _require,
    interferer_factor,
    noise_factor,
)


def _link(geometry, K, mode: str, transmitter, receiver=None) -> tuple:
    _require(geometry, K, mode)
    return geometry.link(transmitter, receiver)


# Links are evaluated in blocks whose stacked matrices, one (n-1) x (n-1)
# matrix per link, stay near this many bytes each.  512 KB: 256 KB left
# blocks of 3 links at n = 100, and a block's few stacked temporaries
# still fit a 2 MB L2 cache.
_BLOCK_BYTES = 1 << 19

# a failed row's arithmetic may divide by zero; its error is its result
_quiet = np.errstate(divide="ignore", invalid="ignore", over="ignore")


def _selections(K: MarginalKernel, rows: np.ndarray) -> np.ndarray:
    """Probability each row's transmitter is scheduled and its silent node
    (if any, i.e. s >= 0) is not, floored at 0."""
    t, s = rows[:, 0], rows[:, 2]
    mat = K.matrix
    sel = mat[t, t]
    silent = s >= 0
    if silent.any():
        ts = np.stack([t[silent], s[silent]], axis=1)
        sel[silent] -= np.linalg.det(mat[ts[:, :, None], ts[:, None, :]])
    return np.maximum(sel, 0.0)


def _raised(fn, *args) -> DetschedError:
    """The error the scalar ``fn(*args)`` raises.  The batched pass only
    detects a failure; the scalar call reproduces its type and message."""
    try:
        fn(*args)
    except DetschedError as e:
        return e
    raise AssertionError(f"{fn.__name__} did not fail where the batched pass did")


def _discounts(K, params, channel, t, s, c, err: dict) -> tuple:
    """Silent-node probabilities q, noise discounts w and interferer
    discounts h (a column per node other than t) of rows (t, ., s) at the
    channel columns ``c``.  Each row's first failure goes to ``err``, in
    the scalar order: pivot, silent node, signal, interferers by node."""
    mat, theta = K.matrix, params.threshold
    dist, loss, drowned = channel
    piv = mat[t, t]
    for k in np.flatnonzero(piv <= PALM_PIVOT_TOL).tolist():
        err[k] = _raised(palm_reduced, K, K.node_ids[t[k]])
    q = np.where(s >= 0, mat[s, s] - mat[s, t] * mat[s, t] / piv, 0.0)
    for k in np.flatnonzero(q >= 1.0 - CLAMP_TOL).tolist():
        err.setdefault(k, AlwaysScheduledReceiver(
            f"node {int(s[k])} transmits with conditional probability "
            f"{float(q[k]):.12g}, so it can never listen"))
    d_sig = dist[t, c]
    signal = loss[t, c]
    for k in np.flatnonzero(~(signal > 0)).tolist():
        if k not in err:
            err[k] = _raised(noise_factor, float(d_sig[k]), params)
    if theta == 0 or params.noise == 0:
        w = np.ones(len(t))
    else:
        # noise_factor's exponent, its operations in its order
        rate = -(theta / params.fading_mean) * params.noise
        w = np.array([math.exp(rate / x) if x > 0 else 1.0 for x in signal.tolist()])
    j = np.arange(K.n - 1)
    ob = j + (j >= t[:, None])
    if theta == 0:
        h = np.ones(ob.shape)
    else:
        h = 1.0 / (theta * loss[ob, c[:, None]] / signal[:, None] + 1.0)
    h[drowned[ob, c[:, None]]] = 0.0
    h[ob == s[:, None]] = 0.0  # the silent node, whatever its loss
    for k in np.flatnonzero(np.isnan(h).any(axis=1)).tolist():
        if k not in err:
            z = int(ob[k, np.flatnonzero(np.isnan(h[k]))[0]])
            err[k] = _raised(interferer_factor, float(dist[z, c[k]]), float(d_sig[k]), params)
    return q, w, h


def _palms(mat: np.ndarray, tx: np.ndarray) -> np.ndarray:
    """One-fold Palm kernels of ``mat`` at each node in ``tx``, stacked, by
    the operations of ``palm_reduced`` (downdate, then symmetrize), so the
    entries match it bit for bit."""
    n = mat.shape[0]
    sub = np.empty((len(tx), n - 1, n - 1))
    col = np.empty((len(tx), n - 1))
    for k, t in enumerate(tx.tolist()):
        # the kernel without row and column t, as four slices
        sub[k, :t, :t] = mat[:t, :t]
        sub[k, :t, t:] = mat[:t, t + 1:]
        sub[k, t:, :t] = mat[t + 1:, :t]
        sub[k, t:, t:] = mat[t + 1:, t + 1:]
        col[k, :t], col[k, t:] = mat[:t, t], mat[t + 1:, t]
    out = col[:, :, None] * col[:, None, :]
    out /= mat[tx, tx][:, None, None]
    np.subtract(sub, out, out=out)
    return (out + out.swapaxes(1, 2)) / 2.0


def _scaled(P: np.ndarray, h: np.ndarray, err: dict) -> np.ndarray:
    """I - K'_h for each stacked Palm kernel P[k] and its discounts h[k],
    by the operations of ``scale_kernel``, whose error a row gets if its
    discounts leave [0, 1] by more than CLAMP_TOL."""
    outside = ((h < -CLAMP_TOL) | (h > 1.0 + CLAMP_TOL)).any(axis=1)
    for k in np.flatnonzero(outside).tolist():
        if k not in err:
            err[k] = _raised(scale_kernel, P[k], h[k])
    root = np.sqrt(1.0 - np.clip(h, 0.0, 1.0))
    A = root[:, :, None] * root[:, None, :]
    A *= P
    return np.subtract(np.eye(P.shape[1]), A, out=A)


def _blocks(geometry, K, params, rows: np.ndarray):
    """Per block of ``rows``: its offset, its rows' errors by position, the
    factors w / (1 - q) and the stacked I - K'_h.  The path losses come
    from one channel table to the rows' receiver slots, and each
    transmitter of a block gets one Palm downdate."""
    slots, col_of = np.unique(rows[:, 1], return_inverse=True)
    channel = _channel(params.pathloss, geometry.transmitter_points(),
                       geometry.receiver_points()[slots])
    step = max(1, _BLOCK_BYTES // (8 * max(K.n - 1, 1) ** 2))
    for lo in range(0, len(rows), step):
        t, _, s = rows[lo:lo + step].T
        err = {}
        q, w, h = _discounts(K, params, channel, t, s, col_of[lo:lo + step], err)
        tx, tx_of = np.unique(t, return_inverse=True)
        # held until the next block's exists: freed first, it cost 1.7x
        # the page faults at n = 100
        P = _palms(K.matrix, tx)[tx_of]
        yield lo, err, w / (1.0 - q), _scaled(P, h, err)


@_quiet
def _evaluate(geometry, K, params, rows: np.ndarray) -> list:
    """Unclamped coverage of each link-table row (t, p, s) given t scheduled
    and s (if s >= 0) silent: det(I - K'_h) w / (1 - q), or its failure."""
    out = [None] * len(rows)
    for lo, err, factor, A in _blocks(geometry, K, params, rows):
        raw = (factor * np.linalg.det(A)).tolist()
        out[lo:lo + len(raw)] = [err.get(k, v) for k, v in enumerate(raw)]
    return out


def _unit(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def _one(geometry, K, params, row: tuple):
    """``_evaluate`` on one link-table row, raising the row's error."""
    out = _evaluate(geometry, K, params, np.array([row]))[0]
    if isinstance(out, DetschedError):
        raise out
    return out


def _coverage(geometry, K, params, row: tuple) -> float:
    sel = float(_selections(K, np.array([row]))[0])
    if sel <= PALM_PIVOT_TOL:
        return 0.0
    return sel * _unit(_one(geometry, K, params, row))


def conditional_pair_coverage(
    geometry: NetworkGeometry, K: MarginalKernel, link: int, params: PropagationParams
) -> float:
    """Coverage of dedicated link ``link`` given its transmitter is scheduled.

    det(I - Palm kernel scaled by the interferer discounts) times the noise
    discount, clamped to [0, 1].  The Palm step raises NeverScheduled for a
    transmitter with zero scheduling probability.
    """
    return _unit(_one(geometry, K, params, _link(geometry, K, "pairs", link)))


def pair_coverage(
    geometry: NetworkGeometry, K: MarginalKernel, link: int, params: PropagationParams
) -> float:
    """Unconditional coverage of dedicated link ``link``.

    Scheduling probability times conditional coverage; exactly 0 for a
    never-scheduled transmitter.
    """
    return _coverage(geometry, K, params, _link(geometry, K, "pairs", link))


@_quiet
def coverage_kernel(
    geometry: NetworkGeometry, K: MarginalKernel, link: int, params: PropagationParams
) -> np.ndarray:
    """Single matrix whose determinant is the unconditional pair coverage.

    Block structure on the full ground set: the scaled-Palm block
    I - K'{h} on the other nodes, the entry w * K_ll at (link, link), and
    zero cross terms.
    """
    row = _link(geometry, K, "pairs", link)
    [(_, err, w, block)] = _blocks(geometry, K, params, np.array([row]))
    if err:
        raise err[0]
    out = np.insert(np.insert(block[0], link, 0.0, axis=0), link, 0.0, axis=1)
    out[link, link] = w[0] * float(K.matrix[link, link])
    return out


def txrx_conditional_coverage(
    geometry: NetworkGeometry,
    K: MarginalKernel,
    transmitter: int,
    receiver: int,
    params: PropagationParams,
) -> float:
    """Coverage of the link transmitter -> receiver, given the transmitter
    is scheduled and the receiver is not.

    Both nodes belong to the same scheduled set, so the receiver must stay
    silent: the one-fold Palm determinant with the receiver's discount set
    to 0, divided by the conditional probability the receiver stays
    silent, clamped to [0, 1].  The receiver's path loss to itself is never
    evaluated.
    """
    return _unit(_one(geometry, K, params, _link(geometry, K, "txrx", transmitter, receiver)))


def txrx_coverage(
    geometry: NetworkGeometry,
    K: MarginalKernel,
    transmitter: int,
    receiver: int,
    params: PropagationParams,
) -> float:
    """Unconditional coverage of the link transmitter -> receiver.

    Probability the transmitter is scheduled and the receiver silent,
    times the conditional coverage; exactly 0 when that event has
    (near-)zero probability.
    """
    return _coverage(geometry, K, params, _link(geometry, K, "txrx", transmitter, receiver))


def _fitted(slots):
    """``slots``, or inf past the largest double, where the formulas reach their limits."""
    return slots if slots <= sys.float_info.max else math.inf


@dataclass(frozen=True)
class LocalDelay:
    """Slots until first success for a link with per-slot coverage p."""

    success_probability: float
    mean: float

    def cdf(self, slots: int) -> float:
        """Probability of at least one success within ``slots`` attempts."""
        if not _is_int(slots) or slots < 0:
            raise BadArgument(f"slot count must be a nonnegative integer, got {slots!r}")
        return 1.0 - (1.0 - self.success_probability) ** _fitted(slots)


def local_delay(coverage_probability: float) -> LocalDelay:
    """Geometric local delay for i.i.d. slots with the given coverage.

    Mean 1/p; infinite mean when the link is never covered.
    """
    p = float(coverage_probability)
    if not (0.0 <= p <= 1.0):
        raise BadArgument(f"coverage probability must lie in [0, 1], got {p!r}")
    mean = math.inf if p == 0.0 else 1.0 / p
    return LocalDelay(success_probability=p, mean=mean)


def min_coverage_for_success(epsilon: float, slots: int) -> float:
    """Smallest per-slot coverage giving success probability ``epsilon``
    within ``slots`` attempts: 1 - (1 - epsilon) ** (1 / slots)."""
    e = float(epsilon)
    if not (0.0 <= e < 1.0):
        raise BadArgument(f"target probability must lie in [0, 1), got {epsilon!r}")
    if not _is_int(slots) or slots < 1:
        raise BadArgument(f"slot count must be a positive integer, got {slots!r}")
    return 1.0 - (1.0 - e) ** (1.0 / _fitted(slots))


@dataclass(frozen=True)
class LinkReport:
    transmitter: int
    receiver: Optional[int]
    selection_probability: float
    conditional_coverage: Optional[float]
    coverage: Optional[float]
    delay_mean: Optional[float]
    flags: tuple = ()
    error: Optional[str] = None


@dataclass(frozen=True)
class CoverageReport:
    mode: str
    links: tuple
    kernel_fingerprint: str
    params: PropagationParams


def kernel_fingerprint(K: MarginalKernel) -> str:
    h = hashlib.sha256()
    h.update(str(K.matrix.shape).encode())
    h.update(np.ascontiguousarray(K.matrix).tobytes())
    return h.hexdigest()


def _link_reports(geometry, K, params, rows: np.ndarray) -> tuple:
    """One LinkReport per link-table row; per-link failures become error
    strings."""
    sel = _selections(K, rows)
    scheduled = sel > PALM_PIVOT_TOL
    raws = iter(_evaluate(geometry, K, params, rows[scheduled]))
    out = []
    for (t, p, s), q, ok in zip(rows.tolist(), sel.tolist(), scheduled.tolist()):
        rx = None if s < 0 else p
        if not ok:
            never = float(K.matrix[t, t]) <= PALM_PIVOT_TOL
            flag = "never_scheduled" if never else "receiver_always_scheduled"
            out.append(LinkReport(t, rx, q, None, 0.0, math.inf, flags=(flag,)))
            continue
        raw = next(raws)
        if isinstance(raw, DetschedError):
            out.append(LinkReport(t, rx, q, None, None, None, error=str(raw)))
            continue
        cond = _unit(raw)
        flags = ("clamped",) if abs(raw - cond) > 1e-9 else ()
        cov = q * cond
        # local_delay's mean; cov lies in [0, 1] by construction
        delay = math.inf if cov == 0.0 else 1.0 / cov
        out.append(LinkReport(t, rx, q, cond, cov, delay, flags=flags))
    return tuple(out)


def full_report(
    geometry: NetworkGeometry, K: MarginalKernel, params: PropagationParams
) -> CoverageReport:
    """Coverage, conditional coverage, and mean delay for every link.

    One entry per row of the geometry's link table: per dedicated link in
    pairs mode, per ordered node pair in txrx mode.  Per-link failures are
    captured as error strings rather than aborting the report.
    """
    _require(geometry, K)
    links = _link_reports(geometry, K, params, geometry.links())
    return CoverageReport(
        mode=geometry.mode,
        links=links,
        kernel_fingerprint=kernel_fingerprint(K),
        params=params,
    )
