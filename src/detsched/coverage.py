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
geometry's link table.  ``_link_table`` runs ``_evaluate`` on a set of rows
against the geometry's ``propagation._channel_table``, which its caller
builds once, and builds the report from it as columns, one array or list
per ``LinkReport`` field: ``full_report`` fills its ``LinkReport``s from
the whole table's columns, and the CLI writes the columns as they are.
Each public per-link function runs ``_evaluate`` on the row that
``NetworkGeometry.link`` resolves its arguments to, after
``propagation._require`` checks the kernel, against the channel table of
that row's receiver slot alone, n path losses.  In txrx mode
the receiving node belongs to the scheduled set and must stay silent.
In the Laplace functional that is an infinite rate at the node: its
discount is 0, so the same determinant gives the probability, given the
transmitter is scheduled, that the link is covered and the node silent,
and dividing by the probability the node is silent conditions on it.  A
pairs link has no silent node (-1), so neither step applies and the same
code computes the plain Palm determinant.

Values take one batched route, errors one scalar chain.  ``_evaluate``
runs blocks of rows through ``_discounts`` (w, h and the silent node's q by
the operations of ``noise_factor`` and ``interferer_factor``, and the rows
that fail) and ``_bordered``, then one stacked determinant: M = I - R K R
with r_j = sqrt(1 - h_j), r_t = K_tt^(-1/2) and M[t, t] = -1, where by the
Schur complement on entry t, -det(M) = det(I - K'_h) for the Palm kernel K'
at t, so a row's value -w det(M) / (1 - q) needs no downdate.
``_silence`` is the one home of the silent node's q and 1 - q and of a
row's selection probability, for ``_discounts``, the report's flags and
the per-link coverage.
``_palm_chain`` is the paper's chain (``palm_reduced`` to ``scale_kernel``):
``_failure`` replays a failed row through it for its error, and
``coverage_kernel`` builds its block from it.  perfbench's tracer wraps
these names here, so they stay module attributes, ``palm_semi_reduced``
too, which nothing here calls.
"""

import hashlib
import math
import sys
from dataclasses import dataclass
from itertools import repeat
from typing import Optional

import numpy as np

from .dpp import CLAMP_TOL, PALM_PIVOT_TOL, palm_reduced, palm_semi_reduced, scale_kernel
from .errors import AlwaysScheduledReceiver, BadArgument, DetschedError
from .kernels import MarginalKernel
from .propagation import (
    NetworkGeometry,
    PropagationParams,
    _channel_table,
    _is_int,
    _require,
    interferer_factor,
    noise_factor,
)


def _link(geometry, K, mode: str, transmitter, receiver=None) -> tuple:
    _require(geometry, K, mode)
    return geometry.link(transmitter, receiver)


# Links are evaluated in blocks whose stacked matrices, one n x n bordered
# matrix per link, stay near this many bytes each.  512 KB: 256 KB left
# blocks of 3 links at n = 100, and a block's few stacked temporaries
# still fit a 2 MB L2 cache.
_BLOCK_BYTES = 1 << 19


# a pivot K_tt of 0 gives q and 1 - q of inf or NaN, read only where K_tt fails
@np.errstate(divide="ignore", invalid="ignore")
def _silence(mat: np.ndarray, t, s) -> tuple:
    """Per row (t, ., s), s = -1 for none: K_tt; q, the probability that s
    is scheduled given t is (0 without s); 1 - q, summed as (1 - K_ss) +
    K_st^2 / K_tt without q's cancellation near 1 (1 without s); and the
    selection probability that t is scheduled and s is not, K_tt - det(K on
    {t, s}) summed as K_tt (1 - K_ss) + K_st^2 (K_tt without s), floored at
    0.  ``t`` and ``s`` are arrays of rows or one row's ints; s = -1 reads
    K's last row, which np.where drops."""
    piv, kss, kst = mat[t, t], mat[s, s], mat[s, t]
    has, st2 = s >= 0, kst * kst
    ratio = st2 / piv
    q = np.where(has, kss - ratio, 0.0)
    free = np.where(has, (1.0 - kss) + ratio, 1.0)
    sel = np.maximum(np.where(has, piv * (1.0 - kss) + st2, piv), 0.0)
    return piv, q, free, sel


def _discounts(K, params, channel, t, s, c) -> tuple:
    """Probabilities 1 - q that the silent node stays silent given t
    scheduled (1 without one), noise discounts w, interferer discounts h (a
    column per node, 0 at t and where the node deafens the slot, the silent
    node included) and the failed mask of rows (t, ., s) at the channel
    columns ``c``.  A row fails on a pivot at most PALM_PIVOT_TOL, q within
    CLAMP_TOL of 1, a signal loss not above 0, or a discount that is NaN or
    leaves [0, 1] by more than CLAMP_TOL."""
    mat, theta, loss = K.matrix, params.threshold, channel.loss
    piv, q, free, _ = _silence(mat, t, s)
    signal = loss[t, c]
    if theta == 0 or params.noise == 0:
        w = np.ones(len(t))
    else:
        # noise_factor's exponent, its operations in its order
        rate = -(theta / params.fading_mean) * params.noise
        w = np.array([math.exp(rate / x) if x > 0 else 1.0 for x in signal.tolist()])
    if theta == 0:
        h = np.ones((len(t), K.n))
    else:
        h = 1.0 / (theta * loss.T[c] / signal[:, None] + 1.0)
    h[channel.deafening.T[c]] = 0.0
    h[np.arange(len(t)), t] = 0.0
    inside = ((h >= -CLAMP_TOL) & (h <= 1.0 + CLAMP_TOL)).all(axis=1)
    failed = (piv <= PALM_PIVOT_TOL) | (q >= 1.0 - CLAMP_TOL) | ~(signal > 0) | ~inside
    return free, w, h, failed


def _palm_chain(K, params, dist: np.ndarray, t: int, s: int) -> tuple:
    """(w, K'_h) of row (t, ., s) at distances ``dist`` to its receiver slot:
    Palm step, silent node, noise, interferers by node (0 at the silent
    node), scaling; raises the row's first error in that order."""
    P = palm_reduced(K, K.node_ids[t]).matrix
    if s >= 0:
        q = float(P[s - (s > t), s - (s > t)])
        if q >= 1.0 - CLAMP_TOL:
            raise AlwaysScheduledReceiver(
                f"node {s} transmits with conditional probability {q:.12g}, "
                "so it can never listen")
    d_sig = float(dist[t])
    w = noise_factor(d_sig, params)
    h = [0.0 if z == s else interferer_factor(float(dist[z]), d_sig, params)
         for z in range(K.n) if z != t]
    return w, scale_kernel(P, h)


def _failure(K, params, dist: np.ndarray, t: int, s: int) -> DetschedError:
    """The first error of row (t, ., s) in ``_palm_chain``."""
    try:
        _palm_chain(K, params, dist, t, s)
    except DetschedError as e:
        return e
    raise AssertionError(f"row ({t}, ., {s}) failed in the batched pass only")


def _bordered(mat: np.ndarray, h: np.ndarray, t: np.ndarray) -> np.ndarray:
    """M = I - R K R per row of discounts h, r_j = sqrt(1 - h_j) and
    r_t = K_tt^(-1/2), with M[t, t] = -1 set directly (r_t K_tt r_t need not
    round to 1); row and column t stay within 1 in size for any K_tt."""
    root = np.sqrt(1.0 - np.clip(h, 0.0, 1.0))
    k = np.arange(len(t))
    root[k, t] = 1.0 / np.sqrt(mat[t, t])
    A = root[:, :, None] * mat
    A *= root[:, None, :]
    A = np.subtract(np.eye(len(mat)), A, out=A)
    A[k, t, t] = -1.0
    return A


# a failed row's arithmetic may divide by zero; its error is its result
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _evaluate(K, params, channel, rows: np.ndarray) -> tuple:
    """(raw, failures): the unclamped coverage of each row (t, c, s) given t
    scheduled and s (if s >= 0) silent, its receiver slot column c of the
    ``_channel_table`` ``channel``, -det(M) w / (1 - q) with M from
    ``_bordered``, and {row index: error} for the rows that fail, whose raw
    value means nothing."""
    step = max(1, _BLOCK_BYTES // (8 * K.n ** 2))
    raw, failures, mat = np.empty(len(rows)), {}, K.matrix
    for lo in range(0, len(rows), step):
        t, c, s = rows[lo:lo + step].T
        free, w, h, failed = _discounts(K, params, channel, t, s, c)
        # + 0.0 turns a -0.0 product into 0.0 and keeps every other value
        raw[lo:lo + step] = -(w / free) * np.linalg.det(_bordered(mat, h, t)) + 0.0
        for k in np.flatnonzero(failed).tolist():
            failures[lo + k] = _failure(K, params, channel.dist[:, c[k]], int(t[k]), int(s[k]))
    return raw, failures


def _unit(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def _one(geometry, K, params, row: tuple):
    """``_evaluate`` on one link-table row (t, p, s) against the channel
    table of its slot p alone, n path losses, raising the row's error."""
    t, p, s = row
    channel = _channel_table(geometry, params.pathloss, [p])
    raw, failures = _evaluate(K, params, channel, np.array([(t, 0, s)]))
    if failures:
        raise failures[0]
    return float(raw[0])


def _coverage(geometry, K, params, row: tuple) -> float:
    sel = float(_silence(K.matrix, row[0], row[2])[3])
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


def coverage_kernel(
    geometry: NetworkGeometry, K: MarginalKernel, link: int, params: PropagationParams
) -> np.ndarray:
    """Single matrix whose determinant is the unconditional pair coverage.

    Block structure on the full ground set: the scaled-Palm block
    I - K'{h} on the other nodes, the entry w * K_ll at (link, link), and
    zero cross terms.
    """
    t, p, s = _link(geometry, K, "pairs", link)
    dist = _channel_table(geometry, params.pathloss, [p]).dist
    w, scaled = _palm_chain(K, params, dist[:, 0], t, s)
    out = np.insert(np.insert(np.eye(K.n - 1) - scaled, t, 0.0, axis=0), t, 0.0, axis=1)
    out[t, t] = w * float(K.matrix[t, t])
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
        p = self.success_probability
        if p == 0.0 or slots == 0:
            return 0.0
        # 1 - (1 - p)^slots without the rounding of 1 - p, which a small p loses
        return 1.0 if p == 1.0 else -math.expm1(_fitted(slots) * math.log1p(-p))

    def capped_mean(self, cap: int) -> float:
        """Mean of min(D, cap), the first-success slot D censored at ``cap``
        as a simulation records it: (1 - (1 - p)^cap) / p, the cap at p = 0.
        Equal to ``mean`` wherever (1 - p)^cap rounds away against 1."""
        if not _is_int(cap) or cap < 1:
            raise BadArgument(f"slot cap must be a positive integer, got {cap!r}")
        p = self.success_probability
        if p == 0.0 or cap == 1:
            return float(_fitted(cap))  # min(D, cap) is the cap itself
        return self.cdf(cap) / p


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
    return -math.expm1(math.log1p(-e) / _fitted(slots))


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


# a never-covered row's delay mean is 1 / 0, infinite
@np.errstate(divide="ignore")
def _link_table(geometry, K, params, channel, rows: np.ndarray) -> dict:
    """The report on link-table rows ``rows`` as columns, {LinkReport field:
    values in row order}, read from ``channel``, the geometry's full
    ``_channel_table``.  The four number columns are float arrays with NaN
    where a row has no value; no value is NaN otherwise, as a NaN discount
    fails its row.  A row whose selection probability K_tt (1 - q) is at
    most PALM_PIVOT_TOL is flagged by its smaller factor; a failed row holds
    its error string."""
    n = len(rows)
    piv, _, free, sel = _silence(K.matrix, rows[:, 0], rows[:, 2])
    scheduled = sel > PALM_PIVOT_TOL
    raw = np.full(n, np.nan)
    raw[scheduled], failures = _evaluate(K, params, channel, rows[scheduled])
    failed = np.flatnonzero(scheduled)[list(failures)]
    raw[failed] = np.nan
    cond = np.minimum(np.maximum(raw, 0.0), 1.0)  # _unit of each row
    cov = np.where(scheduled, sel * cond, 0.0)
    flags = [()] * n
    for i in np.flatnonzero(np.abs(raw - cond) > 1e-9).tolist():
        flags[i] = ("clamped",)
    # K_tt the smaller factor; a pairs row (1 - q = 1) gets here only through it
    never = (piv <= PALM_PIVOT_TOL) | (piv <= free)
    for i in np.flatnonzero(~scheduled).tolist():
        flags[i] = ("never_scheduled",) if never[i] else ("receiver_always_scheduled",)
    error = [None] * n
    for i, e in zip(failed.tolist(), failures.values()):
        error[i] = str(e)
    return {"transmitter": rows[:, 0].tolist(),
            "receiver": rows[:, 1].tolist() if geometry.mode == "txrx" else [None] * n,
            "selection_probability": sel, "conditional_coverage": cond, "coverage": cov,
            # local_delay's mean; cov lies in [0, 1] by construction
            "delay_mean": np.where(cov == 0.0, math.inf, 1.0 / cov),
            "flags": flags, "error": error}


def _listed(values: np.ndarray, absent: np.ndarray) -> list:
    """``values`` as a list of floats, None where ``absent``."""
    out = values.tolist()
    for i in np.flatnonzero(absent).tolist():
        out[i] = None
    return out


def _link_reports(table: dict) -> tuple:
    """One LinkReport per row of a ``_link_table``, None for each NaN."""
    columns = [_listed(v, np.isnan(v)) if isinstance(v, np.ndarray) else v
               for v in table.values()]
    # filling each instance dict gives the same LinkReport as the frozen
    # __init__, without its object.__setattr__ per field, in a third of the time
    out = list(map(object.__new__, repeat(LinkReport, len(columns[0]))))
    for f, values in zip(map(vars, out), zip(*columns)):
        f.update(zip(table, values))
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
    channel = _channel_table(geometry, params.pathloss)
    links = _link_reports(_link_table(geometry, K, params, channel, geometry.links()))
    return CoverageReport(mode=geometry.mode, links=links,
                          kernel_fingerprint=kernel_fingerprint(K), params=params)
