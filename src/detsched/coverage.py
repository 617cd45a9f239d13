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
geometry's link table, and one code path evaluates it.  In txrx mode the
receiving node belongs to the scheduled set and must stay silent: the
formula gains the semi-reduced Palm correction and a rescaling by the
probability the node is silent.  A pairs link has no silent node (-1), so
that correction vanishes and the same code computes the plain Palm
determinant.
"""

import hashlib
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dpp import (
    CLAMP_TOL,
    PALM_PIVOT_TOL,
    palm_reduced,
    palm_semi_reduced,
    scale_kernel,
)
from .errors import AlwaysScheduledReceiver, BadArgument, DetschedError, SameNode
from .kernels import MarginalKernel
from .propagation import (
    NetworkGeometry,
    PropagationParams,
    _distance,
    interferer_factor,
    noise_factor,
)


def _require(geometry: NetworkGeometry, K: MarginalKernel, mode: str):
    if geometry.mode != mode:
        raise BadArgument(f"this computation needs {mode!r} geometry, got {geometry.mode!r}")
    if K.n != geometry.n:
        raise BadArgument(
            f"kernel has {K.n} nodes but geometry has {geometry.n}"
        )


def _check_index(i: int, n: int, what: str):
    if not isinstance(i, (int, np.integer)) or not (0 <= i < n):
        raise BadArgument(f"{what} index {i!r} out of range for {n} nodes")


def _pair_link(geometry, K, link: int) -> tuple:
    """Validated link-table row of dedicated link ``link``."""
    _require(geometry, K, "pairs")
    _check_index(link, K.n, "link")
    return link, link, -1


def _txrx_link(geometry, K, transmitter: int, receiver: int) -> tuple:
    """Validated link-table row of the link transmitter -> receiver."""
    _require(geometry, K, "txrx")
    _check_index(transmitter, K.n, "transmitter")
    _check_index(receiver, K.n, "receiver")
    if transmitter == receiver:
        raise SameNode(f"node {transmitter} cannot transmit to itself")
    return transmitter, receiver, receiver


def _discounts(geometry, params, transmitter: int, slot: int):
    """Per-interferer coverage discounts at the link's receiver, for every
    node except the transmitter, in ground-set order.  Also returns the
    signal distance."""
    pts = geometry.transmitter_points()
    y = geometry.receiver_location(slot)
    d_sig = _distance(pts[transmitter], y)
    vals = np.empty(geometry.n - 1)
    pos = 0
    for z in range(geometry.n):
        if z == transmitter:
            continue
        vals[pos] = interferer_factor(_distance(pts[z], y), d_sig, params)
        pos += 1
    return vals, d_sig


def _selection(K: MarginalKernel, t: int, s: int) -> float:
    """Probability the transmitter is scheduled and silent node ``s`` (if
    any, i.e. s >= 0) is not, floored at 0."""
    if s < 0:
        return max(float(K.matrix[t, t]), 0.0)
    pair = K.matrix[np.ix_((t, s), (t, s))]
    return max(float(K.matrix[t, t]) - float(np.linalg.det(pair)), 0.0)


def _conditional_raw(geometry, K, params, t: int, p: int, s: int,
                     use_semi_reduced: Optional[bool] = None) -> float:
    """Unclamped coverage of the link from ``t`` to receiver slot ``p``,
    given ``t`` is scheduled and silent node ``s`` (if s >= 0) is not.

    The one-fold Palm determinant times the noise discount; a silent node
    scheduled with conditional probability q subtracts q times the
    determinant of the kernel that also retains it, and rescales by 1 - q.
    With no silent node q = 0 and both steps are exact no-ops.  With
    ``use_semi_reduced`` unset the correction is skipped when the path loss
    is singular at zero: the silent node's own discount is then exactly 0,
    which forces the correction's determinant to 0.
    """
    tx_id = K.node_ids[t]
    palm = palm_reduced(K, tx_id)
    q = 0.0
    if s >= 0:
        rx_id = K.node_ids[s]
        q = float(palm.matrix[palm.index(rx_id), palm.index(rx_id)])
        if q >= 1.0 - CLAMP_TOL:
            raise AlwaysScheduledReceiver(
                f"node {s} transmits with conditional probability {q:.12g}, "
                "so it can never listen"
            )
    hv, d_sig = _discounts(geometry, params, t, p)
    m = K.n - 1
    det1 = float(np.linalg.det(np.eye(m) - scale_kernel(palm.matrix, hv)))
    if use_semi_reduced is None:
        use_semi_reduced = not params.pathloss.singular_at_zero
    term = 0.0
    if use_semi_reduced and q > PALM_PIVOT_TOL:
        semi = palm_semi_reduced(K, tx_id, rx_id)
        det2 = float(np.linalg.det(np.eye(m) - scale_kernel(semi.matrix, hv)))
        term = q * det2
    return (noise_factor(d_sig, params) / (1.0 - q)) * (det1 - term)


def _unit(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def _coverage(geometry, K, params, t: int, p: int, s: int) -> float:
    sel = _selection(K, t, s)
    if sel <= PALM_PIVOT_TOL:
        return 0.0
    return sel * _unit(_conditional_raw(geometry, K, params, t, p, s))


def conditional_pair_coverage(
    geometry: NetworkGeometry, K: MarginalKernel, link: int, params: PropagationParams
) -> float:
    """Coverage of dedicated link ``link`` given its transmitter is scheduled.

    det(I - Palm kernel scaled by the interferer discounts) times the noise
    discount, clamped to [0, 1].  The Palm step raises NeverScheduled for a
    transmitter with zero scheduling probability.
    """
    return _unit(_conditional_raw(geometry, K, params, *_pair_link(geometry, K, link)))


def pair_coverage(
    geometry: NetworkGeometry, K: MarginalKernel, link: int, params: PropagationParams
) -> float:
    """Unconditional coverage of dedicated link ``link``.

    Scheduling probability times conditional coverage; exactly 0 for a
    never-scheduled transmitter.
    """
    return _coverage(geometry, K, params, *_pair_link(geometry, K, link))


def coverage_kernel(
    geometry: NetworkGeometry, K: MarginalKernel, link: int, params: PropagationParams
) -> np.ndarray:
    """Single matrix whose determinant is the unconditional pair coverage.

    Block structure on the full ground set: the scaled-Palm block
    I - K'{h} on the other nodes, the entry w * K_ll at (link, link), and
    zero cross terms.
    """
    _pair_link(geometry, K, link)
    n = K.n
    palm = palm_reduced(K, K.node_ids[link])
    hv, d_sig = _discounts(geometry, params, link, link)
    out = np.zeros((n, n))
    others = np.array([i for i in range(n) if i != link], dtype=np.intp)
    out[np.ix_(others, others)] = np.eye(n - 1) - scale_kernel(palm.matrix, hv)
    out[link, link] = noise_factor(d_sig, params) * float(K.matrix[link, link])
    return out


def txrx_conditional_coverage(
    geometry: NetworkGeometry,
    K: MarginalKernel,
    transmitter: int,
    receiver: int,
    params: PropagationParams,
    use_semi_reduced: Optional[bool] = None,
) -> float:
    """Coverage of the link transmitter -> receiver, given the transmitter
    is scheduled and the receiver is not.

    Both nodes belong to the same scheduled set, so the receiver's own
    potential transmission is averaged out: the one-fold Palm determinant
    minus the receiver-retained two-fold correction, rescaled by the
    conditional probability the receiver stays silent, clamped to [0, 1].
    With ``use_semi_reduced`` unset the correction is skipped automatically
    when the path loss is singular at zero (it vanishes identically);
    forcing it on or off selects the variant explicitly.
    """
    row = _txrx_link(geometry, K, transmitter, receiver)
    return _unit(_conditional_raw(geometry, K, params, *row, use_semi_reduced))


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
    return _coverage(geometry, K, params, *_txrx_link(geometry, K, transmitter, receiver))


@dataclass(frozen=True)
class LocalDelay:
    """Slots until first success for a link with per-slot coverage p."""

    success_probability: float
    mean: float

    def cdf(self, slots: int) -> float:
        """Probability of at least one success within ``slots`` attempts."""
        if not isinstance(slots, (int, np.integer)) or slots < 0:
            raise BadArgument(f"slot count must be a nonnegative integer, got {slots!r}")
        return 1.0 - (1.0 - self.success_probability) ** slots


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
    if not isinstance(slots, (int, np.integer)) or slots < 1:
        raise BadArgument(f"slot count must be a positive integer, got {slots!r}")
    return 1.0 - (1.0 - e) ** (1.0 / slots)


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


def _link_report(geometry, K, params, t: int, p: int, s: int) -> LinkReport:
    rx = None if s < 0 else p
    sel = _selection(K, t, s)
    if sel <= PALM_PIVOT_TOL:
        flag = (
            "never_scheduled"
            if float(K.matrix[t, t]) <= PALM_PIVOT_TOL
            else "receiver_always_scheduled"
        )
        return LinkReport(t, rx, sel, None, 0.0, math.inf, flags=(flag,))
    try:
        raw = _conditional_raw(geometry, K, params, t, p, s)
    except DetschedError as e:
        return LinkReport(t, rx, sel, None, None, None, error=str(e))
    cond = _unit(raw)
    flags = ("clamped",) if abs(raw - cond) > 1e-9 else ()
    cov = sel * cond
    return LinkReport(t, rx, sel, cond, cov, local_delay(cov).mean, flags=flags)


def full_report(
    geometry: NetworkGeometry, K: MarginalKernel, params: PropagationParams
) -> CoverageReport:
    """Coverage, conditional coverage, and mean delay for every link.

    One entry per row of the geometry's link table: per dedicated link in
    pairs mode, per ordered node pair in txrx mode.  Per-link failures are
    captured as error strings rather than aborting the report.
    """
    if K.n != geometry.n:
        raise BadArgument(f"kernel has {K.n} nodes but geometry has {geometry.n}")
    links = tuple(
        _link_report(geometry, K, params, t, p, s) for t, p, s in geometry.links().tolist()
    )
    return CoverageReport(
        mode=geometry.mode,
        links=links,
        kernel_fingerprint=kernel_fingerprint(K),
        params=params,
    )
