"""Radio propagation: path loss, geometry, fading, and SINR.

Two network layouts are supported.  In "pairs" mode each transmitter i has
its own dedicated receiver at a fixed offset; in "txrx" mode a single set
of nodes both transmits and receives, and links are ordered node pairs.
Signal power through a link is fading * pathloss(distance); a link is
covered when its SINR clears the detection threshold.

``_channel_table`` alone decides which node-to-slot path losses are read
and which links have a signal.  It gives the distance and path loss from
each node to each receiver slot (or to a few slots, column for column the
same), equal bit for bit to the scalar ``path_loss`` (NaN where it raises);
the deafening entries, whose loss is never read; and the first loss that is
read but undefined.  The CLI's config check, the closed forms and the Monte
Carlo all read it, so they test SINR against the same numbers.

``NetworkGeometry.link`` alone resolves and validates a link reference;
``_is_int``, ``_check_index``, ``_require`` and ``_check_bounds`` are the
shared checks.
"""

import math
from dataclasses import MISSING, dataclass, field, fields
from numbers import Real
from typing import Optional, Union

import numpy as np

from .errors import (
    BadArgument,
    DegenerateSignal,
    DetschedError,
    IncompleteFading,
    SameNode,
    SingularDistance,
)

SINGULAR_DISTANCE_TOL = 1e-12


def _is_int(x) -> bool:
    """An integer that is not a bool, as the CLI's integer keys require."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _parse_bounded(v, low, strict: bool = False) -> tuple:
    """(``v`` as its field holds it, None) or (None, the problem the CLI reports
    at the field's key): an integer if ``low`` is one, else a finite float,
    > ``low`` if ``strict``, else >= ``low``."""
    if isinstance(low, int):
        if not _is_int(v):
            return None, f"must be an integer, got {v!r}"
    else:
        if isinstance(v, bool) or not isinstance(v, Real):
            return None, f"must be a number, got {v!r}"
        try:
            v = float(v)
        except OverflowError:  # an int beyond the doubles
            v = math.inf
        if not math.isfinite(v):
            return None, "must be finite"
    if v < low or (strict and v == low):
        return None, f"must be {'>' if strict else '>='} {low}, got {v}"
    return v, None


def _bounded(low, strict: bool = False, default=MISSING):
    """A dataclass field that ``_check_bounds`` holds to ``low`` and ``strict``."""
    return field(default=default, metadata={"bound": (low, strict)})


def _check_bounds(obj, error=BadArgument):
    """Hold each ``_bounded`` field of ``obj`` to its bound, storing it as
    parsed; the first problem raises ``error`` naming the field."""
    for f in fields(obj):
        if "bound" in f.metadata:
            v, problem = _parse_bounded(getattr(obj, f.name), *f.metadata["bound"])
            if problem is not None:
                raise error(f"{f.name} {problem}")
            object.__setattr__(obj, f.name, v)


@dataclass(frozen=True)
class PowerLawPathLoss:
    """Path loss (kappa * r) ** (-exponent), singular at zero distance and
    wherever the power overflows a double."""

    kappa: float = _bounded(0.0, strict=True)
    exponent: float = _bounded(0.0, strict=True)

    def __post_init__(self):
        _check_bounds(self)

    singular_at_zero = True

    def evaluate(self, r: float) -> float:
        if r <= SINGULAR_DISTANCE_TOL:
            raise SingularDistance(
                f"power-law path loss is singular at distance {r!r}"
            )
        try:
            return (self.kappa * r) ** (-self.exponent)
        except ArithmeticError:
            raise SingularDistance(
                f"power-law path loss overflows at distance {r!r}"
            ) from None


@dataclass(frozen=True)
class TabulatedPathLoss:
    """Piecewise-linear path loss from measured (radius, value) samples.

    Bounded everywhere on its range, so zero-distance interferers are
    allowed.  Evaluation outside the tabulated radii is refused rather
    than extrapolated.
    """

    radii: np.ndarray
    values: np.ndarray

    singular_at_zero = False

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if r.ndim != 1 or r.shape != v.shape or r.size < 2:
            raise BadArgument("need matching 1-d radius and value tables, length >= 2")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(v))):
            raise BadArgument("path loss table must be finite")
        if r[0] < 0 or np.any(np.diff(r) <= 0):
            raise BadArgument("radii must be nonnegative and strictly increasing")
        if np.any(v < 0):
            raise BadArgument("path loss values must be nonnegative")
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "values", v)

    def evaluate(self, r: float) -> float:
        if r < self.radii[0] or r > self.radii[-1]:
            raise BadArgument(
                f"distance {r!r} outside tabulated range "
                f"[{float(self.radii[0])!r}, {float(self.radii[-1])!r}]"
            )
        return float(np.interp(r, self.radii, self.values))


PathLoss = Union[PowerLawPathLoss, TabulatedPathLoss]


def path_loss(model: PathLoss, r: float) -> float:
    """Mean received-power fraction at distance ``r`` under ``model``; NaN raises BadArgument."""
    r = float(r)
    if math.isnan(r):
        raise BadArgument(f"distance must be a number, got {r!r}")
    return model.evaluate(r)


@dataclass(frozen=True)
class PropagationParams:
    """Channel model shared by every link: path loss, Rayleigh-style
    exponential fading with the given mean, thermal noise power, and the
    SINR detection threshold."""

    pathloss: PathLoss
    threshold: float = _bounded(0.0)
    fading_mean: float = _bounded(0.0, strict=True, default=1.0)
    noise: float = _bounded(0.0, default=0.0)

    def __post_init__(self):
        _check_bounds(self)


@dataclass(frozen=True)
class NetworkGeometry:
    """Node coordinates for one of the two supported layouts."""

    mode: str
    transmitters: Optional[np.ndarray] = None
    receivers: Optional[np.ndarray] = None
    nodes: Optional[np.ndarray] = None

    @staticmethod
    def _points(arr, what: str) -> np.ndarray:
        a = np.asarray(arr, dtype=float)
        if a.ndim != 2 or a.shape[0] == 0:
            raise BadArgument(f"{what} must be a nonempty (n, dim) array, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise BadArgument(f"{what} coordinates must be finite")
        a = a.copy()
        a.flags.writeable = False
        return a

    @classmethod
    def pairs(cls, transmitters, receivers) -> "NetworkGeometry":
        tx = cls._points(transmitters, "transmitters")
        rx = cls._points(receivers, "receivers")
        if tx.shape != rx.shape:
            raise BadArgument(
                f"transmitters {tx.shape} and receivers {rx.shape} must match"
            )
        return cls(mode="pairs", transmitters=tx, receivers=rx)

    @classmethod
    def txrx(cls, nodes) -> "NetworkGeometry":
        return cls(mode="txrx", nodes=cls._points(nodes, "nodes"))

    @property
    def n(self) -> int:
        return self.transmitter_points().shape[0]

    def transmitter_points(self) -> np.ndarray:
        return self.transmitters if self.mode == "pairs" else self.nodes

    def receiver_points(self) -> np.ndarray:
        """Receiver slot coordinates: the paired receivers in pairs mode,
        the nodes themselves in txrx mode."""
        return self.receivers if self.mode == "pairs" else self.nodes

    def receiver_location(self, link: int) -> np.ndarray:
        return self.receiver_points()[link]

    def links(self) -> np.ndarray:
        """The link table: one (transmitter, receiver slot, silent node) row
        per link, the silent node being -1 when none must stay silent.

        Pairs mode has rows (i, i, -1) for each dedicated link; txrx mode has
        rows (i, j, j) for each ordered node pair, transmitter-major, since
        the receiving node j is itself a scheduled node that must be silent.
        """
        n = self.n
        if self.mode == "pairs":
            i = np.arange(n)
            return np.stack([i, i, np.full(n, -1)], axis=1)
        i, j = np.nonzero(~np.eye(n, dtype=bool))
        return np.stack([i, j, j], axis=1)

    def link_keys(self) -> list:
        """One key per row of ``links()``: the transmitter of a pairs link,
        the (transmitter, receiver) tuple of a txrx link."""
        return _link_keys(self.links())

    def link(self, transmitter, receiver=None) -> tuple:
        """The ``links()`` row (t, slot, silent) a reference names: a pairs
        link's receiver is absent or its transmitter, a txrx link's another node."""
        _check_index(transmitter, self.n, "transmitter")
        if receiver is not None:
            _check_index(receiver, self.n, "receiver")
        t = int(transmitter)
        if self.mode == "pairs":
            if receiver is not None and receiver != t:
                raise BadArgument("pairs mode has a dedicated receiver per transmitter")
            return t, t, -1
        if receiver is None:
            raise BadArgument("txrx mode needs an explicit receiver node")
        if receiver == t:
            raise SameNode(f"node {t} cannot transmit to itself")
        return t, int(receiver), int(receiver)


def _link_keys(rows: np.ndarray) -> list:
    """``NetworkGeometry.link_keys`` of link-table rows ``rows``."""
    return [t if s < 0 else (t, r) for t, r, s in rows.tolist()]


def _check_index(i, n: int, what: str):
    if not _is_int(i) or not (0 <= i < n):
        raise BadArgument(f"{what} index {i!r} out of range for {n} nodes")


def _require(geometry: NetworkGeometry, kernel, mode: Optional[str] = None):
    if mode is not None and geometry.mode != mode:
        raise BadArgument(f"this computation needs {mode!r} geometry, got {geometry.mode!r}")
    if kernel.n != geometry.n:
        raise BadArgument(f"kernel has {kernel.n} nodes but geometry has {geometry.n}")


def _distance(p: np.ndarray, q: np.ndarray) -> float:
    return float(math.sqrt(float(np.sum((p - q) ** 2))))


def _distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``_distance`` from each point of ``a`` to each point of ``b``, equal
    to it bit for bit, shape (len a, len b); inf where it passes the doubles."""
    with np.errstate(over="ignore"):
        return np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1))


def _path_losses(model: PathLoss, r: np.ndarray) -> np.ndarray:
    """``path_loss`` at each distance in ``r``, equal to it bit for bit, and
    NaN where it raises.  Power laws go through Python's float power, which
    can differ from ``np.power`` in the last place."""
    if isinstance(model, TabulatedPathLoss):
        inside = (r >= model.radii[0]) & (r <= model.radii[-1])
        return np.where(inside, np.interp(r, model.radii, model.values), np.nan)
    out = np.full(r.shape, np.nan)
    ok = r > SINGULAR_DISTANCE_TOL
    try:
        e = -model.exponent
        # kappa * r past the doubles is inf, as the scalar product gives it
        with np.errstate(over="ignore"):
            out[ok] = [x ** e for x in (model.kappa * r[ok]).tolist()]
    except ArithmeticError:
        # an overflow the scalar form raises on: mark it per entry
        out[ok] = [_loss_or_nan(model, x) for x in r[ok].tolist()]
    return out


def _loss_or_nan(model: PathLoss, r: float) -> float:
    try:
        return model.evaluate(r)
    except DetschedError:
        return math.nan


def _drowned(model: PathLoss, dist):
    """Where a node at ``dist`` sits on a receiver whose loss is singular at zero."""
    return model.singular_at_zero & (dist <= SINGULAR_DISTANCE_TOL)


@dataclass(frozen=True)
class _Channel:
    """Node by receiver slot, a column per slot: ``dist`` and ``loss``
    (``_distance_matrix`` and ``_path_losses``); ``deafening``, where a
    transmitting node leaves the slot unable to decode anything, so its loss
    there is never read: the node sits on the slot under a path loss
    singular at zero or, in txrx mode, is the slot's own node, the silent
    node of every link into it; and ``undefined``, the first (node, slot),
    row major, whose loss is read but NaN, None if there is none.  A link
    has a signal iff its (transmitter, slot) entry is not deafening."""

    dist: np.ndarray
    loss: np.ndarray
    deafening: np.ndarray
    undefined: Optional[tuple]


def _channel_table(geometry: NetworkGeometry, model: PathLoss, slots=None) -> _Channel:
    """The ``_Channel`` of ``geometry`` under ``model`` at receiver slots
    ``slots`` (all by default), each column equal bit for bit to the full
    table's.  The one place the closed forms and the simulators get their
    distances, path losses and deafening entries from."""
    node, at = np.arange(geometry.n), geometry.receiver_points()
    slots, at = (node, at) if slots is None else (np.asarray(slots), at[slots])
    dist = _distance_matrix(geometry.transmitter_points(), at)
    loss = _path_losses(model, dist)
    deafening = _drowned(model, dist)
    if geometry.mode == "txrx":
        deafening = deafening | (node[:, None] == slots)
    bad = np.flatnonzero(np.isnan(loss) & ~deafening)[:1].tolist()
    undefined = (bad[0] // len(slots), int(slots[bad[0] % len(slots)])) if bad else None
    return _Channel(dist, loss, deafening, undefined)


def _signal_loss(signal_distance: float, params: PropagationParams) -> float:
    """The path loss at the signal distance, which must be above 0."""
    ell_r = path_loss(params.pathloss, signal_distance)
    if ell_r <= 0:
        raise DegenerateSignal(
            f"path loss at signal distance {float(signal_distance)!r} is {ell_r!r}"
        )
    return ell_r


def interferer_factor(
    interferer_distance: float, signal_distance: float, params: PropagationParams
) -> float:
    """Coverage discount from one active interferer at the given distance.

    Equals 1 / (threshold * pathloss(s) / pathloss(r) + 1), the chance the
    intended link survives that interferer under exponential fading.  Under
    a path loss singular at zero, an interferer on top of the receiver
    drowns any signal, so the factor is 0 regardless of the threshold.
    """
    ell_r = _signal_loss(signal_distance, params)
    if _drowned(params.pathloss, interferer_distance):
        return 0.0
    if params.threshold == 0:
        return 1.0
    ell_s = path_loss(params.pathloss, interferer_distance)
    return 1.0 / (params.threshold * ell_s / ell_r + 1.0)


def noise_factor(signal_distance: float, params: PropagationParams) -> float:
    """Coverage discount from thermal noise alone.

    exp(-(threshold / fading_mean) * noise / pathloss(r)); equals 1 when
    the threshold or the noise power is zero.
    """
    ell_r = _signal_loss(signal_distance, params)
    if params.threshold == 0 or params.noise == 0:
        return 1.0
    return math.exp(-(params.threshold / params.fading_mean) * params.noise / ell_r)


def _fading_value(fading, tx: int, slot: int) -> float:
    if isinstance(fading, np.ndarray):
        try:
            v = float(fading[tx, slot])
        except IndexError:
            raise IncompleteFading(
                f"fading array has no entry for transmitter {tx}, receiver slot {slot}"
            ) from None
    else:
        try:
            v = float(fading[(tx, slot)])
        except KeyError:
            raise IncompleteFading(
                f"no fading value for transmitter {tx}, receiver slot {slot}"
            ) from None
    if not v >= 0:
        raise BadArgument(f"fading must be nonnegative, got {v!r}")
    return v


def _fixed_link(geometry: NetworkGeometry, transmitter, interferers, receiver) -> tuple:
    """(t, slot, zs, d_sig, dz) of a link against fixed, checked interferers zs."""
    t, slot, silent = geometry.link(transmitter, receiver)
    zs = list(interferers)
    for z in zs:
        _check_index(z, geometry.n, "interferer")
    if len(set(zs)) != len(zs):
        raise BadArgument("duplicate interferer indices")
    if t in zs:
        raise BadArgument("the intended transmitter cannot interfere with itself")
    if silent in zs:
        raise BadArgument("the receiving node is silent and cannot interfere")
    pts = geometry.transmitter_points()
    y = geometry.receiver_location(slot)
    return t, slot, zs, _distance(pts[t], y), [_distance(pts[z], y) for z in zs]


def sinr(
    geometry: NetworkGeometry,
    params: PropagationParams,
    transmitter: int,
    interferers,
    fading,
    receiver: Optional[int] = None,
) -> float:
    """Realized SINR of one link given active interferers and fading.

    ``fading`` maps (transmitter, receiver slot) to a nonnegative draw,
    either as a mapping or an (n, n) array.  An interferer at zero distance
    under a singular path loss gives SINR 0; returns +inf only when the
    denominator is exactly zero and the signal power is positive.
    """
    t, slot, zs, d_sig, dz = _fixed_link(geometry, transmitter, interferers, receiver)
    signal = _fading_value(fading, t, slot) * path_loss(params.pathloss, d_sig)
    interference = 0.0
    for z, d in zip(zs, dz):
        if _drowned(params.pathloss, d):
            return 0.0
        interference += _fading_value(fading, z, slot) * path_loss(params.pathloss, d)
    denom = params.noise + interference
    if denom == 0.0:
        return math.inf if signal > 0 else 0.0
    return signal / denom


def pair_coverage_fixed(
    geometry: NetworkGeometry,
    params: PropagationParams,
    transmitter: int,
    interferers,
    receiver: Optional[int] = None,
) -> float:
    """Coverage probability of a link against a FIXED set of interferers.

    Averages only over fading: the noise discount times the product of
    per-interferer discounts.  This is the building block the scheduling
    average is taken over.
    """
    *_, d_sig, dz = _fixed_link(geometry, transmitter, interferers, receiver)
    value = noise_factor(d_sig, params)
    for d in dz:
        value *= interferer_factor(d, d_sig, params)
    return value
