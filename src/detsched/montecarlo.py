"""Monte Carlo estimation of coverage and local delay.

Every replication draws one scheduled set and one full fading matrix, then
checks the SINR of each link directly, with no reuse of the closed-form
machinery.  Links are the rows of the geometry's link table (transmitter,
receiver slot, silent node); one SINR test serves both modes, a txrx
link's receiving node being the slot's silent node, which must not
transmit.  Distances and path losses come from ``propagation._channel``,
the channel table the closed forms read, so both engines test SINR against
the same numbers, and a path loss the scalar ``path_loss`` cannot evaluate
fails here with its error.  Replication r always uses substream(seed, r)
and consumes it in a fixed order (scheduling draw, then the n-by-n fading
block, row major; delay replications repeat that per slot), so results
depend on the seed alone.  The ``workers`` arguments are accepted for
compatibility and change neither the results nor the work done:
replications run in the calling thread.

Coverage replications run in blocks: each fills one row of uniforms from
its own substream, then the block's point selections and SINR tests run as
stacked array operations, each replication's arithmetic independent of the
rest of its block.  A block derives its generator states through
``rng.block_uniforms`` (numpy's seeding hash over the whole block, one
reused generator), which tests pin to ``substream`` bit for bit.  Delay
replications play one slot at a time through ``_sampling.draw_mask``,
because each continues its stream from slot to slot.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _sampling
from .errors import BadArgument, SingularDistance
from .kernels import LEnsemble
from .propagation import NetworkGeometry, PropagationParams, _channel, path_loss
from .rng import block_uniforms, exponential_fading, substream

DEFAULT_DELAY_CAP = 1_000_000


VALID_TARGET_KINDS = ("coverage", "delay")


def _is_int(x) -> bool:
    """An integer that is not a bool, as the CLI's ``_get_int`` requires."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(frozen=True)
class SimulationPlan:
    """Replication count, base seed, what to estimate, and the delay cap.

    Targets are "coverage" or "delay" (every link), or ("delay", link) for
    one link.  The estimator functions themselves always cover every link;
    targets drive which estimators a driver runs and what it reports.
    """

    replications: int
    seed: int
    targets: tuple = ("coverage",)
    delay_cap: int = DEFAULT_DELAY_CAP

    def __post_init__(self):
        if not _is_int(self.replications) or self.replications < 1:
            raise BadArgument(f"replications must be >= 1, got {self.replications!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise BadArgument(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not self.targets:
            raise BadArgument("simulation plan needs at least one target")
        for t in self.targets:
            kind = t[0] if isinstance(t, tuple) else t
            if kind not in VALID_TARGET_KINDS:
                raise BadArgument(f"unknown simulation target {t!r}")
        if not _is_int(self.delay_cap) or self.delay_cap < 1:
            raise BadArgument(f"delay cap must be >= 1, got {self.delay_cap!r}")

    def delay_links(self):
        """Explicit delay links named in targets, or None for all links."""
        picked = [t[1] for t in self.targets if isinstance(t, tuple) and t[0] == "delay"]
        return picked or None

    def wants(self, kind: str) -> bool:
        return any(
            (t[0] if isinstance(t, tuple) else t) == kind for t in self.targets
        )


@dataclass(frozen=True)
class Estimate:
    """Sample mean of per-replication success indicators, with its
    standard error (sample standard deviation / sqrt(replications))."""

    mean: float
    std_error: float
    replications: int


@dataclass(frozen=True)
class DelayEstimate:
    """Sample mean of per-replication first-success slots.

    Replications that never succeed within the cap are recorded at the cap
    and counted in ``censored``, which biases the mean low when nonzero.
    """

    mean: float
    std_error: float
    replications: int
    censored: int


def _bernoulli_estimate(successes: int, reps: int) -> Estimate:
    p = successes / reps
    if reps > 1:
        std = math.sqrt(max(reps * p * (1.0 - p), 0.0) / (reps - 1))
    else:
        std = 0.0
    return Estimate(mean=p, std_error=std / math.sqrt(reps), replications=reps)


# Coverage replications run in blocks whose uniform buffer, the largest
# array a block holds, stays near this many bytes.
_BLOCK_BYTES = 1 << 20


class _Arena:
    """Precomputed quantities shared by every replication of one simulation.

    ``loss`` is the channel table's path loss from each node to each
    receiver slot, zero where the node deafens the slot; ``deafening`` marks
    the (node, slot) entries that, when the node transmits, leave the slot
    unable to decode anything: the channel's drowned entries (zero distance
    under a singular path loss) and the slot's own silent node.
    ``keys``, ``tx`` and ``rx`` list the links whose success is tested, the
    links of the geometry's table whose signal is not drowned: an int per
    dedicated link, a (tx, rx) tuple per txrx link.
    """

    def __init__(self, geometry: NetworkGeometry, L: LEnsemble, params: PropagationParams,
                 mode: Optional[str] = None):
        if mode is not None and geometry.mode != mode:
            raise BadArgument(f"{mode}-mode simulation got {geometry.mode!r} geometry")
        if L.n != geometry.n:
            raise BadArgument(f"kernel has {L.n} nodes but geometry has {geometry.n}")
        self.n = geometry.n
        self.lvals, self.lvecs = L.eigh
        self.params = params
        links = geometry.links()
        tx, rx, silent = links.T
        dist, loss, drowned = _channel(
            params.pathloss, geometry.transmitter_points(), geometry.receiver_points())
        defined = ~drowned[tx, rx]
        if geometry.mode == "pairs" and not defined.all():
            bad = int(tx[~defined][0])
            raise SingularDistance(f"link {bad} has zero length under a singular path loss")
        self.deafening = drowned
        self.deafening[silent[silent >= 0], rx[silent >= 0]] = True
        # a silent node's entry is never judged; any other entry the scalar
        # path loss cannot evaluate fails with its error
        bad = np.argwhere(np.isnan(loss) & ~self.deafening)
        if len(bad):
            path_loss(params.pathloss, dist[tuple(bad[0])])
        self.loss = np.where(self.deafening, 0.0, loss)
        self.tx, self.rx = tx[defined], rx[defined]
        self.keys = [t if s < 0 else (t, r) for t, r, s in links[defined].tolist()]

    def track(self, keys) -> list:
        """Restrict the SINR test to the links ``keys``, in that order, and
        return them; a key outside ``self.keys`` raises BadArgument."""
        where = {key: k for k, key in enumerate(self.keys)}
        picked = []
        for key in keys:
            try:
                picked.append(where[key])
            except (KeyError, TypeError):
                raise BadArgument(
                    f"delay target {key!r} is not a link with a defined signal"
                ) from None
        self.tx, self.rx = self.tx[picked], self.rx[picked]
        self.keys = [self.keys[k] for k in picked]
        return self.keys

    def success(self, mask, fading) -> np.ndarray:
        """(..., links) success indicators for masks (..., n) and fading
        (..., n, n): the transmitter is scheduled, the receiver slot is not
        deafened, and the signal clears the threshold over noise plus every
        other scheduled node's power at the slot."""
        p = self.params
        power = fading * self.loss
        total = np.where(mask[..., :, None], power, 0.0).sum(axis=-2)
        deaf = (mask[..., :, None] & self.deafening).any(axis=-2)
        signal = power[..., self.tx, self.rx]
        interference = total[..., self.rx] - signal
        return (
            mask[..., self.tx]
            & ~deaf[..., self.rx]
            & (signal > p.threshold * (p.noise + interference))
        )

    def covered(self, rng) -> np.ndarray:
        """One slot: scheduling draw + fading, success indicators."""
        mask = _sampling.draw_mask(self.lvals, self.lvecs, rng)
        fading = exponential_fading(rng, self.params.fading_mean, (self.n, self.n))
        return self.success(mask, fading)

    def block_counts(self, seed: int, reps: range) -> np.ndarray:
        """Summed success indicators of replications ``reps``, one slot each.

        Each replication fills one row from its own substream, derived for
        the whole block by ``block_uniforms``, in contract order: n coins,
        one uniform per selected point, then the n-by-n fading block.  A
        row holds 2n + n^2 uniforms, enough for any number of selected
        points; what a replication does not use is never read.
        """
        n = self.n
        counts = 0
        step = max(1, _BLOCK_BYTES // (8 * (2 * n + n * n)))
        for lo in range(0, len(reps), step):
            block = reps[lo:lo + step]
            buf = block_uniforms(seed, block, 2 * n + n * n)
            sel = buf[:, :n] < self.lvals / (1.0 + self.lvals)
            mask = _sampling.select_block(self.lvecs, sel, buf[:, n:2 * n])
            k = np.count_nonzero(sel, axis=1)
            cols = n + k[:, None] + np.arange(n * n)
            u = np.take_along_axis(buf, cols, axis=1).reshape(len(block), n, n)
            fading = -self.params.fading_mean * np.log1p(-u)
            counts = counts + self.success(mask, fading).sum(axis=0)
        return counts


def _simulate_coverage(geometry, L, params, plan: SimulationPlan, mode=None) -> dict:
    """{link key: Estimate} for every link with a defined signal."""
    arena = _Arena(geometry, L, params, mode)
    counts = arena.block_counts(plan.seed, range(plan.replications))
    return {key: _bernoulli_estimate(int(c), plan.replications)
            for key, c in zip(arena.keys, counts)}


def simulate_pair_coverage(
    geometry: NetworkGeometry,
    L: LEnsemble,
    params: PropagationParams,
    plan: SimulationPlan,
    workers: int = 1,
) -> list:
    """Coverage estimate for every dedicated link, one Estimate per link.

    ``workers`` is accepted for compatibility; it changes neither the
    results nor the work done.
    """
    return list(_simulate_coverage(geometry, L, params, plan, "pairs").values())


def simulate_txrx(
    geometry: NetworkGeometry,
    L: LEnsemble,
    params: PropagationParams,
    plan: SimulationPlan,
    workers: int = 1,
) -> dict:
    """Coverage estimate for every ordered node pair, as {(tx, rx): Estimate}.

    Links between coincident nodes have no defined signal and are omitted.
    ``workers`` is accepted for compatibility; it changes neither the
    results nor the work done.
    """
    return _simulate_coverage(geometry, L, params, plan, "txrx")


def simulate_local_delay(
    geometry: NetworkGeometry,
    L: LEnsemble,
    params: PropagationParams,
    plan: SimulationPlan,
    links: Optional[list] = None,
    workers: int = 1,
) -> dict:
    """First-success slot estimates, as {link: DelayEstimate}.

    Links are ints in pairs mode and (tx, rx) tuples in txrx mode; by
    default every link the coverage simulation reports is tracked, and
    naming a link with no defined signal raises BadArgument.  Each
    replication plays slots until all tracked links have succeeded or the
    plan's delay cap is reached.  ``workers`` is accepted for
    compatibility; it changes neither the results nor the work done.
    """
    arena = _Arena(geometry, L, params)
    if links is not None and not list(links):
        raise BadArgument("empty target list for the delay simulation")
    targets = arena.track(arena.keys if links is None else links)
    reps = plan.replications
    cap = plan.delay_cap
    rows = []
    censored = [0] * len(targets)
    for r in range(reps):
        rng = substream(plan.seed, r)
        row = [cap] * len(targets)
        waiting = list(range(len(targets)))
        slot = 0
        while waiting and slot < cap:
            slot += 1
            hit = arena.covered(rng).tolist()
            still = []
            for t in waiting:
                if hit[t]:
                    row[t] = slot
                else:
                    still.append(t)
            waiting = still
        for t in waiting:
            censored[t] += 1
        rows.append(row)
    delays = np.array(rows, dtype=np.int64)
    out = {}
    for t, tgt in enumerate(targets):
        vals = delays[:, t].astype(float)
        std = float(vals.std(ddof=1)) if reps > 1 else 0.0
        out[tgt] = DelayEstimate(
            mean=float(vals.mean()),
            std_error=std / math.sqrt(reps),
            replications=reps,
            censored=censored[t],
        )
    return out
