"""Monte Carlo estimation of coverage and local delay.

Every replication draws one scheduled set and a fading matrix, then checks
the SINR of each link directly, with no reuse of the closed-form
machinery.  Links are the rows of the geometry's link table (transmitter,
receiver slot, silent node); one SINR test serves both modes, a txrx
link's receiving node being the slot's silent node, which must not
transmit.  A run's coverage and delay estimates read one ``_Arena``, whose
distances, path losses, deafening entries and links with a signal come
from the ``propagation._channel_table`` its caller passes, the table the
closed forms and the CLI's config check read, so all test SINR against the
same numbers, and a path loss the scalar ``path_loss`` cannot evaluate
fails here with its error.  Replication r always uses substream(seed, r)
and consumes it in a fixed order (scheduling draw, then the n-by-n fading
block, row major; delay replications repeat that per slot), so results
depend on the seed alone.  The ``workers`` arguments are accepted for
compatibility and change neither the results nor the work done:
replications run in the calling thread.

Coverage replications run in blocks, with the block's point selections and
SINR tests as stacked array operations, each replication's arithmetic
independent of the rest of its block.  ``_draws`` makes a block's
scheduling draws from the marginal kernel's eigenpairs, which either kernel
type gives (``kernels._spectrum``), for coverage and for the CLI's
``sample``: its substreams are seeded once and read through ``rng._fill``
(numpy's seeding hash and PCG64's stepping as array arithmetic, with no
generator object), which tests pin to ``substream`` bit for bit, a head of
2n uniforms per draw for the coins and the selection.  Coverage then reads
only the fading rows of scheduled transmitters, each from where it starts
in the stream (``rng._advance`` past the draw, then ``rng._fill`` at the
row's offset).  Delay replications run in blocks too: in each slot every
live replication draws through ``_sampling.draw_mask`` and fills its fading
row from its own substream, and one SINR test judges them all.
"""

import math
import sys
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Optional, Union

import numpy as np

from . import _sampling
from .errors import BadArgument, SameNode, SingularDistance
from .kernels import LEnsemble, MarginalKernel, _spectrum
from .propagation import (NetworkGeometry, PropagationParams, _bounded, _Channel,
                          _channel_table, _check_bounds, _link_keys, _require, path_loss)
from .rng import _advance, _fill, _pcg64_states, substream

DEFAULT_DELAY_CAP = 1_000_000


@dataclass(frozen=True)
class SimulationPlan:
    """Replication count, base seed and the delay cap: what the estimator
    functions read.  Which estimators a run calls, and for which links, is
    the caller's choice (the CLI's ``simulate.targets``)."""

    replications: int = _bounded(1)
    seed: int = _bounded(0)
    delay_cap: int = _bounded(1, default=DEFAULT_DELAY_CAP)

    def __post_init__(self):
        _check_bounds(self)


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


# Monte Carlo blocks stay near this many bytes: a coverage block's 2n-wide
# head of uniforms plus its zeroed n-by-n fading rows (the fills and the
# SINR test's temporaries peak at about six times as much with every node
# scheduled), a delay block's n-by-n fading rows plus its generators of
# _GENERATOR_BYTES each.
_BLOCK_BYTES = 1 << 20
_GENERATOR_BYTES = 900


def _draws(mu: np.ndarray, vecs: np.ndarray, seed: int, keys):
    """The scheduling draws of ``substream(seed, key)`` for ``keys`` from K's
    eigenpairs, in coverage-sized blocks: per block, its seeded ``(state,
    inc)``, each row's count of kept eigenvectors and the (rows, n) masks,
    read from a head of 2n uniforms per row (the coins, then the selection's)."""
    n = len(mu)
    step = max(1, _BLOCK_BYTES // (8 * (2 * n + n * n)))
    for lo in range(0, len(keys), step):
        state, inc = _pcg64_states(seed, keys[lo:lo + step])
        head = _fill(state, inc, 2 * n)
        sel = head[:, :n] < mu
        # a matmul counts 0/1 rows faster than a reduction over n
        yield ((state, inc), sel @ np.ones(n, dtype=np.intp),
               _sampling.select_block(vecs, sel, head[:, n:]))


class _Arena:
    """Precomputed quantities shared by every replication of one simulation.

    ``loss`` is the given channel table's path loss from each node to each
    receiver slot, zero where the node deafens the slot; ``deafening`` is the
    table's deafening entries as 1.0, else 0.0, so a float matmul of the
    masks counts each slot's deafeners exactly.  ``keys``, ``tx`` and ``rx``
    list the links whose success is tested, set once: the links of the
    geometry's table with a signal, or those ``track`` or ``_keep`` keep in
    a new arena; an int per dedicated link, a (tx, rx) tuple per txrx link.
    ``params`` is the channel, its fading mean and noise scaled where
    received powers would pass the doubles.
    """

    def __init__(self, geometry: NetworkGeometry, K, params: PropagationParams,
                 channel: _Channel, mode: Optional[str] = None):
        _require(geometry, K, mode)
        self.n = geometry.n
        self.mu, self.vecs = _spectrum(K)
        links = geometry.links()
        tx, rx, _ = links.T
        defined = ~channel.deafening[tx, rx]
        if geometry.mode == "pairs" and not defined.all():
            bad = int(tx[~defined][0])
            raise SingularDistance(f"link {bad} has zero length under a singular path loss")
        # an entry the scalar path loss cannot evaluate fails with its error
        if channel.undefined is not None:
            path_loss(params.pathloss, channel.dist[channel.undefined])
        self.loss = np.where(channel.deafening, 0.0, channel.loss)
        # the SINR test holds when the powers and the noise scale by one
        # factor, and a power of two scales them exactly: one that keeps a
        # fading draw (below 37 means) and a slot's sum of n powers below 2^1020
        mean, (_, peak) = params.fading_mean, math.frexp(self.loss.max())
        top = math.frexp(mean)[1] + max(6, peak + (37 * self.n).bit_length())
        if top > 1020:
            params = replace(params, fading_mean=math.ldexp(mean, 1020 - top),
                             noise=math.ldexp(params.noise, 1020 - top))
        self.params = params
        self.deafening = channel.deafening.astype(float)
        self.tx, self.rx = tx[defined], rx[defined]
        self.keys = _link_keys(links[defined])

    def track(self, geometry: NetworkGeometry, links) -> "_Arena":
        """A new arena of the links ``links`` name, in that order.  A reference
        ``geometry.link`` rejects, and a link outside ``self.keys``, raise BadArgument."""
        where = {key: k for k, key in enumerate(self.keys)}
        picked = []
        for link in links:
            try:
                row = (geometry.link(*link) if isinstance(link, tuple) and len(link) == 2
                       else geometry.link(link))
            except (BadArgument, SameNode) as e:
                raise BadArgument(f"delay target {link!r}: {e}") from None
            [key] = _link_keys(np.array([row]))
            if key not in where:
                raise BadArgument(f"delay target {link!r} is not a link with a defined signal")
            picked.append(where[key])
        return self._keep(picked)

    def _keep(self, picked) -> "_Arena":
        """This arena's links at positions ``picked``, in that order, as a new arena."""
        kept = object.__new__(_Arena)
        vars(kept).update(vars(self), tx=self.tx[picked], rx=self.rx[picked],
                          keys=[self.keys[k] for k in picked])
        return kept

    def doomed(self) -> np.ndarray:
        """Per tracked link, whether it can never succeed: its signal's path
        loss is 0; its transmitter is exactly 0 in every eigenvector the
        coins can keep (mu > 0), so no selection picks it; or a node that
        deafens its receiver slot, such as a txrx link's silent node, is
        exactly 0 in every eigenvector the coins can drop (mu < 1), so
        every selection picks it."""
        never = ~self.vecs[:, self.mu > 0].any(axis=1)
        always = ~self.vecs[:, self.mu < 1].any(axis=1)
        deafened = self.deafening[always].any(axis=0)
        return (self.loss[self.tx, self.rx] == 0) | never[self.tx] | deafened[self.rx]

    def success(self, mask, fading) -> np.ndarray:
        """(..., links) success indicators for masks (..., n) and fading
        (..., n, n): the transmitter is scheduled, the receiver slot is not
        deafened, and the signal clears the threshold over noise plus every
        other scheduled node's power at the slot."""
        p = self.params
        # scheduled nodes' powers, else 0, node-major: summing whole planes in
        # node order is np.where(mask, fading * loss, 0).sum(axis=-2) bit for
        # bit, faster (a link whose transmitter is off fails regardless)
        scheduled = np.zeros((self.n, *mask.shape[:-1], self.n))
        power = scheduled.transpose(*range(1, mask.ndim), 0, mask.ndim)
        np.multiply(fading, self.loss, out=power, where=mask[..., :, None])
        signal = power[..., self.tx, self.rx]
        # threshold * (noise + interference), in place: fewer large temporaries
        bound = scheduled.sum(axis=0)[..., self.rx]
        bound -= signal
        bound += p.noise
        # a bound past the doubles is inf, which no signal clears
        with np.errstate(over="ignore"):
            bound *= p.threshold
        ok = signal > bound
        ok &= mask[..., self.tx]
        ok &= ~(mask @ self.deafening > 0)[..., self.rx]
        return ok

    def block_counts(self, seed: int, reps: range) -> np.ndarray:
        """Summed success indicators of replications ``reps``, one slot each.

        Each replication reads its own substream in contract order: n coins,
        one uniform per selected point (``_draws``), then the n-by-n fading
        block.  Only the fading rows of scheduled transmitters are read, so
        each is filled from where it starts, into a zeroed (rows, n, n)
        block: a row's seeded state jumps past its coins and selection, and
        each of its transmitters' fill starts whole fading rows of n on, its
        first chunk one jump away, so the jump tables grow as n sqrt n, not
        n squared.  The rows of silent nodes stay zero, and ``success``
        masks them out.
        """
        n = self.n
        counts = 0
        for (state, inc), k, mask in _draws(self.mu, self.vecs, seed, reps):
            # transmitter i's fading row is row i of n past the draw's n + k
            after = _advance(state, inc, n + k)
            r, i = np.nonzero(mask)
            u = _fill(tuple(w[r] for w in after), tuple(w[r] for w in inc), n, i)
            fading = np.zeros((len(mask), n, n))
            fading[r, i] = np.log1p(np.negative(u, out=u), out=u) * -self.params.fading_mean
            counts = counts + np.ones(len(mask)) @ self.success(mask, fading)
        return counts


def _first_successes(arena: _Arena, seed: int, reps: int, cap: int):
    """(reps, links) first-success slots of the tracked links, ``cap``
    where censored, and each link's count of censored replications.  Each
    slot, every live row of a block draws its scheduled set and fills its
    fading row from its own substream; one SINR test judges the stack."""
    n, links = arena.n, len(arena.keys)
    # the draw is read from the module per call, so one swapped in there
    # sees every slot
    draw, mu, vecs = _sampling.draw_mask, arena.mu, arena.vecs
    # each entry counts the slots it waits through, up to its success or the cap
    delays = np.zeros((reps, links), dtype=np.int64)
    censored = np.zeros(links, dtype=np.int64)
    step = max(1, _BLOCK_BYTES // (8 * n * n + _GENERATOR_BYTES))
    for lo in range(0, reps, step):
        rows = np.arange(lo, min(lo + step, reps))
        gens = [substream(seed, r) for r in rows.tolist()]
        waiting = np.ones((len(rows), links), dtype=bool)
        mask, u = np.empty((len(rows), n), dtype=bool), np.empty((len(rows), n, n))
        slot = 0
        while waiting.size and slot < cap:
            slot += 1
            for i, g in enumerate(gens):
                mask[i] = draw(mu, vecs, g)
                g.random(out=u[i])
            # -mean * log1p(-u), mapped in place
            fading = u[:len(gens)]
            np.log1p(np.negative(fading, out=fading), out=fading)
            fading *= -arena.params.fading_mean
            hit = arena.success(mask[:len(gens)], fading) & waiting
            delays[rows] += waiting
            waiting &= ~hit
            keep = waiting.any(axis=1)
            rows, waiting = rows[keep], waiting[keep]
            gens = [g for g, k in zip(gens, keep.tolist()) if k]
        censored += waiting.sum(axis=0)
    return delays, censored


def _bernoulli_estimates(successes: np.ndarray, reps: int) -> list:
    """One Estimate per success count out of ``reps``: the rate p and its
    standard error sqrt(reps p (1 - p) / (reps - 1)) / sqrt(reps), 0 for
    one replication."""
    p = successes / reps
    if reps > 1:
        std = np.sqrt(np.maximum(reps * p * (1.0 - p), 0.0) / (reps - 1))
    else:
        std = np.zeros_like(p)
    se = std / math.sqrt(reps)
    # filling each instance dict gives the same Estimate as the frozen
    # __init__, without its object.__setattr__ per field, in half the time
    out = list(map(object.__new__, repeat(Estimate, len(p))))
    for fields, mean, err in zip(map(vars, out), p.tolist(), se.tolist()):
        fields["mean"], fields["std_error"], fields["replications"] = mean, err, reps
    return out


def _coverage_estimates(arena: _Arena, plan: SimulationPlan) -> dict:
    """{link key: Estimate} for every link of ``arena``."""
    counts = arena.block_counts(plan.seed, range(plan.replications))
    return dict(zip(arena.keys, _bernoulli_estimates(counts, plan.replications)))


def _delay_estimates(arena: _Arena, plan: SimulationPlan) -> dict:
    """{link key: DelayEstimate} for every link of ``arena``: played, or at the cap if doomed."""
    reps, cap = plan.replications, plan.delay_cap
    played = arena._keep(np.flatnonzero(~arena.doomed()).tolist())
    delays, censored = _first_successes(played, plan.seed, reps, cap)
    at_cap = DelayEstimate(float(cap) if cap <= sys.float_info.max else math.inf, 0.0, reps, reps)
    out = dict.fromkeys(arena.keys, at_cap)
    for key, column, c in zip(played.keys, delays.T, censored.tolist()):
        std = float(column.astype(float).std(ddof=1)) if reps > 1 else 0.0
        # the exact integer sum: a float sum rounds once it passes 2**53
        mean = sum(column.tolist()) / reps
        out[key] = DelayEstimate(mean=mean, std_error=std / math.sqrt(reps),
                                 replications=reps, censored=c)
    return out


def simulate_pair_coverage(
    geometry: NetworkGeometry,
    L: Union[MarginalKernel, LEnsemble],
    params: PropagationParams,
    plan: SimulationPlan,
    workers: int = 1,
) -> list:
    """Coverage estimate for every dedicated link, one Estimate per link.

    ``workers`` is accepted for compatibility; it changes neither the
    results nor the work done.
    """
    arena = _Arena(geometry, L, params, _channel_table(geometry, params.pathloss), "pairs")
    return list(_coverage_estimates(arena, plan).values())


def simulate_txrx(
    geometry: NetworkGeometry,
    L: Union[MarginalKernel, LEnsemble],
    params: PropagationParams,
    plan: SimulationPlan,
    workers: int = 1,
) -> dict:
    """Coverage estimate for every ordered node pair, as {(tx, rx): Estimate}.

    Links between coincident nodes have no defined signal and are omitted.
    ``workers`` is accepted for compatibility; it changes neither the
    results nor the work done.
    """
    arena = _Arena(geometry, L, params, _channel_table(geometry, params.pathloss), "txrx")
    return _coverage_estimates(arena, plan)


def simulate_local_delay(
    geometry: NetworkGeometry,
    L: Union[MarginalKernel, LEnsemble],
    params: PropagationParams,
    plan: SimulationPlan,
    links: Optional[list] = None,
    workers: int = 1,
) -> dict:
    """First-success slot estimates, as {link: DelayEstimate}.

    Links are ints in pairs mode and (tx, rx) tuples in txrx mode, each
    checked by ``NetworkGeometry.link``; by default every link the coverage
    simulation reports is tracked, and naming anything else raises
    BadArgument.  Each replication plays slots, together with its block's
    other live replications, until all tracked links have succeeded or the
    plan's delay cap is reached.  A link that can never succeed
    (``_Arena.doomed``) is not played: every replication records it at the
    cap.  ``workers`` is accepted for compatibility; it changes neither the
    results nor the work done.
    """
    arena = _Arena(geometry, L, params, _channel_table(geometry, params.pathloss))
    if links is not None and not (arena := arena.track(geometry, links)).keys:
        raise BadArgument("empty target list for the delay simulation")
    return _delay_estimates(arena, plan)
