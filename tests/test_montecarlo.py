import math
import warnings

import numpy as np
import pytest

import detsched as ds
from detsched import _sampling, montecarlo
from detsched.rng import substream

from _oracles import (
    bernoulli_estimate, local_delay_loops, phase2_loops, random_pairs_geometry, random_psd_l,
)


def _power_params(tau=1.0, beta=2.0, noise=0.0, mu=1.0):
    return ds.PropagationParams(
        pathloss=ds.PowerLawPathLoss(kappa=1.0, exponent=beta),
        threshold=tau,
        fading_mean=mu,
        noise=noise,
    )


def _instance(seed, n=3):
    rng = np.random.default_rng(seed)
    tx, rx = random_pairs_geometry(rng, n)
    geo = ds.NetworkGeometry.pairs(tx, rx)
    L = ds.LEnsemble.from_matrix(random_psd_l(rng, n, scale=1.5))
    return geo, L


def test_plan_validation():
    with pytest.raises(ds.BadArgument):
        ds.SimulationPlan(0, 1)
    with pytest.raises(ds.BadArgument):
        ds.SimulationPlan(10, 1.5)
    with pytest.raises(ds.BadArgument):
        ds.SimulationPlan(10, -1)
    with pytest.raises(ds.BadArgument):
        ds.SimulationPlan(10, 1, delay_cap=0)
    # bools are ints to Python, but not counts or seeds
    for bad in ((True, 1, 10), (10, False, 10), (10, 1, True)):
        with pytest.raises(ds.BadArgument):
            ds.SimulationPlan(bad[0], bad[1], delay_cap=bad[2])


def test_estimate_standard_error_formula():
    geo, L = _instance(1)
    plan = ds.SimulationPlan(400, 7)
    for est in ds.simulate_pair_coverage(geo, L, _power_params(), plan):
        r = est.replications
        p = est.mean
        expect = math.sqrt(max(r * p * (1 - p), 0.0) / (r - 1)) / math.sqrt(r)
        assert est.std_error == pytest.approx(expect, abs=1e-15)
        assert r == 400


def test_pair_coverage_simulation_matches_closed_form():
    geo, L = _instance(2)
    K = ds.l_to_k(L)
    params = _power_params(tau=1.0, noise=0.05)
    plan = ds.SimulationPlan(30000, 42)
    ests = ds.simulate_pair_coverage(geo, L, params, plan)
    for i, est in enumerate(ests):
        closed = ds.pair_coverage(geo, K, i, params)
        assert abs(est.mean - closed) < 4.0 * est.std_error + 1e-9


def test_txrx_simulation_matches_closed_form():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.0, 1.0, size=(3, 2))
    geo = ds.NetworkGeometry.txrx(pts)
    L = ds.LEnsemble.from_matrix(random_psd_l(rng, 3, scale=1.5))
    K = ds.l_to_k(L)
    params = _power_params(tau=0.5)
    ests = ds.simulate_txrx(geo, L, params, ds.SimulationPlan(30000, 43))
    assert set(ests) == {(i, j) for i in range(3) for j in range(3) if i != j}
    for (i, j), est in ests.items():
        closed = ds.txrx_coverage(geo, K, i, j, params)
        assert abs(est.mean - closed) < 4.0 * est.std_error + 1e-9


def test_simulation_deterministic_and_worker_invariant():
    geo, L = _instance(4)
    params = _power_params(noise=0.1)
    plan = ds.SimulationPlan(600, 9)
    base = ds.simulate_pair_coverage(geo, L, params, plan)
    again = ds.simulate_pair_coverage(geo, L, params, plan)
    threaded = ds.simulate_pair_coverage(geo, L, params, plan, workers=3)
    assert base == again == threaded

    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, 1.0, size=(3, 2))
    tgeo = ds.NetworkGeometry.txrx(pts)
    tl = ds.LEnsemble.from_matrix(random_psd_l(rng, 3))
    t1 = ds.simulate_txrx(tgeo, tl, params, plan)
    t3 = ds.simulate_txrx(tgeo, tl, params, plan, workers=3)
    assert t1 == t3

    d1 = ds.simulate_local_delay(geo, L, params, ds.SimulationPlan(120, 10))
    d3 = ds.simulate_local_delay(geo, L, params, ds.SimulationPlan(120, 10), workers=4)
    assert d1 == d3


def _replay_coverage(geo, L, params, plan):
    """Per-link success counts replayed replication by replication from the
    stream contract: n coins, one uniform per selected point (selection by
    the loop reference), then the n-by-n fading block, row major.  Under a
    path loss singular at zero distance, a scheduled node on top of a
    receiver drowns it, and a link of zero length has no signal (its count
    stays 0)."""
    n = geo.n
    lvals, lvecs = np.linalg.eigh(L.matrix)
    lvals = np.clip(lvals, 0.0, None)
    if geo.mode == "pairs":
        tx, rx = geo.transmitters, geo.receivers
    else:
        tx = rx = geo.nodes
    model = params.pathloss

    def loss(z, i):
        d = float(np.linalg.norm(tx[z] - rx[i]))
        return None if model.singular_at_zero and d <= 1e-12 else ds.path_loss(model, d)

    hits = np.zeros((n, n), dtype=np.int64)
    for r in range(plan.replications):
        rng = substream(plan.seed, r)
        kept = rng.random(n) < lvals / (1.0 + lvals)
        k = int(kept.sum())
        scheduled = set()
        if k:
            V = lvecs[:, kept].copy()
            scheduled = {int(x) for x in phase2_loops(V, rng.random(k))}
        fad = -params.fading_mean * np.log1p(-rng.random((n, n)))
        for i in scheduled:
            receivers = [i] if geo.mode == "pairs" else [j for j in range(n) if j not in scheduled]
            for j in receivers:
                others = [z for z in scheduled if z != i]
                if loss(i, j) is None or any(loss(z, j) is None for z in others):
                    continue
                signal = fad[i, j] * loss(i, j)
                interference = sum(fad[z, j] * loss(z, j) for z in others)
                hits[i, j] += signal > params.threshold * (params.noise + interference)
    return hits


def test_replication_stream_contract():
    # a replication must consume: n phase-1 uniforms, one uniform per
    # scheduled node, then the n-by-n fading block; reproduce rep by rep
    geo = ds.NetworkGeometry.pairs([[0.0, 0.0]], [[0.0, 1.0]])
    lval = 1.8
    L = ds.LEnsemble.from_matrix([[lval]])
    params = _power_params(tau=0.7, noise=0.2)
    reps = 200
    seed = 77
    est = ds.simulate_pair_coverage(geo, L, params, ds.SimulationPlan(reps, seed))[0]
    hits = 0
    for r in range(reps):
        rng = substream(seed, r)
        scheduled = rng.random(1)[0] < lval / (1.0 + lval)
        if scheduled:
            rng.random(1)  # phase-2 uniform for the single selected point
        fad = -params.fading_mean * math.log1p(-rng.random((1, 1))[0, 0])
        ok = scheduled and fad * 1.0 > params.threshold * params.noise
        hits += bool(ok)
    assert est.mean == pytest.approx(hits / reps, abs=1e-15)

    # several nodes, both modes: every link's count replays exactly
    params = _power_params(tau=0.5, noise=0.05)
    plan = ds.SimulationPlan(300, 78)
    geo, L = _instance(11, n=4)
    hits = _replay_coverage(geo, L, params, plan)
    for i, est in enumerate(ds.simulate_pair_coverage(geo, L, params, plan)):
        assert est.mean * plan.replications == pytest.approx(hits[i, i], abs=1e-9)
    assert 0 < hits.trace() < plan.replications * 4
    rng = np.random.default_rng(12)
    tgeo = ds.NetworkGeometry.txrx(rng.uniform(0.0, 1.0, size=(5, 2)))
    tl = ds.LEnsemble.from_matrix(random_psd_l(rng, 5, scale=2.0))
    hits = _replay_coverage(tgeo, tl, params, plan)
    ests = ds.simulate_txrx(tgeo, tl, params, plan)
    for (i, j), est in ests.items():
        assert est.mean * plan.replications == pytest.approx(hits[i, j], abs=1e-9)
    assert hits.sum() > 0

    # a scheduling draw leaves the stream advanced by exactly n + k doubles,
    # where delay slots continue from
    lvals, lvecs = tl.eigh
    for r in range(50):
        rng = substream(5, r)
        k = int(_sampling.draw_mask(lvals, lvecs, rng).sum())
        ref = substream(5, r)
        ref.random(5 + k)
        assert rng.bit_generator.state == ref.bit_generator.state


def test_block_boundaries_do_not_change_estimates(monkeypatch):
    # one row per block and uneven splits of the replications give the
    # default block's estimates and the rep-by-rep replay's counts, for
    # seeds of one and of five entropy words.  Each block fills a head of
    # 2n uniforms per row and n per scheduled transmitter's fading row:
    # heads of 8 (pairs, n=4), 10 (txrx, n=5) and 18 (pairs, n=9) come in 3
    # chunks of 3, 3 of 4 and 4 of 5, each cut short; fading rows of 4, 5
    # and 9 in 2 chunks of 2, 2 of 3 (cut short) and 3 of 3
    params = _power_params(tau=0.5, noise=0.05)
    geo, L = _instance(11, n=4)
    geo9, L9 = _instance(13, n=9)
    rng = np.random.default_rng(12)
    tgeo = ds.NetworkGeometry.txrx(rng.uniform(0.0, 1.0, size=(5, 2)))
    tl = ds.LEnsemble.from_matrix(random_psd_l(rng, 5, scale=2.0))
    for seed in (78, 2**128 + 78):
        plan = ds.SimulationPlan(300, seed)
        for g, l, sim in ((geo, L, ds.simulate_pair_coverage), (tgeo, tl, ds.simulate_txrx),
                          (geo9, L9, ds.simulate_pair_coverage)):
            default = sim(g, l, params, plan)
            row_bytes = 8 * (2 * g.n + g.n ** 2)
            for rows in (1, 7, 64, 299):
                monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", rows * row_bytes)
                assert sim(g, l, params, plan) == default
            monkeypatch.undo()
            hits = _replay_coverage(g, l, params, plan)
            if g.mode == "pairs":
                default = {(i, i): est for i, est in enumerate(default)}
            for (i, j), est in default.items():
                assert est.mean * plan.replications == pytest.approx(hits[i, j], abs=1e-9)


def test_replay_with_coincident_nodes_and_tabulated_loss(monkeypatch):
    # two coincident nodes under a power law: the links between them have
    # no signal, each drowns the other's slot, and every receiving node
    # deafens its own slot, all through one deafening table; then a
    # tabulated loss, bounded at zero distance, in both modes.  Counts
    # replay rep by rep at one and 7 rows a block
    rng = np.random.default_rng(31)
    pts = rng.uniform(0.0, 1.0, size=(5, 2))
    pts[3] = pts[1]
    tgeo = ds.NetworkGeometry.txrx(pts)
    pgeo, _ = _instance(32, n=5)
    L = ds.LEnsemble.from_matrix(random_psd_l(rng, 5, scale=2.0))
    table = ds.TabulatedPathLoss(np.array([0.0, 0.5, 1.0, 2.0]),
                                 np.array([1.5, 0.6, 0.25, 0.05]))
    plan = ds.SimulationPlan(300, 2**64 + 31)
    cases = [(tgeo, _power_params(tau=0.5, noise=0.05)),
             (tgeo, ds.PropagationParams(table, threshold=0.5, noise=0.05)),
             (pgeo, ds.PropagationParams(table, threshold=0.5, noise=0.05))]
    for geo, params in cases:
        hits = _replay_coverage(geo, L, params, plan)
        assert hits.sum() > 0
        for rows in (1, 7):
            monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", rows * 8 * (2 * 5 + 5 ** 2))
            if geo.mode == "pairs":
                got = dict(enumerate(ds.simulate_pair_coverage(geo, L, params, plan)))
                got = {(i, i): est for i, est in got.items()}
            else:
                got = ds.simulate_txrx(geo, L, params, plan)
            monkeypatch.undo()
            singular = geo.mode == "txrx" and params.pathloss.singular_at_zero
            assert len(got) == (5 if geo.mode == "pairs" else 18 if singular else 20)
            if geo.mode == "txrx":
                assert ((1, 3) in got) == ((3, 1) in got) == (not singular)
            for (i, j), est in got.items():
                assert est.mean * plan.replications == pytest.approx(hits[i, j], abs=1e-9)


def test_coverage_with_empty_and_full_schedules(monkeypatch):
    # only scheduled transmitters' fading rows are generated: with L near 0
    # most replications schedule nobody and generate none (0.02 I leaves a
    # few scheduled nodes), with L huge every node is scheduled and every
    # row is generated; counts replay rep by rep at one and 7 rows a block
    params = _power_params(tau=0.5, noise=0.05)
    plan = ds.SimulationPlan(120, 2**64 + 9)
    rng = np.random.default_rng(21)
    pgeo, _ = _instance(22, n=5)
    tgeo = ds.NetworkGeometry.txrx(rng.uniform(0.0, 1.0, size=(5, 2)))
    for scale in (1e-9, 0.02, 1e9):
        L = ds.LEnsemble.from_matrix(scale * np.eye(5))
        for geo, sim in ((pgeo, ds.simulate_pair_coverage), (tgeo, ds.simulate_txrx)):
            hits = _replay_coverage(geo, L, params, plan)
            for rows in (1, 7):
                monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", rows * 8 * (2 * 5 + 5 ** 2))
                got = sim(geo, L, params, plan)
                monkeypatch.undo()
                if geo.mode == "pairs":
                    got = {(i, i): est for i, est in enumerate(got)}
                assert len(got) == (5 if geo.mode == "pairs" else 20)
                for (i, j), est in got.items():
                    assert est.mean * plan.replications == pytest.approx(hits[i, j], abs=1e-9)
            if scale == 0.02 or (scale == 1e9 and geo.mode == "pairs"):
                assert hits.sum() > 0
            else:
                assert hits.sum() == 0


def _delay_instances():
    """A pairs, a txrx and a txrx instance with two coincident nodes (whose
    links between each other have no signal, and each deafens the other's
    slot), with every link covered often enough to play to its first
    success at the default cap."""
    geo, L = _instance(14, n=4)
    rng = np.random.default_rng(15)
    tgeo = ds.NetworkGeometry.txrx(rng.uniform(0.0, 1.0, size=(4, 2)))
    tl = ds.LEnsemble.from_matrix(random_psd_l(rng, 4, scale=0.8))
    cgeo = ds.NetworkGeometry.txrx([[0.0, 0.0], [0.0, 0.0], [0.6, 0.1], [0.2, 0.5]])
    cl = ds.LEnsemble.from_matrix(random_psd_l(rng, 4, scale=0.8))
    return [(geo, L, [2], [0, 3]), (tgeo, tl, [(1, 3)], [(0, 2), (3, 1)]),
            (cgeo, cl, [(2, 0)], [(0, 3), (3, 1)])]


def test_first_successes_match_slot_loops():
    # per replication, not just in the mean: every tracked link's first
    # success slot and the censored counts equal the slot-by-slot
    # reference, with every link or one or two links tracked, at caps that
    # censor and at the default
    params = _power_params(tau=0.3, noise=0.02)
    for geo, L, one, two in _delay_instances():
        for keys in (None, one, two):
            arena = montecarlo._Arena(geo, L, params)
            if keys is not None:
                arena.track(geo, keys)
            for cap in (1, 3, 7, montecarlo.DEFAULT_DELAY_CAP):
                delays, censored = montecarlo._first_successes(arena, 41, 60, cap)
                ref, ref_censored = local_delay_loops(arena, 41, 60, cap)
                assert delays.dtype == ref.dtype and np.array_equal(delays, ref)
                assert np.array_equal(censored, ref_censored)
                if cap == 3:
                    assert censored.sum() > 0


def test_delay_block_boundaries_do_not_change_estimates(monkeypatch):
    # one replication per block and an uneven split (blocks of 7 out of
    # 60) give the default block's delay estimates, with and without
    # censoring, for seeds of one and of five entropy words
    params = _power_params(tau=0.3, noise=0.02)
    for geo, L, _, two in _delay_instances():
        gen_row = 8 * geo.n ** 2 + montecarlo._GENERATOR_BYTES
        for seed in (78, 2**128 + 78):
            for plan, keys in ((ds.SimulationPlan(60, seed), None),
                               (ds.SimulationPlan(60, seed, delay_cap=3), two)):
                default = ds.simulate_local_delay(geo, L, params, plan, links=keys)
                for rows in (1, 7):
                    monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", rows * gen_row)
                    assert ds.simulate_local_delay(geo, L, params, plan, links=keys) == default
                monkeypatch.undo()


def test_delay_draws_once_per_played_slot(monkeypatch):
    # perfbench's mc_delay counts its items (slots) by wrapping
    # _sampling.draw_mask on the module during an untimed replay, so the
    # delay engine must call it through the module, once per played
    # (replication, slot) pair.  When the benchmark counts slots another
    # way (ROADMAP item 1), this pin changes with it.
    params = _power_params(tau=0.3, noise=0.02)
    draw = _sampling.draw_mask
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return draw(*args)

    for geo, L, _, two in _delay_instances():
        for cap, keys in ((montecarlo.DEFAULT_DELAY_CAP, None), (3, two)):
            arena = montecarlo._Arena(geo, L, params)
            arena.track(geo, arena.keys if keys is None else keys)
            ref, _ = local_delay_loops(arena, 5, 40, cap)
            monkeypatch.setattr(_sampling, "draw_mask", counting)
            calls[0] = 0
            ds.simulate_local_delay(geo, L, params, ds.SimulationPlan(40, 5, delay_cap=cap),
                                    links=keys)
            monkeypatch.undo()
            # a replication plays until its last first success, or the cap
            assert calls[0] == ref.max(axis=1).sum()
    # with no link to track (two coincident nodes) no slot is played
    geo = ds.NetworkGeometry.txrx([[0.0, 0.0], [0.0, 0.0]])
    monkeypatch.setattr(_sampling, "draw_mask", counting)
    calls[0] = 0
    assert ds.simulate_local_delay(geo, ds.LEnsemble.from_matrix(np.eye(2)), params,
                                   ds.SimulationPlan(5, 1)) == {}
    assert calls[0] == 0


def test_bernoulli_estimates_match_scalar_reference():
    # every success count of a few replication counts, as arrays, gives
    # exactly the scalar estimate, in Python floats
    for reps in (1, 2, 3, 10, 997):
        counts = np.arange(reps + 1)
        got = montecarlo._bernoulli_estimates(counts, reps)
        assert got == [bernoulli_estimate(c, reps) for c in range(reps + 1)]
        assert all(type(e.mean) is float and type(e.std_error) is float for e in got)


def test_bernoulli_estimates_are_ordinary_estimates():
    # the estimates are built without the frozen __init__; each must still
    # be an Estimate in every observable way: equality, hash, repr,
    # frozenness, asdict, pickling, and Python float / int fields
    import dataclasses
    import pickle

    for reps in (1, 7):
        for got, c in zip(montecarlo._bernoulli_estimates(np.arange(reps + 1), reps), range(reps + 1)):
            ref = bernoulli_estimate(c, reps)
            assert type(got) is montecarlo.Estimate
            assert got == ref and hash(got) == hash(ref) and repr(got) == repr(ref)
            assert [type(v) for v in vars(got).values()] == [float, float, int]
            assert dataclasses.asdict(got) == dataclasses.asdict(ref)
            assert pickle.dumps(got) == pickle.dumps(ref)
            assert pickle.loads(pickle.dumps(got)) == ref
            with pytest.raises(dataclasses.FrozenInstanceError):
                got.mean = 0.5


def test_single_link_simulation_value():
    # closed form: K00 * exp(-tau * W / l(r)), no interference to worry about
    geo = ds.NetworkGeometry.pairs([[0.0, 0.0]], [[0.0, 1.0]])
    L = ds.LEnsemble.from_matrix([[1.0]])  # K00 = 1/2
    params = _power_params(tau=1.0, noise=0.3)
    est = ds.simulate_pair_coverage(geo, L, params, ds.SimulationPlan(40000, 17))[0]
    closed = 0.5 * math.exp(-0.3)
    assert abs(est.mean - closed) < 4.0 * est.std_error


def test_local_delay_simulation():
    geo, L = _instance(6)
    K = ds.l_to_k(L)
    params = _power_params(tau=0.5)
    delays = ds.simulate_local_delay(geo, L, params, ds.SimulationPlan(3000, 21))
    for i, est in delays.items():
        p = ds.pair_coverage(geo, K, i, params)
        assert p > 0.05
        assert est.censored == 0
        assert abs(est.mean - 1.0 / p) < 4.0 * est.std_error + 1e-9


def test_local_delay_links_selection_and_validation():
    geo, L = _instance(7)
    params = _power_params()
    out = ds.simulate_local_delay(geo, L, params, ds.SimulationPlan(50, 3), links=[1])
    assert set(out) == {1}
    # any iterable of links, a generator too, tracks the links it yields
    pair = ds.simulate_local_delay(geo, L, params, ds.SimulationPlan(50, 3), links=[2, 0])
    assert ds.simulate_local_delay(geo, L, params, ds.SimulationPlan(50, 3),
                                   links=(i for i in (2, 0))) == pair
    assert len(pair) == 2
    with pytest.raises(ds.BadArgument):
        ds.simulate_local_delay(geo, L, params, ds.SimulationPlan(50, 3), links=[9])
    with pytest.raises(ds.BadArgument):
        ds.simulate_local_delay(geo, L, params, ds.SimulationPlan(50, 3), links=[])

    rng = np.random.default_rng(8)
    tgeo = ds.NetworkGeometry.txrx(rng.uniform(0.0, 1.0, size=(3, 2)))
    tl = ds.LEnsemble.from_matrix(random_psd_l(rng, 3))
    tout = ds.simulate_local_delay(tgeo, tl, params, ds.SimulationPlan(50, 3), links=[(0, 2)])
    assert set(tout) == {(0, 2)}
    with pytest.raises(ds.BadArgument):
        ds.simulate_local_delay(tgeo, tl, params, ds.SimulationPlan(50, 3), links=[(0, 0)])
    with pytest.raises(ds.BadArgument):
        ds.simulate_local_delay(tgeo, tl, params, ds.SimulationPlan(50, 3), links=[0])


def test_local_delay_links_resolve_as_geometry_link_does():
    # a link reference is checked by NetworkGeometry.link, as pair_coverage
    # checks it: bools and floats name no link, though they hash as ints
    geo, L = _instance(7)
    params, plan = _power_params(), ds.SimulationPlan(20, 3)
    want = ds.simulate_local_delay(geo, L, params, plan, links=[1])
    assert ds.simulate_local_delay(geo, L, params, plan, links=[np.int64(1)]) == want
    for link in (True, 1.0, np.float64(1.0), (1.0,), "1", None):
        with pytest.raises(ds.BadArgument, match="delay target"):
            ds.simulate_local_delay(geo, L, params, plan, links=[link])
    with pytest.raises(ds.BadArgument):
        ds.pair_coverage(geo, ds.l_to_k(L), True, params)

    tgeo = ds.NetworkGeometry.txrx([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    tl = ds.LEnsemble.from_matrix(np.eye(4))
    want = ds.simulate_local_delay(tgeo, tl, params, plan, links=[(0, 1)])
    assert ds.simulate_local_delay(tgeo, tl, params, plan,
                                   links=[(np.int64(0), np.int64(1))]) == want
    for link in ((0, 1.0), (0, True), (0.0, 1), [0, 1], (0, 1, 1), (0, 0), (0, 4), 0):
        with pytest.raises(ds.BadArgument, match="delay target"):
            ds.simulate_local_delay(tgeo, tl, params, plan, links=[link])
    # nodes 2 and 3 coincide: a link, but none with a defined signal
    with pytest.raises(ds.BadArgument, match="not a link with a defined signal"):
        ds.simulate_local_delay(tgeo, tl, params, plan, links=[(2, 3)])


def test_overflowing_sinr_bound_is_no_success():
    # threshold * (noise + interference) past the largest double is an
    # infinite bound, which no signal clears: every link fails, as its
    # closed form says, with no overflow warning
    geo = ds.NetworkGeometry.txrx([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    L = ds.LEnsemble.from_matrix([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    params = _power_params(tau=1e308, noise=1e10)
    plan = ds.SimulationPlan(30, 4, delay_cap=3)
    closed = {(lr.transmitter, lr.receiver): lr.coverage
              for lr in ds.full_report(geo, ds.l_to_k(L), params).links}
    assert set(closed.values()) == {0.0}
    cov = ds.simulate_txrx(geo, L, params, plan)
    assert set(cov) == set(closed)
    assert all(est.mean == 0.0 and est.std_error == 0.0 for est in cov.values())
    delays = ds.simulate_local_delay(geo, L, params, plan)
    assert set(delays) == set(closed)
    for link, est in delays.items():
        assert (est.mean, est.censored) == (3.0, 30)
        assert ds.local_delay(closed[link]).capped_mean(3) == est.mean


def test_library_deprecations_fail_the_suite():
    # pytest's filterwarnings turn a DeprecationWarning or FutureWarning
    # raised on behalf of any detsched module into an error, and leave
    # other modules' to the default filters
    for category in (DeprecationWarning, FutureWarning):
        for module in ("detsched", "detsched.montecarlo", "detsched.cli"):
            with pytest.raises(category):
                warnings.warn_explicit("deprecated", category, "x.py", 1, module=module)
        with warnings.catch_warnings(record=True) as seen:
            warnings.warn_explicit("deprecated", category, "x.py", 1, module="numpy.linalg")
        assert [w.category for w in seen] == [category]


def test_local_delay_censoring():
    geo, L = _instance(9)
    params = _power_params(tau=2.0)
    reps = 300
    plan = ds.SimulationPlan(reps, 33, delay_cap=1)
    out = ds.simulate_local_delay(geo, L, params, plan)
    cov = ds.simulate_pair_coverage(geo, L, params, plan)
    for i, est in out.items():
        # with a one-slot cap every delay is recorded as 1
        assert est.mean == 1.0
        assert est.replications == reps
        # censored replications are exactly the first-slot failures
        assert est.censored == reps - round(cov[i].mean * reps)


def test_delay_caps_beyond_int64():
    # a censored replication is written at the last slot played, so a plan
    # may carry caps an int64 cannot hold: on links that succeed within a
    # few slots they give the default cap's estimates
    geo = ds.NetworkGeometry.pairs([[0.0, 0.0], [5.0, 0.0]], [[0.1, 0.0], [5.1, 0.0]])
    L = ds.LEnsemble.from_matrix(np.diag([9.0, 9.0]))
    params = _power_params(tau=0.5)
    want = ds.simulate_local_delay(geo, L, params, ds.SimulationPlan(10, 1))
    assert all(est.censored == 0 and est.mean < 3.0 for est in want.values())
    for cap in (2**63 - 1, 2**63, 2**64, 10**400):
        plan = ds.SimulationPlan(10, 1, cap)
        assert ds.simulate_local_delay(geo, L, params, plan) == want


def test_pairs_zero_length_link_rejected():
    geo = ds.NetworkGeometry.pairs([[0.0, 0.0]], [[0.0, 0.0]])
    L = ds.LEnsemble.from_matrix([[1.0]])
    with pytest.raises(ds.SingularDistance):
        ds.simulate_pair_coverage(geo, L, _power_params(), ds.SimulationPlan(10, 1))


def test_txrx_coincident_nodes_link_omitted():
    geo = ds.NetworkGeometry.txrx([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    L = ds.LEnsemble.from_matrix(np.diag([1.0, 1.0, 1.0]))
    out = ds.simulate_txrx(geo, L, _power_params(), ds.SimulationPlan(50, 2))
    assert (0, 1) not in out and (1, 0) not in out
    assert (0, 2) in out and (2, 1) in out
    # delay tracks the same links by default, so no replication plays to
    # the cap waiting on a link that can never succeed
    plan = ds.SimulationPlan(20, 2, delay_cap=50_000)
    delays = ds.simulate_local_delay(geo, L, _power_params(), plan)
    assert set(delays) == set(out)
    assert all(d.censored == 0 for d in delays.values())
    with pytest.raises(ds.BadArgument):
        ds.simulate_local_delay(geo, L, _power_params(), plan, links=[(0, 1)])


def test_kernel_size_mismatch():
    geo, _ = _instance(10, n=3)
    L = ds.LEnsemble.from_matrix([[1.0]])
    with pytest.raises(ds.BadArgument):
        ds.simulate_pair_coverage(geo, L, _power_params(), ds.SimulationPlan(10, 1))
    # the right size in the wrong mode
    _, L3 = _instance(10, n=3)
    nodes = ds.NetworkGeometry.txrx(geo.transmitter_points())
    with pytest.raises(ds.BadArgument, match="'pairs' geometry"):
        ds.simulate_pair_coverage(nodes, L3, _power_params(), ds.SimulationPlan(10, 1))
    with pytest.raises(ds.BadArgument, match="'txrx' geometry"):
        ds.simulate_txrx(geo, L3, _power_params(), ds.SimulationPlan(10, 1))


def test_arena_loss_is_the_scalar_path_loss():
    # the simulator reads the closed forms' channel table: every entry its
    # SINR test uses is scalar path_loss bit for bit, the rest deafen
    from detsched.propagation import _distance

    rng = np.random.default_rng(91)
    table = ds.TabulatedPathLoss(np.array([0.0, 0.5, 1.0, 3.0]),
                                 np.array([1.5, 0.6, 0.25, 0.01]))
    for model in (ds.PowerLawPathLoss(1.3, 3.7), table):
        params = ds.PropagationParams(model, threshold=1.0)
        tx, rx = random_pairs_geometry(rng, 6)
        tx[1] = rx[0]  # an interferer on top of a receiver
        pts = rng.uniform(0.0, 1.0, size=(6, 2))
        pts[1] = pts[0]  # coincident nodes
        for geo in (ds.NetworkGeometry.pairs(tx, rx), ds.NetworkGeometry.txrx(pts)):
            L = ds.LEnsemble.from_matrix(random_psd_l(rng, 6))
            arena = montecarlo._Arena(geo, L, params)
            a, b = geo.transmitter_points(), geo.receiver_points()
            for z in range(6):
                for p in range(6):
                    d = _distance(a[z], b[p])
                    silent = geo.mode == "txrx" and z == p
                    drowned = model.singular_at_zero and d <= 1e-12
                    assert arena.deafening[z, p] == (silent or drowned)
                    expect = 0.0 if silent or drowned else ds.path_loss(model, d)
                    assert arena.loss[z, p] == expect


def _table(name):
    from test_coverage import _TABLES

    radii, values = _TABLES[name]
    return ds.TabulatedPathLoss(np.array(radii), np.array(values))


def test_simulation_table_without_zero_distance():
    # a txrx receiver sits at distance 0 from itself, outside this table;
    # as a silent node it is never judged, so the simulation runs
    rng = np.random.default_rng(92)
    geo = ds.NetworkGeometry.txrx(rng.uniform(0.0, 1.0, size=(4, 2)))
    L = ds.LEnsemble.from_matrix(random_psd_l(rng, 4, scale=1.5))
    params = ds.PropagationParams(_table("no_zero"), threshold=0.5, noise=0.05)
    ests = ds.simulate_txrx(geo, L, params, ds.SimulationPlan(300, 93))
    assert set(ests) == {(i, j) for i in range(4) for j in range(4) if i != j}
    assert 0.0 < sum(est.mean for est in ests.values())


def test_simulation_raises_the_scalar_path_loss_error():
    # a distance beyond the table: the simulator raises what path_loss
    # raises at the first such (node, receiver slot) entry
    from detsched.propagation import _distance

    rng = np.random.default_rng(94)
    pts = rng.uniform(0.0, 1.0, size=(5, 2))
    geo = ds.NetworkGeometry.txrx(pts)
    L = ds.LEnsemble.from_matrix(random_psd_l(rng, 5))
    short = _table("short")
    far = next(d for d in (_distance(pts[z], pts[p]) for z in range(5) for p in range(5))
               if d > 0.8)
    with pytest.raises(ds.BadArgument) as want:
        ds.path_loss(short, far)
    params = ds.PropagationParams(short, threshold=1.0)
    for simulate in (ds.simulate_txrx, ds.simulate_local_delay):
        with pytest.raises(ds.BadArgument) as got:
            simulate(geo, L, params, ds.SimulationPlan(10, 1))
        assert str(got.value) == str(want.value)


def test_simulation_power_law_overflow_is_singular():
    # r^-400 overflows a double at r = 0.1: the closed forms report it per
    # link, the simulator refuses the instance rather than drop the links
    geo = ds.NetworkGeometry.txrx([[0.0, 0.0], [0.1, 0.0], [1.0, 0.0]])
    L = ds.LEnsemble.from_matrix(np.eye(3))
    params = _power_params(beta=400.0)
    for simulate in (ds.simulate_txrx, ds.simulate_local_delay):
        with pytest.raises(ds.SingularDistance, match="overflows at distance 0.1"):
            simulate(geo, L, params, ds.SimulationPlan(10, 1))
    pairs = ds.NetworkGeometry.pairs([[0.0, 0.0], [1.0, 0.0]], [[0.1, 0.0], [0.95, 0.0]])
    with pytest.raises(ds.SingularDistance, match="overflows"):
        ds.simulate_pair_coverage(pairs, ds.LEnsemble.from_matrix(np.eye(2)), params,
                                  ds.SimulationPlan(10, 1))
