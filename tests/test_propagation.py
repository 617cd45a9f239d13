import math

import numpy as np
import pytest

import detsched as ds
from detsched.rng import exponential_fading, substream


def _params(**kw):
    defaults = dict(
        pathloss=ds.PowerLawPathLoss(kappa=1.0, exponent=2.0),
        threshold=1.0,
        fading_mean=1.0,
        noise=0.0,
    )
    defaults.update(kw)
    return ds.PropagationParams(**defaults)


def test_power_law_values_and_singularity():
    model = ds.PowerLawPathLoss(kappa=2.0, exponent=3.0)
    assert ds.path_loss(model, 0.5) == pytest.approx(1.0)
    assert ds.path_loss(model, 1.0) == pytest.approx(0.125)
    assert model.singular_at_zero
    with pytest.raises(ds.SingularDistance):
        ds.path_loss(model, 0.0)
    with pytest.raises(ds.SingularDistance):
        ds.path_loss(model, 1e-13)
    # an int beyond the doubles and a bool are no kappa either
    for bad in (dict(kappa=0.0, exponent=2.0), dict(kappa=1.0, exponent=-1.0),
                dict(kappa=math.inf, exponent=2.0), dict(kappa=10**400, exponent=2.0),
                dict(kappa=True, exponent=2.0)):
        with pytest.raises(ds.BadArgument):
            ds.PowerLawPathLoss(**bad)


def test_channel_bounds_raise_detsched_errors():
    # each bound is a BadArgument naming its field: an int beyond the
    # doubles is not finite, and a bool is not a number
    for key, bad, text in [("threshold", 10**400, "must be finite"),
                           ("noise", 10**400, "must be finite"),
                           ("threshold", True, "must be a number, got True"),
                           ("fading_mean", 0, "must be > 0.0, got 0.0")]:
        with pytest.raises(ds.BadArgument) as e:
            _params(**{key: bad})
        assert str(e.value) == f"{key} {text}"


def test_tabulated_path_loss():
    model = ds.TabulatedPathLoss(
        radii=np.array([0.0, 1.0, 2.0]), values=np.array([1.0, 0.5, 0.25])
    )
    assert not model.singular_at_zero
    assert ds.path_loss(model, 0.0) == pytest.approx(1.0)
    assert ds.path_loss(model, 0.5) == pytest.approx(0.75)
    assert ds.path_loss(model, 1.5) == pytest.approx(0.375)
    assert ds.path_loss(model, 2.0) == pytest.approx(0.25)
    # the message prints Python floats, not numpy >= 2's np.float64(2.0)
    with pytest.raises(ds.BadArgument) as e:
        ds.path_loss(model, 2.1)
    assert str(e.value) == "distance 2.1 outside tabulated range [0.0, 2.0]"
    with pytest.raises(ds.BadArgument):
        ds.path_loss(model, -0.1)


def test_nan_distance_raises_under_both_models():
    table = ds.TabulatedPathLoss(np.array([0.0, 1.0]), np.array([1.0, 0.5]))
    for model in (ds.PowerLawPathLoss(1.0, 2.0), table):
        p = _params(pathloss=model, noise=0.1)
        with pytest.raises(ds.BadArgument, match="distance must be a number, got nan"):
            ds.path_loss(model, math.nan)
        with pytest.raises(ds.BadArgument):
            ds.interferer_factor(math.nan, 0.5, p)
        with pytest.raises(ds.BadArgument):
            ds.noise_factor(math.nan, p)


def test_tabulated_path_loss_validation():
    with pytest.raises(ds.BadArgument):
        ds.TabulatedPathLoss(np.array([1.0, 0.5]), np.array([1.0, 0.5]))
    with pytest.raises(ds.BadArgument):
        ds.TabulatedPathLoss(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(ds.BadArgument):
        ds.TabulatedPathLoss(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ds.BadArgument):
        ds.TabulatedPathLoss(np.array([0.0, 1.0]), np.array([1.0, -0.5]))
    with pytest.raises(ds.BadArgument):
        ds.TabulatedPathLoss(np.array([-1.0, 1.0]), np.array([1.0, 0.5]))
    with pytest.raises(ds.BadArgument):
        ds.TabulatedPathLoss(np.array([0.0, np.inf]), np.array([1.0, 0.5]))


def test_propagation_params_validation():
    _params(threshold=0.0)  # boundary is allowed
    with pytest.raises(ds.BadArgument):
        _params(threshold=-0.5)
    with pytest.raises(ds.BadArgument):
        _params(fading_mean=0.0)
    with pytest.raises(ds.BadArgument):
        _params(noise=-1.0)
    with pytest.raises(ds.BadArgument):
        _params(threshold=math.inf)


def test_network_geometry():
    geo = ds.NetworkGeometry.pairs([[0.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 1.0]])
    assert geo.mode == "pairs" and geo.n == 2
    np.testing.assert_allclose(geo.receiver_location(1), [1.0, 1.0])
    assert not geo.transmitters.flags.writeable

    nodes = ds.NetworkGeometry.txrx([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    assert nodes.mode == "txrx" and nodes.n == 3
    np.testing.assert_allclose(nodes.receiver_location(2), [0.0, 2.0])
    np.testing.assert_allclose(nodes.transmitter_points(), nodes.nodes)

    # one link key per link-table row: the transmitter of a pairs link, the
    # (transmitter, receiver) pair of a txrx link
    assert geo.link_keys() == [0, 1]
    assert nodes.link_keys() == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    assert nodes.link_keys() == [(t, r) for t, r, _ in nodes.links().tolist()]

    with pytest.raises(ds.BadArgument):
        ds.NetworkGeometry.pairs([[0.0, 0.0]], [[0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ds.BadArgument):
        ds.NetworkGeometry.pairs([[np.nan, 0.0]], [[0.0, 1.0]])
    with pytest.raises(ds.BadArgument):
        ds.NetworkGeometry.txrx(np.zeros((0, 2)))
    with pytest.raises(ds.BadArgument):
        ds.NetworkGeometry.txrx([1.0, 2.0])


def test_distances():
    from detsched.propagation import _distance_matrix

    d = _distance_matrix(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0], [0.0, 1.0]]))
    np.testing.assert_allclose(d, [[5.0, 1.0]])


def test_channel_table_is_the_scalar_rule_and_slots_are_its_columns():
    # the one builder of which losses are read: each entry is the scalar
    # distance and path loss (NaN where it raises), deafening where a node
    # sits on a slot under a singular loss or is a txrx slot's own node, and
    # a table at a few slots is the full table's columns bit for bit
    from detsched.propagation import _channel_table, _distance

    rng = np.random.default_rng(33)
    models = [ds.PowerLawPathLoss(1.5, 3.5), ds.PowerLawPathLoss(1.0, 400.0),
              ds.TabulatedPathLoss([0.0, 0.5, 1.0], [2.0, 0.8, 0.01])]
    for dim in (2, 3):
        pts = rng.uniform(0.0, 1.0, size=(7, dim))
        pts[4] = pts[1]
        rx = pts + 0.1
        rx[2] = pts[5]  # transmitter 5 on receiver 2
        for geo in (ds.NetworkGeometry.txrx(pts), ds.NetworkGeometry.pairs(pts, rx)):
            tx, slots_at = geo.transmitter_points(), geo.receiver_points()
            for model in models:
                full = _channel_table(geo, model)
                first = None
                for z in range(geo.n):
                    for p in range(geo.n):
                        d = _distance(tx[z], slots_at[p])
                        assert full.dist[z, p] == d
                        try:
                            assert full.loss[z, p] == ds.path_loss(model, d)
                        except ds.DetschedError:
                            assert math.isnan(full.loss[z, p])
                        deaf = (model.singular_at_zero and d <= 1e-12) or (
                            geo.mode == "txrx" and z == p)
                        assert full.deafening[z, p] == deaf
                        if first is None and math.isnan(full.loss[z, p]) and not deaf:
                            first = (z, p)
                assert full.undefined == first
                for slots in ([3], [6, 0, 2]):
                    part = _channel_table(geo, model, slots)
                    assert np.array_equal(part.dist, full.dist[:, slots])
                    assert np.array_equal(part.loss, full.loss[:, slots], equal_nan=True)
                    assert np.array_equal(part.deafening, full.deafening[:, slots])
                    bad = [(z, p) for z in range(geo.n) for p in slots
                           if math.isnan(full.loss[z, p]) and not full.deafening[z, p]]
                    assert part.undefined == (bad[0] if bad else None)


def test_interferer_factor_known_values():
    p = _params()
    # loss ratio 1/4 at double distance under beta = 2
    assert ds.interferer_factor(2.0, 1.0, p) == pytest.approx(0.8, abs=1e-15)
    assert ds.interferer_factor(1.0, 1.0, p) == pytest.approx(0.5, abs=1e-15)
    assert ds.interferer_factor(2.0, 1.0, _params(threshold=0.0)) == 1.0
    # an interferer on top of the receiver drowns the link, threshold or not
    assert ds.interferer_factor(0.0, 1.0, p) == 0.0
    assert ds.interferer_factor(0.0, 1.0, _params(threshold=0.0)) == 0.0
    with pytest.raises(ds.SingularDistance):
        ds.interferer_factor(1.0, 0.0, p)


def test_interferer_factor_tabulated_is_bounded_at_zero():
    model = ds.TabulatedPathLoss(np.array([0.0, 1.0]), np.array([1.0, 0.5]))
    p = _params(pathloss=model)
    # ratio l(0)/l(1) = 2
    assert ds.interferer_factor(0.0, 1.0, p) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_noise_factor_known_values():
    assert ds.noise_factor(1.0, _params(noise=0.1)) == pytest.approx(
        0.9048374180359595, abs=1e-15
    )
    assert ds.noise_factor(1.0, _params(noise=0.0)) == 1.0
    assert ds.noise_factor(1.0, _params(threshold=0.0, noise=5.0)) == 1.0
    assert ds.noise_factor(1.0, _params(noise=0.1, fading_mean=2.0)) == pytest.approx(
        math.exp(-0.05), abs=1e-15
    )


def test_degenerate_signal_message_prints_python_floats():
    # a numpy scalar distance prints as the float it holds, not numpy >= 2's
    # np.float64(1.0)
    table = ds.TabulatedPathLoss(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.0, 0.0]))
    p = _params(pathloss=table, noise=0.1)
    expect = "path loss at signal distance 1.0 is 0.0"
    for distance in (np.float64(1.0), 1.0, 1):
        with pytest.raises(ds.DegenerateSignal) as e:
            ds.noise_factor(distance, p)
        assert str(e.value) == expect
        with pytest.raises(ds.DegenerateSignal) as e:
            ds.interferer_factor(0.5, distance, p)
        assert str(e.value) == expect


def _two_pair_geometry():
    # link 0: receiver one unit above tx0; tx1 two units from that receiver
    return ds.NetworkGeometry.pairs(
        [[0.0, 0.0], [0.0, 3.0]], [[0.0, 1.0], [0.0, 4.0]]
    )


def test_sinr_known_value():
    geo = _two_pair_geometry()
    fading = np.ones((2, 2))
    got = ds.sinr(geo, _params(), 0, [1], fading)
    assert got == pytest.approx(4.0, abs=1e-12)  # 1 / (1/4)
    with_noise = ds.sinr(geo, _params(noise=0.25), 0, [1], fading)
    assert with_noise == pytest.approx(2.0, abs=1e-12)
    assert ds.sinr(geo, _params(), 0, [], fading) == math.inf
    zero = ds.sinr(geo, _params(), 0, [], {(0, 0): 0.0})
    assert zero == 0.0


def test_sinr_coincident_interferer_is_zero():
    geo = ds.NetworkGeometry.pairs(
        [[0.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [5.0, 5.0]]
    )
    # transmitter 1 sits exactly on receiver 0
    assert ds.sinr(geo, _params(), 0, [1], np.ones((2, 2))) == 0.0


def test_sinr_argument_validation():
    geo = _two_pair_geometry()
    fading = np.ones((2, 2))
    with pytest.raises(ds.BadArgument):
        ds.sinr(geo, _params(), 0, [0], fading)
    with pytest.raises(ds.BadArgument):
        ds.sinr(geo, _params(), 0, [1, 1], fading)
    with pytest.raises(ds.BadArgument):
        ds.sinr(geo, _params(), 0, [5], fading)
    with pytest.raises(ds.BadArgument):
        ds.sinr(geo, _params(), 5, [], fading)
    with pytest.raises(ds.BadArgument):
        ds.sinr(geo, _params(), 0, [], fading, receiver=1)

    nodes = ds.NetworkGeometry.txrx([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    fading3 = np.ones((3, 3))
    with pytest.raises(ds.BadArgument):
        ds.sinr(nodes, _params(), 0, [], fading3)  # receiver required
    with pytest.raises(ds.SameNode):
        ds.sinr(nodes, _params(), 0, [], fading3, receiver=0)
    with pytest.raises(ds.BadArgument):
        ds.sinr(nodes, _params(), 0, [1], fading3, receiver=1)  # receiver is silent
    got = ds.sinr(nodes, _params(), 0, [2], fading3, receiver=1)
    assert got > 0

    # an index is an int, not a bool or a float, in both functions
    fixed_coverage = lambda g, t, zs, r=None: ds.pair_coverage_fixed(g, _params(), t, zs, receiver=r)
    fixed_sinr = lambda g, t, zs, r=None: ds.sinr(g, _params(), t, zs, fading3, receiver=r)
    for fn in (fixed_coverage, fixed_sinr):
        for bad in (True, 1.0):
            with pytest.raises(ds.BadArgument, match="transmitter index"):
                fn(nodes, bad, [], 2)
            with pytest.raises(ds.BadArgument, match="receiver index"):
                fn(nodes, 0, [], bad)
            with pytest.raises(ds.BadArgument, match="interferer index"):
                fn(nodes, 0, [bad], 2)
            with pytest.raises(ds.BadArgument, match="transmitter index"):
                fn(geo, bad, [])
            with pytest.raises(ds.BadArgument, match="interferer index"):
                fn(geo, 0, [bad])
        i = np.int64
        assert fn(nodes, i(0), [i(2)], i(1)) == fn(nodes, 0, [2], 1)
        assert fn(geo, i(0), [i(1)], i(0)) == fn(geo, 0, [1])


def test_sinr_fading_lookup():
    geo = _two_pair_geometry()
    with pytest.raises(ds.IncompleteFading):
        ds.sinr(geo, _params(), 0, [1], {(0, 0): 1.0})
    with pytest.raises(ds.IncompleteFading):
        ds.sinr(geo, _params(), 0, [1], np.ones((1, 1)))
    with pytest.raises(ds.BadArgument):
        ds.sinr(geo, _params(), 0, [], {(0, 0): -1.0})
    got = ds.sinr(geo, _params(), 0, [1], {(0, 0): 2.0, (1, 0): 1.0})
    assert got == pytest.approx(8.0, abs=1e-12)


def test_pair_coverage_fixed_known_value():
    # single interferer at the same distance as the signal: factor 1/2
    geo = ds.NetworkGeometry.pairs(
        [[0.0, 0.0], [0.0, 2.0]], [[0.0, 1.0], [9.0, 9.0]]
    )
    got = ds.pair_coverage_fixed(geo, _params(), 0, [1])
    assert got == pytest.approx(0.5, abs=1e-15)
    # no interferers, no noise: certain coverage
    assert ds.pair_coverage_fixed(geo, _params(), 0, []) == pytest.approx(1.0)
    with_noise = ds.pair_coverage_fixed(geo, _params(noise=0.1), 0, [])
    assert with_noise == pytest.approx(math.exp(-0.1), abs=1e-15)


def test_exponential_fading_inverse_transform():
    rng = substream(5, 0)
    draws = exponential_fading(rng, 2.0, 3)
    check = substream(5, 0)
    np.testing.assert_allclose(draws, -2.0 * np.log1p(-check.random(3)), atol=0)
    assert np.all(draws >= 0)
    big = exponential_fading(substream(5, 1), 1.0, 100000)
    se = big.std(ddof=1) / math.sqrt(big.size)
    assert abs(big.mean() - 1.0) < 4 * se
