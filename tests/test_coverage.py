import dataclasses
import decimal
import hashlib
import math
import sys
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import detsched as ds

from _oracles import (
    conditional_raw_bordered,
    conditional_raw_loops,
    conditional_raw_semi_reduced,
    fraction_link,
    fraction_link_det,
    fraction_marginal_kernel,
    fraction_pmf,
    link_report_loops,
    pmf_from_l,
    random_pairs_geometry,
    random_psd_l,
)
from detsched import coverage as coverage_module
from detsched.dpp import PALM_PIVOT_TOL


def _power_params(tau=1.0, beta=2.0, noise=0.0, mu=1.0):
    return ds.PropagationParams(
        pathloss=ds.PowerLawPathLoss(kappa=1.0, exponent=beta),
        threshold=tau,
        fading_mean=mu,
        noise=noise,
    )


def _discount_matrix(points, receivers, params):
    """H[z, i]: discount at receiver i from interferer z, from first
    principles (mirrors nothing in the library)."""
    model = params.pathloss
    tau = params.threshold

    def ell(r):
        if isinstance(model, ds.PowerLawPathLoss):
            return (model.kappa * r) ** (-model.exponent)
        return float(np.interp(r, model.radii, model.values))

    n = len(points)
    m = len(receivers)
    H = np.ones((n, m))
    for i in range(m):
        r = float(np.linalg.norm(points[i] - receivers[i])) if n == m else None
        for z in range(n):
            s = float(np.linalg.norm(points[z] - receivers[i]))
            ri = float(np.linalg.norm(points[i] - receivers[i]))
            if isinstance(model, ds.PowerLawPathLoss) and s <= 1e-12:
                H[z, i] = 0.0
            elif tau > 0:
                H[z, i] = 1.0 / (1.0 + tau * ell(s) / ell(ri))
    return H


def _noise_vec(points, receivers, params):
    model = params.pathloss

    def ell(r):
        if isinstance(model, ds.PowerLawPathLoss):
            return (model.kappa * r) ** (-model.exponent)
        return float(np.interp(r, model.radii, model.values))

    w = np.ones(len(receivers))
    if params.threshold > 0 and params.noise > 0:
        for i in range(len(receivers)):
            r = float(np.linalg.norm(points[i] - receivers[i]))
            w[i] = math.exp(-(params.threshold / params.fading_mean) * params.noise / ell(r))
    return w


def _oracle_pair(pmf, H, w, i):
    joint = 0.0
    mass = 0.0
    for s, p in pmf.items():
        if i not in s:
            continue
        mass += p
        f = w[i]
        for z in s:
            if z != i:
                f *= H[z, i]
        joint += p * f
    return joint, mass


def test_pair_coverage_matches_enumeration():
    rng = np.random.default_rng(71)
    for case in range(20):
        n = int(rng.integers(2, 7))
        tx, rx = random_pairs_geometry(rng, n)
        geo = ds.NetworkGeometry.pairs(tx, rx)
        Lm = random_psd_l(rng, n)
        K = ds.l_to_k(ds.LEnsemble.from_matrix(Lm))
        params = _power_params(
            tau=[0.1, 1.0, 10.0][case % 3],
            beta=[2.0, 4.0][case % 2],
            noise=[0.0, 0.1][(case // 2) % 2],
        )
        pmf = pmf_from_l(Lm)
        H = _discount_matrix(tx, rx, params)
        w = _noise_vec(tx, rx, params)
        for i in range(n):
            joint, mass = _oracle_pair(pmf, H, w, i)
            cov = ds.pair_coverage(geo, K, i, params)
            cond = ds.conditional_pair_coverage(geo, K, i, params)
            assert cov == pytest.approx(joint, rel=1e-9, abs=1e-13)
            assert cond == pytest.approx(joint / mass, rel=1e-9, abs=1e-13)


def test_two_pair_closed_form():
    # n = 2: coverage collapses to k00 (1 - (k11 - k01^2/k00)(1 - h)) w
    rng = np.random.default_rng(72)
    geo = ds.NetworkGeometry.pairs([[0.0, 0.0], [0.7, 0.2]], [[0.3, 0.4], [0.9, 0.8]])
    params = _power_params(tau=1.3, beta=3.0, noise=0.05)
    H = _discount_matrix(geo.transmitters, geo.receivers, params)
    w = _noise_vec(geo.transmitters, geo.receivers, params)
    for _ in range(40):
        th = rng.uniform(0.0, math.pi)
        c, s = math.cos(th), math.sin(th)
        lam = rng.uniform(0.05, 0.95, size=2)
        Q = np.array([[c, -s], [s, c]])
        K = ds.MarginalKernel.from_matrix((Q * lam) @ Q.T)
        k = K.matrix
        expect = k[0, 0] * (1.0 - (k[1, 1] - k[0, 1] ** 2 / k[0, 0]) * (1.0 - H[1, 0])) * w[0]
        assert ds.pair_coverage(geo, K, 0, params) == pytest.approx(expect, abs=1e-12)


def test_coverage_kernel_determinant_identity():
    rng = np.random.default_rng(73)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        tx, rx = random_pairs_geometry(rng, n)
        geo = ds.NetworkGeometry.pairs(tx, rx)
        K = ds.l_to_k(ds.LEnsemble.from_matrix(random_psd_l(rng, n)))
        params = _power_params(tau=1.0, noise=0.1)
        for i in range(n):
            M = ds.coverage_kernel(geo, K, i, params)
            assert M.shape == (n, n)
            assert np.all(M[i, :i] == 0) and np.all(M[i, i + 1:] == 0)
            cov = ds.pair_coverage(geo, K, i, params)
            assert float(np.linalg.det(M)) == pytest.approx(cov, abs=1e-12)


def test_coverage_kernel_diagonal_entry():
    geo = ds.NetworkGeometry.pairs([[0.0, 0.0], [2.0, 0.0]], [[0.0, 1.0], [2.0, 1.0]])
    params = _power_params(noise=0.1)
    K = ds.MarginalKernel.from_matrix([[0.5, 0.1], [0.1, 0.5]])
    M = ds.coverage_kernel(geo, K, 0, params)
    assert M[0, 0] == pytest.approx(0.5 * math.exp(-0.1), abs=1e-15)


def _oracle_txrx(pmf, points, params, i, j):
    def ell(r):
        model = params.pathloss
        if isinstance(model, ds.PowerLawPathLoss):
            return (model.kappa * r) ** (-model.exponent)
        return float(np.interp(r, model.radii, model.values))

    r = float(np.linalg.norm(points[i] - points[j]))
    w = 1.0
    if params.threshold > 0 and params.noise > 0:
        w = math.exp(-(params.threshold / params.fading_mean) * params.noise / ell(r))
    joint = 0.0
    mass = 0.0
    model = params.pathloss
    for s, p in pmf.items():
        if i not in s or j in s:
            continue
        mass += p
        f = w
        for z in s:
            if z == i:
                continue
            d = float(np.linalg.norm(points[z] - points[j]))
            if isinstance(model, ds.PowerLawPathLoss) and d <= 1e-12:
                f = 0.0
            elif params.threshold > 0:
                f *= 1.0 / (1.0 + params.threshold * ell(d) / ell(r))
        joint += p * f
    return joint, mass


def test_txrx_coverage_matches_enumeration_power_law():
    rng = np.random.default_rng(74)
    for case in range(12):
        n = int(rng.integers(2, 6))
        pts = rng.uniform(0.0, 1.0, size=(n, 2))
        geo = ds.NetworkGeometry.txrx(pts)
        Lm = random_psd_l(rng, n)
        K = ds.l_to_k(ds.LEnsemble.from_matrix(Lm))
        params = _power_params(tau=[0.5, 1.0][case % 2], noise=[0.0, 0.1][case % 2])
        pmf = pmf_from_l(Lm)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                joint, mass = _oracle_txrx(pmf, pts, params, i, j)
                cov = ds.txrx_coverage(geo, K, i, j, params)
                cond = ds.txrx_conditional_coverage(geo, K, i, j, params)
                assert cov == pytest.approx(joint, rel=1e-9, abs=1e-13)
                assert cond == pytest.approx(joint / mass, rel=1e-9, abs=1e-13)


def test_txrx_coverage_matches_enumeration_tabulated():
    # a bounded loss table covering r = 0: the receiver's own loss is
    # finite, and still only its zero discount may enter
    model = ds.TabulatedPathLoss(
        radii=np.array([0.0, 0.25, 0.5, 1.0, 2.0]),
        values=np.array([1.0, 0.7, 0.45, 0.2, 0.05]),
    )
    rng = np.random.default_rng(75)
    for _ in range(8):
        n = int(rng.integers(2, 6))
        pts = rng.uniform(0.0, 1.0, size=(n, 2))
        geo = ds.NetworkGeometry.txrx(pts)
        Lm = random_psd_l(rng, n)
        K = ds.l_to_k(ds.LEnsemble.from_matrix(Lm))
        params = ds.PropagationParams(pathloss=model, threshold=0.8, noise=0.02)
        pmf = pmf_from_l(Lm)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                joint, mass = _oracle_txrx(pmf, pts, params, i, j)
                cov = ds.txrx_coverage(geo, K, i, j, params)
                assert cov == pytest.approx(joint, rel=1e-9, abs=1e-13)


def test_txrx_semi_reduced_variants_agree_under_power_law():
    # the receiver's own discount is 0, so the two-fold correction vanishes:
    # the semi-reduced identity, with or without it, and the one-fold Palm
    # route agree with the library's number, which the scalar bordered
    # reference gives exactly
    rng = np.random.default_rng(76)
    pts = rng.uniform(0.0, 1.0, size=(4, 2))
    geo = ds.NetworkGeometry.txrx(pts)
    K = ds.l_to_k(ds.LEnsemble.from_matrix(random_psd_l(rng, 4)))
    params = _power_params(tau=1.0, noise=0.05)
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            got = ds.txrx_conditional_coverage(geo, K, i, j, params)
            assert got == coverage_module._unit(conditional_raw_bordered(geo, K, params, i, j, j))
            _assert_near(got, coverage_module._unit(conditional_raw_loops(geo, K, params, i, j, j)))
            for semi in (False, True):
                raw = conditional_raw_semi_reduced(geo, K, params, i, j, j, semi)
                _assert_near(got, coverage_module._unit(raw))


def test_txrx_always_scheduled_receiver():
    geo = ds.NetworkGeometry.txrx([[0.0, 0.0], [1.0, 0.0]])
    K = ds.MarginalKernel.from_matrix(np.eye(2))
    with pytest.raises(ds.AlwaysScheduledReceiver):
        ds.txrx_conditional_coverage(geo, K, 0, 1, _power_params())
    # the unconditional form reports the zero-probability selection as 0
    assert ds.txrx_coverage(geo, K, 0, 1, _power_params()) == 0.0


def test_txrx_independent_two_node_value():
    geo = ds.NetworkGeometry.txrx([[0.0, 0.0], [0.0, 1.0]])
    K = ds.MarginalKernel.from_matrix(np.diag([0.5, 0.5]))
    params = _power_params(noise=0.1)
    w = math.exp(-0.1)
    # independent scheduling: P(0 active, 1 silent) = 1/4; no third party
    assert ds.txrx_conditional_coverage(geo, K, 0, 1, params) == pytest.approx(w, abs=1e-12)
    assert ds.txrx_coverage(geo, K, 0, 1, params) == pytest.approx(0.25 * w, abs=1e-12)


def test_txrx_argument_checks():
    geo = ds.NetworkGeometry.txrx([[0.0, 0.0], [1.0, 0.0]])
    K = ds.MarginalKernel.from_matrix(np.diag([0.5, 0.5]))
    with pytest.raises(ds.SameNode):
        ds.txrx_coverage(geo, K, 1, 1, _power_params())
    with pytest.raises(ds.BadArgument):
        ds.txrx_coverage(geo, K, 0, 5, _power_params())
    pairs_geo = ds.NetworkGeometry.pairs([[0.0, 0.0]], [[1.0, 0.0]])
    with pytest.raises(ds.BadArgument):
        ds.txrx_coverage(pairs_geo, ds.MarginalKernel.from_matrix([[0.5]]), 0, 0, _power_params())
    for fn in (ds.txrx_coverage, ds.txrx_conditional_coverage):
        for bad in (True, 1.0):
            with pytest.raises(ds.BadArgument, match="transmitter index"):
                fn(geo, K, bad, 0, _power_params())
            with pytest.raises(ds.BadArgument, match="receiver index"):
                fn(geo, K, 0, bad, _power_params())
        got = fn(geo, K, np.int64(0), np.int64(1), _power_params())
        assert got == fn(geo, K, 0, 1, _power_params())


def test_mode_and_size_checks():
    geo = ds.NetworkGeometry.txrx([[0.0, 0.0], [1.0, 0.0]])
    K = ds.MarginalKernel.from_matrix(np.diag([0.5, 0.5]))
    with pytest.raises(ds.BadArgument):
        ds.pair_coverage(geo, K, 0, _power_params())
    pairs_geo = ds.NetworkGeometry.pairs([[0.0, 0.0]], [[1.0, 0.0]])
    with pytest.raises(ds.BadArgument):
        ds.pair_coverage(pairs_geo, K, 0, _power_params())
    # link 1 exists: True and 1.0 must not name it
    two = ds.NetworkGeometry.pairs([[0.0, 0.0], [3.0, 0.0]], [[1.0, 0.0], [4.0, 0.0]])
    for fn in (ds.pair_coverage, ds.conditional_pair_coverage, ds.coverage_kernel):
        for bad in (True, 1.0):
            with pytest.raises(ds.BadArgument, match="transmitter index"):
                fn(two, K, bad, _power_params())
        np.testing.assert_array_equal(fn(two, K, np.int64(1), _power_params()),
                                      fn(two, K, 1, _power_params()))


def test_local_delay():
    d = ds.local_delay(0.25)
    assert d.mean == 4.0
    assert d.cdf(0) == 0.0
    assert d.cdf(2) == pytest.approx(1.0 - 0.75**2)
    never = ds.local_delay(0.0)
    assert never.mean == math.inf
    with pytest.raises(ds.BadArgument):
        d.cdf(-1)
    with pytest.raises(ds.BadArgument):
        ds.local_delay(1.5)
    # a slot count is an int, not a bool or a float; numpy ints count
    for bad in (True, 1.0):
        with pytest.raises(ds.BadArgument, match="slot count must be a nonnegative integer"):
            d.cdf(bad)
    assert d.cdf(np.int64(2)) == d.cdf(2)
    # a count past the largest double gives the formula's limit, not an
    # OverflowError; the largest count that fits keeps the formula's value
    huge, top = 10**400, int(sys.float_info.max)
    assert d.cdf(huge) == 1.0 and ds.local_delay(1.0).cdf(huge) == 1.0
    assert never.cdf(huge) == 0.0
    assert d.cdf(top) == 1.0 - 0.75 ** float(top) and never.cdf(top) == 0.0


def test_local_delay_capped_mean():
    # E[min(D, cap)] = sum over k < cap of (1 - p)^k = (1 - (1 - p)^cap) / p
    assert ds.local_delay(0.0).capped_mean(20) == 20.0
    assert ds.local_delay(1.0).capped_mean(20) == 1.0
    # exactly 1 at a cap of 1, where a simulation's estimate is exactly 1
    for p in (0.0, 1e-12, 0.05, 0.22715759353337972, 0.5, 1.0):
        assert ds.local_delay(p).capped_mean(1) == 1.0
    assert ds.local_delay(0.3).capped_mean(3) == pytest.approx(1.0 + 0.7 + 0.49, rel=1e-15)
    # a small p keeps its digits: (1 - p)^2 rounded first would lose them
    assert ds.local_delay(1e-10).capped_mean(2) == pytest.approx(2.0 - 1e-10, rel=1e-15)
    # the plain mean to the last bit where (1 - p)^cap rounds away against 1
    assert ds.local_delay(0.25).capped_mean(200) == 4.0
    assert ds.local_delay(0.25).capped_mean(10**400) == 4.0
    assert ds.local_delay(0.0).capped_mean(10**400) == math.inf
    for bad in (0, -1, True, 1.0):
        with pytest.raises(ds.BadArgument, match="slot cap must be a positive integer"):
            ds.local_delay(0.25).capped_mean(bad)


def test_min_coverage_for_success():
    got = ds.min_coverage_for_success(0.99, 10)
    assert got == pytest.approx(0.3690426555198068, abs=1e-15)
    assert ds.min_coverage_for_success(0.0, 5) == 0.0
    assert ds.min_coverage_for_success(0.5, 1) == pytest.approx(0.5)
    with pytest.raises(ds.BadArgument):
        ds.min_coverage_for_success(1.0, 5)
    with pytest.raises(ds.BadArgument):
        ds.min_coverage_for_success(0.5, 0)
    for bad in (True, 1.0):
        with pytest.raises(ds.BadArgument, match="slot count must be a positive integer"):
            ds.min_coverage_for_success(0.5, bad)
    assert ds.min_coverage_for_success(0.99, np.int64(10)) == got
    # a count past the largest double gives the formula's limit, 0
    for e in (0.0, 0.5, 0.99):
        assert ds.min_coverage_for_success(e, 10**400) == 0.0
    # ln 2 / top, which rounding 0.5 ** (1 / top) to 1 would lose to 0.0
    top = int(sys.float_info.max)
    assert math.isclose(ds.min_coverage_for_success(0.5, top), _geometric_exact(0.5, 1, top),
                        rel_tol=1e-12)


def _geometric_exact(p, power, over=1):
    """1 - (1 - p)^(power / over) to at least 50 digits, each argument read
    exactly: 380 digits keep 50 of a p or a result down to 1e-330."""
    with decimal.localcontext() as ctx:
        ctx.prec = 380
        return float(1 - ((1 - Decimal(p)).ln() * power / over).exp())


def test_geometric_law_keeps_its_digits_for_small_p():
    # 1 - (1 - p)^s and its inverse in expm1 / log1p form, against a decimal
    # oracle good to 50 digits: rounding 1 - p first loses every digit of a tiny p
    cases = [(1e-20, 10**10), (1e-9, 1000), (1e-300, 7), (1e-12, 10**6), (2.5e-5, 3),
             (0.3, 1), (0.3, 5), (0.999, 2), (1e-15, 10**15)]
    for p, s in cases:
        assert math.isclose(ds.local_delay(p).cdf(s), _geometric_exact(p, s), rel_tol=1e-14)
        cap = ds.local_delay(p).capped_mean(s)
        assert cap == ds.local_delay(p).cdf(s) / p or s == 1
        e = _geometric_exact(p, s)
        if e < 1.0:
            assert math.isclose(ds.min_coverage_for_success(e, s), p, rel_tol=1e-12)
    for e, s in ((0.5, 10**20), (1e-20, 3), (0.5, 10**10), (0.99, 10), (0.9, 10**300)):
        assert math.isclose(ds.min_coverage_for_success(e, s), _geometric_exact(e, 1, s),
                            rel_tol=1e-14)
    assert ds.min_coverage_for_success(0.5, 10**20) > 6.9e-21
    assert ds.local_delay(1e-20).cdf(10**10) > 0.99e-10
    # p = 0, p = 1 and zero slots keep their exact values, signs included
    for p in (0.0, 1e-20, 0.5, 1.0):
        assert math.copysign(1.0, ds.local_delay(p).cdf(0)) == 1.0
        assert ds.local_delay(p).cdf(0) == 0.0
    assert ds.local_delay(1.0).cdf(1) == 1.0 and ds.local_delay(0.0).cdf(10**400) == 0.0
    assert math.copysign(1.0, ds.min_coverage_for_success(0.0, 10)) == 1.0


def test_kernel_fingerprint():
    K = ds.MarginalKernel.from_matrix([[0.5, 0.1], [0.1, 0.5]])
    K2 = ds.MarginalKernel.from_matrix([[0.5, 0.1], [0.1, 0.5]])
    K3 = ds.MarginalKernel.from_matrix([[0.5, 0.2], [0.2, 0.5]])
    assert ds.kernel_fingerprint(K) == ds.kernel_fingerprint(K2)
    assert ds.kernel_fingerprint(K) != ds.kernel_fingerprint(K3)
    h = hashlib.sha256()
    h.update(str(K.matrix.shape).encode())
    h.update(np.ascontiguousarray(K.matrix).tobytes())
    assert ds.kernel_fingerprint(K) == h.hexdigest()


def test_full_report_pairs():
    geo = ds.NetworkGeometry.pairs([[0.0, 0.0], [2.0, 0.0]], [[0.0, 1.0], [2.0, 1.0]])
    K = ds.MarginalKernel.from_matrix(np.diag([0.0, 0.5]))
    rep = ds.full_report(geo, K, _power_params())
    assert rep.mode == "pairs" and len(rep.links) == 2
    dead, live = rep.links
    assert dead.flags == ("never_scheduled",)
    assert dead.coverage == 0.0 and dead.delay_mean == math.inf
    assert dead.conditional_coverage is None
    assert live.coverage == pytest.approx(0.5 * live.conditional_coverage)
    assert live.delay_mean == pytest.approx(1.0 / live.coverage)
    assert rep.kernel_fingerprint == ds.kernel_fingerprint(K)


def test_full_report_txrx():
    geo = ds.NetworkGeometry.txrx([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    K = ds.l_to_k(ds.LEnsemble.from_matrix(random_psd_l(np.random.default_rng(8), 3)))
    rep = ds.full_report(geo, K, _power_params())
    assert rep.mode == "txrx" and len(rep.links) == 6
    for lr in rep.links:
        assert lr.transmitter != lr.receiver
        if lr.error is None:
            assert lr.coverage == pytest.approx(
                ds.txrx_coverage(geo, K, lr.transmitter, lr.receiver, _power_params()),
                abs=1e-15,
            )


def test_full_report_matches_public_functions():
    # the report and the per-link functions run the same link-table row
    # through the same code, so they agree exactly in both modes
    table = ds.TabulatedPathLoss(
        radii=np.array([0.0, 0.5, 1.0, 3.0]), values=np.array([1.5, 0.6, 0.25, 0.01])
    )
    rng = np.random.default_rng(78)
    for case in range(16):
        n = int(rng.integers(1, 7))
        mode = ("pairs", "txrx")[case % 2]
        model = ds.PowerLawPathLoss(1.0, 2.5) if case % 4 < 2 else table
        params = ds.PropagationParams(model, threshold=0.7, noise=[0.0, 0.1][case % 3 == 0])
        if mode == "pairs":
            geo = ds.NetworkGeometry.pairs(*random_pairs_geometry(rng, n))
        else:
            geo = ds.NetworkGeometry.txrx(rng.uniform(0.0, 1.0, size=(n, 2)))
        K = ds.l_to_k(ds.LEnsemble.from_matrix(random_psd_l(rng, n)))
        links = geo.links()
        rep = ds.full_report(geo, K, params)
        assert len(rep.links) == len(links)
        if mode == "pairs":
            assert links.tolist() == [[i, i, -1] for i in range(n)]
            expect = [ds.pair_coverage(geo, K, i, params) for i in range(n)]
        else:
            assert links.tolist() == [[i, j, j] for i in range(n) for j in range(n) if i != j]
            expect = [ds.txrx_coverage(geo, K, i, j, params) for i, j, _ in links.tolist()]
        for lr, (t, p, s), cov in zip(rep.links, links.tolist(), expect):
            assert (lr.transmitter, lr.receiver) == (t, None if s < 0 else p)
            assert lr.error is None
            assert lr.coverage == cov


def test_full_report_captures_link_errors():
    # link 0 has zero length, indefensible under a singular path loss
    geo = ds.NetworkGeometry.pairs([[0.0, 0.0], [2.0, 0.0]], [[0.0, 0.0], [2.0, 1.0]])
    K = ds.MarginalKernel.from_matrix(np.diag([0.5, 0.5]))
    rep = ds.full_report(geo, K, _power_params())
    assert rep.links[0].error is not None
    assert rep.links[0].coverage is None
    assert rep.links[1].error is None


def test_exact_zero_coverage_is_positive_zero():
    # an always-scheduled node on link 0's receiver drowns it under r^-2
    # loss: det(I - K'_h) is exactly 0, and its product with -w / (1 - q)
    # must read 0.0, not -0.0
    pairs = ds.NetworkGeometry.pairs([[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]])
    txrx = ds.NetworkGeometry.txrx([[0.0, 0.0], [2.0, 0.0], [2.0, 0.0]])
    params = _power_params()
    for geo, K, ref, fns in (
            (pairs, np.diag([0.5, 1.0]), (0,), (ds.pair_coverage, ds.conditional_pair_coverage)),
            (txrx, np.diag([0.5, 0.5, 1.0]), (0, 1),
             (ds.txrx_coverage, ds.txrx_conditional_coverage))):
        K = ds.MarginalKernel.from_matrix(K)
        lr = ds.full_report(geo, K, params).links[0]
        values = [lr.conditional_coverage, lr.coverage] + [f(geo, K, *ref, params) for f in fns]
        assert [math.copysign(1.0, x) for x in values] == [1.0] * 4 and not any(values)


def test_zero_threshold_gives_selection_probability():
    rng = np.random.default_rng(77)
    tx, rx = random_pairs_geometry(rng, 4)
    geo = ds.NetworkGeometry.pairs(tx, rx)
    K = ds.l_to_k(ds.LEnsemble.from_matrix(random_psd_l(rng, 4)))
    params = _power_params(tau=0.0, noise=0.3)
    for i in range(4):
        assert ds.pair_coverage(geo, K, i, params) == float(K.matrix[i, i])
        assert ds.conditional_pair_coverage(geo, K, i, params) == 1.0


def test_zero_kernel_gives_zero_coverage_and_infinite_delay():
    geo = ds.NetworkGeometry.pairs([[0.0, 0.0]], [[0.0, 1.0]])
    K = ds.MarginalKernel.from_matrix([[0.0]])
    assert ds.pair_coverage(geo, K, 0, _power_params()) == 0.0
    rep = ds.full_report(geo, K, _power_params())
    assert rep.links[0].delay_mean == math.inf
    assert "never_scheduled" in rep.links[0].flags


def test_unscheduled_txrx_link_flags_its_smaller_factor():
    # selection K_tt (1 - q) at most 1e-12 with K_tt above it: a transmitter
    # scheduled with probability 2e-12 beside a receiver silent with
    # probability 0.42 is never scheduled, not its receiver always so
    geo = ds.NetworkGeometry.txrx([[0.0, 0.0], [1.0, 0.0]])
    for diag, flag in (([2e-12, 0.58], "never_scheduled"),
                       ([0.5, 1.0 - 1e-12], "receiver_always_scheduled"),
                       ([1e-12, 0.5], "never_scheduled")):
        K = ds.MarginalKernel.from_matrix(np.diag(diag))
        link = ds.full_report(geo, K, _power_params()).links[0]
        assert (link.transmitter, link.receiver) == (0, 1)
        assert link.selection_probability <= 1e-12
        assert link.flags == (flag,)
        assert (link.coverage, link.delay_mean) == (0.0, math.inf)
        assert link == link_report_loops(geo, K, _power_params(), 0, 1, 1)


_TABLES = {
    "table": ([0.0, 0.5, 1.0, 3.0], [1.5, 0.6, 0.25, 0.01]),
    # shorter than some interferer distances (BadArgument)
    "short": ([0.0, 0.4, 0.8], [1.2, 0.5, 0.2]),
    # no entry at distance 0, where a txrx receiver interferes with itself
    "no_zero": ([0.02, 0.5, 3.0], [1.0, 0.4, 0.02]),
    # zero beyond 0.7: a longer signal is degenerate (DegenerateSignal)
    "zero_tail": ([0.0, 0.4, 0.7, 3.0], [1.0, 0.3, 0.0, 0.0]),
}


def _branch_instance(rng, case):
    """A random instance (n <= 8) whose options cycle through every branch
    of the link evaluation."""
    n = 1 if case % 11 == 0 else int(rng.integers(2, 9))
    mode = "pairs" if n == 1 else ("pairs", "txrx")[case % 2]
    loss = ("power", "table", "short", "no_zero", "zero_tail")[(case // 2) % 5]
    if loss == "power":
        model = ds.PowerLawPathLoss(float(rng.uniform(0.5, 2.0)), float(rng.uniform(2.0, 4.0)))
    else:
        model = ds.TabulatedPathLoss(np.array(_TABLES[loss][0]), np.array(_TABLES[loss][1]))
    threshold = (0.0, 0.7, 3.0)[case % 3]
    noise = (0.0, 0.1)[(case // 3) % 2]
    params = ds.PropagationParams(model, threshold=threshold, noise=noise, fading_mean=1.3)
    if mode == "pairs":
        tx, rx = random_pairs_geometry(rng, n)
        if case % 4 == 2:
            rx[0] = tx[0]  # zero-length link (SingularDistance under a power law)
        geo = ds.NetworkGeometry.pairs(tx, rx)
    else:
        pts = rng.uniform(0.0, 1.0, size=(n, 2))
        if case % 4 == 3:
            pts[1] = pts[0]  # coincident nodes
        geo = ds.NetworkGeometry.txrx(pts)
    k = ds.l_to_k(ds.LEnsemble.from_matrix(random_psd_l(rng, n))).matrix.copy()
    if n > 2 and case % 5 == 1:
        k[-1, :] = k[:, -1] = 0.0  # never scheduled
    if n > 2 and case % 5 == 2:
        k[-1, :] = k[:, -1] = 0.0
        k[-1, -1] = 1.0  # always scheduled
    return geo, ds.MarginalKernel.from_matrix(k), params


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ds.DetschedError as e:
        return type(e), str(e)


def _assert_near(got, want, rel=1e-13):
    """Equal outcomes (values, LinkReports or error tuples) but for their
    floats, each within ``rel`` relative (or 1e-300 absolute) of ``want``'s."""
    if isinstance(want, ds.LinkReport):
        got, want = dataclasses.astuple(got), dataclasses.astuple(want)
    if isinstance(want, float) and isinstance(got, float):
        assert got == pytest.approx(want, rel=rel, abs=1e-300)
    elif isinstance(want, tuple) and isinstance(got, tuple) and len(got) == len(want):
        for a, b in zip(got, want):
            _assert_near(a, b, rel)
    else:
        assert got == want


def test_full_report_matches_scalar_reference():
    # the batched evaluation reproduces the scalar bordered one exactly:
    # values, flags, error strings, and the public per-link functions; the
    # scalar Palm route agrees within 1e-13 relative
    rng = np.random.default_rng(79)
    seen_errors = set()
    seen_flags = set()
    raised = set()  # exception types of the per-link functions
    for case in range(120):
        geo, K, params = _branch_instance(rng, case)
        rows = geo.links().tolist()
        rep = ds.full_report(geo, K, params)
        expect = tuple(link_report_loops(geo, K, params, *row) for row in rows)
        assert rep.links == expect
        for row, lr in zip(rows, rep.links):
            _assert_near(lr, link_report_loops(geo, K, params, *row, raw=conditional_raw_loops))
        seen_errors |= {lr.error.split(" ")[0] for lr in rep.links if lr.error}
        seen_flags |= {f for lr in rep.links for f in lr.flags}
        for t, p, s in rows:
            def ref(raw=conditional_raw_bordered):
                return _outcome(lambda: coverage_module._unit(raw(geo, K, params, t, p, s)))
            if s < 0:
                got = _outcome(ds.conditional_pair_coverage, geo, K, t, params)
                assert got == ref()
                _assert_near(got, ref(conditional_raw_loops))
                if isinstance(got, tuple):
                    raised.add(got[0])
                lr = link_report_loops(geo, K, params, t, p, s)
                if lr.error is None:
                    assert ds.pair_coverage(geo, K, t, params) == lr.coverage
                continue
            got = _outcome(ds.txrx_conditional_coverage, geo, K, t, p, params)
            assert got == ref()
            _assert_near(got, ref(conditional_raw_loops))
            if isinstance(got, tuple):
                raised.add(got[0])
            # the two-fold identity, with the correction as the loss needs
            # it (None) and forced on, agrees wherever both evaluate
            for semi in (None, True):
                two_fold = _outcome(lambda: conditional_raw_semi_reduced(
                    geo, K, params, t, p, s, semi))
                if isinstance(got, float) and isinstance(two_fold, float):
                    assert abs(got - coverage_module._unit(two_fold)) <= 1e-12
    assert {"never_scheduled", "receiver_always_scheduled"} <= seen_flags
    # SingularDistance, BadArgument ("distance ... outside"), DegenerateSignal
    assert {"power-law", "distance", "path"} <= seen_errors
    # every branch of the failure replay, in either mode
    assert raised >= {ds.NeverScheduled, ds.AlwaysScheduledReceiver, ds.SingularDistance,
                      ds.BadArgument, ds.DegenerateSignal}


def test_report_error_row_prints_python_floats():
    # the error text reaches CLI coverage rows: no np.float64(...) reprs
    geo = ds.NetworkGeometry.pairs([[0.0, 0.0]], [[2.0, 0.0]])
    K = ds.MarginalKernel.from_matrix([[0.5]])
    model = ds.TabulatedPathLoss(np.array([0.5, 1.0]), np.array([1.0, 0.5]))
    [link] = ds.full_report(geo, K, ds.PropagationParams(model, threshold=1.0)).links
    assert link.error == "distance 2.0 outside tabulated range [0.5, 1.0]"


def test_coverage_kernel_matches_scalar_reference():
    rng = np.random.default_rng(80)
    for case in range(40):
        geo, K, params = _branch_instance(rng, 2 * case)
        if geo.mode != "pairs":
            continue
        n = K.n
        for link in range(n):
            got = _outcome(ds.coverage_kernel, geo, K, link, params)

            def ref():
                palm = ds.palm_reduced(K, K.node_ids[link])
                pts, y = geo.transmitters, geo.receivers[link]
                d_sig = ds.propagation._distance(pts[link], y)
                hv = np.array([ds.interferer_factor(ds.propagation._distance(pts[z], y),
                                                    d_sig, params)
                               for z in range(n) if z != link])
                out = np.zeros((n, n))
                others = [z for z in range(n) if z != link]
                out[np.ix_(others, others)] = np.eye(n - 1) - ds.scale_kernel(palm.matrix, hv)
                out[link, link] = ds.noise_factor(d_sig, params) * float(K.matrix[link, link])
                return out

            expect = _outcome(ref)
            if isinstance(expect, np.ndarray):
                assert np.array_equal(got, expect)
            else:
                assert got == expect


def test_block_size_does_not_change_results(monkeypatch):
    # one row per block splits every transmitter's rows across blocks
    rng = np.random.default_rng(81)
    table = ds.TabulatedPathLoss(np.array([0.0, 0.5, 1.0, 3.0]), np.array([1.5, 0.6, 0.25, 0.01]))
    cases = [(ds.NetworkGeometry.txrx(rng.uniform(0.0, 1.0, size=(40, 2))), table),
             (ds.NetworkGeometry.txrx(rng.uniform(0.0, 1.0, size=(12, 2))),
              ds.PowerLawPathLoss(1.0, 3.0)),
             (ds.NetworkGeometry.pairs(*random_pairs_geometry(rng, 20)),
              ds.PowerLawPathLoss(1.0, 3.0))]
    for geo, model in cases:
        n = geo.n
        K = ds.l_to_k(ds.LEnsemble.from_matrix(random_psd_l(rng, n)))
        params = ds.PropagationParams(model, threshold=0.8, noise=0.05)
        default = ds.full_report(geo, K, params)
        monkeypatch.setattr(coverage_module, "_BLOCK_BYTES", 8 * n ** 2)
        assert ds.full_report(geo, K, params) == default
        monkeypatch.undo()


def test_loss_overflow_behaves_as_scalar():
    # transmitter 1 sits 5e-4 from receiver 0, where r^-150 overflows: the
    # scalar form raises SingularDistance once that interferer is evaluated,
    # and never evaluates it at threshold 0
    geo = ds.NetworkGeometry.pairs([[0.0, 0.0], [1.0005, 0.0]], [[1.0, 0.0], [2.0, 0.0]])
    K = ds.MarginalKernel.from_matrix(np.diag([0.5, 0.5]))
    model = ds.PowerLawPathLoss(1.0, 150.0)
    for threshold in (0.0, 1.0):
        params = ds.PropagationParams(model, threshold=threshold)
        rep = ds.full_report(geo, K, params)
        assert rep.links == tuple(link_report_loops(geo, K, params, t, p, s)
                                  for t, p, s in geo.links().tolist())
    assert rep.links[0].error.startswith("power-law path loss overflows at distance")
    assert rep.links[1].error is None


def _spread_points(rng, n, gap):
    """n uniform points in the unit square, no two closer than ``gap``."""
    while True:
        pts = rng.uniform(0.0, 1.0, size=(n, 2))
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        if d[np.triu_indices(n, 1)].min() >= gap:
            return pts


def test_txrx_table_without_zero_distance_matches_enumeration():
    # the receiver's own distance 0 lies outside the table; the receiver
    # must stay silent, so its loss is never evaluated and every link
    # computes, equal to the enumeration over sets without it
    model = ds.TabulatedPathLoss(*(np.array(v) for v in _TABLES["no_zero"]))
    rng = np.random.default_rng(82)
    for case in range(8):
        n = int(rng.integers(2, 6))
        pts = _spread_points(rng, n, 0.05)
        geo = ds.NetworkGeometry.txrx(pts)
        Lm = random_psd_l(rng, n)
        K = ds.l_to_k(ds.LEnsemble.from_matrix(Lm))
        params = ds.PropagationParams(model, threshold=(0.5, 2.0)[case % 2],
                                      noise=(0.0, 0.1)[(case // 2) % 2])
        pmf = pmf_from_l(Lm)
        rep = ds.full_report(geo, K, params)
        assert [lr.error for lr in rep.links] == [None] * (n * (n - 1))
        for lr in rep.links:
            joint, _ = _oracle_txrx(pmf, pts, params, lr.transmitter, lr.receiver)
            assert lr.coverage == pytest.approx(joint, rel=1e-9)


def test_txrx_receiver_almost_always_scheduled():
    # a receiver uncoupled from the other nodes is silent with probability
    # 1 - q whatever they do, so the coverage conditioned on its silence
    # cannot depend on q, however close q comes to 1
    model = ds.TabulatedPathLoss(*(np.array(v) for v in _TABLES["table"]))
    params = ds.PropagationParams(model, threshold=0.7, noise=0.1)
    rng = np.random.default_rng(83)
    n = 5
    geo = ds.NetworkGeometry.txrx(rng.uniform(0.0, 1.0, size=(n, 2)))
    rest = ds.l_to_k(ds.LEnsemble.from_matrix(random_psd_l(rng, n - 1))).matrix

    def kernel(gap):
        k = np.zeros((n, n))
        k[:-1, :-1] = rest
        k[-1, -1] = 1.0 - gap
        return ds.MarginalKernel.from_matrix(k)

    rx = n - 1
    for tx in range(n - 1):
        base = ds.txrx_conditional_coverage(geo, kernel(0.5), tx, rx, params)
        assert 0.0 < base < 1.0
        for e in range(3, 12):
            got = ds.txrx_conditional_coverage(geo, kernel(10.0 ** -e), tx, rx, params)
            assert got == pytest.approx(base, rel=1e-13, abs=0.0), (tx, e)


def _loss(model, r):
    """Path loss at distance r, from first principles."""
    if isinstance(model, ds.PowerLawPathLoss):
        return (model.kappa * r) ** (-model.exponent)
    return float(np.interp(r, model.radii, model.values))


def test_aloha_kernel_is_independent_thinning_in_txrx_and_under_tables():
    # K = diag(p) schedules each node on its own (spatial Aloha: Baccelli,
    # Blaszczyszyn & Muhlethaler, IEEE Trans. IT 52(2), 2006), so the
    # closed forms reduce to products with no determinant.  Criterion 5
    # checks pairs links under a power law; these are the txrx links and
    # pairs links under a table.
    table = ds.TabulatedPathLoss(*(np.array(v) for v in _TABLES["table"]))
    rng = np.random.default_rng(84)
    for case in range(40):
        n = int(rng.integers(2, 9))
        p = rng.uniform(0.0, 0.95, size=n)
        K = ds.build_K(ds.AlohaSpec(probabilities=p))
        model = ds.PowerLawPathLoss(1.0, 3.0) if case % 3 == 0 else table
        theta = (0.5, 2.0)[case % 2]
        params = ds.PropagationParams(model, threshold=theta, noise=(0.0, 0.1)[(case // 2) % 2],
                                      fading_mean=1.3)
        if case % 3 == 2:
            tx, rx = random_pairs_geometry(rng, n)
            geo = ds.NetworkGeometry.pairs(tx, rx)
        else:
            tx = rx = _spread_points(rng, n, 0.05)
            geo = ds.NetworkGeometry.txrx(tx)
        for lr in ds.full_report(geo, K, params).links:
            t = lr.transmitter
            r = t if lr.receiver is None else lr.receiver
            def ell(j):
                return _loss(model, float(np.linalg.norm(tx[j] - rx[r])))

            want = math.exp(-theta / params.fading_mean * params.noise / ell(t))
            for j in set(range(n)) - {t, r}:
                want *= 1.0 - p[j] * (1.0 - 1.0 / (1.0 + theta * ell(j) / ell(t)))
            selection = p[t] if lr.receiver is None else p[t] * (1.0 - p[r])
            assert lr.error is None
            assert lr.selection_probability == pytest.approx(selection, rel=0.0, abs=1e-12)
            assert lr.conditional_coverage == pytest.approx(want, rel=0.0, abs=1e-12)


def test_closed_form_stages_are_seams(monkeypatch):
    # each stage is looked up through the module at call time, once per
    # block, so a wrapper sees every call without changing a result
    rng = np.random.default_rng(85)
    n = 9
    geo = ds.NetworkGeometry.txrx(rng.uniform(0.0, 1.0, size=(n, 2)))
    pairs = ds.NetworkGeometry.pairs(*random_pairs_geometry(rng, n))
    K = ds.l_to_k(ds.LEnsemble.from_matrix(random_psd_l(rng, n)))
    params = _power_params(tau=0.8, beta=3.0, noise=0.05)
    report, kernel = ds.full_report(geo, K, params), ds.coverage_kernel(pairs, K, 4, params)
    calls = dict.fromkeys(("_channel_table", "_discounts", "_bordered", "palm_reduced",
                           "scale_kernel"), 0)
    for name in calls:
        def counting(*args, _name=name, _real=getattr(coverage_module, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(coverage_module, name, counting)
    monkeypatch.setattr(coverage_module, "_BLOCK_BYTES", 10 * 8 * n ** 2)
    assert ds.full_report(geo, K, params) == report
    # 72 links, 10 a block, no failed row to replay
    assert calls == {"_channel_table": 1, "_discounts": 8, "_bordered": 8, "palm_reduced": 0,
                     "scale_kernel": 0}
    calls.update(dict.fromkeys(calls, 0))
    # coverage_kernel's one link runs the scalar Palm chain alone, at the
    # distances of its one-slot channel table
    assert np.array_equal(ds.coverage_kernel(pairs, K, 4, params), kernel)
    assert calls == {"_channel_table": 1, "_discounts": 0, "_bordered": 0, "palm_reduced": 1,
                     "scale_kernel": 1}


def test_per_link_functions_read_n_path_losses(monkeypatch):
    # a per-link function reads the channel table of its one receiver slot:
    # n path losses, not the n^2 of the whole table
    from detsched import propagation

    rng = np.random.default_rng(33)
    n = 12
    pairs = ds.NetworkGeometry.pairs(*random_pairs_geometry(rng, n))
    txrx = ds.NetworkGeometry.txrx(rng.uniform(0.0, 1.0, size=(n, 2)))
    K = ds.l_to_k(ds.LEnsemble.from_matrix(random_psd_l(rng, n)))
    params = _power_params(tau=0.8, beta=3.0, noise=0.05)
    table, scalar = [], []
    real_table, real_scalar = propagation._path_losses, propagation.path_loss
    monkeypatch.setattr(propagation, "_path_losses",
                        lambda model, r: table.append(r.size) or real_table(model, r))
    monkeypatch.setattr(propagation, "path_loss",
                        lambda model, r: scalar.append(r) or real_scalar(model, r))
    for fn, geo, link in [(ds.pair_coverage, pairs, (3,)),
                          (ds.conditional_pair_coverage, pairs, (3,)),
                          (ds.coverage_kernel, pairs, (3,)),
                          (ds.txrx_coverage, txrx, (3, 7)),
                          (ds.txrx_conditional_coverage, txrx, (3, 7))]:
        table.clear()
        scalar.clear()
        fn(geo, K, *link, params)
        assert table == [n], fn.__name__
        # coverage_kernel's scalar Palm chain reads the signal loss and one
        # loss per interferer through noise_factor and interferer_factor
        assert len(scalar) == (2 * n - 1 if fn is ds.coverage_kernel else 0), fn.__name__


def _rational_instance(mode, n, seed, tiny=None, loud=None, shrink=30000, distinct=False):
    """A geometry on a grid of step 1/8 (its points ``distinct`` or not), a
    rational L = B B^T + I/8 (with row ``tiny`` of B scaled by 1/``shrink``,
    so that K_tt is near 1e-9 at the default, and row ``loud[0]`` by
    ``loud[1]``, so that the node is almost always scheduled), the float
    kernel rounded from its exact K and that kernel's exact pmf."""
    rng = np.random.default_rng(seed)
    B = [[Fraction(int(x), 4) for x in rng.integers(-4, 5, size=n)] for _ in range(n)]
    if tiny is not None:
        B[tiny] = [x / shrink for x in B[tiny]]
    if loud is not None:
        B[loud[0]] = [x * loud[1] for x in B[loud[0]]]
    L = [[sum(B[i][k] * B[j][k] for k in range(n)) + Fraction(i == j != tiny, 8)
          for j in range(n)] for i in range(n)]
    mat = np.array([[float(x) for x in row] for row in fraction_marginal_kernel(L)])
    K = ds.MarginalKernel.from_matrix(mat)
    assert np.array_equal(K.matrix, mat)
    if distinct:
        cells = rng.choice(17 * 17, size=2 * n, replace=False)
        pts = [[Fraction(int(c % 17), 8), Fraction(int(c // 17), 8)] for c in cells]
    else:
        pts = [[Fraction(int(x), 8) for x in rng.integers(0, 17, size=2)] for _ in range(2 * n)]
    grid = np.array(pts, dtype=float)
    geo = (ds.NetworkGeometry.pairs(grid[:n], grid[n:]) if mode == "pairs"
           else ds.NetworkGeometry.txrx(grid[:n]))
    receivers = pts[n:] if mode == "pairs" else pts[:n]
    exact = fraction_pmf([[Fraction(x) for x in row] for row in mat.tolist()])
    return geo, K, pts[:n], receivers, exact


def test_full_report_against_exact_arithmetic():
    # every printed value within 1e-13 of the exact one for the float
    # kernel the library is given (r^-4 loss on dyadic coordinates, noise
    # 0): generic kernels, a transmitter scheduled with probability near
    # 1e-9, and receivers silent with probability down to about 4e-7, where
    # the Palm route's division by 1 - q loses 1e-11.  The conditional
    # coverage is also within 2x the Palm route's error, or within 1e-14:
    # below that both routes make rounding noise on these 6 x 6
    # determinants, and the Palm route can land on the exact value by luck
    params = ds.PropagationParams(ds.PowerLawPathLoss(1.0, 4.0), threshold=0.5)
    cases = [(mode, 6, seed, None, None) for mode in ("pairs", "txrx") for seed in (0, 1)]
    cases += [(mode, 6, seed, 2, None) for mode in ("pairs", "txrx") for seed in (0, 1)]
    cases += [("txrx", 6, seed, None, (3, loud)) for seed in (0, 1) for loud in (12, 1000)]
    cases += [("txrx", 5, 0, 1, (3, 12))]
    smallest = {"K_tt": 1.0, "1 - q": 1.0}
    for mode, n, seed, tiny, loud in cases:
        geo, K, tx, receivers, exact = _rational_instance(mode, n, seed, tiny, loud)
        rep = ds.full_report(geo, K, params)
        for (t, p, s), lr in zip(geo.links().tolist(), rep.links):
            sel, cond = fraction_link(exact, tx, receivers[p], t, s, Fraction(1, 2))
            palm = link_report_loops(geo, K, params, t, p, s, raw=conditional_raw_loops)
            for got, want in ((lr.selection_probability, sel), (lr.conditional_coverage, cond),
                              (lr.coverage, sel * cond), (lr.delay_mean, 1 / (sel * cond))):
                assert abs(Fraction(got) - want) <= 1e-13 * want, (mode, seed, t, s)
            err, palm_err = (float(abs(Fraction(x) - cond) / cond)
                             for x in (lr.conditional_coverage, palm.conditional_coverage))
            assert err <= max(2.0 * palm_err, 1e-14), (mode, seed, t, s, err, palm_err)
            smallest["K_tt"] = min(smallest["K_tt"], float(K.matrix[t, t]))
            if s >= 0:
                smallest["1 - q"] = min(smallest["1 - q"], float(sel / Fraction(K.matrix[t, t])))
    assert smallest["K_tt"] < 2e-9 and smallest["1 - q"] < 1e-6


_R4 = ds.PropagationParams(ds.PowerLawPathLoss(1.0, 4.0), threshold=0.5)


def _exact_rows(geo, K, tx, receivers, exact, params=_R4):
    """(t, s, LinkReport, exact selection probability) per link-table row
    of ``full_report`` under ``params`` (r^-4 loss or a table; by default
    r^-4, threshold 1/2 and noise 0), after checking every printed value
    within 1e-13 relative of the exact one: the selection probability of
    every row, the rest of each row not flagged for a selection probability
    at most PALM_PIVOT_TOL."""
    model = params.pathloss
    table = (model.radii, model.values) if isinstance(model, ds.TabulatedPathLoss) else None
    out = []
    for (t, p, s), lr in zip(geo.links().tolist(), ds.full_report(geo, K, params).links):
        sel, cond = fraction_link(exact, tx, receivers[p], t, s, Fraction(params.threshold),
                                  table, params.noise, params.fading_mean)
        assert abs(Fraction(lr.selection_probability) - sel) <= 1e-13 * sel, (t, s)
        if set(lr.flags) & {"never_scheduled", "receiver_always_scheduled"}:
            assert lr.selection_probability <= PALM_PIVOT_TOL, (t, s)
        else:
            for got, want in ((lr.conditional_coverage, cond), (lr.coverage, sel * cond),
                              (lr.delay_mean, 1 / (sel * cond))):
                assert abs(Fraction(got) - want) <= 1e-13 * want, (t, s)
        out.append((t, s, lr, sel))
    return out


def test_q_to_one_sweep_against_exact_arithmetic():
    # node 3 scaled by 30 to 3e5, so that 1 - q, the probability it stays
    # silent given another node transmits, falls from 8.3e-4 to 8.3e-12:
    # the bordered route sums 1 - q and stays within 1e-13 (2.2e-15 worst
    # measured), where the Palm route's division by 1 - q loses up to 6.8e-7
    smallest = 1.0
    for seed in (0, 1):
        for loud in (30, 300, 3000, 30000, 300000):
            geo, K, *rest = _rational_instance("txrx", 5, seed, loud=(3, loud))
            for t, s, lr, sel in _exact_rows(geo, K, *rest):
                assert lr.flags == ()
                smallest = min(smallest, float(sel / Fraction(K.matrix[t, t])))
    assert smallest < 1e-11


def test_palm_pivots_just_above_tolerance_against_exact_arithmetic():
    # node 2's row of B scaled by 1/650000: K_22 is 2.0e-12 (seed 0) and
    # 1.5e-12 (seed 1), just above PALM_PIVOT_TOL.  Its rows with a larger
    # selection probability are within 1e-13 of exact (7.0e-16 worst
    # measured); the txrx rows at or below it keep never_scheduled, the
    # smaller factor being K_22
    for mode in ("pairs", "txrx"):
        scheduled = flagged = 0
        for seed in (0, 1):
            geo, K, *rest = _rational_instance(mode, 6, seed, 2, shrink=650000)
            assert PALM_PIVOT_TOL < K.matrix[2, 2] < 3e-12
            for t, s, lr, sel in _exact_rows(geo, K, *rest):
                if t != 2:
                    continue
                if lr.conditional_coverage is None:
                    assert lr.flags == ("never_scheduled",) and sel <= 1.01e-12
                    flagged += 1
                else:
                    scheduled += 1
        assert scheduled >= 2 and (flagged > 0) == (mode == "txrx")


def test_full_report_against_exact_arithmetic_on_random_instances():
    # 120 random instances, n 4 to 6 in both modes, r^-4 loss on distinct
    # grid points: every printed value within 1e-13 of the exact one
    for seed in range(60):
        for mode in ("pairs", "txrx"):
            instance = _rational_instance(mode, 4 + seed % 3, 100 + seed, distinct=True)
            assert all(lr.flags == () for _, _, lr, _ in _exact_rows(*instance))


def test_full_report_against_exact_arithmetic_with_tables_and_noise():
    # 24 random instances, n 4 to 6 in both modes, under a random dyadic
    # table over the grid's distances (0 to 2 sqrt 2), noise and a fading
    # mean other than 1: every printed value within 1e-13 of the exact one
    radii = np.array([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
    for seed in range(12):
        rng = np.random.default_rng(seed)
        table = ds.TabulatedPathLoss(radii, rng.integers(1, 65, size=len(radii)) / 16)
        params = ds.PropagationParams(table, threshold=[0.5, 2.0][seed % 2],
                                      fading_mean=[1.5, 0.75][seed % 2],
                                      noise=[1 / 64, 1 / 8, 1.0][seed % 3])
        for mode in ("pairs", "txrx"):
            instance = _rational_instance(mode, 4 + seed % 3, 200 + seed)
            assert all(lr.flags == () for _, _, lr, _ in _exact_rows(*instance, params))


def test_determinant_oracle_equals_subset_sum_oracle():
    # fraction_link_det's four determinants give exactly the subset sums of
    # fraction_link on every link: n 4 to 6 in both modes, under r^-4 loss
    # and under a dyadic table with noise and a fading mean other than 1,
    # with a transmitter scheduled with probability near 1e-9 and a loud node
    table = ([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0], [4.0, 3.0, 1.5, 0.75, 0.5, 0.25, 0.0625])
    channels = [(None, 0, 1), (table, Fraction(1, 8), Fraction(3, 2))]
    cases = [(mode, 4 + seed % 3, seed, tiny, loud) for mode in ("pairs", "txrx")
             for seed, tiny, loud in ((0, None, None), (1, 2, None), (2, None, (1, 1000)))]
    for mode, n, seed, tiny, loud in cases:
        geo, K, tx, receivers, exact = _rational_instance(mode, n, seed, tiny, loud, distinct=True)
        kernel = [[Fraction(x) for x in row] for row in K.matrix.tolist()]
        for t, p, s in geo.links().tolist():
            for args in channels:
                want = fraction_link(exact, tx, receivers[p], t, s, Fraction(1, 2), *args)
                assert fraction_link_det(kernel, tx, receivers[p], t, s, Fraction(1, 2),
                                         *args) == want, (mode, seed, t, s)


def test_full_report_against_exact_arithmetic_at_n_24():
    # every printed value within 1e-13 of the exact one (fraction_link_det)
    # at n = 24 in both modes, r^-4 loss on a 1/8 grid, on four links each of
    # a generic instance and of a graded one, whose nodes near a link's
    # receiver and far from it spread the losses it reads by more than 1e8
    n, theta = 24, Fraction(1, 2)
    params = ds.PropagationParams(ds.PowerLawPathLoss(1.0, 4.0), threshold=0.5)
    t0 = time.perf_counter()
    for mode in ("pairs", "txrx"):
        for seed, side in ((0, 17), (1, 257)):
            rng = np.random.default_rng(seed)
            npts = 2 * n if mode == "pairs" else n
            if side == 17:  # generic: points anywhere in [0, 2]^2
                cells = rng.choice(side * side, size=npts, replace=False)
            else:  # graded: half the points in [0, 1]^2, half anywhere in [0, 32]^2
                near = rng.choice(9 * 9, size=npts // 2, replace=False)
                near = near % 9 + side * (near // 9)
                far = rng.choice(np.setdiff1d(np.arange(side * side), near),
                                 size=npts - len(near), replace=False)
                cells = rng.permutation(np.concatenate([near, far]))
            pts = [[Fraction(int(c % side), 8), Fraction(int(c // side), 8)] for c in cells]
            grid = np.array(pts, dtype=float)
            geo = (ds.NetworkGeometry.pairs(grid[:n], grid[n:]) if mode == "pairs"
                   else ds.NetworkGeometry.txrx(grid))
            receivers = pts[n:] if mode == "pairs" else pts
            K = ds.l_to_k(ds.LEnsemble.from_matrix(random_psd_l(rng, n, scale=0.6)))
            kernel = [[Fraction(x) for x in row] for row in K.matrix.tolist()]
            rows = geo.links()
            spread = []
            for (t, p, s), lr in zip(rows.tolist(), ds.full_report(geo, K, params).links):
                if t not in (0, 5, 11, 17) or (mode == "txrx" and p != (t + 1) % n):
                    continue
                sel, cond = fraction_link_det(kernel, pts[:n], receivers[p], t, s, theta)
                assert lr.flags == ()
                for got, want in ((lr.selection_probability, sel),
                                  (lr.conditional_coverage, cond), (lr.coverage, sel * cond),
                                  (lr.delay_mean, 1 / (sel * cond))):
                    assert abs(Fraction(got) - want) <= 1e-13 * want, (mode, seed, t, s)
                d2 = ((grid[:n] - grid[n + p if mode == "pairs" else p]) ** 2).sum(axis=1)
                spread.append(d2[np.arange(n) != s].max() / d2[np.arange(n) != s].min())
            assert len(spread) == 4
            # r^-4 losses: their spread is the squared spread of d^2
            assert (max(spread) ** 2 > 1e8) == (side == 257), (mode, seed, max(spread) ** 2)
    assert time.perf_counter() - t0 < 10.0


@st.composite
def _link_instance(draw):
    """A random instance with n <= 6 nodes on a grid of spacing 0.14 (so
    every distance lies in each table's range), its L-ensemble and its
    propagation parameters."""
    mode = draw(st.sampled_from(["pairs", "txrx"]))
    n = draw(st.integers(1 if mode == "pairs" else 2, 6))
    npts = 2 * n if mode == "pairs" else n
    cells = draw(st.lists(st.integers(0, 63), min_size=npts, max_size=npts, unique=True))
    pts = 0.14 * np.array([[c % 8, c // 8] for c in cells], dtype=float)
    geo = (ds.NetworkGeometry.pairs(pts[:n], pts[n:]) if mode == "pairs"
           else ds.NetworkGeometry.txrx(pts))
    # L's factor on a grid of step 0.1: subnormal entries would make the
    # enumeration oracle's own determinants divide by zero
    a = draw(arrays(np.float64, (n, n), elements=st.integers(-20, 20).map(lambda v: v / 10)))
    loss = draw(st.sampled_from(["power", "table", "no_zero"]))
    model = (ds.PowerLawPathLoss(1.0, draw(st.sampled_from([2.0, 4.0]))) if loss == "power"
             else ds.TabulatedPathLoss(*(np.array(v) for v in _TABLES[loss])))
    params = ds.PropagationParams(model, threshold=draw(st.sampled_from([0.0, 0.5, 3.0])),
                                  noise=draw(st.sampled_from([0.0, 0.1])), fading_mean=1.3)
    return geo, a @ a.T, params


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_link_instance())
def test_closed_form_equals_enumeration(instance):
    geo, Lm, params = instance
    K = ds.l_to_k(ds.LEnsemble.from_matrix(Lm))
    pmf = pmf_from_l(Lm)
    rep = ds.full_report(geo, K, params)
    if geo.mode == "pairs":
        H = _discount_matrix(geo.transmitters, geo.receivers, params)
        w = _noise_vec(geo.transmitters, geo.receivers, params)
        want = [_oracle_pair(pmf, H, w, t)[0] for t in range(geo.n)]
    else:
        want = [_oracle_txrx(pmf, geo.nodes, params, t, p)[0]
                for t, p, _ in geo.links().tolist()]
    for lr, joint in zip(rep.links, want):
        assert lr.error is None
        assert abs(lr.coverage - joint) <= 1e-9
