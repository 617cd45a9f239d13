import hashlib
import math

import numpy as np
import pytest

import detsched as ds

from _oracles import pmf_from_l, random_pairs_geometry, random_psd_l


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
    # bounded loss table covering r = 0 exercises the two-determinant form
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
    # the receiver's own discount is 0, so the correction term vanishes and
    # both evaluation paths give the same number exactly
    rng = np.random.default_rng(76)
    pts = rng.uniform(0.0, 1.0, size=(4, 2))
    geo = ds.NetworkGeometry.txrx(pts)
    K = ds.l_to_k(ds.LEnsemble.from_matrix(random_psd_l(rng, 4)))
    params = _power_params(tau=1.0, noise=0.05)
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            a = ds.txrx_conditional_coverage(geo, K, i, j, params, use_semi_reduced=False)
            b = ds.txrx_conditional_coverage(geo, K, i, j, params, use_semi_reduced=True)
            assert a == b


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


def test_mode_and_size_checks():
    geo = ds.NetworkGeometry.txrx([[0.0, 0.0], [1.0, 0.0]])
    K = ds.MarginalKernel.from_matrix(np.diag([0.5, 0.5]))
    with pytest.raises(ds.BadArgument):
        ds.pair_coverage(geo, K, 0, _power_params())
    pairs_geo = ds.NetworkGeometry.pairs([[0.0, 0.0]], [[1.0, 0.0]])
    with pytest.raises(ds.BadArgument):
        ds.pair_coverage(pairs_geo, K, 0, _power_params())


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


def test_min_coverage_for_success():
    got = ds.min_coverage_for_success(0.99, 10)
    assert got == pytest.approx(0.3690426555198068, abs=1e-15)
    assert ds.min_coverage_for_success(0.0, 5) == 0.0
    assert ds.min_coverage_for_success(0.5, 1) == pytest.approx(0.5)
    with pytest.raises(ds.BadArgument):
        ds.min_coverage_for_success(1.0, 5)
    with pytest.raises(ds.BadArgument):
        ds.min_coverage_for_success(0.5, 0)


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
