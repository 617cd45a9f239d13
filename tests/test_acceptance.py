"""End-to-end acceptance checks.

Ten numbered criteria cover the closed coverage forms against exhaustive
enumeration, the published worked examples, the sampler and Monte Carlo
engines, degenerate inputs, and CLI determinism.  Each test records a
pass/fail line that conftest prints in the terminal summary, and every
tolerance is pinned inline next to its assertion.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats

import detsched as ds
from detsched import cli

from _oracles import (
    conditional_raw_semi_reduced,
    pair_coverage_oracle,
    pmf_from_l,
    random_marginal_k,
    random_pairs_geometry,
    random_psd_l,
)

TAUS = (0.1, 1.0, 10.0)
BETAS = (2.0, 4.0)
NOISES = (0.0, 0.1)
SCALES = (0.5, 1.0, 2.0, 4.0)


def _pairs_instances(count=200, seed=101):
    """Randomized dedicated-pair instances shared by criteria 1 and 3."""
    rng = np.random.default_rng(seed)
    for idx in range(count):
        n = 2 + idx % 7
        tx, rx = random_pairs_geometry(rng, n, min_gap=0.05)
        L = random_psd_l(rng, n, scale=SCALES[idx % 4])
        tau = TAUS[idx % 3]
        beta = BETAS[(idx // 3) % 2]
        noise = NOISES[(idx // 6) % 2]
        if n <= 4:
            links = list(range(n))
        else:
            links = sorted(rng.choice(n, size=3, replace=False).tolist())
        geom = ds.NetworkGeometry.pairs(tx, rx)
        K = ds.l_to_k(ds.LEnsemble.from_matrix(L))
        params = ds.PropagationParams(
            ds.PowerLawPathLoss(1.0, exponent=beta), threshold=tau, noise=noise
        )
        yield idx, tx, rx, L, geom, K, params, links, tau, beta, noise


def test_criterion_01_pair_coverage_matches_enumeration(criterion):
    ok = False
    try:
        t0 = time.perf_counter()
        checked = 0
        for idx, tx, rx, L, geom, K, params, links, tau, beta, noise in _pairs_instances():
            pmf = pmf_from_l(L)
            for i in links:
                expected, _ = pair_coverage_oracle(
                    pmf, tx, rx, i, tau, 1.0, beta, noise, 1.0
                )
                got = ds.pair_coverage(geom, K, i, params)
                assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)
                checked += 1
        elapsed = time.perf_counter() - t0
        assert checked >= 200 * 2
        assert elapsed < 10.0
        ok = True
    finally:
        criterion(1, ok)


def _txrx_oracle(pmf, pts, i, j, tau, loss, noise, mu):
    """Enumeration of P(i scheduled, j silent, SINR at j > tau) and its mass."""
    joint = 0.0
    mass = 0.0
    lr = loss(float(np.linalg.norm(pts[i] - pts[j])))
    for subset, p in pmf.items():
        if i not in subset or j in subset:
            continue
        mass += p
        acc = 1.0 if tau == 0.0 else math.exp(-(tau / mu) * noise / lr)
        for z in subset:
            if z == i:
                continue
            ls = loss(float(np.linalg.norm(pts[z] - pts[j])))
            if tau > 0.0:
                acc *= 1.0 / (1.0 + tau * ls / lr)
        joint += p * acc
    return joint, mass


def test_criterion_02_txrx_coverage_matches_enumeration(criterion):
    ok = False
    try:
        rng = np.random.default_rng(202)
        radii = [0.0, 0.25, 0.5, 1.0, 2.0]
        vals = [1.0, 0.7, 0.45, 0.2, 0.05]
        for idx in range(200):
            n = 2 + idx % 7
            pts = rng.uniform(0.0, 1.0, size=(n, 2))
            L = random_psd_l(rng, n, scale=SCALES[idx % 4])
            tau = TAUS[idx % 3]
            noise = NOISES[(idx // 3) % 2]
            if idx < 100:
                beta = BETAS[(idx // 6) % 2]
                pathloss = ds.PowerLawPathLoss(1.0, exponent=beta)
                loss = lambda r, b=beta: r ** (-b)
            else:
                pathloss = ds.TabulatedPathLoss(radii, vals)
                loss = lambda r: float(np.interp(r, radii, vals))
            geom = ds.NetworkGeometry.txrx(pts)
            K = ds.l_to_k(ds.LEnsemble.from_matrix(L))
            params = ds.PropagationParams(pathloss, threshold=tau, noise=noise)
            pmf = pmf_from_l(L)
            all_links = [(i, j) for i in range(n) for j in range(n) if i != j]
            if len(all_links) > 6:
                pick = rng.choice(len(all_links), size=6, replace=False)
                all_links = [all_links[t] for t in sorted(pick)]
            for i, j in all_links:
                joint, mass = _txrx_oracle(pmf, pts, i, j, tau, loss, noise, 1.0)
                if mass <= 1e-9:
                    # conditioning event almost never happens; the oracle
                    # ratio carries no precision there
                    assert ds.txrx_coverage(geom, K, i, j, params) <= 1e-9
                    continue
                cond = ds.txrx_conditional_coverage(geom, K, i, j, params)
                cov = ds.txrx_coverage(geom, K, i, j, params)
                assert cond == pytest.approx(joint / mass, rel=1e-9, abs=1e-12)
                assert cov == pytest.approx(joint, rel=1e-9, abs=1e-12)
                if idx < 100 and idx % 10 == 0:
                    # under a singular loss the two-fold correction vanishes,
                    # so forcing it on must reproduce the shortcut
                    full = min(max(conditional_raw_semi_reduced(
                        geom, K, params, i, j, j, use_semi_reduced=True
                    ), 0.0), 1.0)
                    assert full == pytest.approx(cond, rel=1e-12, abs=1e-12)
        ok = True
    finally:
        criterion(2, ok)


def test_criterion_03_compact_kernel_determinant_identity(criterion):
    ok = False
    try:
        for idx, tx, rx, L, geom, K, params, links, tau, beta, noise in _pairs_instances():
            for i in range(K.n):
                det = float(np.linalg.det(ds.coverage_kernel(geom, K, i, params)))
                cov = ds.pair_coverage(geom, K, i, params)
                assert abs(det - cov) <= 1e-12
        ok = True
    finally:
        criterion(3, ok)


def test_criterion_04_worked_small_cases(criterion):
    ok = False
    try:
        rng = np.random.default_rng(404)

        # three nodes: conditioning on the first leaves an explicit 2x2 form
        done = 0
        while done < 100:
            K = random_marginal_k(rng, 3)
            if K[0, 0] <= 1e-6:
                continue
            palm = ds.palm_reduced(ds.MarginalKernel.from_matrix(K), 0).matrix
            outer = np.array(
                [
                    [K[0, 1] ** 2, K[0, 1] * K[0, 2]],
                    [K[0, 1] * K[0, 2], K[0, 2] ** 2],
                ]
            )
            expected = K[np.ix_((1, 2), (1, 2))] - outer / K[0, 0]
            assert np.max(np.abs(palm - expected)) <= 1e-14
            done += 1

        # two dedicated pairs: scalar closed form for the first link
        done = 0
        while done < 100:
            K = random_marginal_k(rng, 2)
            if K[0, 0] <= 1e-6:
                continue
            tx, rx = random_pairs_geometry(rng, 2, min_gap=0.05)
            tau = TAUS[done % 3]
            beta = BETAS[done % 2]
            noise = NOISES[(done // 3) % 2]
            geom = ds.NetworkGeometry.pairs(tx, rx)
            params = ds.PropagationParams(
                ds.PowerLawPathLoss(1.0, exponent=beta), threshold=tau, noise=noise
            )
            r = float(np.linalg.norm(tx[0] - rx[0]))
            s = float(np.linalg.norm(tx[1] - rx[0]))
            h = 1.0 / (1.0 + tau * s ** (-beta) / r ** (-beta))
            w = math.exp(-tau * noise / r ** (-beta))
            k11, k22, k12 = K[0, 0], K[1, 1], K[0, 1]
            expected = k11 * (1.0 - (k22 - k12 ** 2 / k11) * (1.0 - h)) * w
            got = ds.pair_coverage(geom, ds.MarginalKernel.from_matrix(K), 0, params)
            assert got == pytest.approx(expected, abs=1e-12)
            done += 1
        ok = True
    finally:
        criterion(4, ok)


def test_criterion_05_diagonal_kernel_is_independent_thinning(criterion):
    ok = False
    try:
        rng = np.random.default_rng(505)
        for idx in range(50):
            n = 2 + idx % 7
            p = rng.uniform(0.0, 1.0, size=n)
            tx, rx = random_pairs_geometry(rng, n, min_gap=0.05)
            tau = TAUS[idx % 3]
            beta = BETAS[idx % 2]
            noise = NOISES[(idx // 3) % 2]
            geom = ds.NetworkGeometry.pairs(tx, rx)
            K = ds.build_K(ds.AlohaSpec(probabilities=p))
            params = ds.PropagationParams(
                ds.PowerLawPathLoss(1.0, exponent=beta), threshold=tau, noise=noise
            )
            for i in range(n):
                r = float(np.linalg.norm(tx[i] - rx[i]))
                acc = p[i] * math.exp(-tau * noise / r ** (-beta))
                for j in range(n):
                    if j == i:
                        continue
                    s = float(np.linalg.norm(tx[j] - rx[i]))
                    h = 1.0 / (1.0 + tau * s ** (-beta) / r ** (-beta))
                    acc *= 1.0 - p[j] * (1.0 - h)
                got = ds.pair_coverage(geom, K, i, params)
                assert got == pytest.approx(acc, abs=1e-12)
        ok = True
    finally:
        criterion(5, ok)


def test_criterion_06_laplace_functional_matches_pmf_sum(criterion):
    ok = False
    try:
        rng = np.random.default_rng(606)
        for idx in range(100):
            n = 2 + idx % 7
            K = ds.MarginalKernel.from_matrix(random_marginal_k(rng, n))
            f = rng.uniform(0.0, 3.0, size=n)
            if idx % 10 == 0:
                f[0] = 0.0
            expected = sum(
                p * math.exp(-float(f[list(subset)].sum())) if subset else p
                for subset, p in ds.exact_pmf(K).items()
            )
            got = ds.laplace_functional(K, f)
            assert got == pytest.approx(expected, abs=1e-10)
        ok = True
    finally:
        criterion(6, ok)


def test_criterion_07_sampler_subset_distribution(criterion):
    ok = False
    try:
        t0 = time.perf_counter()
        n = 5
        draws = 1_000_000
        ens = ds.LEnsemble.from_matrix(random_psd_l(np.random.default_rng(1), n, scale=2.0))
        K = ds.l_to_k(ens)
        probs = np.zeros(32)
        for subset, p in ds.exact_pmf(ens).items():
            probs[sum(1 << z for z in subset)] = p
        assert probs.min() * draws >= 5.0  # chi-square validity

        weights = 1 << np.arange(n)
        rng = np.random.default_rng(7001)
        counts = np.zeros(32, dtype=np.int64)
        size_sum = 0
        size_sqsum = 0
        for _ in range(draws):
            mask = ds.sample_mask(ens, rng)
            counts[int(mask @ weights)] += 1
            k = int(mask.sum())
            size_sum += k
            size_sqsum += k * k

        expected = probs * draws
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < stats.chi2.ppf(0.999, 31)

        mean = size_sum / draws
        var = size_sqsum / draws - mean ** 2
        se = math.sqrt(var / draws)
        assert abs(mean - float(np.trace(K.matrix))) <= 4.0 * se

        assert time.perf_counter() - t0 < 60.0
        ok = True
    finally:
        criterion(7, ok)


def test_criterion_08_monte_carlo_confirms_closed_forms(criterion):
    ok = False
    try:
        t0 = time.perf_counter()
        rng = np.random.default_rng(8000)
        reps = 100_000
        bad_instances = 0

        for idx in range(30):
            n = 2 + idx % 9
            pairs_mode = idx < 15
            if pairs_mode:
                tx, rx = random_pairs_geometry(rng, n, min_gap=0.05)
                geom = ds.NetworkGeometry.pairs(tx, rx)
            else:
                geom = ds.NetworkGeometry.txrx(rng.uniform(0.0, 1.0, size=(n, 2)))
            ens = ds.LEnsemble.from_matrix(random_psd_l(rng, n, scale=SCALES[idx % 4]))
            K = ds.l_to_k(ens)
            params = ds.PropagationParams(
                ds.PowerLawPathLoss(1.0, exponent=BETAS[idx % 2]),
                threshold=TAUS[idx % 3],
                noise=NOISES[(idx // 3) % 2],
            )
            plan = ds.SimulationPlan(replications=reps, seed=8100 + idx)

            instance_ok = True
            if pairs_mode:
                closed = {i: ds.pair_coverage(geom, K, i, params) for i in range(n)}
                ests = ds.simulate_pair_coverage(geom, ens, params, plan)
                pairs_est = dict(enumerate(ests))
            else:
                closed = {
                    (i, j): ds.txrx_coverage(geom, K, i, j, params)
                    for i in range(n)
                    for j in range(n)
                    if i != j
                }
                pairs_est = ds.simulate_txrx(geom, ens, params, plan)
            for link, est in pairs_est.items():
                c = closed[link]
                if c < 1e-4:
                    instance_ok = instance_ok and est.mean <= 2e-3
                else:
                    instance_ok = instance_ok and (
                        abs(est.mean - c) <= 4.0 * est.std_error + 1e-12
                    )
            bad_instances += 0 if instance_ok else 1

            # local delay on the strongest sufficiently covered links
            eligible = sorted(
                (link for link, c in closed.items() if c >= 0.05),
                key=lambda link: closed[link],
                reverse=True,
            )[:2]
            if eligible:
                dplan = ds.SimulationPlan(replications=2000, seed=8500 + idx)
                delays = ds.simulate_local_delay(
                    geom, ens, params, dplan, links=eligible
                )
                for link in eligible:
                    d = delays[link]
                    assert d.censored == 0
                    assert abs(d.mean - 1.0 / closed[link]) <= 4.0 * d.std_error + 1e-9

        assert bad_instances <= 1
        assert time.perf_counter() - t0 < 300.0
        ok = True
    finally:
        criterion(8, ok)


def test_criterion_09_degenerate_cases(criterion):
    ok = False
    try:
        rng = np.random.default_rng(909)

        # zero threshold: coverage collapses to the scheduling probability
        n = 5
        tx, rx = random_pairs_geometry(rng, n, min_gap=0.05)
        geom = ds.NetworkGeometry.pairs(tx, rx)
        K = ds.l_to_k(ds.LEnsemble.from_matrix(random_psd_l(rng, n, scale=2.0)))
        for noise in (0.0, 0.7):
            params = ds.PropagationParams(
                ds.PowerLawPathLoss(1.0, exponent=2.0), threshold=0.0, noise=noise
            )
            for i in range(n):
                assert ds.conditional_pair_coverage(geom, K, i, params) == 1.0
                assert ds.pair_coverage(geom, K, i, params) == float(K.matrix[i, i])

        # all-zero kernel: nothing transmits, delay diverges
        zero = ds.MarginalKernel.from_matrix(np.zeros((n, n)))
        params = ds.PropagationParams(
            ds.PowerLawPathLoss(1.0, exponent=2.0), threshold=1.0
        )
        report = ds.full_report(geom, zero, params)
        for link in report.links:
            assert link.coverage == 0.0
            assert math.isinf(link.delay_mean)
            assert "never_scheduled" in link.flags

        # interferer sitting on the receiver under a singular loss
        tx2 = np.array([[0.0, 0.0], [1.0, 0.5]])
        rx2 = np.array([[1.0, 0.5], [3.0, 3.0]])
        geom2 = ds.NetworkGeometry.pairs(tx2, rx2)
        params2 = ds.PropagationParams(
            ds.PowerLawPathLoss(1.0, exponent=2.0), threshold=1.0
        )
        assert (
            ds.sinr(geom2, params2, transmitter=0, interferers=[1], fading=np.ones((2, 2)))
            == 0.0
        )
        assert ds.interferer_factor(0.0, float(np.linalg.norm(tx2[0] - rx2[0])), params2) == 0.0
        always = ds.MarginalKernel.from_matrix(np.diag([0.6, 1.0]))
        assert ds.pair_coverage(geom2, always, 0, params2) == 0.0
        # and the simulator agrees with the closed form that prices it in
        ens = ds.LEnsemble.from_matrix(np.diag([0.7 / 0.3, 0.8 / 0.2]))
        K2 = ds.l_to_k(ens)
        closed = ds.pair_coverage(geom2, K2, 0, params2)
        assert closed == pytest.approx(0.7 * 0.2, abs=1e-12)
        est = ds.simulate_pair_coverage(
            geom2, ens, params2, ds.SimulationPlan(replications=20000, seed=99)
        )[0]
        assert abs(est.mean - closed) <= 4.0 * est.std_error
        ok = True
    finally:
        criterion(9, ok)


def test_criterion_10_cli_determinism_and_worker_invariance(criterion, tmp_path):
    ok = False
    try:
        doc = {
            "mode": "pairs",
            "transmitters": [[0.0, 0.0], [1.0, 0.0], [0.4, 0.9]],
            "receivers": [[0.0, 0.5], [1.0, 0.5], [0.6, 1.2]],
            "kernel": {
                "type": "explicit_L",
                "matrix": [[2.0, 0.8, 0.1], [0.8, 1.5, 0.4], [0.1, 0.4, 1.0]],
            },
            "pathloss": {"type": "power_law", "kappa": 1.0, "beta": 2.0},
            "threshold": 1.0,
            "noise": 0.1,
            "simulate": {"reps": 3000, "seed": 99, "targets": ["coverage", "delay"]},
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = {name: tmp_path / name for name in ("a", "b", "c", "d", "w")}

        assert cli.main(["coverage", str(cfg), "--output", str(out["a"])]) == 0
        assert cli.main(["coverage", str(cfg), "--output", str(out["b"])]) == 0
        assert out["a"].read_bytes() == out["b"].read_bytes()

        assert cli.main(["simulate", str(cfg), "--output", str(out["c"])]) == 0
        assert cli.main(["simulate", str(cfg), "--output", str(out["d"])]) == 0
        assert out["c"].read_bytes() == out["d"].read_bytes()

        assert cli.main(
            ["simulate", str(cfg), "--workers", "3", "--output", str(out["w"])]
        ) == 0
        assert (
            json.loads(out["c"].read_text())["results"]
            == json.loads(out["w"].read_text())["results"]
        )

        # same invariance at the library level
        ens = ds.build_L(ds.ExplicitLSpec(np.array(doc["kernel"]["matrix"])))
        geom = ds.NetworkGeometry.pairs(doc["transmitters"], doc["receivers"])
        params = ds.PropagationParams(
            ds.PowerLawPathLoss(1.0, exponent=2.0), threshold=1.0, noise=0.1
        )
        plan = ds.SimulationPlan(replications=2000, seed=5)
        one = ds.simulate_pair_coverage(geom, ens, params, plan, workers=1)
        four = ds.simulate_pair_coverage(geom, ens, params, plan, workers=4)
        assert one == four
        ok = True
    finally:
        criterion(10, ok)
